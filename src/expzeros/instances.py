"""Seeded random equation instances.

Uniform draws match the CLI contract (a_i, g_i uniform over units, b
uniform over the field).  Order-controlled draws pick g_i of a prescribed
multiplicative order via powers of a fixed generator, which is how the
experiments steer box sizes without rejection sampling.  Where a field
reads a log table, that generator is the table's own, so the field's one
generator search is the table build's.
"""

from __future__ import annotations

import math
import random

from .arith import _first_generator, _log_table, factorize, reads_log_table
from .charsum import ExpEquation, make_equation
from .errors import InvariantViolated
from .fields import FieldElement, FieldSpec


def random_unit(spec: FieldSpec, rng: random.Random) -> FieldElement:
    return spec.from_packed(rng.randrange(1, spec.cardinality))


def random_equation(spec: FieldSpec, n: int, rng: random.Random,
                    b=None) -> ExpEquation:
    """n terms with uniform unit a_i, g_i; b uniform unless given."""
    terms = [(random_unit(spec, rng), random_unit(spec, rng))
             for _ in range(n)]
    if b is None:
        b = spec.from_packed(rng.randrange(spec.cardinality))
    return make_equation(spec, terms, b)


def find_generator(spec: FieldSpec) -> FieldElement:
    """Smallest unit (in packed order) generating F_q^x.

    Where reads_log_table holds that is the generator gamma of the
    field's log table, built here if missing: gamma = gamma^1 is
    antilog[1 mod (q-1)], and the table build's scan is the only one.
    Every other field scans.
    """
    if reads_log_table(spec):
        _log_table(spec)
        antilog = spec._zech[1]
        return spec.from_packed(antilog[1 % len(antilog)])
    return _first_generator(spec, factorize(spec.cardinality - 1))


def element_of_order(spec: FieldSpec, d: int, gen: FieldElement,
                     rng: random.Random | None = None) -> FieldElement:
    """An element of exact order d | q-1: gen^((q-1)/d * j), gcd(j, d) = 1.

    Deterministic (j = 1) without an rng, uniform over the phi(d)
    candidates with one.
    """
    q = spec.cardinality
    if d < 1 or (q - 1) % d != 0:
        raise ValueError(f"order {d} does not divide q-1 = {q - 1}")
    j = 1
    if rng is not None and d > 1:
        while True:
            j = rng.randrange(1, d)
            if math.gcd(j, d) == 1:
                break
    return gen ** ((q - 1) // d * j)


def random_equation_with_orders(spec: FieldSpec, orders, rng: random.Random,
                                gen: FieldElement | None = None,
                                b=None) -> ExpEquation:
    """Uniform unit a_i, g_i of the prescribed exact order, b uniform."""
    if gen is None:
        gen = find_generator(spec)
    terms = [(random_unit(spec, rng), element_of_order(spec, d, gen, rng))
             for d in orders]
    if b is None:
        b = spec.from_packed(rng.randrange(spec.cardinality))
    eq = make_equation(spec, terms, b)
    if sorted(eq.orders) != sorted(orders):
        raise InvariantViolated(
            f"drew orders {eq.orders}, asked for {tuple(orders)}")
    return eq
