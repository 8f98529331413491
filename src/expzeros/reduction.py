"""Reduction of an equation by multiplicative order.

Units of the same order s generate the same cyclic subgroup, so for any
two of them g_2 = g_1^l with gcd(l, s) = 1; terms therefore partition
into groups indexed by the distinct orders among the g_i, and the number
of groups mu is at most d(q-1) (orders divide q-1, one group per
divisor at most).  The grouping keeps every variable: it exhibits the
relations, it does not eliminate exponents.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .arith import discrete_logs, divisor_count, factorize, multiplicative_order
from .charsum import ExpEquation
from .errors import InvariantViolated, OrderMismatch
from .fields import FieldElement, FieldSpec
from .instances import random_equation


def _checked_relation(g1: FieldElement, g2: FieldElement, s: int,
                      l: int | None) -> int:
    """The discrete log l of g2 to base g1, both of order s, once it is
    checked to be a unit mod s taking g1 to g2 (0, only at s = 1, read
    as 1)."""
    if l is None:
        raise InvariantViolated(
            f"no l with g1^l = g2, though both have order {s}")
    if l == 0:
        l = 1  # only when s = 1, where g1 = g2 = one and any l works
    if math.gcd(l, s) != 1 or g1 ** l != g2:
        raise InvariantViolated(
            f"l = {l} is not a unit mod {s} taking g1 to g2")
    return l


def relate_same_order(g1: FieldElement, g2: FieldElement, s: int) -> int:
    """l with g1^l = g2, gcd(l, s) = 1, for g1, g2 both of order s."""
    fact = factorize(g1.spec.cardinality - 1)
    for g in (g1, g2):
        # zero is a mismatch here, not multiplicative_order's ZeroElement
        if g.is_zero() or multiplicative_order(g, fact) != s:
            raise OrderMismatch(f"{g!r} does not have order {s}")
    return _checked_relation(g1, g2, s, discrete_logs(g1, s)(g2))


@dataclass(frozen=True)
class OrderGroup:
    order: int
    rep_index: int  # lowest original index in the group
    members: tuple[int, ...]  # original term indices, ascending
    relations: tuple[int, ...]  # per member: l with g_rep^l = g_member

    def to_dict(self) -> dict:
        return {"order": self.order, "rep_index": self.rep_index,
                "members": list(self.members),
                "relations": list(self.relations)}


@dataclass(frozen=True)
class ReducedEquation:
    eq: ExpEquation
    groups: tuple[OrderGroup, ...]  # descending order
    mu: int
    d_bound: int  # d(q-1)

    def to_dict(self) -> dict:
        return {"schema": 1, "kind": "reduced_equation",
                "eq": self.eq.to_dict(),
                "groups": [g.to_dict() for g in self.groups],
                "mu": self.mu, "d_bound": self.d_bound}


def reduce_equation(eq: ExpEquation) -> ReducedEquation:
    """Group terms by order and verify the base-power relations.

    The orders are eq.orders, verified when the equation was made, and
    each group of two or more terms sets up one discrete-log table to
    its representative's base for all its members.
    """
    by_order: dict[int, list[int]] = {}
    for i, s in enumerate(eq.orders):
        by_order.setdefault(s, []).append(i)
    groups = []
    for s in sorted(by_order, reverse=True):
        members = tuple(by_order[s])
        rep = members[0]
        g_rep = eq.terms[rep][1]
        relations = [1]
        if len(members) > 1:
            dlog = discrete_logs(g_rep, s)
            for i in members[1:]:
                g = eq.terms[i][1]
                relations.append(_checked_relation(g_rep, g, s, dlog(g)))
        groups.append(OrderGroup(s, rep, members, tuple(relations)))
    mu = len(groups)
    d_bound = divisor_count(eq.q - 1)
    if mu > d_bound:
        raise InvariantViolated(
            f"{mu} distinct orders but q-1 has only {d_bound} divisors")
    return ReducedEquation(eq, tuple(groups), mu, d_bound)


@dataclass(frozen=True)
class MuBoundReport:
    q: int
    d_bound: int
    mu_values: tuple[int, ...]  # one per sampled equation
    max_mu: int
    n: int
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {"schema": 1, "kind": "mu_bound_report", "q": self.q,
                "d_bound": self.d_bound, "max_mu": self.max_mu,
                "mu_values": list(self.mu_values), "n": self.n,
                "samples": self.samples, "seed": self.seed}


def mu_bound_report(spec: FieldSpec, samples: int = 100, n: int = 4,
                    seed: int = 0) -> MuBoundReport:
    """Empirical mu over random equations versus the d(q-1) bound."""
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    q = spec.cardinality
    rng = random.Random(seed)
    mus = []
    for _ in range(samples):
        eq = random_equation(spec, n, rng)
        mus.append(len(set(eq.orders)))
    d_bound = divisor_count(q - 1)
    max_mu = max(mus)
    if max_mu > d_bound:
        raise InvariantViolated(
            f"{max_mu} distinct orders but q-1 has only {d_bound} divisors")
    return MuBoundReport(q, d_bound, tuple(mus), max_mu, n, samples, seed)
