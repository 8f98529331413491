"""Tests for the additive character psi, the averaging indicator, partial
Gauss sums, and the factored character-sum count against brute force.
"""

import cmath
import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expzeros import charsum, fields
from expzeros.arith import factorize, multiplicative_order
from expzeros.charsum import (
    ExpEquation,
    brute_count,
    count_via_charsum,
    delta_indicator,
    gauss_partial_sum,
    make_box,
    make_equation,
    psi,
    sorted_terms,
)
from expzeros.errors import CapExceeded, FieldMismatch, Overflow, ZeroElement
from expzeros.fields import enumerate_units, make_field
from expzeros.instances import find_generator, random_equation

MIXED_FIELDS = [(7, 1), (3, 2), (11, 1), (13, 1), (2, 4), (5, 2), (3, 3),
                (7, 2), (2, 6), (3, 4), (101, 1), (11, 2), (5, 3), (2, 7),
                (13, 2), (2, 8)]


# ---------------------------------------------------------------------------
# equation and box construction


def test_make_equation_f7_example():
    f7 = make_field(7)
    eq = make_equation(f7, [(1, 3), (1, 2)], 3)
    assert eq.n == 2 and eq.q == 7
    assert eq.orders == (6, 3)
    assert eq.b.packed() == 3


def test_make_equation_rejects_bad_input():
    f7 = make_field(7)
    with pytest.raises(ZeroElement):
        make_equation(f7, [(0, 3)], 1)
    with pytest.raises(ZeroElement):
        make_equation(f7, [(1, 0)], 1)
    with pytest.raises(ValueError):
        make_equation(f7, [], 1)
    assert make_equation(f7, [(1, 3)] * 16, 1).n == 16   # TERM_CAP
    with pytest.raises(CapExceeded):
        make_equation(f7, [(1, 3)] * 17, 1)
    with pytest.raises(FieldMismatch):
        make_equation(f7, [(1, 3)], make_field(11).element(3))


def equation_from_dict(doc: dict) -> ExpEquation:
    """The ExpEquation an `eq` document describes, with its orders
    recomputed and checked."""
    spec = make_field(doc["p"], doc["nu"])
    eq = make_equation(spec, doc["terms"], doc["b"])
    if "orders" in doc and tuple(doc["orders"]) != eq.orders:
        raise ValueError("stored orders disagree with recomputation")
    return eq


def test_equation_dict_round_trip():
    eq = make_equation(make_field(3, 2), [(4, 3), (1, 2)], 5)
    doc = eq.to_dict()
    back = equation_from_dict(doc)
    assert back.terms == eq.terms and back.b == eq.b
    assert back.orders == eq.orders
    doc["orders"] = [1] * eq.n
    with pytest.raises(ValueError):
        equation_from_dict(doc)


def test_make_box_sorting_and_truncation():
    f7 = make_field(7)
    eq = make_equation(f7, [(1, 3), (1, 2)], 3)   # orders (6, 3)
    box = make_box(eq)
    assert box.perm == (0, 1)
    assert box.orders_sorted == (6, 3)
    assert box.r == 3 and box.card == 18
    assert box.limits() == (6, 3)
    # swapped terms must sort back to descending order
    eq2 = make_equation(f7, [(1, 2), (1, 3)], 3)  # orders (3, 6)
    box2 = make_box(eq2)
    assert box2.perm == (1, 0)
    assert box2.orders_sorted == (6, 3)
    # truncation
    assert make_box(eq, r=1).card == 6
    with pytest.raises(ValueError):
        make_box(eq, r=0)
    with pytest.raises(ValueError):
        make_box(eq, r=4)
    # equal orders tie-break by original index
    eq3 = make_equation(f7, [(1, 6), (2, 6)], 0)
    assert make_box(eq3).perm == (0, 1)
    assert sorted_terms(eq3, make_box(eq3)) == eq3.terms


def test_make_box_overflow():
    # q near 2^31: three full-order axes exceed the 2^63-1 cardinality cap
    spec = make_field(2147483647)
    g = spec.element(7)
    assert multiplicative_order(g, factorize(spec.cardinality - 1)) \
        == spec.cardinality - 1
    eq = make_equation(spec, [(1, g), (1, g), (1, g)], 1)
    with pytest.raises(Overflow):
        make_box(eq)


# ---------------------------------------------------------------------------
# the character psi and the averaging indicator


def test_psi_frozen_values():
    f7 = make_field(7)
    assert psi(f7.zero()) == 1
    got = psi(f7.element(1))
    want = complex(0.6234898018587336, 0.7818314824680298)
    assert abs(got - want) < 1e-12
    f4 = make_field(2, 2)
    assert abs(psi(f4.one()) - 1) < 1e-12          # Tr(1) = 0 in F_4
    assert abs(psi(f4.element([0, 1])) + 1) < 1e-12  # Tr(X) = 1, p = 2


def test_psi_multiplicative_in_trace_argument():
    rng = random.Random(17)
    for p, nu in [(7, 1), (7, 2), (2, 6), (101, 1), (3, 4)]:
        spec = make_field(p, nu)
        q = spec.cardinality
        for _ in range(200):
            u = spec.from_packed(rng.randrange(q))
            v = spec.from_packed(rng.randrange(q))
            assert abs(psi(u + v) - psi(u) * psi(v)) < 1e-12
            assert abs(abs(psi(u)) - 1) < 1e-12


def test_psi_huge_characteristic_falls_back_to_cmath():
    spec = make_field(2147483647)
    u = spec.element(12345)
    want = cmath.exp(2j * cmath.pi * 12345 / 2147483647)
    assert abs(psi(u) - want) < 1e-12


def test_delta_indicator_exhaustive():
    for p, nu in [(7, 1), (7, 2), (2, 6), (3, 4), (113, 1)]:
        spec = make_field(p, nu)
        for u in spec.elements():
            want = 1.0 if u.is_zero() else 0.0
            assert abs(delta_indicator(u) - want) <= 1e-9


def test_delta_indicator_cap(monkeypatch):
    monkeypatch.setattr(fields, "DEFAULT_ENUM_CAP", 6)
    with pytest.raises(CapExceeded, match="cardinality 7 exceeds cap 6"):
        delta_indicator(make_field(7).element(1))


# ---------------------------------------------------------------------------
# partial Gauss sums


def test_gauss_partial_sum_limit_one_is_psi():
    rng = random.Random(2)
    spec = make_field(7, 2)
    for _ in range(40):
        a = spec.from_packed(rng.randrange(1, 49))
        mu = spec.from_packed(rng.randrange(1, 49))
        g = spec.from_packed(rng.randrange(1, 49))
        assert abs(gauss_partial_sum(a, mu, g, 1) - psi(a * mu)) < 1e-12


def test_gauss_partial_sum_matches_direct_loop():
    rng = random.Random(9)
    for p, nu in [(11, 1), (3, 2), (2, 4), (7, 2)]:
        spec = make_field(p, nu)
        q = spec.cardinality
        fact = factorize(q - 1)
        for _ in range(25):
            a = spec.from_packed(rng.randrange(1, q))
            mu = spec.from_packed(rng.randrange(1, q))
            g = spec.from_packed(rng.randrange(1, q))
            s = multiplicative_order(g, fact)
            limit = rng.randrange(1, s + 1)
            direct = sum(psi(a * mu * g ** x) for x in range(limit))
            assert abs(gauss_partial_sum(a, mu, g, limit) - direct) < 1e-9


def test_gauss_full_order_weil_bound_exhaustive():
    # |sum over the whole cyclic group| <= sqrt(q), every (a, g) pair
    for p, nu in [(7, 1), (3, 2), (11, 1), (2, 4), (13, 1), (5, 2)]:
        spec = make_field(p, nu)
        q = spec.cardinality
        fact = factorize(q - 1)
        one = spec.one()
        for g in enumerate_units(spec):
            s = multiplicative_order(g, fact)
            for a in enumerate_units(spec):
                total = gauss_partial_sum(a, one, g, s)
                assert abs(total) <= math.sqrt(q) + 1e-9


def test_gauss_partial_sum_errors_and_huge_p():
    spec = make_field(7)
    one = spec.one()
    with pytest.raises(ValueError):
        gauss_partial_sum(one, one, one, 0)
    with pytest.raises(ZeroElement):
        gauss_partial_sum(spec.zero(), one, one, 1)
    with pytest.raises(ZeroElement):
        gauss_partial_sum(one, spec.zero(), one, 1)
    # characteristic beyond the root-table cap takes the cmath path
    big = make_field(2147483647)
    g = big.element(big.cardinality - 1)   # order 2
    got = gauss_partial_sum(big.one(), big.one(), g, 2)
    want = (cmath.exp(2j * cmath.pi * 1 / 2147483647)
            + cmath.exp(2j * cmath.pi * 2147483646 / 2147483647))
    assert abs(got - want) < 1e-9


# ---------------------------------------------------------------------------
# counting: character sum vs exhaustive search


def eval_equation(eq, x):
    acc = eq.spec.zero()
    for (a, g), xi in zip(eq.terms, x):
        acc = acc + a * g ** xi
    return acc


def test_count_f7_example():
    f7 = make_field(7)
    eq = make_equation(f7, [(1, 3), (1, 2)], 3)
    box = make_box(eq)
    n, sols = brute_count(eq, box)
    assert n == 3
    assert sols == [(0, 1), (2, 0), (3, 2)]
    cs = count_via_charsum(eq, box)
    assert abs(cs - 3) <= 1e-6 * box.card
    for x in sols:
        assert eval_equation(eq, x) == eq.b


def test_count_single_term_dlog_cases():
    f7 = make_field(7)
    # 3 generates F_7^x: 3^x = 2 has the single solution x = 2
    eq = make_equation(f7, [(1, 3)], 2)
    box = make_box(eq)
    n, sols = brute_count(eq, box)
    assert (n, sols) == (1, [(2,)])
    assert round(count_via_charsum(eq, box)) == 1
    # 2 has order 3: <2> = {1, 2, 4}, so 2^x = 5 has no solution
    eq = make_equation(f7, [(1, 2)], 5)
    box = make_box(eq)
    assert brute_count(eq, box)[0] == 0
    assert round(count_via_charsum(eq, box)) == 0


def test_count_monotone_in_r():
    eq = make_equation(make_field(13), [(1, 2), (3, 6), (2, 4)], 5)
    box_full = make_box(eq)
    prev = 0
    for r in range(1, box_full.orders_sorted[-1] + 1):
        box = make_box(eq, r=r)
        n, _ = brute_count(eq, box)
        cs = count_via_charsum(eq, box)
        assert n >= prev
        assert abs(cs - n) <= 1e-6 * box.card
        prev = n


def test_count_random_instances_match_brute():
    rng = random.Random(20260401)
    checked = 0
    for p, nu in MIXED_FIELDS:
        spec = make_field(p, nu)
        for _ in range(5):
            n = rng.randrange(1, 5)
            eq = random_equation(spec, n, rng)
            full = make_box(eq)
            r = rng.randrange(1, full.orders_sorted[-1] + 1)
            box = make_box(eq, r=r)
            if box.card > 3 * 10 ** 4:
                continue
            want, sols = brute_count(eq, box)
            got = count_via_charsum(eq, box)
            assert round(got) == want
            assert abs(got - want) <= 1e-6 * box.card
            if sols is not None:
                assert len(sols) == want
                for x in sols:
                    assert eval_equation(eq, x) == eq.b
            checked += 1
    assert checked >= 40


def test_brute_count_solution_order_and_caps(monkeypatch):
    eq = make_equation(make_field(13), [(1, 6), (1, 2)], 4)
    box = make_box(eq)
    n, sols = brute_count(eq, box)
    # solutions come back in lexicographic order of the sorted coordinates
    inv = [0] * box.n
    for k, orig in enumerate(box.perm):
        inv[orig] = k
    sorted_coords = [tuple(x[box.perm[k]] for k in range(box.n))
                     for x in sols]
    assert sorted_coords == sorted(sorted_coords)
    # list suppressed when the box is larger than list_cap
    n2, sols2 = brute_count(eq, box, list_cap=0)
    assert n2 == n and sols2 is None

    # both counts refuse one point past the cap: the box, the field
    monkeypatch.setattr(fields, "DEFAULT_ENUM_CAP", box.card - 1)
    with pytest.raises(CapExceeded, match="box cardinality"):
        brute_count(eq, box)
    monkeypatch.setattr(fields, "DEFAULT_ENUM_CAP", eq.q - 1)
    with pytest.raises(CapExceeded, match="^cardinality 13 "):
        count_via_charsum(eq, box)


def test_charsum_independent_of_term_listing_order():
    spec = make_field(11)
    ga, gb = spec.element(2), spec.element(3)
    eq_ab = make_equation(spec, [(1, ga), (4, gb)], 7)
    eq_ba = make_equation(spec, [(4, gb), (1, ga)], 7)
    ca = count_via_charsum(eq_ab, make_box(eq_ab))
    cb = count_via_charsum(eq_ba, make_box(eq_ba))
    assert abs(ca - cb) < 1e-9
    assert brute_count(eq_ab, make_box(eq_ab))[0] == \
        brute_count(eq_ba, make_box(eq_ba))[0]


# ---------------------------------------------------------------------------
# brute_count against plain enumeration


def enumerated_solutions(eq, box):
    """Every point of the box by itertools.product, in lexicographic order
    of the sorted coordinates, evaluated with FieldElement arithmetic; the
    solutions in original term order."""
    powers = [[a * g ** x for x in range(limit)]
              for (a, g), limit in zip(sorted_terms(eq, box), box.limits())]
    sols = []
    for xs in itertools.product(*(range(limit) for limit in box.limits())):
        total = eq.spec.zero()
        for walk, x in zip(powers, xs):
            total = total + walk[x]
        if total == eq.b:
            x = [0] * box.n
            for k, orig in enumerate(box.perm):
                x[orig] = xs[k]
            sols.append(tuple(x))
    return sols


def equation_of_orders(spec, orders, rng, b):
    """Terms with the given orders (each dividing q - 1) and random a."""
    q = spec.cardinality
    gen = find_generator(spec)
    terms = [(spec.from_packed(rng.randrange(1, q)), gen ** ((q - 1) // s))
             for s in orders]
    return make_equation(spec, terms, b)


# Every split _join_split can pick, n = 1..4, over F_13 (orders divide 12):
# (orders, r, BRUTE_BLOCK, k).  A block below the trailing sub-box forces
# a later split, and k = n joins the whole box against b alone.  The
# trailing sub-boxes of 24 points, more than q = 13, repeat some sum, so
# their matches are counted with multiplicity.
SPLIT_CASES = [
    ((12,), 12, 1 << 16, 1),
    ((12, 6), 6, 1 << 16, 1),
    ((12, 6), 6, 5, 2),
    ((12, 6, 4), 4, 1 << 16, 1),
    ((12, 6, 4), 4, 23, 2),
    ((12, 6, 4), 4, 3, 3),
    ((12, 4, 3), 2, 1 << 16, 1),
    ((12, 6, 4, 3), 3, 1 << 16, 2),  # 12 + 72 = 72 + 12: the larger k
    ((12, 4, 3, 2), 2, 1 << 16, 1),
    ((12, 4, 3, 2), 2, 6, 2),
    ((12, 4, 3, 2), 2, 5, 3),
    ((12, 4, 3, 2), 2, 1, 4),
]


@pytest.mark.parametrize("orders, r, block, k", SPLIT_CASES)
def test_brute_count_every_split_matches_enumeration(orders, r, block, k):
    spec = make_field(13)
    rng = random.Random(len(orders) * 100 + block)
    eq = equation_of_orders(spec, orders, rng, 0)
    box = make_box(eq, r)
    limits = box.limits()
    for b in range(13):
        eq = make_equation(spec, eq.terms, b)
        sols = enumerated_solutions(eq, box)
        with mock.patch.object(charsum, "BRUTE_BLOCK", block):
            assert charsum._join_split(limits) == k
            assert brute_count(eq, box) == (len(sols), sols)
            assert brute_count(eq, box, list_cap=0) == (len(sols), None)


JOIN_FIELDS = [(7, 1), (13, 1), (31, 1), (101, 1), (2, 3), (2, 4), (3, 2),
               (5, 2), (3, 3), (2, 6)]


def small_box_orders(q, n, draw):
    """n divisors of q - 1 whose box stays under 2 000 points."""
    divs = [d for d in range(1, q) if (q - 1) % d == 0]
    orders = []
    for _ in range(n):
        room = 2000 // math.prod(orders)
        orders.append(draw(st.sampled_from([d for d in divs if d <= room])))
    return orders


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(JOIN_FIELDS), n=st.integers(1, 4),
       data=st.data(),
       block=st.sampled_from([1, 2, 3, 7, 64, 1 << 16]),
       list_cap=st.sampled_from([0, charsum.LIST_CAP]))
def test_brute_count_matches_enumeration(field, n, data, block, list_cap):
    # the sorted join against every box point evaluated one by one: its
    # count, its list and that list's order, past a small block too
    spec = make_field(*field)
    q = spec.cardinality
    rng = random.Random(data.draw(st.integers(0, 1 << 30)))
    orders = small_box_orders(q, n, data.draw)
    eq = equation_of_orders(spec, orders, rng, rng.randrange(q))
    box = make_box(eq, data.draw(st.integers(1, min(orders))))
    if data.draw(st.booleans()):  # plant a solution
        x = [rng.randrange(limit) for limit in box.limits()]
        terms = sorted_terms(eq, box)
        b = sum((a * g ** xi for (a, g), xi in zip(terms, x)), spec.zero())
        eq = make_equation(spec, eq.terms, b)
    sols = enumerated_solutions(eq, box)
    with mock.patch.object(charsum, "BRUTE_BLOCK", block):
        got = brute_count(eq, box, list_cap=list_cap)
    assert got == (len(sols), sols if box.card <= list_cap else None)
