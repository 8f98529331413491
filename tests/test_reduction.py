"""Tests for order grouping: same-order relations g2 = g1^l, the group
structure of reduced equations, and the mu <= d(q-1) bound.
"""

import math
import random

import pytest

from expzeros import arith, reduction
from expzeros.arith import BsgsTable, divisor_count, divisors, factorize
from expzeros.charsum import make_equation
from expzeros.errors import OrderMismatch
from expzeros.fields import make_field
from expzeros.instances import (
    element_of_order,
    find_generator,
    random_equation,
)
from expzeros.reduction import (
    mu_bound_report,
    reduce_equation,
    relate_same_order,
)


# ---------------------------------------------------------------------------
# pairwise relations


def test_relate_frozen_examples():
    f7 = make_field(7)
    # 3 and 5 both generate F_7^x and 3^5 = 5
    assert relate_same_order(f7.element(3), f7.element(5), 6) == 5
    # 2 and 4 both have order 3 and 2^2 = 4
    assert relate_same_order(f7.element(2), f7.element(4), 3) == 2
    # order one: both elements are 1 and the relation is l = 1
    assert relate_same_order(f7.one(), f7.one(), 1) == 1


def test_relate_rejects_wrong_orders():
    f7 = make_field(7)
    with pytest.raises(OrderMismatch):
        relate_same_order(f7.element(3), f7.element(2), 6)  # 2 has order 3
    with pytest.raises(OrderMismatch):
        relate_same_order(f7.element(2), f7.element(4), 6)  # both order 3
    with pytest.raises(OrderMismatch):
        relate_same_order(f7.element(3), f7.element(5), 3)
    # zero has no order: a mismatch, in either place and in any field
    for spec in (f7, make_field(3, 4)):
        gen, s = find_generator(spec), spec.cardinality - 1
        with pytest.raises(OrderMismatch):
            relate_same_order(spec.zero(), gen, s)
        with pytest.raises(OrderMismatch):
            relate_same_order(gen, spec.zero(), s)


def test_relate_round_trip_exhaustive():
    # g2 = g1^k with gcd(k, s) = 1 must come back as exactly k
    for p, nu in [(101, 1), (2, 6), (257, 1)]:
        spec = make_field(p, nu)
        gen = find_generator(spec)
        q = spec.cardinality
        for s in divisors(q - 1):
            g1 = element_of_order(spec, s, gen)
            ks = [k for k in range(1, s + 1) if math.gcd(k, s) == 1]
            if len(ks) > 12:
                rng = random.Random(s)
                ks = rng.sample(ks, 12)
            for k in ks:
                assert relate_same_order(g1, g1 ** k, s) == k


@pytest.mark.parametrize("p, nu", [(3, 4), (2, 6), (5, 2), (2, 8), (97, 2),
                                   (3, 9), (101, 1)])
def test_relate_takes_the_log_table_where_the_field_has_one(monkeypatch, p,
                                                            nu):
    # the relation is discrete_logs': a modular division on the log table
    # up to LOG_TABLE_MAX_Q, a baby-step table elsewhere, the same l
    spec = make_field(p, nu)
    gen = find_generator(spec)
    q = spec.cardinality
    rng = random.Random(q)
    pairs = []
    for _ in range(20):
        s = rng.choice(divisors(q - 1))
        g1 = element_of_order(spec, s, gen)
        k = rng.choice([k for k in range(1, s + 1) if math.gcd(k, s) == 1])
        pairs.append((g1, g1 ** k, s))
    # the lookup gives 0 only at s = 1, where the relation is 1
    expected = [BsgsTable(g1, s).lookup(g2) or 1 for g1, g2, s in pairs]
    if arith.reads_log_table(spec):
        def no_table(*args):
            raise AssertionError("a baby-step table on a log-table field")

        monkeypatch.setattr(arith, "BsgsTable", no_table)
    assert [relate_same_order(*pair) for pair in pairs] == expected


def test_relate_substitution_identity():
    # a g2^x == a (g1^l)^x for every exponent x, so grouped terms can be
    # rewritten on the representative base
    rng = random.Random(3)
    spec = make_field(101)
    gen = find_generator(spec)
    for s in (4, 20, 25, 100):
        g1 = element_of_order(spec, s, gen)
        g2 = element_of_order(spec, s, gen, rng)
        l = relate_same_order(g1, g2, s)
        a = spec.element(rng.randrange(1, 101))
        for _ in range(10):
            x = rng.randrange(s)
            assert a * g2 ** x == a * g1 ** (l * x % s)


# ---------------------------------------------------------------------------
# equation reduction


def test_reduce_f7_example():
    f7 = make_field(7)
    eq = make_equation(f7, [(1, 3), (1, 5), (1, 2)], 0)  # orders 6, 6, 3
    red = reduce_equation(eq)
    assert red.mu == 2
    assert red.d_bound == divisor_count(6) == 4
    g6, g3 = red.groups
    assert (g6.order, g6.rep_index, g6.members) == (6, 0, (0, 1))
    assert g6.relations == (1, 5)          # 3^5 = 5
    assert (g3.order, g3.rep_index, g3.members) == (3, 2, (2,))
    assert g3.relations == (1,)
    doc = red.to_dict()
    assert doc["schema"] == 1 and doc["kind"] == "reduced_equation"
    assert doc["mu"] == 2
    assert doc["groups"][0]["relations"] == [1, 5]


def test_reduce_verifies_relations_everywhere():
    rng = random.Random(11)
    for p, nu in [(101, 1), (2, 6), (13, 1), (5, 2)]:
        spec = make_field(p, nu)
        for _ in range(10):
            eq = random_equation(spec, rng.randrange(1, 6), rng)
            red = reduce_equation(eq)
            assert red.mu == len(set(eq.orders))
            assert red.mu <= red.d_bound
            seen = set()
            for grp in red.groups:
                assert grp.rep_index == grp.members[0]
                g_rep = eq.terms[grp.rep_index][1]
                for i, l in zip(grp.members, grp.relations):
                    assert eq.orders[i] == grp.order
                    assert math.gcd(l, grp.order) == 1
                    assert g_rep ** l == eq.terms[i][1]
                    seen.add(i)
            assert seen == set(range(eq.n))
            orders_desc = [grp.order for grp in red.groups]
            assert orders_desc == sorted(orders_desc, reverse=True)


def test_reduce_single_group():
    spec = make_field(101)
    eq = make_equation(spec, [(1, 2), (5, 2), (7, 2)], 3)
    red = reduce_equation(eq)
    assert red.mu == 1
    assert red.groups[0].members == (0, 1, 2)
    assert red.groups[0].relations == (1, 1, 1)   # identical bases


def test_reduce_sets_up_one_table_per_group(monkeypatch):
    # F_40961 (q - 1 = 40960, past LOG_TABLE_MAX_Q): four terms of order
    # 40960 and three of order 20480 take one baby-step table each, the
    # single term of order 5 none, and q - 1 is factored once (for
    # d(q - 1)); F_{3^4} reads its log table and builds none
    builds, factored = [], []
    init, factor = arith.BsgsTable.__init__, arith.factorize

    def counted_init(self, g, s):
        builds.append(s)
        init(self, g, s)

    def counted_factorize(m):
        factored.append(m)
        return factor(m)

    rng = random.Random(5)
    cases = []
    for (p, nu), orders in [((40961, 1), [40960, 20480, 40960, 5, 20480,
                                          40960, 20480, 40960]),
                            ((3, 4), [80, 16, 80, 80, 16])]:
        spec = make_field(p, nu)
        gen = find_generator(spec)
        terms = [(rng.randrange(1, spec.cardinality),
                  element_of_order(spec, s, gen, rng)) for s in orders]
        cases.append(make_equation(spec, terms, 0))
    monkeypatch.setattr(arith.BsgsTable, "__init__", counted_init)
    monkeypatch.setattr(arith, "factorize", counted_factorize)
    monkeypatch.setattr(reduction, "factorize", counted_factorize)
    for eq, tables in zip(cases, [[40960, 20480], []]):
        builds.clear()
        factored.clear()
        red = reduce_equation(eq)
        assert builds == tables
        assert factored == [eq.q - 1]
        for grp in red.groups:
            g_rep = eq.terms[grp.rep_index][1]
            for i, l in zip(grp.members[1:], grp.relations[1:]):
                assert l == relate_same_order(g_rep, eq.terms[i][1],
                                              grp.order)


# ---------------------------------------------------------------------------
# the mu bound


def test_mu_bound_reports():
    rep = mu_bound_report(make_field(7), samples=50, n=4, seed=1)
    assert rep.d_bound == 4
    assert rep.max_mu <= 4
    assert len(rep.mu_values) == 50
    assert all(1 <= mu <= 4 for mu in rep.mu_values)
    doc = rep.to_dict()
    assert doc["schema"] == 1 and doc["kind"] == "mu_bound_report"
    assert doc["q"] == 7 and doc["samples"] == 50
    # trivial field: every unit has order 1
    rep2 = mu_bound_report(make_field(2), samples=10, n=3, seed=0)
    assert rep2.max_mu == 1 and rep2.d_bound == 1


def test_mu_bound_needs_a_sample():
    for samples in (0, -1):
        with pytest.raises(ValueError, match=r"need samples >= 1"):
            mu_bound_report(make_field(7), samples=samples)


def test_mu_bound_matches_direct_order_sets():
    spec = make_field(257)
    rep = mu_bound_report(spec, samples=40, n=5, seed=9)
    rng = random.Random(9)
    for want_mu in rep.mu_values:
        eq = random_equation(spec, 5, rng)
        assert len(set(eq.orders)) == want_mu
    assert rep.d_bound == divisor_count(256) == 9
