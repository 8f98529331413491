"""Tests for the classical box search: radius selection, the three exit
statuses validated per-b against brute force, the block scan, and an
exact replay of the multiplication accounting.
"""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from expzeros.arith import pow_cost
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from expzeros import solver
from expzeros.charsum import (brute_count, box_radius, log_of, make_box,
                              make_equation, sorted_terms, spectral_counts)
from expzeros.density import corollary_min_r
from expzeros.errors import (CapExceeded, HypothesisFailed, IndexOutOfRange,
                             Overflow)
from expzeros.fields import make_field
from expzeros.instances import random_equation_with_orders
from expzeros.qmodel import model_quantum_solve
from expzeros.solver import (
    BOX_EXHAUSTED,
    FOUND,
    NO_SOLUTION_CERTIFIED,
    build_box,
    solve_classical,
    verify_solution,
)
from test_arith import counted_bsgs


def eval_equation(eq, x):
    acc = eq.spec.zero()
    for (a, g), xi in zip(eq.terms, x):
        acc = acc + a * g ** xi
    return acc


# ---------------------------------------------------------------------------
# radius selection


def test_build_box_examples():
    f7 = make_field(7)
    eq = make_equation(f7, [(1, 3), (1, 2)], 3)   # orders (6, 3)
    box, r_raw = build_box(eq)
    assert (r_raw, box.r, box.card) == (3, 3, 18)
    # base-2 logs push the raw radius past s_n = 3
    box2, r_raw2 = build_box(eq, "base2")
    assert (r_raw2, box2.r) == (4, 3)
    # tiny orders: the raw radius far exceeds s_n, so the box saturates
    eq = make_equation(f7, [(1, 6), (2, 6)], 0)   # orders (2, 2)
    box, r_raw = build_box(eq)
    assert r_raw == 24 and box.r == 2
    with pytest.raises(ValueError):
        log_of(7, "decimal")


def test_build_box_overflow():
    # q^2 s_1^-2 log q passes 2^62, where box_radius refuses: r_raw is
    # then the exact ceiling, far above s_n, so the search takes the
    # whole 4-point domain and certifies (+-1 +-1 is never 1)
    spec = make_field(2147483647)
    minus_one = spec.element(spec.cardinality - 1)   # order 2
    eq = make_equation(spec, [(1, minus_one), (1, minus_one)], 1)
    with pytest.raises(Overflow):
        box_radius(eq.q, [2, 2], "natural")
    box, r_raw = build_box(eq)
    assert type(r_raw) is int
    assert r_raw == math.ceil(Fraction(eq.q ** 2, 4)
                              * Fraction(math.log(eq.q)))
    assert (box.r, box.card) == (2, 4)
    rep = solve_classical(eq)
    assert rep.status == NO_SOLUTION_CERTIFIED and rep.r_raw == r_raw
    assert rep.queries.outer_points_visited == 2
    # the density corollary keeps refusing such radii
    with pytest.raises(Overflow):
        corollary_min_r(eq.q, [2, 2], "natural")


def test_build_box_overflow_orders_9_5_2():
    # 90 points over F_{2^61-1}, whose radius 2.6e53 used to be refused
    spec = make_field((1 << 61) - 1)
    eq0 = random_equation_with_orders(spec, [9, 5, 2], random.Random(3))
    (a1, g1), (a2, g2), (a3, g3) = eq0.terms
    values = {(a1 * g1 ** x1 + a2 * g2 ** x2 + a3 * g3 ** x3).packed()
              for x1 in range(9) for x2 in range(5) for x3 in range(2)}
    b = a1 * g1 ** 7 + a2 * g2 ** 3 + a3 * g3
    rep = solve_classical(make_equation(spec, eq0.terms, b))
    assert rep.status == FOUND and rep.box.card == 90
    assert rep.r_raw == math.ceil(Fraction(spec.cardinality ** 3, 45 ** 2)
                                  * Fraction(math.log(spec.cardinality)))
    assert verify_solution(make_equation(spec, eq0.terms, b), rep.x)
    miss = next(v for v in range(spec.cardinality) if v not in values)
    rep = solve_classical(make_equation(spec, eq0.terms, miss))
    assert rep.status == NO_SOLUTION_CERTIFIED
    assert rep.queries.outer_points_visited == 10


RADIUS_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (2, 2),
                 (2, 3), (3, 2), (5, 2), (7, 2)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RADIUS_FIELDS), st.data(),
       st.sampled_from(["natural", "base2"]))
def test_radius_roundings_agree_across_paths(field, data, log_base):
    # one radius v, three roundings: corollary floor(v) + 1, solver
    # ceil(v), thm3 floor(v)
    p, nu = field
    q = p ** nu
    terms = data.draw(st.lists(st.tuples(st.integers(1, q - 1),
                                         st.integers(1, q - 1)),
                               min_size=1, max_size=3))
    eq = make_equation(make_field(p, nu), terms,
                       data.draw(st.integers(0, q - 1)))
    r0, _ = corollary_min_r(q, sorted(eq.orders, reverse=True), log_base)
    _, r_raw = build_box(eq, log_base)
    assert r0 - 1 <= r_raw <= r0
    try:
        rep = model_quantum_solve(eq, "thm3", log_base)
    except HypothesisFailed:
        return
    assert rep.r_raw == r0 - 1


# ---------------------------------------------------------------------------
# statuses, exhaustively over b


def first_expected_solution(box, sols):
    """Solver order: outer coordinates (sorted positions 2..n) ascending,
    x_1 determined per point."""
    def key(x):
        sorted_x = tuple(x[box.perm[k]] for k in range(box.n))
        return sorted_x[1:], sorted_x[0]
    return min(sols, key=key)


def check_all_b(spec, terms, expect_statuses):
    q = spec.cardinality
    seen = set()
    eq0 = make_equation(spec, terms, 0)
    full_box = make_box(eq0)
    for b in range(q):
        eq = make_equation(spec, terms, b)
        rep = solve_classical(eq)
        seen.add(rep.status)
        n_box, sols = brute_count(eq, rep.box)
        if rep.status == FOUND:
            assert verify_solution(eq, rep.x)
            assert eval_equation(eq, rep.x) == eq.b
            assert rep.x in sols
            assert rep.x == first_expected_solution(rep.box, sols)
        elif rep.status == NO_SOLUTION_CERTIFIED:
            assert rep.r_raw > rep.box.orders_sorted[-1]
            assert rep.box.r == rep.box.orders_sorted[-1]
            assert n_box == 0
            assert brute_count(eq, full_box, list_cap=0)[0] == 0
        else:
            assert rep.status == BOX_EXHAUSTED
            assert rep.r_raw <= rep.box.orders_sorted[-1]
            assert n_box == 0
        # found iff the truncated box contains a solution
        assert (rep.status == FOUND) == (n_box > 0)
    return seen


def test_statuses_full_b_sweep_certificate_regime():
    # orders (5, 2) over F_11: r_raw = 12 > 2, so the whole domain is
    # searched and every miss is a certificate; <3> + <10> misses 1, 7, 9
    spec = make_field(11)
    seen = check_all_b(spec, [(1, 3), (1, 10)],
                       {FOUND, NO_SOLUTION_CERTIFIED})
    assert seen == {FOUND, NO_SOLUTION_CERTIFIED}
    for b in (1, 7, 9):
        rep = solve_classical(make_equation(spec, [(1, 3), (1, 10)], b))
        assert rep.status == NO_SOLUTION_CERTIFIED


def test_statuses_full_b_sweep_truncated_regime():
    # orders (20, 20) over F_41 with g_1 = g_2 = 36: r = 16 < 20 strictly,
    # so a miss only exhausts the box; b = 0 is the one miss
    spec = make_field(41)
    seen = check_all_b(spec, [(2, 36), (3, 36)], None)
    assert seen == {FOUND, BOX_EXHAUSTED}
    rep = solve_classical(make_equation(spec, [(2, 36), (3, 36)], 0))
    assert rep.status == BOX_EXHAUSTED
    assert rep.box.r == 16 < rep.box.orders_sorted[-1]
    # exhaustion makes no claim beyond the box; here the full domain
    # happens to miss b = 0 too, but the solver must not certify that
    full = make_box(make_equation(spec, [(2, 36), (3, 36)], 0))
    assert brute_count(make_equation(spec, [(2, 36), (3, 36)], 0),
                       full, list_cap=0)[0] == 0


def test_statuses_three_term_certificate_regime():
    # orders (4, 3, 2) over F_13: r_raw = 40 > 2; b in {4, 6} is missed
    spec = make_field(13)
    seen = check_all_b(spec, [(1, 5), (1, 3), (1, 12)], None)
    assert seen == {FOUND, NO_SOLUTION_CERTIFIED}
    for b in (4, 6):
        rep = solve_classical(
            make_equation(spec, [(1, 5), (1, 3), (1, 12)], b))
        assert rep.status == NO_SOLUTION_CERTIFIED


STATUS_FIELDS = RADIUS_FIELDS + [(31, 1), (41, 1), (2, 4), (3, 3), (3, 4),
                                 (2, 5)]


@st.composite
def solver_instances(draw):
    """(equation, log base); b is one the box misses half the time."""
    p, nu = draw(st.sampled_from(STATUS_FIELDS))
    q = p ** nu
    spec = make_field(p, nu)
    terms = draw(st.lists(st.tuples(st.integers(1, q - 1),
                                    st.integers(1, q - 1)),
                          min_size=1, max_size=3))
    log_base = draw(st.sampled_from(["natural", "base2"]))
    eq = make_equation(spec, terms, 0)
    counts = spectral_counts(eq, build_box(eq, log_base)[0])
    misses = np.flatnonzero(counts == 0).tolist()
    b = draw(st.integers(0, q - 1)
             | (st.sampled_from(misses) if misses else st.nothing()))
    return make_equation(spec, terms, b), log_base


@settings(max_examples=150, deadline=None)
@given(solver_instances())
@example((make_equation(make_field(41), [(2, 36), (3, 36)], 0), "natural"))
@example((make_equation(make_field(3, 4), [(2, 9), (3, 9)], 0), "natural"))
def test_status_and_ledger_agree_with_spectral_counts(case):
    # each status against the spectral engine's exact counts, and the
    # solver's ledger identities; random boxes almost never miss a b
    # while r < s_n, so box_exhausted comes from the two explicit examples
    eq, log_base = case
    b = eq.b.packed()
    rep = solve_classical(eq, log_base)
    box = rep.box
    in_box = spectral_counts(eq, box)
    if rep.status == FOUND:
        assert verify_solution(eq, rep.x)
        assert in_box[b] >= 1
    elif rep.status == BOX_EXHAUSTED:
        assert in_box[b] == 0
    else:
        assert rep.status == NO_SOLUTION_CERTIFIED
        assert spectral_counts(eq, make_box(eq))[b] == 0
    ledger = rep.queries
    buckets = ledger.buckets
    assert ledger.group_mults == sum(buckets.values())
    assert buckets["subroutine"] == ledger.outer_points_visited
    assert ledger.dlog_calls == (rep.status == FOUND)
    assert buckets.get("membership", 0) % pow_cost(box.orders_sorted[0]) == 0
    assert buckets["setup"] == 1 + sum(lim - 1 for lim in box.limits()[1:])


def test_single_term_statuses():
    spec = make_field(101)
    # g = 2 generates F_101^x: every unit is found, zero is certified out
    for b in [1, 2, 17, 100]:
        rep = solve_classical(make_equation(spec, [(1, 2)], b))
        assert rep.status == FOUND
        assert (spec.element(2) ** rep.x[0]).packed() == b
    rep = solve_classical(make_equation(spec, [(1, 2)], 0))
    assert rep.status == NO_SOLUTION_CERTIFIED
    # g = 5 has order 25: b outside <5> gets a certificate (box covers <5>)
    members = {pow(5, x, 101) for x in range(25)}
    inside = sorted(members)[3]
    outside = next(k for k in range(1, 101) if k not in members)
    rep = solve_classical(make_equation(spec, [(1, 5)], inside))
    assert rep.status == FOUND and pow(5, rep.x[0], 101) == inside
    rep = solve_classical(make_equation(spec, [(1, 5)], outside))
    assert rep.status == NO_SOLUTION_CERTIFIED


def test_statuses_over_huge_prime_field():
    # nu (p-1)^2 >= 2^63, so the targets' product with the matrix of
    # a_1^{-1} runs on Python ints; s_1 > 7 10^9 keeps r_raw below 2^62
    spec = make_field((1 << 61) - 1)
    s1 = 2 * 61 * 151 * 331 * 1321
    eq0 = random_equation_with_orders(spec, [s1, 9], random.Random(5))
    (a1, g1), (a2, g2) = eq0.terms

    def members(b):
        # x_2 whose target (b - a_2 g_2^{x_2}) / a_1 lies in <g_1>
        return [x2 for x2 in range(9)
                if ((b - a2 * g2 ** x2) / a1) ** s1 == spec.one()]

    b = a1 * g1 ** 12345 + a2 * g2 ** 4
    assert members(b) == [4]
    rep = solve_classical(make_equation(spec, eq0.terms, b))
    assert rep.x == (12345, 4) and rep.queries.outer_points_visited == 5
    assert members(eq0.b) == []
    rep = solve_classical(eq0)
    assert rep.status == NO_SOLUTION_CERTIFIED
    assert rep.queries.outer_points_visited == 9


def test_solve_respects_original_term_order():
    spec = make_field(101)
    # listing the small-order term first must not change the solution set
    eq = make_equation(spec, [(1, 5), (1, 2)], 44)   # orders (25, 100)
    rep = solve_classical(eq)
    assert rep.box.perm == (1, 0)
    if rep.status == FOUND:
        assert eval_equation(eq, rep.x) == eq.b
        # coordinate i of the answer respects the original order s_i
        for xi, s in zip(rep.x, eq.orders):
            assert 0 <= xi < s


def test_solver_report_serialization():
    eq = make_equation(make_field(7), [(1, 3), (1, 2)], 3)
    rep = solve_classical(eq)
    doc = rep.to_dict()
    assert doc["schema"] == 1 and doc["kind"] == "solution_report"
    assert doc["status"] == FOUND
    assert doc["x"] == list(rep.x)
    assert doc["queries"]["group_mults"] == rep.queries.group_mults
    assert doc["box"]["r"] == 3 and doc["r_raw"] == 3
    assert doc["order_finding_cost_model"] == pytest.approx(
        math.sqrt(7) * math.log(7) ** 3)


def test_outer_grid_cap(monkeypatch):
    # orders (6, 3), r = 3: a 3-point outer grid, searched at a cap of 3
    # and refused, before any work, one point past it
    eq = make_equation(make_field(7), [(1, 3), (1, 2)], 3)
    monkeypatch.setattr(solver, "OUTER_GRID_CAP", 3)
    assert solve_classical(eq).status == FOUND
    monkeypatch.setattr(solver, "OUTER_GRID_CAP", 2)
    with pytest.raises(CapExceeded, match="outer grid of 3 points"):
        solve_classical(eq)


# ---------------------------------------------------------------------------
# the outer scan's blocks: FIRST_BLOCK points, then doubling to BRUTE_BLOCK


def sparse_hit_family():
    # F_{2^31-1} with s_1 = 331: a target lies in <g_1> with chance
    # 331 / (q-1) < 2e-7, so in the 9362-point outer grid (151 x 62) the
    # only hit is a planted one
    spec = make_field((1 << 31) - 1)
    return random_equation_with_orders(spec, [331, 151, 62],
                                       random.Random(7))


def plant(eq, k):
    """eq with b solved at outer index k, x_1 = 5, and nowhere before."""
    (a1, g1), (a2, g2), (a3, g3) = eq.terms
    x2, x3 = divmod(k, 62)
    b = a1 * g1 ** 5 + a2 * g2 ** x2 + a3 * g3 ** x3
    return make_equation(eq.spec, eq.terms, b), (5, x2, x3)


REAL_GRID_TARGETS = solver._grid_targets


def block_scan(monkeypatch, eq, first, most):
    """solve_classical's report with the given block sizes, and the
    (lo, hi) of every block of targets it computed."""
    monkeypatch.setattr(solver, "FIRST_BLOCK", first)
    monkeypatch.setattr(solver, "BRUTE_BLOCK", most)
    blocks = []

    def spy(target, walks, limits, lo, hi, p):
        blocks.append((lo, hi))
        return REAL_GRID_TARGETS(target, walks, limits, lo, hi, p)

    monkeypatch.setattr(solver, "_grid_targets", spy)
    return solve_classical(eq).to_dict(), blocks


@pytest.mark.parametrize("first, most, ends", [
    (4, 64, [4, 12, 28, 60, 124, 188, 252, 316, 380]),
    (solver.FIRST_BLOCK, solver.BRUTE_BLOCK, [1024, 3072, 7168]),
])
def test_block_doubling_matches_one_block_scan(monkeypatch, first, most,
                                               ends):
    # the witness and the ledger are those of one block over the grid,
    # whether the first hit is the last point of a block or the first
    # of the next
    family = sparse_hit_family()
    size = 151 * 62
    whole, blocks = block_scan(monkeypatch, family, first, most)
    assert whole["status"] == NO_SOLUTION_CERTIFIED
    assert whole["queries"]["outer_points_visited"] == size
    assert blocks[:len(ends)] == list(zip([0] + ends[:-1], ends))
    assert blocks[-1][1] == size
    assert all(b - a == most for a, b in blocks[len(ends):-1])
    single, blocks = block_scan(monkeypatch, family, size, size)
    assert blocks == [(0, size)] and single == whole
    for k in [k for end in ends for k in (end - 1, end)]:
        eq, x = plant(family, k)
        got, blocks = block_scan(monkeypatch, eq, first, most)
        assert got["status"] == FOUND and got["x"] == list(x)
        assert got["queries"]["outer_points_visited"] == k + 1
        assert blocks[-1][0] <= k < blocks[-1][1]
        assert got == block_scan(monkeypatch, eq, size, size)[0]


# ---------------------------------------------------------------------------
# solution verification


def test_verify_solution_and_perturbations():
    eq = make_equation(make_field(7), [(1, 3), (1, 2)], 3)
    for x in [(0, 1), (2, 0), (3, 2)]:
        assert verify_solution(eq, x)
    assert not verify_solution(eq, (1, 1))
    assert not verify_solution(eq, (0, 2))
    with pytest.raises(IndexOutOfRange):
        verify_solution(eq, (0,))
    with pytest.raises(IndexOutOfRange):
        verify_solution(eq, (6, 1))   # x_1 must sit below s_1 = 6
    with pytest.raises(IndexOutOfRange):
        verify_solution(eq, (0, 3))


# ---------------------------------------------------------------------------
# exact accounting replay


def replay_accounting(p, s1, g1, a1, walk, b, m):
    """Re-derive every counter from the report contract alone: walk holds
    a_2 g_2^{x_2} for the outer points in visit order."""
    tally = {
        "setup": 1 + (len(walk) - 1),
        "bsgs_table": (m - 1) + (bin(m).count("1") + m.bit_length() - 1) + 1,
        "subroutine": 0,
        "membership": 0,
        "bsgs_lookup": 0,
    }
    a1_inv = pow(a1, p - 2, p)
    mem_cost = bin(s1).count("1") + s1.bit_length() - 1
    points = 0
    dlogs = 0
    found = None
    for x2, w in enumerate(walk):
        points += 1
        tally["subroutine"] += 1
        t = (b - w) * a1_inv % p
        if t == 0:
            continue
        tally["membership"] += mem_cost
        if pow(t, s1, p) != 1:
            continue
        dlogs += 1
        x1 = next(k for k in range(s1) if pow(g1, k, p) == t)
        tally["bsgs_lookup"] += x1 // m
        found = (x1, x2)
        break
    tally = {k: v for k, v in tally.items() if v}
    return tally, points, dlogs, found


def test_accounting_replay_found_case():
    spec = make_field(257)
    terms = [(1, 9), (1, 136)]   # orders (128, 32), box r = 23
    hit_b = (pow(9, 5, 257) + pow(136, 3, 257)) % 257
    eq = make_equation(spec, terms, hit_b)
    rep = solve_classical(eq)
    assert rep.status == FOUND
    assert rep.box.r == 23 and rep.r_raw == 23
    m = math.isqrt(128 - 1) + 1
    walk = [pow(136, x, 257) for x in range(23)]
    tally, points, dlogs, found = replay_accounting(
        257, 128, 9, 1, walk, hit_b, m)
    assert rep.x == found
    assert rep.queries.outer_points_visited == points
    assert rep.queries.dlog_calls == dlogs
    assert rep.queries.buckets == tally
    assert rep.queries.group_mults == sum(tally.values())


def test_accounting_replay_exhausted_case():
    spec = make_field(41)
    eq = make_equation(spec, [(2, 36), (3, 36)], 0)   # orders (20, 20)
    rep = solve_classical(eq)
    assert rep.status == BOX_EXHAUSTED
    assert rep.box.r == 16
    m = math.isqrt(20 - 1) + 1
    walk = [3 * pow(36, x, 41) % 41 for x in range(16)]
    tally, points, dlogs, found = replay_accounting(
        41, 20, 36, 2, walk, 0, m)
    assert found is None and points == 16 and dlogs == 0
    assert rep.queries.outer_points_visited == 16
    assert rep.queries.dlog_calls == 0
    assert rep.queries.buckets == tally
    assert rep.queries.group_mults == sum(tally.values())


def test_accounting_replay_skips_zero_target():
    # orders (6, 3) over F_7, b = 1: the outer point x_2 = 0 gives
    # t = 1 - 2^0 = 0, charged one mult and no membership test; x_2 = 1
    # gives t = 1 - 2 = 6 = 3^3
    eq = make_equation(make_field(7), [(1, 3), (1, 2)], 1)
    rep = solve_classical(eq)
    assert rep.status == FOUND and rep.x == (3, 1)
    m = math.isqrt(6 - 1) + 1
    walk = [pow(2, x, 7) for x in range(rep.box.r)]
    tally, points, dlogs, found = replay_accounting(7, 6, 3, 1, walk, 1, m)
    assert found == rep.x and points == 2 and dlogs == 1
    assert tally["subroutine"] == 2 and tally["membership"] == pow_cost(6)
    assert rep.queries.outer_points_visited == points
    assert rep.queries.dlog_calls == dlogs
    assert rep.queries.buckets == tally


def test_accounting_scales_like_sqrt_q_times_r():
    # sanity ceiling: mults <= setup + table + points * (1 + mem + lookup)
    spec = make_field(101)
    eq = make_equation(spec, [(1, 2), (1, 5)], 73)
    rep = solve_classical(eq)
    s1 = 100
    m = math.isqrt(s1 - 1) + 1
    mem = bin(s1).count("1") + s1.bit_length() - 1
    lookup_max = (s1 + m - 1) // m
    ceiling = (1 + (rep.box.r - 1)
               + (m - 1) + (bin(m).count("1") + m.bit_length() - 1) + 1
               + rep.queries.outer_points_visited * (1 + mem + lookup_max))
    assert rep.queries.group_mults <= ceiling


# ---------------------------------------------------------------------------
# the closed-form ledger against the counted scan


def reference_first_hit(eq, box, counter):
    """The counted scan, in scalar field arithmetic: every charge booked
    as the model spends it, point by point, with the counted baby-step
    table built before the scan and one counted lookup at the hit.
    solver._first_hit must return the same hit and fill the same ledger."""
    spec = eq.spec
    terms = sorted_terms(eq, box)
    a1, g1 = terms[0]
    s1 = box.orders_sorted[0]
    a1_inv = a1.inverse()
    counter.mults(1, "setup")
    lookup = counted_bsgs(g1, s1, counter)
    walks = []
    for (a, g), limit in zip(terms[1:], box.limits()[1:]):
        walks.append([a * g ** x for x in range(limit)])
        counter.mults(limit - 1, "setup")
    for index, point in enumerate(itertools.product(*walks)):
        counter.outer_points_visited += 1
        counter.mults(1, "subroutine")
        t = (eq.b - sum(point, spec.zero())) * a1_inv
        if t.is_zero():
            continue
        counter.mults(pow_cost(s1), "membership")
        if t ** s1 != spec.one():
            continue
        return index, lookup(t)
    return None


# F_40961 and F_{3^9} (q > LOG_TABLE_MAX_Q) take the BSGS route, the
# other fields the log-table route
ORACLE_FIELDS = [(7, 1), (101, 1), (257, 1), (2, 6), (3, 4), (97, 2),
                 (3, 9), (40961, 1)]
ORACLE_GRID = 1 << 10   # outer points, so that a miss scans quickly


@st.composite
def oracle_instances(draw):
    """An equation with at most ORACLE_GRID outer points, and a b that is
    drawn at random, or puts t = 0 at a drawn outer point, or is missed
    by the box."""
    p, nu = draw(st.sampled_from(ORACLE_FIELDS))
    q = p ** nu
    spec = make_field(p, nu)
    n = draw(st.integers(1, 3))
    terms = draw(st.lists(st.tuples(st.integers(1, q - 1),
                                    st.integers(1, q - 1)),
                          min_size=n, max_size=n))
    eq = make_equation(spec, terms, 0)
    box = build_box(eq)[0]
    assume(math.prod(box.limits()[1:]) <= ORACLE_GRID)
    kind = draw(st.sampled_from(["random", "zero target", "miss"]))
    if kind == "zero target":
        b = sum((a * g ** draw(st.integers(0, limit - 1))
                 for (a, g), limit in zip(sorted_terms(eq, box)[1:],
                                          box.limits()[1:])), spec.zero())
    elif kind == "miss":
        misses = np.flatnonzero(spectral_counts(eq, box) == 0).tolist()
        b = draw(st.sampled_from(misses) if misses
                 else st.integers(0, q - 1))
    else:
        b = draw(st.integers(0, q - 1))
    return make_equation(spec, terms, b)


# one example per status on each route, and a t = 0 point
EXHAUSTED_ON_TABLE = make_equation(make_field(3, 4), [(2, 9), (3, 9)], 0)
# 243 = 3^5 has order 8192 in F_40961, and -a_2/a_1 = 3 lies outside its
# subgroup, so no point of the truncated box is a zero
EXHAUSTED_ON_BSGS = make_equation(make_field(40961), [(1, 243), (40958, 243)],
                                  0)
CERTIFIED_ON_BSGS = make_equation(make_field(40961), [(1, 243)], 3)
ZERO_TARGET_FIRST = make_equation(make_field(7), [(1, 3), (1, 2)], 1)
FOUND_PAST_TABLE = make_equation(make_field(3, 9), [(1, 2), (5, 3)], 7)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(oracle_instances())
@example(EXHAUSTED_ON_TABLE)
@example(EXHAUSTED_ON_BSGS)
@example(CERTIFIED_ON_BSGS)
@example(ZERO_TARGET_FIRST)
@example(FOUND_PAST_TABLE)
def test_closed_form_ledger_matches_the_counted_scan(eq):
    got = solve_classical(eq)
    with mock.patch.object(solver, "_first_hit", reference_first_hit):
        ref = solve_classical(eq)
    assert got.status == ref.status and got.x == ref.x
    assert got.queries.to_dict() == ref.queries.to_dict()


def test_oracle_examples_cover_every_status_and_a_zero_target():
    assert solve_classical(EXHAUSTED_ON_TABLE).status == BOX_EXHAUSTED
    assert solve_classical(EXHAUSTED_ON_BSGS).status == BOX_EXHAUSTED
    assert solve_classical(CERTIFIED_ON_BSGS).status == NO_SOLUTION_CERTIFIED
    assert solve_classical(FOUND_PAST_TABLE).status == FOUND
    # t = 1 - 2^0 = 0 at the first of the two points visited: one test
    rep = solve_classical(ZERO_TARGET_FIRST)
    assert rep.queries.outer_points_visited == 2
    assert rep.queries.buckets["membership"] == pow_cost(6)


# ---------------------------------------------------------------------------
# invariants under python -O


INVARIANT_SCRIPT = """
import sys
import numpy as np
assert False, "assertions are on; this script must run under python -O"
from expzeros import arith, cli, errors, qmodel, reduction, solver

FOUND_ARGS = ["solve", "--p", "40961", "--terms", "39810,139;29189,17455",
              "--b", "14992"]

# a walk shifted by one step: the hit it yields fails verify_solution
walk = solver._power_walk
solver._power_walk = lambda a, g, limit: np.roll(walk(a, g, limit), 1, 0)
print("walk", cli.main(FOUND_ARGS))
solver._power_walk = walk

# membership passes, but the discrete log is not in the baby-step table
arith.BsgsTable.lookup = lambda self, t: None
print("lookup", cli.main(FOUND_ARGS))

# membership passes, but the discrete log finds nothing on the log table
solver.discrete_logs = lambda g, s: lambda target: None
print("table", cli.main(["solve", "--p", "3", "--nu", "4", "--terms",
                         "2,9;3,9", "--b", "1"]))

# a guessing schedule's expectation that cannot converge must stop
qmodel.BBHT_MAX_ROUNDS = 2
try:
    qmodel.bbht_expected_queries(1 << 20, 1)
except errors.InvariantViolated:
    print("bbht held")

# two terms of one order whose relation the discrete log cannot find
reduction.discrete_logs = lambda g, s: lambda target: None
print("reduce", cli.main(["reduce", "--p", "101", "--terms", "1,2;3,2",
                          "--b", "0"]))
"""


def test_solver_invariants_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", INVARIANT_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.stdout.splitlines() == ["walk 3", "lookup 3", "table 3",
                                        "bbht held", "reduce 3"], proc.stderr
    assert "which is no zero" in proc.stderr
    assert proc.stderr.count("membership passed but dlog missed") == 2
    assert "no l with g1^l = g2, though both have order 100" in proc.stderr
