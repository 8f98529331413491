"""Tests for the Grover closed form vs exact simulation, the unknown-m
guessing schedule's expectation (against direct sums and a seeded Monte
Carlo oracle), the exponent table, and the two query-cost models.
"""

import math
import random
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expzeros import charsum, fields, qmodel
from expzeros.charsum import brute_count, make_box, make_equation
from expzeros.errors import (BadCounts, CapExceeded, HypothesisFailed,
                             InvariantViolated, Overflow)
from expzeros.fields import make_field
from expzeros.instances import random_equation_with_orders
from expzeros.qmodel import (
    GROVER_SIM_CAP,
    bbht_expected_queries,
    classical_exponent,
    classical_stated_exponent,
    discrepancy_report,
    exponent_row,
    exponent_table,
    grover_optimal_k,
    grover_simulate,
    grover_success,
    model_quantum_solve,
    quantum_exponent,
)
from expzeros.solver import FOUND, solve_classical


# ---------------------------------------------------------------------------
# Grover closed form


def test_grover_success_frozen_examples():
    # t = 4, m = 1: theta = pi/6, one iteration is exact
    assert grover_success(4, 1, 1) == pytest.approx(1.0, abs=1e-12)
    # zero iterations leave the uniform superposition
    for t, m in [(4, 1), (100, 7), (1024, 33)]:
        assert grover_success(t, m, 0) == pytest.approx(m / t, abs=1e-12)
    assert grover_success(7, 7, 0) == pytest.approx(1.0, abs=1e-12)


def test_grover_optimal_k_near_certainty():
    assert grover_optimal_k(1024, 1) == 25
    assert grover_success(1024, 1, 25) >= 1 - 1 / 1024
    for t, m in [(64, 1), (256, 3), (4096, 5), (100, 25)]:
        k = grover_optimal_k(t, m)
        assert grover_success(t, m, k) >= 1 - m / t - 1e-12


def test_grover_success_validation():
    for t, m, k in [(0, 1, 1), (4, 0, 1), (4, 5, 1), (4, 1, -1)]:
        with pytest.raises(BadCounts):
            grover_success(t, m, k)
    with pytest.raises(BadCounts):
        grover_optimal_k(4, 0)


# ---------------------------------------------------------------------------
# exact simulation


def test_simulation_matches_closed_form_grid():
    worst = 0.0
    worst_drift = 0.0
    for t in [2, 4, 8, 16, 64, 256, 1024]:
        for m in sorted({1, 2, t // 4, t // 2, t} - {0}):
            marked = list(range(m))
            for k in [0, 1, 2, grover_optimal_k(t, m)]:
                sim, drift = grover_simulate(t, marked, k,
                                             return_drift=True)
                closed = grover_success(t, m, k)
                worst = max(worst, abs(sim - closed))
                worst_drift = max(worst_drift, drift)
    assert worst <= 1e-9
    assert worst_drift <= 1e-12


def test_simulation_invariant_under_marked_placement():
    a = grover_simulate(64, [0, 1, 2], 3)
    b = grover_simulate(64, [5, 17, 63], 3)
    assert abs(a - b) < 1e-12
    # duplicate indices collapse to the set
    c = grover_simulate(64, [5, 5, 17, 63, 63], 3)
    assert abs(b - c) < 1e-12


def test_simulation_validation_and_cap():
    # t = 2^14 items run, one more is refused
    assert 0 < grover_simulate(GROVER_SIM_CAP, [0], 1) < 1
    with pytest.raises(CapExceeded, match=f"exceeds simulation cap "
                       f"{GROVER_SIM_CAP}"):
        grover_simulate(GROVER_SIM_CAP + 1, [0], 1)
    with pytest.raises(BadCounts):
        grover_simulate(8, [], 1)
    with pytest.raises(BadCounts):
        grover_simulate(8, [8], 1)
    with pytest.raises(BadCounts):
        grover_simulate(8, [-1], 1)
    with pytest.raises(BadCounts):
        grover_simulate(8, [0], -1)


# ---------------------------------------------------------------------------
# unknown-m guessing schedule


def bbht_sample(t, m, trials, seed):
    """Monte Carlo oracle for bbht_expected_queries: the mean and the
    standard error of `trials` seeded runs of the guessing schedule.

    Round j of a run draws k uniformly from [0, ceil(c^j)), spends k + 1
    queries and succeeds with probability sin^2((2k+1) theta).  A sample
    whose runs all spent the same count shows no spread, yet an event
    rarer than about 1/trials can hide from it, so the standard error is
    floored at 1/trials.
    """
    rng = random.Random(seed)
    theta = math.asin(math.sqrt(m / t))
    counts = []
    for _ in range(trials):
        queries = j = 0
        while True:
            k = rng.randrange(math.ceil(qmodel.BBHT_GROWTH ** j))
            queries += k + 1
            if rng.random() < math.sin((2 * k + 1) * theta) ** 2:
                break
            j += 1
        counts.append(queries)
    stderr = statistics.stdev(counts) / math.sqrt(trials)
    return statistics.fmean(counts), max(stderr, 1 / trials)


def test_bbht_known_m_equals_one_query():
    # m = t succeeds on the k = 0 guess of round zero, deterministically
    for t in (1, 5, 16, 1 << 20):
        assert bbht_expected_queries(t, t) == 1.0


def test_bbht_half_marked_pair_by_hand():
    # t = 2, m = 1: theta = pi/4, every round misses with probability 1/2
    series = math.fsum(2.0 ** -j * (math.ceil(1.2 ** j) + 1) / 2
                       for j in range(200))
    assert bbht_expected_queries(2, 1) == pytest.approx(series, rel=1e-11)


def test_bbht_round_miss_matches_the_direct_sum():
    for t, m in [(2, 1), (4, 1), (7, 3), (100, 1), (100, 99), (1024, 5),
                 (1 << 16, 1)]:
        theta = math.asin(math.sqrt(m / t))
        sin_2theta = math.sin(2 * theta)
        for limit in range(1, 65):
            hit = math.fsum(math.sin((2 * k + 1) * theta) ** 2
                            for k in range(limit)) / limit
            assert qmodel._round_miss(limit, theta, sin_2theta) == (
                pytest.approx(1 - hit, abs=1e-12))


def test_bbht_series_by_direct_sums():
    # the same series with each round's miss chance summed term by term
    for t, m in [(4, 1), (81, 9), (100, 99), (1024, 1)]:
        theta = math.asin(math.sqrt(m / t))
        total, reach, j = 0.0, 1.0, 0
        while reach > 1e-17:
            limit = math.ceil(1.2 ** j)
            k = np.arange(limit)
            total += reach * (limit + 1) / 2
            reach *= 1 - float(np.mean(np.sin((2 * k + 1) * theta) ** 2))
            j += 1
        assert bbht_expected_queries(t, m) == pytest.approx(total,
                                                            rel=1e-10)


# derandomized: the same (t, m) and seeds on every run, so a 4-sigma
# deviation cannot come and go between runs
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 1 << 16), min_size=2, max_size=2))
@example([1, 1 << 16])
@example([99, 100])
def test_bbht_closed_form_within_sampling_error(pair):
    m, t = sorted(pair)
    mean, stderr = bbht_sample(t, m, 400, seed=t * 65537 + m)
    assert abs(mean - bbht_expected_queries(t, m)) <= 4 * stderr


def test_bbht_envelope_and_round_cap(monkeypatch):
    for t, m in [(16, 8), (256, 1), (4096, 3), (1 << 20, 1)]:
        assert 1 <= bbht_expected_queries(t, m) <= 4 * math.sqrt(t / m)
    # a sum that has not met its tolerance by the last round raises
    monkeypatch.setattr(qmodel, "BBHT_MAX_ROUNDS", 2)
    with pytest.raises(InvariantViolated, match="after 2 rounds"):
        bbht_expected_queries(1 << 20, 1)


def test_bbht_validation():
    with pytest.raises(BadCounts):
        bbht_expected_queries(4, 0)
    with pytest.raises(BadCounts):
        bbht_expected_queries(4, 5)
    with pytest.raises(BadCounts):
        bbht_expected_queries(0, 1)


# ---------------------------------------------------------------------------
# exponent table


def test_exponent_rows_frozen():
    r2 = exponent_row(2)
    assert (r2.classical_exp, r2.classical_thm_exp, r2.quantum_exp,
            r2.ratio) == (Fraction(1), Fraction(1), Fraction(1, 3),
                          Fraction(3))
    r3 = exponent_row(3)
    assert (r3.classical_exp, r3.classical_thm_exp, r3.quantum_exp,
            r3.ratio) == (Fraction(3, 2), Fraction(6, 5), Fraction(3, 5),
                          Fraction(5, 2))
    r4 = exponent_row(4)
    assert (r4.classical_exp, r4.quantum_exp, r4.ratio) == (
        Fraction(2), Fraction(6, 7), Fraction(7, 3))
    with pytest.raises(BadCounts):
        exponent_row(1)
    with pytest.raises(BadCounts):
        exponent_table(1)


def test_exponent_ratio_identity_and_monotonicity():
    prev_ratio = None
    prev_quantum = None
    for n in range(2, 10_001):
        ratio = Fraction(2 * n - 1, n - 1)
        assert ratio - 2 == Fraction(1, n - 1)
        assert classical_exponent(n) == ratio * quantum_exponent(n)
        if prev_ratio is not None:
            assert ratio < prev_ratio
            assert quantum_exponent(n) > prev_quantum
        assert ratio > 2
        prev_ratio = ratio
        prev_quantum = quantum_exponent(n)


def test_discrepancy_report_starts_at_three():
    notes = discrepancy_report(6)
    assert [d["n"] for d in notes] == [3, 4, 5, 6]
    assert notes[0] == {"n": 3, "stated": "6/5", "derived": "3/2"}
    assert classical_stated_exponent(2) == classical_exponent(2)


def test_exponent_table_rendering():
    table = exponent_table(4)
    text = table.to_text()
    assert "3/2" in text and "3/5" in text and "5/2" in text
    assert "n=3: stated 6/5 vs derived 3/2" in text
    doc = table.to_dict()
    assert doc["schema"] == 1 and doc["kind"] == "exponent_table"
    assert len(doc["rows"]) == 3
    assert doc["rows"][1]["ratio"] == "5/2"
    assert doc["discrepancies"][0]["n"] == 3


# ---------------------------------------------------------------------------
# cost model: thm2


def test_thm2_model_f7_example(monkeypatch):
    calls = []

    def spy(eq, box, **kwargs):
        calls.append(kwargs)
        return brute_count(eq, box, **kwargs)

    monkeypatch.setattr(qmodel, "brute_count", spy)
    eq = make_equation(make_field(7), [(1, 3), (1, 2)], 3)
    rep = model_quantum_solve(eq, "thm2")
    assert rep.mode == "thm2" and (rep.q, rep.n) == (7, 2)
    assert (rep.r, rep.r_raw, rep.t) == (3, 3, 3)
    # a box within the cap: counted by one brute_count call, no list
    assert rep.m_exact == 3 and calls == [{"list_cap": 0}]
    assert rep.modeled_queries == 2           # ceil(sqrt(3))
    assert rep.shor_calls == 2 + 2
    assert rep.chain_case == "r<=s_n" and rep.chain_holds
    assert rep.within_bound
    assert rep.b_exceptional is False
    # t = m = 3: the schedule needs exactly one query
    assert rep.expected_queries == 1.0
    doc = rep.to_dict()
    assert doc["schema"] == 1 and doc["kind"] == "query_cost_report"
    assert doc["mode"] == "thm2" and doc["t"] == 3


def big_box_family():
    # F_65537 with orders (32768, 32768): thm2's box holds 32768 * 45
    # points and thm3's 32768 * 44, both past the 2^20 box cap
    return random_equation_with_orders(make_field(65537), [32768, 32768],
                                       random.Random(5))


def refuse_walks(monkeypatch):
    def walk(a, g, limit):
        raise AssertionError(f"walked {limit} points past the box cap")

    monkeypatch.setattr(charsum, "_power_walk", walk)


def test_thm2_past_the_box_cap_leaves_the_count_out(monkeypatch):
    eq = big_box_family()
    refuse_walks(monkeypatch)
    rep = model_quantum_solve(eq, "thm2")
    assert rep.r_raw == rep.r == rep.t == 45 and not rep.r_clamped
    assert 32768 * 45 > fields.DEFAULT_ENUM_CAP
    assert rep.m_exact is None and rep.m_ratio is None
    assert rep.b_exceptional is None and rep.expected_queries is None
    assert rep.modeled_queries == 7           # ceil(sqrt(45))


def test_thm2_chain_when_the_radius_passes_s_n():
    # orders (10, 5) over F_101: r_raw = ceil(101^2 / 10^2 ln 101) = 471
    # > s_n = 5, so the box is the whole domain
    eq = random_equation_with_orders(make_field(101), [10, 5],
                                     random.Random(2))
    rep = model_quantum_solve(eq, "thm2")
    assert rep.r_raw == 471 and rep.r == 5 and rep.r_clamped
    assert rep.chain_case == "r>s_n"
    # s_2 <= ((s_1)^2 s_2)^(1/3), cubed: 5^3 against 10^2 * 5
    lhs, rhs, power = Fraction(5), Fraction(10 ** 2 * 5), Fraction(1, 3)
    assert rep.chain_holds == (lhs ** power.denominator
                               <= rhs ** power.numerator)


def test_thm2_found_iff_box_nonempty():
    spec = make_field(41)
    for b in range(41):
        eq = make_equation(spec, [(2, 36), (3, 36)], b)
        rep = model_quantum_solve(eq, "thm2")
        classical = solve_classical(eq)
        assert (classical.status == FOUND) == (rep.m_exact > 0)
        if rep.m_exact == 0:
            assert rep.expected_queries is None
            assert rep.b_exceptional is True


def test_thm2_single_term():
    eq = make_equation(make_field(101), [(1, 2)], 17)
    rep = model_quantum_solve(eq, "thm2")
    assert rep.t == 1 and rep.modeled_queries == 1
    assert rep.chain_case == "n=1" and rep.chain_holds
    assert rep.m_exact == 1
    with pytest.raises(ValueError):
        model_quantum_solve(eq, "thm5")


@pytest.mark.parametrize("mode", ["thm2", "thm3"])
def test_slack_past_a_float_raises_overflow(mode):
    # (ln 7)^10000 is past a float; (ln 7)^1066 is not, but the bound it
    # multiplies is, in either mode
    eq = make_equation(make_field(7), [(1, 3), (1, 2)], 1)
    for slack_exponent in (1066, 10000):
        with pytest.raises(Overflow, match="slack"):
            model_quantum_solve(eq, mode, slack_exponent=slack_exponent)
    assert model_quantum_solve(eq, mode, slack_exponent=1064
                               ).theoretical_bound < math.inf


# ---------------------------------------------------------------------------
# cost model: thm3


def test_thm3_hypothesis_gate():
    f7 = make_field(7)
    eq = make_equation(f7, [(1, 6), (2, 6)], 0)   # orders (2, 2)
    with pytest.raises(HypothesisFailed) as err:
        model_quantum_solve(eq, "thm3")
    assert "hypothesis" in str(err.value)
    # n = 1 can never satisfy the hypothesis: s_1 <= q - 1 < q log q
    with pytest.raises(HypothesisFailed):
        model_quantum_solve(make_equation(make_field(101), [(1, 2)], 3),
                            "thm3")


def test_thm3_model_q101():
    spec = make_field(101)
    eq = make_equation(spec, [(1, 2), (1, 5)], 44)   # orders (100, 25)
    rep = model_quantum_solve(eq, "thm3")
    assert rep.mode == "thm3" and rep.hypothesis_ok
    assert rep.r_raw == 4 and rep.r == 4 and not rep.r_clamped
    assert rep.t == 4
    assert rep.m_estimate == pytest.approx(400 / 101)
    box = make_box(eq, r=4)
    want_m, _ = brute_count(eq, box, list_cap=0)
    assert rep.m_exact == want_m
    if not rep.b_exceptional:
        assert 0.25 <= rep.m_ratio <= 4
        assert rep.within_bound
    assert rep.chain_case is None and rep.chain_holds is None


def test_thm3_nonexceptional_ratio_window_full_sweep():
    spec = make_field(101)
    n_checked = 0
    for b in range(101):
        eq = make_equation(spec, [(1, 2), (1, 5)], b)
        rep = model_quantum_solve(eq, "thm3")
        if rep.b_exceptional:
            continue
        assert rep.m_exact is not None and rep.m_exact >= 1
        assert 0.25 <= rep.m_ratio <= 4
        assert rep.within_bound
        n_checked += 1
    assert n_checked >= 90   # exceptional b are rare by the census bound


def test_thm3_radius_clamp():
    spec = make_field(101)
    eq = make_equation(spec, [(1, 2), (3, 2), (7, 2)], 55)  # orders 100^3
    rep = model_quantum_solve(eq, "thm3")
    assert rep.r_raw == 0 and rep.r == 1 and rep.r_clamped
    assert rep.t == 100
    assert rep.hypothesis_ok
    # orders (100, 20, 4): r_raw = floor(101^3 / 2000^2 ln 101) = 1 is
    # used as it stands
    eq = make_equation(spec, [(1, 2), (1, 32), (1, 10)], 7)
    rep = model_quantum_solve(eq, "thm3")
    assert rep.r_raw == rep.r == 1 and not rep.r_clamped
    assert rep.t == 20


def test_thm3_past_the_box_cap_takes_m_from_the_estimate(monkeypatch):
    eq = big_box_family()
    refuse_walks(monkeypatch)
    rep = model_quantum_solve(eq, "thm3")
    assert rep.r_raw == rep.r == rep.t == 44 and rep.hypothesis_ok
    assert 32768 * 44 > fields.DEFAULT_ENUM_CAP
    assert rep.m_exact is None and rep.m_ratio is None
    assert rep.b_exceptional is None and rep.expected_queries is None
    assert rep.m_estimate == pytest.approx(44 * 32768 / 65537)
    m_used = round(rep.m_estimate)
    assert m_used == 22
    assert rep.modeled_queries == math.ceil(math.sqrt(44 / m_used)) == 2


def test_thm3_exceptional_zero_count_path():
    spec = make_field(41)
    eq = make_equation(spec, [(2, 36), (3, 36)], 0)
    rep = model_quantum_solve(eq, "thm3")
    assert rep.r == 15 and rep.t == 15
    assert rep.m_exact == 0
    assert rep.b_exceptional is True
    assert rep.modeled_queries == math.ceil(math.sqrt(15))
    assert rep.expected_queries is None


def test_bbht_estimate_runs_past_the_simulation_cap():
    # F_97, five terms of order 16, thm2's box of 10 * 16^4 points: the
    # outer grid of 40960 points is past GROVER_SIM_CAP, yet the
    # schedule's expectation needs no state vector, so every counted box
    # gets it
    eq = make_equation(make_field(97), [(31, 89), (17, 85), (78, 70),
                                        (75, 8), (61, 79)], 70)
    rep = model_quantum_solve(eq, "thm2")
    assert (rep.t, rep.m_exact) == (40960, 6754) and rep.t > GROVER_SIM_CAP
    assert rep.modeled_queries == 203          # ceil(sqrt(40960)), M = 1
    assert rep.expected_queries == bbht_expected_queries(40960, 6754)
    assert rep.expected_queries == pytest.approx(3.40265291100, rel=1e-11)
    assert 1 <= rep.expected_queries <= 4 * math.sqrt(40960 / 6754)
