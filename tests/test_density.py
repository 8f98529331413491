"""Tests for per-b density sweeps, the energy bound, the exceptional-b
census, and the minimal-r corollary.

The sweep histogram is validated per b against brute_count, the energy
Fraction against a direct recomputation, and the census against an
independent Fraction comparison including an exact boundary tie.
"""

import csv
import dataclasses
import io
import itertools
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expzeros import charsum, cli, density, fields
from expzeros.charsum import SearchBox, brute_count, make_box, make_equation
from expzeros.density import (
    CensusResult,
    DensityReport,
    corollary_min_r,
    energy_bound_check,
    exceptional_census,
    report_to_dict,
    sweep_b,
    write_per_b_csv,
)
from expzeros.errors import BadDelta, CapExceeded, InvariantViolated, Overflow
from expzeros.fields import make_field
from expzeros.instances import (find_generator, random_equation,
                                 random_equation_with_orders)
from test_charsum import equation_from_dict


def sweep_fixture(p, nu, terms, r=None):
    spec = make_field(p, nu)
    eq = make_equation(spec, terms, 0)
    box = make_box(eq, r=r)
    return eq, box, sweep_b(eq, box)


# ---------------------------------------------------------------------------
# the sweep itself


def test_sweep_f7_example():
    eq, box, rep = sweep_fixture(7, 1, [(1, 3), (1, 2)])
    assert box.card == 18
    assert rep.counts.tolist() == [3, 2, 2, 3, 2, 3, 3]
    assert rep.main == Fraction(18, 7)
    assert rep.energy == Fraction(12, 7)
    assert rep.delta(0) == Fraction(3, 1) - Fraction(18, 7)
    ok, margin = energy_bound_check(rep)
    assert ok and margin == Fraction(21) - Fraction(12, 7)


def test_sweep_counts_match_brute_per_b():
    # dual route: one histogram pass vs a fresh brute count for every b
    cases = [
        (7, 1, [(1, 3), (1, 2)], None),
        (7, 1, [(1, 3), (1, 2)], 2),
        (11, 1, [(2, 6), (3, 7), (1, 10)], None),
        (2, 3, [(3, 2), (1, 5)], None),
        (3, 2, [(1, 3), (4, 2)], 2),
        (13, 1, [(1, 2)], 7),
    ]
    for p, nu, terms, r in cases:
        spec = make_field(p, nu)
        eq0 = make_equation(spec, terms, 0)
        box = make_box(eq0, r=r)
        rep = sweep_b(eq0, box)
        for b in range(spec.cardinality):
            eq_b = make_equation(spec, terms, b)
            want, _ = brute_count(eq_b, box, list_cap=0)
            assert rep.counts[b] == want
        assert int(rep.counts.sum()) == box.card


def test_sweep_deltas_sum_to_zero():
    rng = random.Random(33)
    for p, nu in [(7, 1), (101, 1), (2, 5), (3, 3)]:
        spec = make_field(p, nu)
        eq = random_equation(spec, 2, rng)
        rep = sweep_b(eq, make_box(eq))
        total = sum((rep.delta(b) for b in range(spec.cardinality)),
                    Fraction(0))
        assert total == 0


def test_sweep_energy_matches_direct_recomputation():
    rng = random.Random(34)
    for p, nu in [(11, 1), (5, 2), (2, 6)]:
        spec = make_field(p, nu)
        eq = random_equation(spec, 3, rng)
        box = make_box(eq)
        if box.card > 10 ** 5:
            box = make_box(eq, r=1)
        rep = sweep_b(eq, box)
        direct = sum((rep.delta(b) ** 2 for b in range(spec.cardinality)),
                     Fraction(0))
        assert rep.energy == direct
        ok, margin = energy_bound_check(rep)
        assert ok
        assert margin == Fraction(spec.cardinality) ** (box.n - 1) * box.r \
            - direct


ENERGY_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (2, 3),
                 (3, 2), (2, 4), (5, 2), (7, 2)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ENERGY_FIELDS), st.data())
def test_sweep_energy_is_the_sum_of_squared_deviations(field, data):
    # E(r) = sum_b (N_b - card/q)^2 in Fractions, each N_b counted by
    # adding FieldElements over every box point
    spec = make_field(*field)
    q = spec.cardinality
    terms = data.draw(st.lists(st.tuples(st.integers(1, q - 1),
                                         st.integers(1, q - 1)),
                               min_size=1, max_size=3))
    eq = make_equation(spec, terms, 0)
    box = make_box(eq, data.draw(st.integers(1, min(eq.orders))))
    assume(box.card <= 3000)
    runs = [[a * g ** x for x in range(limit)]
            for (a, g), limit in zip(charsum.sorted_terms(eq, box),
                                     box.limits())]
    counts = [0] * q
    for point in itertools.product(*runs):
        total = spec.zero()
        for u in point:
            total = total + u
        counts[total.packed()] += 1
    main = Fraction(box.card, q)
    rep = sweep_b(eq, box)
    assert rep.counts.tolist() == counts
    assert rep.energy == sum((c - main) ** 2 for c in counts)


def test_sweep_caps(monkeypatch):
    spec = make_field(7)
    eq = make_equation(spec, [(1, 3), (1, 2)], 0)
    box = make_box(eq)
    monkeypatch.setattr(fields, "DEFAULT_ENUM_CAP", 6)
    with pytest.raises(CapExceeded, match="cardinality 7 exceeds cap 6"):
        sweep_b(eq, box)
    monkeypatch.undo()
    # no cap on the box itself: memory is O(n q), so a box far above the
    # 2^22 points a materializing sweep could hold still sweeps exactly
    spec = make_field(7, 4)
    gen = find_generator(spec)
    eq = random_equation_with_orders(spec, (2400, 2400, 600, 96),
                                     random.Random(41), gen)
    box = make_box(eq, r=50)
    assert box.card > 1 << 30
    rep = sweep_b(eq, box)
    assert int(rep.counts.sum()) == box.card
    assert energy_bound_check(rep)[0]
    monkeypatch.setattr(charsum, "_fft_counts", lambda *args: None)
    assert sweep_b(eq, box).counts.tolist() == rep.counts.tolist()


@pytest.mark.parametrize("big", [1 << 30, 1 << 32])
def test_sweep_energy_exact_on_both_sides_of_int64_guard(monkeypatch, big):
    # planted counts: max * card < 2^63 takes the int64 dot product; at
    # 2^32, sum c^2 = 2^65 + 26 would wrap in int64 and must not
    eq = make_equation(make_field(7), [(1, 3), (1, 2)], 0)
    counts = np.array([big, big, 0, 1, 0, 0, 5], dtype=np.int64)
    card = int(counts.sum())
    monkeypatch.setattr(density, "spectral_counts", lambda *args: counts)
    rep = sweep_b(eq, dataclasses.replace(make_box(eq), card=card))
    main = Fraction(card, 7)
    assert rep.energy == sum((Fraction(int(c)) - main) ** 2 for c in counts)


# ---------------------------------------------------------------------------
# exceptional census


def test_census_f7_example_is_empty_at_delta_one():
    _, _, rep = sweep_fixture(7, 1, [(1, 3), (1, 2)])
    # max |Delta| = 4/7 < sqrt(3 * 7^0) = 1.73..., so no exceptional b
    census = exceptional_census(rep, 1)
    assert census.exceptional == ()
    assert census.mask.tolist() == [False] * 7
    assert census.bound == 7
    assert census.size_ok


def test_census_matches_independent_fraction_check():
    rng = random.Random(55)
    for p, nu in [(13, 1), (3, 3), (101, 1)]:
        spec = make_field(p, nu)
        eq = random_equation(spec, 2, rng)
        box = make_box(eq)
        rep = sweep_b(eq, box)
        q = spec.cardinality
        for delta in (Fraction(1, 2), 1, 2, Fraction(3, 2)):
            census = exceptional_census(rep, delta)
            thr = Fraction(delta) ** 2 * box.r * Fraction(q) ** (box.n - 2)
            for b in range(q):
                want = rep.delta(b) ** 2 >= thr
                assert census.mask[b] == want
            assert census.exceptional == tuple(
                b for b in range(q) if census.mask[b])
            assert len(census.exceptional) <= q / float(delta) ** 2


def test_census_exact_boundary_tie_counts_as_exceptional():
    # synthetic counts engineered so one deviation lands exactly on the
    # threshold: q = 9, card = 36, delta = 3/2, r = 4 gives threshold
    # |Delta| = 3 and counts 7 and 1 both deviate by exactly 3 from 36/9.
    spec = make_field(3, 2)
    eq = make_equation(spec, [(1, 3), (1, 3)], 0)
    box_real = make_box(eq, r=4)
    counts = np.array([7, 4, 4, 4, 4, 4, 4, 4, 1], dtype=np.int64)
    assert counts.sum() == 36
    fake_box = dataclasses.replace(box_real, card=36)
    main = Fraction(36, 9)
    energy = sum((Fraction(int(c)) - main) ** 2 for c in counts)
    rep = DensityReport(eq, fake_box, counts, main, energy)
    census = exceptional_census(rep, Fraction(3, 2))
    assert census.threshold_sq == Fraction(9)
    assert census.exceptional == (0, 8)
    assert census.mask[0] and census.mask[8]
    assert not any(census.mask[1:8])
    # nudging delta up by any amount drops both ties
    census2 = exceptional_census(rep, Fraction(3, 2) + Fraction(1, 10 ** 9))
    assert census2.exceptional == ()


def loop_census_flags(counts, q, n, r, card, delta):
    """The census as a per-b big-int loop: the reference for the
    threshold comparison of exceptional_census."""
    delta_sq = Fraction(delta) ** 2
    scaled = delta_sq * r * Fraction(q) ** (n - 2) * q * q
    num, den = scaled.numerator, scaled.denominator
    return [den * (q * c - card) ** 2 >= num for c in counts]


CENSUS_FIELDS = [(7, 1), (11, 1), (13, 1), (3, 2), (2, 4), (5, 2)]


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(CENSUS_FIELDS), n=st.integers(1, 4),
       k=st.integers(1, 7), data=st.data())
def test_census_matches_loop_oracle(field, n, k, data):
    # Synthetic counts around card/q, with one count placed exactly on
    # the threshold: n = 2 and r = k^2 make the threshold |q N - card| = d
    # for delta = d / (q k).  Other n make the same delta a non-tie case.
    spec = make_field(*field)
    q = spec.cardinality
    scale = data.draw(st.sampled_from([1, 1000, 1 << 40, 1 << 58]))
    base = data.draw(st.integers(0, scale))
    counts = data.draw(st.lists(st.integers(max(0, base - 40), base + 40),
                                min_size=q, max_size=q))
    tie = data.draw(st.integers(0, q - 1))
    d = data.draw(st.integers(1, 40 * q))
    sign = data.draw(st.sampled_from([1, -1]))
    card = q * counts[tie] - sign * d
    assume(0 <= card <= (1 << 63) - 1)
    delta = Fraction(d, q * k)
    assume(delta * delta <= q)
    r = k * k
    eq = make_equation(spec, [(1, 1)] * n, 0)
    box = SearchBox(tuple(range(n)), (r,) * n, r, card)
    counts = np.array(counts, dtype=np.int64)
    rep = DensityReport(eq, box, counts, Fraction(card, q), Fraction(0))
    want = loop_census_flags(counts.tolist(), q, n, r, card, delta)
    if n == 2:
        assert want[tie]   # the exact tie is exceptional
    if sum(want) > q / (delta * delta):
        with pytest.raises(InvariantViolated):
            exceptional_census(rep, delta)
        return
    census = exceptional_census(rep, delta)
    assert census.mask.dtype == bool and census.mask.tolist() == want
    assert not census.mask.flags.writeable
    assert list(census.exceptional) == [b for b in range(q) if want[b]]


def fraction_census(report, delta):
    """exceptional_census computed with Fraction arithmetic: the oracle
    for its integer arithmetic."""
    import math
    q, n, r = report.q, report.box.n, report.box.r
    if not 0 < delta < math.inf:
        raise BadDelta(f"need a finite delta > 0, got {delta}")
    delta_sq = Fraction(delta) ** 2
    if delta_sq > q:
        raise BadDelta(f"need delta <= sqrt(q), got delta^2 = {delta_sq}")
    threshold_sq = delta_sq * r * Fraction(q) ** (n - 2)
    scaled = threshold_sq * q * q
    num, den = scaled.numerator, scaled.denominator
    t = math.isqrt(-(-num // den))
    if den * t * t < num:
        t += 1
    card = report.box.card
    above = min(-(-(card + t) // q) - 1, density.INT64_MAX)
    below = max((card - t) // q + 1, density.INT64_MIN)
    mask = (report.counts > above) | (report.counts < below)
    exceptional = np.flatnonzero(mask).tolist()
    bound = Fraction(q) / delta_sq
    if not len(exceptional) <= bound:
        raise InvariantViolated(
            f"census of {len(exceptional)} exceeds q/delta^2 = {bound}; "
            "energy bound violated?")
    return CensusResult(float(delta_sq) ** 0.5, delta_sq, threshold_sq,
                        mask, tuple(exceptional), bound, True)


def census_outcome(census, report, delta):
    try:
        result = census(report, delta)
    except (BadDelta, InvariantViolated) as exc:
        return type(exc), str(exc)
    return result, result.to_dict(), result.mask.tolist()


CENSUS_DELTAS = st.one_of(
    st.floats(0, 20), st.floats(1e-300, 1e-6),
    st.integers(-2, 12),
    st.fractions(0, 20, max_denominator=10 ** 6),
    st.sampled_from([0.3, 1, 2, Fraction(3, 7), float("inf"), 5e-324,
                     float("nan"), -0.0, 1e-8]))


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(CENSUS_FIELDS), n=st.integers(1, 4),
       r=st.integers(1, 50), delta=CENSUS_DELTAS, data=st.data())
def test_census_in_integers_matches_fraction_oracle(field, n, r, delta,
                                                    data):
    # result, JSON fields and mask agree, and so do the errors: delta
    # out of range, and a census past q / delta^2 on synthetic counts
    spec = make_field(*field)
    q = spec.cardinality
    base = data.draw(st.sampled_from([0, 5, 1000, 1 << 40]))
    counts = data.draw(st.lists(st.integers(base, base + 30),
                                min_size=q, max_size=q))
    card = data.draw(st.sampled_from([sum(counts), q * base + q]))
    eq = make_equation(spec, [(1, 1)] * n, 0)
    box = SearchBox(tuple(range(n)), (r,) * n, r, card)
    rep = DensityReport(eq, box, np.array(counts, dtype=np.int64),
                        Fraction(card, q), Fraction(0))
    want = census_outcome(fraction_census, rep, delta)
    assert census_outcome(exceptional_census, rep, delta) == want


def test_census_in_integers_at_the_cli_deltas():
    import math
    rng = random.Random(28)
    for p, nu, n, r in [(101, 1, 2, None), (3, 4, 3, None), (1031, 1, 2, 3),
                        (2, 6, 3, 1)]:
        eq = random_equation(make_field(p, nu), n, rng)
        rep = sweep_b(eq, make_box(eq, r=r))
        for delta in (math.sqrt(math.log(rep.q)), 1, 0.3, Fraction(3, 7),
                      2):
            want = census_outcome(fraction_census, rep, delta)
            assert census_outcome(exceptional_census, rep, delta) == want


def test_census_at_its_bound_holds_and_one_past_raises():
    # q = 9, delta = 3: the bound q / delta^2 is 1, and with n = 2, r = 1
    # and card = 18 a b is exceptional when |N - 2| >= 3
    spec = make_field(3, 2)
    eq = make_equation(spec, [(1, 3), (1, 3)], 0)
    box = SearchBox((0, 1), (1, 1), 1, 18)
    for counts, size in [([5, 2, 2, 2, 2, 2, 2, 1, 0], 1),
                         ([5, 5, 2, 2, 2, 2, 0, 0, 0], 2)]:
        rep = DensityReport(eq, box, np.array(counts, dtype=np.int64),
                            Fraction(2), Fraction(0))
        want = census_outcome(fraction_census, rep, 3)
        assert census_outcome(exceptional_census, rep, 3) == want
        if size == 1:
            assert want[0].exceptional == (0,) and want[0].size_ok
        else:
            assert want[0] is InvariantViolated


def test_census_delta_validation():
    _, _, rep = sweep_fixture(7, 1, [(1, 3), (1, 2)])
    for bad in (0, -1, Fraction(-1, 2), float("nan"), float("inf"),
                float("1e400")):
        with pytest.raises(BadDelta):
            exceptional_census(rep, bad)
    with pytest.raises(BadDelta):
        exceptional_census(rep, 3)   # delta^2 = 9 > q = 7
    # delta = sqrt(q) is the inclusive upper end: use q = 9, delta = 3
    _, _, rep9 = sweep_fixture(3, 2, [(1, 3), (1, 2)])
    assert exceptional_census(rep9, 3).bound == 1
    with pytest.raises(BadDelta):
        exceptional_census(rep9, Fraction(301, 100))


def test_census_size_bound_random_battery():
    rng = random.Random(77)
    import math
    for p, nu in [(101, 1), (257, 1), (2, 8), (3, 5)]:
        spec = make_field(p, nu)
        q = spec.cardinality
        for _ in range(5):
            eq = random_equation(spec, rng.randrange(2, 4), rng)
            full = make_box(eq)
            r = rng.randrange(1, full.orders_sorted[-1] + 1)
            box = make_box(eq, r=r)
            if box.card > 2 * 10 ** 5:
                continue
            rep = sweep_b(eq, box)
            assert energy_bound_check(rep)[0]
            for delta in (1, Fraction(2), math.sqrt(math.log(q))):
                census = exceptional_census(rep, delta)
                assert len(census.exceptional) <= float(census.bound)


# ---------------------------------------------------------------------------
# minimal r corollary


def test_corollary_min_r_examples():
    # q = 7, orders (6, 3): r > 49/36 * ln 7 = 2.649 -> r0 = 3 <= 3
    r0, fits = corollary_min_r(7, (6, 3))
    assert (r0, fits) == (3, True)
    # orders (2, 2): r > 49/4 * ln 7 = 23.83 -> r0 = 24, way over s_n = 2
    r0, fits = corollary_min_r(7, (2, 2))
    assert (r0, fits) == (24, False)
    # base-2 log variant
    r0, fits = corollary_min_r(7, (6, 3), log_base="base2")
    assert r0 == int(49 / 36 * 2.807354922057604) + 1


def test_corollary_validates_and_overflows():
    with pytest.raises(ValueError):
        corollary_min_r(7, (3, 6))
    with pytest.raises(Overflow):
        corollary_min_r(2147483647, (2, 2))
    with pytest.raises(ValueError):
        corollary_min_r(7, (6, 3), log_base="decimal")
    # large orders push r0 down to 1
    r0, fits = corollary_min_r(101, (100,) * 5)
    assert (r0, fits) == (1, True)


def test_corollary_r_guarantees_nonempty_for_nonexceptional():
    # at r >= r0 every non-exceptional b at delta = sqrt(log q) has N >= 1
    import math
    rng = random.Random(99)
    spec = make_field(101)
    for _ in range(6):
        eq = random_equation(spec, 2, rng)
        box_full = make_box(eq)
        r0, fits = corollary_min_r(101, box_full.orders_sorted)
        if not fits:
            continue
        box = make_box(eq, r=r0)
        rep = sweep_b(eq, box)
        census = exceptional_census(rep, math.sqrt(math.log(101)))
        for b in range(101):
            if not census.mask[b]:
                assert rep.counts[b] >= 1


# ---------------------------------------------------------------------------
# serialization


def report_from_dict(doc: dict) -> DensityReport:
    """The DensityReport a `density_report` document describes, with its
    equation and box recomputed and checked."""
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported schema {doc.get('schema')}")
    eq = equation_from_dict(doc["eq"])
    box = make_box(eq, doc["box"]["r"])
    if box.to_dict() != doc["box"]:
        raise ValueError("stored box disagrees with recomputation")
    return DensityReport(eq, box, np.array(doc["counts"], dtype=np.int64),
                         Fraction(*doc["main"]), Fraction(*doc["energy"]))


def test_report_json_round_trip():
    eq, box, rep = sweep_fixture(7, 1, [(1, 3), (1, 2)])
    census = exceptional_census(rep, 1)
    doc = report_to_dict(rep, census)
    assert doc["schema"] == 1
    back = report_from_dict(doc)
    assert back.counts.tolist() == rep.counts.tolist()
    assert back.main == rep.main and back.energy == rep.energy
    assert back.box == rep.box and back.eq == rep.eq
    assert doc["census"]["exceptional"] == []
    bad = dict(doc)
    bad["schema"] = 2
    with pytest.raises(ValueError):
        report_from_dict(bad)


def test_report_dict_writes_like_its_list():
    # 3329 counts, past the writer's array threshold
    eq, box, rep = sweep_fixture(3329, 1, [(1, 3), (5, 243)], r=10)
    census = exceptional_census(rep, 1)
    doc = report_to_dict(rep, census)
    assert doc["counts"] is rep.counts
    listed = {**doc, "counts": doc["counts"].tolist()}
    assert json.loads(json.dumps(listed)) == listed
    assert cli._json_text(doc) == json.dumps(listed, indent=2)
    assert report_from_dict(listed).counts.tolist() == listed["counts"]


def test_folded_report_writes_by_runs(monkeypatch):
    # a full-order coordinate folds the sweep: the 12 289 counts take 21
    # runs in packed order, so the writer takes its run path
    spec = make_field(12289)
    g = find_generator(spec)
    eq = make_equation(spec, [(1, g.packed()), (5, (g ** 3).packed())], 0)
    rep = sweep_b(eq, make_box(eq, r=10))
    runs = int(np.count_nonzero(rep.counts[1:] != rep.counts[:-1])) + 1
    assert eq.orders[0] == 12288 and runs == 21
    doc = report_to_dict(rep, exceptional_census(rep, 1))
    listed = {**doc, "counts": doc["counts"].tolist()}

    def dense(values, sep):
        raise AssertionError("the folded counts took the digit table")

    monkeypatch.setattr(cli, "_digit_table_text", dense)
    assert cli._json_text(doc) == json.dumps(listed, indent=2)


def test_per_b_csv_layout():
    _, _, rep = sweep_fixture(7, 1, [(1, 3), (1, 2)])
    census = exceptional_census(rep, 1)
    buf = io.StringIO()
    write_per_b_csv(rep, census, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "b_index,N,main_num,main_den,delta,exceptional_flag"
    assert len(lines) == 8
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "3"
    assert first[2] == "18" and first[3] == "7"
    assert abs(float(first[4]) - (3 - 18 / 7)) < 1e-12
    assert first[5] == "0"
    # at delta = 0.3 the b with two solutions are exceptional
    census = exceptional_census(rep, 0.3)
    buf = io.StringIO()
    write_per_b_csv(rep, census, buf)
    flags = [line.split(",")[5] for line in buf.getvalue().splitlines()[1:]]
    assert flags == ["0", "1", "1", "0", "1", "0", "0"]


def reference_csv(report, mask):
    """The per-b table with every delta taken from its Fraction."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["b_index", "N", "main_num", "main_den", "delta",
                     "exceptional_flag"])
    main = report.main
    for b, (count, flag) in enumerate(zip(report.counts.tolist(),
                                          mask.tolist())):
        writer.writerow([b, count, main.numerator, main.denominator,
                         repr(float(count - main)), int(flag)])
    return buf.getvalue()


def csv_report(p, nu, counts, card):
    """A report over F_{p^nu} with the given counts and box size (the
    writer reads nothing else)."""
    eq = make_equation(make_field(p, nu), [(1, 1)], 0)
    box = SearchBox((0,), (1,), 1, card)
    return DensityReport(eq, box, np.array(counts, dtype=np.int64),
                         Fraction(card, eq.q), Fraction(0))


def written_csv(report, mask):
    buf = io.StringIO()
    write_per_b_csv(report, SimpleNamespace(mask=mask), buf)
    return buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_csv_deltas_from_arrays_match_fractions(data):
    p, nu = data.draw(st.sampled_from([(2, 1), (3, 1), (7, 1), (101, 1),
                                       (2, 3), (3, 2)]))
    q = p ** nu
    # up to the edge of the array path: every |q N - card| < 2^53
    card = data.draw(st.one_of(st.integers(1, 10 ** 6),
                               st.integers((1 << 53) - 10 ** 6,
                                           (1 << 53) - 1)))
    top = ((1 << 53) - 1) // q
    counts = data.draw(st.lists(st.one_of(st.integers(0, 3 * card // q + 2),
                                          st.integers(top - 100, top)),
                                min_size=q, max_size=q))
    counts = [min(c, top) for c in counts]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=q,
                                       max_size=q)))
    rep = csv_report(p, nu, counts, card)
    assert written_csv(rep, mask) == reference_csv(rep, mask)


def test_csv_deltas_past_2_to_53_take_the_fraction():
    # q N - card = -(2^53 + 1): as a double it is -2^53, and dividing that
    # by 3 rounds to ...330.5 where the exact delta is ...331
    card = (1 << 53) + 1
    rep = csv_report(3, 1, [0, 1, 2], card)
    assert float(-card) / 3 != float(Fraction(-card, 3))
    mask = np.zeros(3, dtype=bool)
    text = written_csv(rep, mask)
    assert text == reference_csv(rep, mask)
    assert text.splitlines()[1].split(",")[4] == "-3002399751580331.0"
    # the same through a count too large instead of a card too large
    rep = csv_report(3, 1, [(1 << 53) // 3 + 1, 0, 0], 5)
    assert written_csv(rep, mask) == reference_csv(rep, mask)

