"""The spectral counting engine against the exhaustive oracle.

Three independent routes must agree on every small instance: brute_count
(box evaluation), count_via_charsum (one entry of the spectral counts) and
sweep_b (all of them).  The floating-point transform must agree with the
exact integer fallback, its certificate must reject corrupted output, and
the invariants behind exit code 3 must still fire under python -O.
"""

import dataclasses
import importlib.util
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expzeros import charsum, fields
from expzeros.arith import divisors
from expzeros.charsum import (brute_count, count_via_charsum, make_box,
                              make_equation, spectral_counts)
from expzeros.density import sweep_b
from expzeros.fields import make_field
from expzeros.instances import (element_of_order, find_generator,
                                random_equation)

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (2, 2),
                (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]
PROPERTY_CARD_CAP = 200_000


def instance(p, nu, terms, b, r=None):
    eq = make_equation(make_field(p, nu), terms, b)
    return eq, make_box(eq, r)


@st.composite
def small_instances(draw):
    """(eq, box) over a small field; g = 1 (order 1) is drawn often."""
    p, nu = draw(st.sampled_from(SMALL_FIELDS))
    q = p ** nu
    unit = st.integers(1, q - 1)
    terms = draw(st.lists(st.tuples(unit, st.one_of(st.just(1), unit)),
                          min_size=1, max_size=4))
    eq = make_equation(make_field(p, nu), terms,
                       draw(st.one_of(st.just(0), st.integers(0, q - 1))))
    full = make_box(eq)
    front = full.card // full.r
    r = draw(st.integers(1, full.r))
    return eq, make_box(eq, min(r, max(1, PROPERTY_CARD_CAP // front)))


def eval_packed(eq, x):
    acc = eq.spec.zero()
    for (a, g), xi in zip(eq.terms, x):
        acc = acc + a * g ** xi
    return acc.packed()


@settings(max_examples=150, deadline=None)
@given(small_instances())
@example(instance(2, 1, [(1, 1)], 0, 1))          # p = 2, g = 1, n = 1
@example(instance(2, 1, [(1, 1)], 1, 1))
@example(instance(2, 3, [(1, 1), (3, 2)], 0, 1))  # r = 1, b = 0
@example(instance(5, 2, [(7, 1)], 7))             # order 1, b = a
@example(instance(7, 1, [(3, 1), (1, 3), (2, 1)], 0))
@example(instance(13, 1, [(1, 2), (3, 6), (2, 4), (5, 5)], 0, 1))
@example(instance(11, 1, [(a, 10) for a in range(1, 10)] + [(2, 1)], 3))
def test_brute_charsum_and_sweep_agree(case):
    eq, box = case
    b = eq.b.packed()
    want, sols = brute_count(eq, box)
    assert round(count_via_charsum(eq, box)) == want
    assert count_via_charsum(eq, box) == want
    assert sweep_b(eq, box).counts[b] == want
    if sols is not None:
        assert len(sols) == want == len(set(sols))
        assert sols == sorted(sols, key=lambda x: [x[box.perm[k]]
                                                  for k in range(box.n)])
        for x in sols:
            assert eval_packed(eq, x) == b
            assert all(0 <= x[box.perm[k]] < lim
                       for k, lim in enumerate(box.limits()))


FULL_ORDER_CARD_CAP = 20_000


@st.composite
def full_order_instances(draw):
    """(eq, box) over a small field whose leading coordinates, none, some
    or all of them, have order q - 1; the rest have a proper divisor of
    q - 1 as order.  r = q - 1 often, so the last coordinate is full too
    when every order is."""
    p, nu = draw(st.sampled_from(SMALL_FIELDS))
    spec = make_field(p, nu)
    q = spec.cardinality
    proper = [d for d in divisors(q - 1) if d < q - 1]
    n = draw(st.integers(1, 3))
    full = draw(st.integers(0 if proper else n, n))
    rng = draw(st.randoms(use_true_random=False))
    gen = find_generator(spec)
    orders = [q - 1] * full + [draw(st.sampled_from(proper))
                               for _ in range(n - full)]
    terms = [(rng.randrange(1, q),
              element_of_order(spec, d, gen, rng).packed()) for d in orders]
    eq = make_equation(spec, terms, 0)
    whole = make_box(eq)
    r = draw(st.one_of(st.just(whole.r), st.integers(1, whole.r)))
    front = whole.card // whole.r
    return eq, make_box(eq, min(r, max(1, FULL_ORDER_CARD_CAP // front)))


@settings(max_examples=60, deadline=None)
@given(full_order_instances())
@example(instance(2, 1, [(1, 1)], 0))                     # q - 1 = 1
@example(instance(5, 1, [(2, 2)], 0))                     # n = 1, r = 4
@example(instance(7, 1, [(1, 3), (2, 5), (4, 3)], 0))     # all full
@example(instance(3, 2, [(1, 4), (2, 5)], 0))             # nu = 2, all full
@example(instance(3, 2, [(1, 4), (2, 5)], 0, 3))          # ... but r < q - 1
@example(instance(2, 4, [(1, 2), (3, 4), (5, 8)], 0, 2))  # some full
@example(instance(13, 1, [(1, 2), (3, 3)], 0, 2))         # one full
def test_full_order_fold_matches_brute_for_every_b(case):
    # The only guard on which coordinates fold: a wrongly folded one
    # still sums to box.card, since sum_b (T - c_b) = (q - 1) T
    eq, box = case
    counts = spectral_counts(eq, box)
    assert len(counts) == eq.q
    for b in range(eq.q):
        beq = make_equation(eq.spec, [(a.packed(), g.packed())
                                      for a, g in eq.terms], b)
        assert brute_count(beq, make_box(beq, box.r), list_cap=0)[0] \
            == counts[b]


# fields that hold their log table, prime and nu > 1
COSET_FIELDS = [(7, 1), (13, 1), (31, 1), (37, 1), (2, 4), (2, 6), (3, 3),
                (3, 4), (5, 2), (7, 2)]
COSET_CARD_CAP = 4_000


@st.composite
def coset_instances(draw):
    """(eq, box) whose two leading coordinates run over whole cosets of
    proper subgroups, of nested orders (s_2 | s_1), equal ones or coprime
    ones, and then nothing (r = s_n), a third whole coset (r = s_n too)
    or a third coordinate truncated to r < s_n."""
    p, nu = draw(st.sampled_from(COSET_FIELDS))
    spec = make_field(p, nu)
    q = spec.cardinality
    proper = [d for d in divisors(q - 1) if 1 < d < q - 1]
    kinds = {"nested": lambda a, b: a % b == 0 and a != b,
             "equal": lambda a, b: a == b,
             "coprime": lambda a, b: math.gcd(a, b) == 1}
    pairs = {kind: [(a, b) for a in proper for b in proper
                    if b <= a and a * b <= COSET_CARD_CAP and rule(a, b)]
             for kind, rule in kinds.items()}
    kind = draw(st.sampled_from(sorted(k for k in pairs if pairs[k])))
    orders = list(draw(st.sampled_from(pairs[kind])))
    third = draw(st.sampled_from(["none", "full", "truncated"]))
    smaller = [d for d in divisors(q - 1)
               if 1 < d <= orders[1] and d * orders[0] * orders[1]
               <= COSET_CARD_CAP]
    r = None
    if third != "none" and smaller:
        orders.append(draw(st.sampled_from(smaller)))
        if third == "truncated":
            r = draw(st.integers(1, orders[-1] - 1))
    rng = draw(st.randoms(use_true_random=False))
    gen = find_generator(spec)
    terms = [(rng.randrange(1, q),
              element_of_order(spec, d, gen, rng).packed()) for d in orders]
    return instance(p, nu, terms, 0, r)


def plan_forced(chain):
    """`_plan` with the coset chain forced onto every whole coset (chain
    true) or off, and the engine's own split of what is left."""
    plan = charsum._plan

    def forced(p, nu, limits, full):
        if not chain or full < 2:
            return plan(p, nu, limits, 0)
        tail = (math.prod(limits[:full]),) + limits[full:]
        return (True,) + charsum._transform_terms(p, nu, tail)[1:] + (tail,)

    return forced


def bare_copy(eq):
    """eq over a fresh FieldSpec of the same field, which holds no log
    table (make_equation would build one)."""
    bare = fields.FieldSpec(eq.spec.p, eq.spec.nu)
    terms = tuple((bare.from_packed(a.packed()), bare.from_packed(g.packed()))
                  for a, g in eq.terms)
    return charsum.ExpEquation(bare, terms, bare.zero(), eq.orders)


@settings(max_examples=100, deadline=None)
@given(coset_instances(), st.booleans())
@example(instance(7, 1, [(1, 6), (3, 2)], 0), False)         # orders 2, 3
@example(instance(31, 1, [(1, 9), (2, 27), (3, 16)], 0, 3), True)  # 15, 10
@example(instance(3, 4, [(1, 7), (5, 7), (7, 43)], 0, 4), False)  # 20, 20
@example(instance(3, 4, [(1, 21), (2, 13)], 0), True)        # 16, 10
@example(instance(2, 6, [(1, 6), (5, 6)], 0), True)          # 9, 9
def test_coset_step_matches_brute_for_every_b(case, shared):
    # The rule's own choice, the chain forced onto every whole coset, on
    # the equation's field and on a bare FieldSpec, whose log table the
    # chain builds, and the chain forced off, which keeps to the engine
    # and builds no table; with and without the walks `count` shares.
    # Every b against brute_count.
    eq, box = case
    q = eq.q
    full = whole_cosets(eq.spec.p, eq.spec.nu, box.orders_sorted, box.r)
    assert full >= 2
    want = [brute_count(dataclasses.replace(eq, b=eq.spec.from_packed(b)),
                        box, list_cap=0)[0] for b in range(q)]

    def walks_of(eq):
        return list(charsum.box_walks(eq, box)) if shared else None

    steps, step = [], charsum._coset_step

    def counted(counts, walk, sub, p, antilog):
        steps.append(sub)
        return step(counts, walk, sub, p, antilog)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charsum, "_coset_step", counted)
        assert spectral_counts(eq, box, walks_of(eq)).tolist() == want
        mp.setattr(charsum, "_plan", plan_forced(True))
        # one step per whole coset after the first, over the subgroup of
        # the orders' running gcd
        orders = [s for s in box.orders_sorted if s < q - 1][:full]
        gcds = [math.gcd(*orders[:i + 1]) for i in range(1, full)]
        for chained in (eq, bare_copy(eq)):
            steps.clear()
            assert spectral_counts(chained, box,
                                   walks_of(chained)).tolist() == want
            assert steps == gcds
            assert chained.spec._zech is not None
        bare = bare_copy(eq)
        mp.setattr(charsum, "_plan", plan_forced(False))
        mp.setattr(charsum, "_coset_step", None)  # never reached
        assert spectral_counts(bare, box, walks_of(bare)).tolist() == want
        assert bare.spec._zech is None


def test_exact_fallback_matches_float_path(monkeypatch):
    rng = random.Random(8128)
    cases = []
    for p, nu in [(7, 1), (101, 1), (257, 1), (2, 6), (3, 4), (5, 2),
                  (97, 2)]:
        spec = make_field(p, nu)
        for n in (1, 2, 3, 4):
            eq = random_equation(spec, n, rng)
            full = make_box(eq)
            cases.append((eq, make_box(eq, rng.randrange(1, full.r + 1))))
    floats = [spectral_counts(eq, box) for eq, box in cases]
    monkeypatch.setattr(charsum, "_fft_counts", lambda *args: None)
    for (eq, box), want in zip(cases, floats):
        got = spectral_counts(eq, box)
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()


def histograms(eq, box):
    p = eq.spec.p
    return [np.bincount(fields._pack(fields._power_walk(a, g, lim), p),
                        minlength=eq.q)
            for (a, g), lim in zip(charsum.sorted_terms(eq, box),
                                   box.limits())]


def exact_counts(walks, p, q):
    """The walks' convolution by shift-and-add alone, from the first
    walk's histogram."""
    lead = np.bincount(fields._pack(walks[0], p), minlength=q)
    return charsum._exact_counts(lead, walks[1:], p)


def fft_counts(hists, p, nu, card):
    """_fft_counts on the route `_transform_route` gives the box, or None
    when no route certifies it."""
    route = charsum._transform_route(p, nu, len(hists), card)
    return route and charsum._fft_counts(hists, p, nu, card, route)


CORRUPTIONS = [
    lambda raw: raw + 0.4,                       # far from every integer
    lambda raw: raw + 0.3j,                      # imaginary part too big
    lambda raw: raw + (np.arange(raw.size) == 0).reshape(raw.shape),
    lambda raw: raw * np.nan,
]


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_certificate_rejects_bad_transform_and_falls_back(monkeypatch,
                                                         corrupt):
    # p = 257 lies above MATRIX_MAX_P: the FFT route, padded and folded
    eq, box = instance(257, 1, [(3, 2), (5, 16), (7, 4)], 0)
    assert 257 > charsum.MATRIX_MAX_P
    hists = histograms(eq, box)
    want = spectral_counts(eq, box)
    assert fft_counts(hists, 257, 1, box.card).tolist() \
        == want.tolist()
    irfftn = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn",
                        lambda *args, **kw: corrupt(irfftn(*args, **kw)))
    assert fft_counts(hists, 257, 1, box.card) is None
    assert spectral_counts(eq, box).tolist() == want.tolist()


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("p, nu, terms", [
    (101, 1, [(3, 2), (5, 6), (7, 10)]),
    (3, 4, [(3, 2), (5, 7), (7, 10)]),
])
def test_matrix_route_certificate_rejects_bad_transform(monkeypatch, corrupt,
                                                        p, nu, terms):
    eq, box = instance(p, nu, terms, 0)
    assert p <= charsum.MATRIX_MAX_P
    hists = histograms(eq, box)
    want = spectral_counts(eq, box)
    assert fft_counts(hists, p, nu, box.card).tolist() \
        == want.tolist()
    convolve = charsum._matrix_convolve
    monkeypatch.setattr(charsum, "_matrix_convolve",
                        lambda *args: corrupt(convolve(*args)))
    assert fft_counts(hists, p, nu, box.card) is None
    assert spectral_counts(eq, box).tolist() == want.tolist()


# p on both sides of MATRIX_MAX_P, prime and extension fields
ROUTE_FIELDS = [(2, 1), (2, 3), (2, 6), (3, 2), (3, 5), (5, 3), (7, 1),
                (11, 2), (97, 1), (127, 1), (131, 1), (257, 1), (521, 1)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_both_routes_match_exact_and_brute(data):
    p, nu = data.draw(st.sampled_from(ROUTE_FIELDS))
    spec = make_field(p, nu)
    q = spec.cardinality
    unit = st.integers(1, q - 1)
    terms = data.draw(st.lists(st.tuples(unit, unit), min_size=1,
                               max_size=3))
    eq = make_equation(spec, terms, data.draw(st.integers(0, q - 1)))
    full = make_box(eq)
    r = data.draw(st.integers(1, full.r))
    box = make_box(eq, min(r, max(1, PROPERTY_CARD_CAP // (full.card
                                                           // full.r))))
    hists = histograms(eq, box)
    counts = fft_counts(hists, p, nu, box.card)
    assert counts is not None  # the float route itself, not its fallback
    assert counts.tolist() == \
        exact_counts(list(charsum.box_walks(eq, box)), p, q).tolist()
    assert counts.tolist() == spectral_counts(eq, box).tolist()
    assert counts[eq.b.packed()] == brute_count(eq, box, list_cap=0)[0]


def test_a_priori_bound_scales_with_card_and_size():
    small = charsum._fft_error_bound(10 ** 6, 3, (1 << 15,))
    assert 0 < small < 1e-6
    assert charsum._fft_error_bound(10 ** 7, 3, (1 << 15,)) == \
        pytest.approx(10 * small)
    assert charsum._fft_error_bound(10 ** 6, 3, (1 << 16,)) > small
    # a box this large never reaches the float path
    assert charsum._fft_error_bound(1 << 62, 2, (2,)) >= charsum.ROUND_SLACK
    assert fft_counts([np.ones(7, dtype=np.int64)] * 2, 7, 1,
                               1 << 60) is None


def test_dense_error_bound_adds_axis_lengths():
    u = charsum.UNIT_ROUNDOFF
    gamma = 2 * (97 + charsum.DENSE_ERR_CONST) * u
    assert charsum._fft_error_bound(10 ** 6, 3, (97, 97), dense=True) == \
        pytest.approx(10 ** 6 * (4 * gamma + 3 * u))
    # length-2 axes: the dense sum counts fewer u than the FFT's stages
    assert charsum._fft_error_bound(10 ** 6, 2, (2,) * 12, dense=True) < \
        charsum._fft_error_bound(10 ** 6, 2, (2,) * 12)
    assert fft_counts([np.ones(8, dtype=np.int64)] * 2, 2, 3,
                               1 << 60) is None


def is_5_smooth(m):
    for f in (2, 3, 5):
        while m % f == 0:
            m //= f
    return m == 1


def test_transform_shape_pads_prime_axis_to_smooth_length():
    # a prime axis pads to the least 5-smooth L >= n(p-1)+1, no longer
    # than the power of two it used to pad to
    for p, n in [(2, 1), (101, 3), (127, 4), (131, 1), (257, 2), (1031, 3),
                 (9973, 3), (65537, 2), (65537, 4)]:
        L, = charsum._transform_shape(p, 1, n)
        need = n * (p - 1) + 1
        assert L >= need and is_5_smooth(L)
        assert L <= 1 << (n * (p - 1)).bit_length()
        assert not any(is_5_smooth(m) for m in range(need, L))
    assert charsum._transform_shape(65537, 1, 2) == (131220,)
    # too many terms: the padded grid would pass PAD_LIMIT * p
    assert charsum._transform_shape(257, 1, 16) == (257,)
    # extension fields keep the prime-length axes
    assert charsum._transform_shape(3, 4, 2) == (3, 3, 3, 3)
    assert charsum._transform_shape(97, 2, 3) == (97, 97)
    assert charsum._transform_shape(131, 2, 2) == (131, 131)


@pytest.mark.parametrize("p, nu, limits", [
    # F_{127^2}: 2.0e12 points pass the FFT's bound, not the dense one
    (127, 2, [16128, 500, 500, 500]),
    # F_9973: 2.0e12 points pass the unpadded grid's bound, not the
    # padded one (the 5-smooth length 69984 has 3 more stages)
    (9973, 1, [57] * 7),
])
def test_float_route_certifies_boxes_past_the_first_grids_bound(
        monkeypatch, p, nu, limits):
    spec = make_field(p, nu)
    q = spec.cardinality
    gamma = find_generator(spec)
    walks = [fields._power_walk(gamma ** (3 * j + 1), gamma ** e, limit)
             for j, (e, limit)
             in enumerate(zip([1, 5, 11, 13, 17, 19, 23], limits))]
    hists = [np.bincount(fields._pack(walk, p), minlength=q)
             for walk in walks]
    card = math.prod(limits)
    n, slack = len(hists), charsum.ROUND_SLACK
    if p <= charsum.MATRIX_MAX_P:
        assert charsum._fft_error_bound(card, n, (p,) * nu,
                                        dense=True) >= slack
        monkeypatch.setattr(charsum, "_matrix_convolve", None)
    else:
        assert charsum._fft_error_bound(
            card, n, charsum._transform_shape(p, nu, n)) >= slack
    assert charsum._fft_error_bound(card, n, (p,) * nu) < slack
    counts = fft_counts(hists, p, nu, card)
    assert counts is not None and len(counts) == q
    assert counts.tolist() == exact_counts(walks, p, q).tolist()


def test_smooth_length_small_values():
    smooth = [m for m in range(1, 200) if is_5_smooth(m)]
    for m in range(1, 190):
        assert charsum._smooth_length(m) == min(s for s in smooth if s >= m)


def test_brute_count_blocks_cover_large_boxes():
    # one axis longer than a block, and a head run over several blocks
    g = find_generator(make_field(131071)).packed()
    for p, terms, r in [(131071, [(5, g)], None),
                        (1031, [(2, 14), (3, 14)], 100)]:
        eq, box = instance(p, 1, terms, 1, r)
        assert box.card > charsum.BRUTE_BLOCK
        n, sols = brute_count(eq, box, list_cap=1 << 20)
        assert n == round(count_via_charsum(eq, box)) == len(sols)
        assert all(eval_packed(eq, x) == 1 for x in sols)


INVARIANT_SCRIPT = """
import sys
from fractions import Fraction
import numpy as np
assert False, "assertions are on; this script must run under python -O"
from expzeros import charsum, cli, density, errors
from expzeros.charsum import make_box, make_equation
from expzeros.fields import make_field

eq = make_equation(make_field(7), [(1, 3), (1, 2)], 0)
box = make_box(eq)
counts = np.array([9, 9, 0, 0, 0, 0, 0], dtype=np.int64)
report = density.DensityReport(eq, box, counts, Fraction(18, 7), Fraction(0))
try:
    density.exceptional_census(report, Fraction(6, 5))
except errors.InvariantViolated:
    print("census invariant held")
charsum._fft_counts = lambda *args: None
charsum._exact_counts = lambda counts, walks, p: 0 * counts
charsum._coset_step = lambda counts, *args: 0 * counts
# orders (3, 3): no coordinate of order q - 1, so both walks reach the
# engine or the coset step, each broken
sys.exit(cli.main(["density", "--p", "7", "--terms", "1,2;3,2",
                   "--b", "0", "--format", "json"]))
"""


def test_invariants_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", INVARIANT_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.stdout.splitlines()[0] == "census invariant held"
    assert proc.returncode == 3, proc.stderr
    assert "internal error" in proc.stderr
    assert "sum to 0, not the box size 9" in proc.stderr


# ---------------------------------------------------------------------------
# the split: the leading m walks through the certified transform, the
# other n - m by exact shift-and-add; m = 1 needs no transform

# primes on both sides of MATRIX_MAX_P, and extension fields on both sides
# of it (F_{131^2} runs the FFT on its unpadded grid)
SPLIT_FIELDS = [(7, 1), (127, 1), (131, 1), (257, 1), (1031, 1),
                (3329, 1), (9973, 1), (2, 6), (3, 4), (97, 2), (131, 2)]


def forced_counts(eq, box, m, fallback=False):
    """spectral_counts with the coset chain off and the split forced to
    m, and with the transform refused (the exact fallback) when
    `fallback`; and how many walks each call of the exact shift-and-add
    received."""
    exact_counts, calls = charsum._exact_counts, []

    def counted(counts, walks, p):
        calls.append(len(walks))
        return exact_counts(counts, walks, p)

    def forced(p, nu, limits, full):
        card = math.prod(limits[:m])
        return False, m, (charsum._transform_route(p, nu, m, card)
                          if m > 1 else None), limits

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charsum, "_plan", forced)
        mp.setattr(charsum, "_exact_counts", counted)
        if fallback:
            mp.setattr(charsum, "_fft_counts", lambda *args: None)
        return spectral_counts(eq, box), calls


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_route_matches_brute_and_exact_counts(data):
    p, nu = data.draw(st.sampled_from(SPLIT_FIELDS))
    spec = make_field(p, nu)
    q = spec.cardinality
    # orders drawn from the divisors of q - 1, the leading ones within the
    # brute-force budget and the last no larger than any of them
    divs = divisors(q - 1)
    front, budget = [], PROPERTY_CARD_CAP
    for _ in range(data.draw(st.integers(0, 3))):
        front.append(data.draw(st.sampled_from(
            [d for d in divs if d <= budget])))
        budget //= front[-1]
    last = data.draw(st.sampled_from(
        [d for d in divs if d <= min(front, default=q - 1)]))
    rng = data.draw(st.randoms(use_true_random=False))
    gen = find_generator(spec)
    terms = [(rng.randrange(1, q),
              element_of_order(spec, d, gen, rng).packed())
             for d in front + [last]]
    eq = make_equation(spec, terms, data.draw(st.integers(0, q - 1)))
    # r = 1 often: a trailing walk of one value is one shift
    r = data.draw(st.one_of(st.just(1),
                            st.integers(1, max(1, min(last, budget)))))
    box = make_box(eq, r)
    want = exact_counts(list(charsum.box_walks(eq, box)), p, q)
    assert spectral_counts(eq, box).tolist() == want.tolist()
    # full-order coordinates are folded in closed form; the split runs on
    # the n others
    n = sum(limit != q - 1 for limit in box.limits())
    for m in range(1, n + 1):
        # the transform certifies the leading m walks' sub-box itself and
        # the other n - m are shifted onto its counts; refused, every walk
        # after the first is shifted
        counts, calls = forced_counts(eq, box, m)
        assert counts.tolist() == want.tolist()
        assert calls == ([n - m] if m < n else [])
        counts, calls = forced_counts(eq, box, m, fallback=True)
        assert counts.tolist() == want.tolist()
        assert calls == ([n - 1] if n > 1 else [])
    if n == 0:
        counts, calls = forced_counts(eq, box, 1)
        assert counts.tolist() == want.tolist() and calls == []
    # brute force at the equation's b and at the most and least hit b
    for b in {eq.b.packed(), int(want.argmax()), int(want.argmin())}:
        beq = make_equation(spec, terms, b)
        assert brute_count(beq, make_box(beq, box.r), list_cap=0)[0] \
            == want[b]


# (p, nu, limits, m) for every count and sweep benchmark shape with n >= 2
# (sorted limits, the last truncated to r).  They pin the rule as a
# function of its limits; `spectral_counts` hands it only the limits
# below q - 1, and where it chains whole cosets (BENCHMARK_COSETS) their
# product in place of theirs.  Best of 15 convolutions on a 2-CPU Xeon,
# ms: F_9973 (277, 277, 1) 1.89 at m = 3 -> 0.95 at m = 2; F_97^2
# (96, 4) 1.36 -> 0.23 at m = 1; F_97^2 (147, 49, 3) 1.81 -> 1.59;
# F_1031 (206, 103, 2) 0.17 -> 0.13; F_769 (768, 768, 3) 0.25 -> 0.22.
BENCHMARK_SPLITS = [
    # count
    (7, 1, (6, 6, 6, 6), 4), (7, 1, (6, 3), 2), (31, 1, (30, 15, 10), 3),
    (101, 1, (100, 100, 5), 3), (101, 1, (50, 25, 20, 4), 4),
    (257, 1, (256, 64), 2), (257, 1, (64, 32, 8), 3),
    (1031, 1, (1030, 50), 2), (1031, 1, (206, 103, 2), 2),
    (9973, 1, (831, 40), 1), (9973, 1, (277, 277, 1), 2),
    (9973, 1, (277, 3), 1), (2, 3, (7, 7, 7), 3), (3, 2, (8, 8, 8, 4), 4),
    (5, 2, (24, 12, 8), 3), (2, 6, (63, 21, 9), 3), (3, 4, (80, 40), 2),
    (7, 4, (96, 25, 12), 3), (2, 12, (585, 63), 2), (3, 8, (205, 41), 2),
    (3, 8, (41, 41, 3), 3), (97, 2, (147, 49, 3), 2), (97, 2, (96, 4), 1),
    # sweep
    (7, 1, (6, 6), 2), (31, 1, (30, 30, 30), 3), (97, 1, (96, 96, 96), 3),
    (101, 1, (100, 100, 100), 3), (257, 1, (256, 256, 32), 3),
    (769, 1, (768, 768, 3), 2), (1031, 1, (1030, 1030), 2),
    (2, 3, (7, 7, 7, 7), 4), (3, 2, (8, 8, 8, 8), 4),
    (5, 2, (24, 24, 24, 24), 4), (2, 6, (63, 63, 63), 3),
    (3, 4, (80, 80, 80), 3), (7, 4, (2400, 100), 2),
    (2, 12, (4095, 256), 2), (3, 8, (6560, 328), 2),
    (97, 2, (9408, 147), 2), (3329, 1, (3328, 10), 1),
    (9973, 1, (9972, 8), 1), (12289, 1, (12288, 12), 1),
    (40961, 1, (40960, 16), 1), (65537, 1, (65536, 20), 1),
]


def test_split_rule_picks_for_benchmark_shapes():
    picks = {(p, nu, limits): charsum._plan(p, nu, limits, 0)[1]
             for p, nu, limits, _ in BENCHMARK_SPLITS}
    assert picks == {(p, nu, limits): m
                     for p, nu, limits, m in BENCHMARK_SPLITS}


# (p, nu, sorted orders, r or None for s_n, chains) for every count
# benchmark shape with two or more coordinates at a whole order below
# q - 1; no sweep shape has two (each folds its q - 1 coordinates and
# keeps at most one whole coset).  The rule chains all of them or none.
# spectral_counts with the count's shared walks, median of five
# best-of-40 runs on a 2-CPU Xeon, ms, engine -> chain: F_9973 0.86 ->
# 0.15, F_2^12 0.63 -> 0.10, F_3^8 (205, 41) 0.62 -> 0.15, F_97^2 0.83 ->
# 0.21, F_1031 0.12 -> 0.07, F_2^6 0.073 -> 0.027.  Declined: F_101
# (steps of q = 101 cost more in calls than the transform they replace)
# and F_7^4 (gcd 1, so the step evaluates all 2401 points).
BENCHMARK_COSETS = [
    (31, 1, (30, 15, 10), None, True),
    (101, 1, (50, 25, 20, 4), None, False),
    (257, 1, (64, 32, 16), 8, True),
    (1031, 1, (206, 103, 5), 2, True),
    (9973, 1, (277, 277, 12), 1, True),
    (5, 2, (24, 12, 8), None, True),
    (2, 6, (63, 21, 9), None, True),
    (7, 4, (96, 25, 25), 12, False),
    (2, 12, (585, 63), 63, True),
    (3, 8, (205, 41), 41, True),
    (3, 8, (41, 41, 5), 3, True),
    (97, 2, (147, 49, 7), 3, True),
]
CORPUS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"


def whole_cosets(p, nu, orders, r):
    """How many coordinates of a box of sorted orders, the last truncated
    to r (None for s_n), run over a whole coset of a proper subgroup."""
    limits = orders[:-1] + (r or orders[-1],)
    return sum(limit == s < p ** nu - 1 for limit, s in zip(limits, orders))


def coset_chain(p, nu, orders, r):
    """Whether spectral_counts chains the whole cosets of that box."""
    q = p ** nu
    limits = orders[:-1] + (r or orders[-1],)
    rest = tuple(limit for limit in limits if limit != q - 1)
    return charsum._plan(p, nu, rest, whole_cosets(p, nu, orders, r))[0]


def corpus_shapes():
    """The count and sweep shapes of perfbench/corpus.py, (p, nu, orders,
    r) each."""
    spec = importlib.util.spec_from_file_location("perfbench_corpus",
                                                  CORPUS_PATH)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # its dataclasses look their module up
    spec.loader.exec_module(corpus)
    return ([shape[:4] for shape in corpus.COUNT_SHAPES],
            [shape[:4] for shape in corpus.SWEEP_SHAPES])


def shape_instance(p, nu, orders, r, rng):
    """(eq, box) of that shape, a_j = 1, over a fresh FieldSpec."""
    spec = make_field(p, nu)
    gen = find_generator(spec)
    terms = [(1, element_of_order(spec, s, gen, rng).packed())
             for s in orders]
    eq = make_equation(fields.FieldSpec(p, nu), terms, 0)
    return eq, make_box(eq, r)


def test_coset_rule_picks_for_benchmark_shapes(monkeypatch):
    picks = {shape[:4]: coset_chain(*shape[:4])
             for shape in BENCHMARK_COSETS}
    assert picks == {shape[:4]: shape[4] for shape in BENCHMARK_COSETS}
    # the list is every such count and sweep shape of the corpus
    count, sweep = corpus_shapes()
    routes = {shape for shape in count + sweep if whole_cosets(*shape) >= 2}
    assert routes == set(picks)
    # end to end: spectral_counts steps where the rule chains
    steps = []
    step = charsum._coset_step
    monkeypatch.setattr(charsum, "_coset_step",
                        lambda *args: steps.append(1) or step(*args))
    rng = random.Random(25)
    for p, nu, orders, r, chains in BENCHMARK_COSETS:
        eq, box = shape_instance(p, nu, orders, r, rng)
        steps.clear()
        spectral_counts(eq, box)
        assert len(steps) == (whole_cosets(p, nu, orders, r) - 1
                              if chains else 0)


# What spectral_counts does on every count and sweep shape of the corpus:
# (p, nu, sorted orders, r or None, folds, steps, transform, shifts),
# where folds counts the coordinates of order q - 1 folded in closed form,
# steps the coset steps, transform is (m, route) for the certified
# transform of m histograms on the "dense" character matrix, the
# "padded" FFT or the unpadded "grid" FFT (None: no transform), and
# shifts the walk rows shifted and added exactly.
BENCHMARK_PLANS = [
    # count
    (7, 1, (6, 6, 6, 6), None, 4, 0, None, 0),
    (7, 1, (6, 3), None, 1, 0, None, 0),
    (31, 1, (30, 15, 10), None, 1, 1, None, 0),
    (31, 1, (30,), None, 1, 0, None, 0),
    (101, 1, (100, 100, 10), 5, 2, 0, None, 0),
    (101, 1, (50, 25, 20, 4), None, 0, 0, (4, "dense"), 0),
    (257, 1, (256, 128), 64, 1, 0, None, 0),
    (257, 1, (64, 32, 16), 8, 0, 1, None, 8),
    (1031, 1, (1030, 103), 50, 1, 0, None, 0),
    (1031, 1, (206, 103, 5), 2, 0, 1, None, 2),
    (9973, 1, (831, 277), 40, 0, 0, None, 40),
    (9973, 1, (277, 277, 12), 1, 0, 1, None, 1),
    (9973, 1, (9972,), 8, 0, 0, None, 0),
    (9973, 1, (277, 12), 3, 0, 0, None, 3),
    (2, 3, (7, 7, 7), None, 3, 0, None, 0),
    (3, 2, (8, 8, 8, 4), None, 3, 0, None, 0),
    (5, 2, (24, 12, 8), None, 1, 1, None, 0),
    (2, 6, (63, 21, 9), None, 1, 1, None, 0),
    (3, 4, (80, 40), None, 1, 0, None, 0),
    (7, 4, (96, 25, 25), 12, 0, 0, (3, "dense"), 0),
    (7, 4, (2400,), 30, 0, 0, None, 0),
    (2, 12, (585, 63), 63, 0, 1, None, 0),
    (2, 12, (4095,), 5, 0, 0, None, 0),
    (3, 8, (205, 41), 41, 0, 1, None, 0),
    (3, 8, (41, 41, 5), 3, 0, 1, (2, "dense"), 0),
    (97, 2, (147, 49, 7), 3, 0, 1, None, 3),
    (97, 2, (96, 96), 4, 0, 0, None, 4),
    # sweep
    (7, 1, (6, 6), None, 2, 0, None, 0),
    (31, 1, (30, 30, 30), None, 3, 0, None, 0),
    (97, 1, (96, 96, 96), None, 3, 0, None, 0),
    (101, 1, (100, 100, 100), None, 3, 0, None, 0),
    (257, 1, (256, 256, 32), None, 2, 0, None, 0),
    (769, 1, (768, 768, 3), None, 2, 0, None, 0),
    (1031, 1, (1030, 1030), None, 2, 0, None, 0),
    (2, 3, (7, 7, 7, 7), None, 4, 0, None, 0),
    (3, 2, (8, 8, 8, 8), None, 4, 0, None, 0),
    (5, 2, (24, 24, 24, 24), None, 4, 0, None, 0),
    (2, 6, (63, 63, 63), None, 3, 0, None, 0),
    (3, 4, (80, 80, 80), None, 3, 0, None, 0),
    (7, 4, (2400, 2400), 100, 1, 0, None, 0),
    (2, 12, (4095, 4095), 256, 1, 0, None, 0),
    (3, 8, (6560, 328), None, 1, 0, None, 0),
    (97, 2, (9408, 147), None, 1, 0, None, 0),
    (3329, 1, (3328, 3328), 10, 1, 0, None, 0),
    (9973, 1, (9972, 9972), 8, 1, 0, None, 0),
    (12289, 1, (12288, 12288), 12, 1, 0, None, 0),
    (40961, 1, (40960, 40960), 16, 1, 0, None, 0),
    (65537, 1, (65536, 65536), 20, 1, 0, None, 0),
]


def test_plan_on_every_benchmark_shape(monkeypatch):
    count, sweep = corpus_shapes()
    assert [plan[:4] for plan in BENCHMARK_PLANS] == count + sweep
    log = {}
    step, fft, exact = (charsum._coset_step, charsum._fft_counts,
                        charsum._exact_counts)

    def counted_step(*args):
        log["steps"] += 1
        return step(*args)

    def counted_fft(hists, p, nu, card, route):
        dense, shape, _ = route
        log["transform"] = (len(hists), "dense" if dense else
                            "grid" if shape == (p,) * nu else "padded")
        return fft(hists, p, nu, card, route)

    def counted_exact(counts, walks, p):
        log["shifts"] += sum(len(walk) for walk in walks)
        return exact(counts, walks, p)

    monkeypatch.setattr(charsum, "_coset_step", counted_step)
    monkeypatch.setattr(charsum, "_fft_counts", counted_fft)
    monkeypatch.setattr(charsum, "_exact_counts", counted_exact)
    rng = random.Random(26)
    for i, plan in enumerate(BENCHMARK_PLANS):
        eq, box = shape_instance(*plan[:4], rng)
        log.update(steps=0, transform=None, shifts=0)
        # count hands spectral_counts its walks, the sweep does not
        walks = list(charsum.box_walks(eq, box)) if i < len(count) else None
        spectral_counts(eq, box, walks)
        folds = box.limits().count(eq.q - 1)
        assert (folds, log["steps"], log["transform"], log["shifts"]) \
            == plan[4:], plan[:4]
    # no shape takes numpy's FFT or a partial split (a transform followed
    # by shifts); the sweep only folds, or keeps one walk
    for plan in BENCHMARK_PLANS:
        assert plan[6] is None or (plan[6][1] == "dense" and plan[7] == 0)
    assert all(plan[5:] == (0, None, 0)
               for plan in BENCHMARK_PLANS[len(count):])


def test_chained_call_splits_twice_and_bins_no_shifted_walk(monkeypatch):
    # F_9973 (277, 277, 1): the split of every walk, then the split of the
    # chain's counts and the last walk, which is only shifted; F_9973
    # (831, 40) takes no chain, and its second walk is only shifted.
    # Only the lead walk is bincounted.
    splits, binned = [], []
    terms, bincount = charsum._transform_terms, np.bincount
    monkeypatch.setattr(charsum, "_transform_terms",
                        lambda p, nu, limits: splits.append(limits)
                        or terms(p, nu, limits))
    monkeypatch.setattr(np, "bincount", lambda x, **kw: binned.append(len(x))
                        or bincount(x, **kw))
    rng = random.Random(9973)
    for orders, r, want, lead in [((277, 277, 12), 1,
                                   [(277, 277, 1), (76729, 1)], 277),
                                  ((831, 277), 40, [(831, 40)], 831)]:
        eq, box = shape_instance(9973, 1, orders, r, rng)
        walks = list(charsum.box_walks(eq, box))
        splits.clear()
        binned.clear()
        counts = spectral_counts(eq, box, walks)
        assert splits == want and binned == [lead]
        assert counts.tolist() == exact_counts(walks, 9973, 9973).tolist()


@pytest.mark.parametrize("tail_cost, chain", [(7.0, False), (6.0, True)])
def test_plan_tie_goes_to_the_split(monkeypatch, tail_cost, chain):
    # the chain's step (3) and its tail's split (7) cost exactly the split
    # of every walk (10): a tie keeps the split; one unit less chains
    costs = {(4, 4, 3): (10.0, 2, "every walk"),
             (16, 3): (tail_cost, 1, "tail")}
    monkeypatch.setattr(charsum, "_coset_cost",
                        lambda p, nu, sub, size: 3.0)
    monkeypatch.setattr(charsum, "_transform_terms",
                        lambda p, nu, limits: costs[limits])
    plan = charsum._plan(97, 1, (4, 4, 3), 2)
    if chain:
        assert plan == (True, 1, "tail", (16, 3))
    else:
        assert plan == (False, 2, "every walk", (4, 4, 3))


def test_split_rule_trades_shifts_against_transforms():
    # more trailing values move the split toward the transform
    picks = [charsum._transform_terms(3329, 1, (3328, r))[1]
             for r in range(1, 200)]
    assert picks == sorted(picks) and picks[0] == 1 and picks[-1] == 2
    # over (Z/2)^12 a shift is about 130 slice adds: one beats three
    # transforms (0.72 against 1.27 ms), two do not (2.29 against 1.15)
    assert charsum._transform_terms(2, 12, (4095, 1))[1] == 1
    assert charsum._transform_terms(2, 12, (4095, 2))[1] == 2
    # an uncertifiable sub-box is never picked: its transform costs inf
    assert charsum._transform_route(7, 1, 2, 1 << 60) is None
    assert charsum._transform_terms(7, 1, (1 << 60, 2))[1] == 1
    # the leading two walks' 10^12 points certify where the whole box's
    # 10^15 do not, and shifting 10^6 + 10^3 values passes the work cap
    assert charsum._transform_route(9973, 1, 3, 10 ** 15) is None
    assert charsum._transform_terms(
        9973, 1, (10 ** 6, 10 ** 6, 1000))[1] == 2


def test_exact_counts_slice_adds_match_roll():
    # the 2^k slice adds of a shift by each walk row against np.roll over
    # every axis, the zero shift too
    rng = np.random.default_rng(3)
    for p, nu in [(2, 1), (7, 1), (131, 1), (3329, 1), (2, 3), (3, 2),
                  (5, 2), (7, 2), (2, 5)]:
        q, grid = p ** nu, (p,) * nu
        counts = rng.integers(0, 4, q)
        # walks of distinct values, as digit rows low first
        values = [rng.choice(q, rng.integers(1, min(q, 6) + 1),
                             replace=False) for _ in range(2)]
        walks = [(v[:, None] // p ** np.arange(nu) % p).astype(
            fields._digit_dtype(p)) for v in values]
        want = counts.reshape(grid)
        for vs in values:
            want = sum(np.roll(want, np.unravel_index(v, grid),
                               axis=tuple(range(nu))) for v in vs)
        got = charsum._exact_counts(counts, walks, p)
        assert got.dtype == np.int64
        assert got.tolist() == want.reshape(-1).tolist()


def test_single_term_counts_are_its_histogram(monkeypatch):
    def refuse(*args):
        raise AssertionError("n = 1 needs no convolution")

    monkeypatch.setattr(charsum, "_fft_counts", refuse)
    monkeypatch.setattr(charsum, "_exact_counts", refuse)
    for p, nu, terms, r in [(9973, 1, [(5, 11)], 8), (2, 12, [(9, 255)], 5),
                            (7, 4, [(3, 10)], 30), (101, 1, [(2, 1)], None)]:
        eq, box = instance(p, nu, terms, 0, r)
        hist, = histograms(eq, box)
        assert spectral_counts(eq, box).tolist() == hist.tolist()
        assert count_via_charsum(eq, box) == hist[0]


def test_work_cap_keeps_the_transform(monkeypatch):
    # with the real constants: n = 4 over F_1048573, where 300 trailing
    # values cost less than the transform; 400 pass EXACT_WORK_CAP, so
    # the split keeps shifting only the last two walks.  The leading
    # order is below q - 1: a full-order coordinate never reaches the split
    p = 1048573
    half = (p - 1) // 2
    assert charsum._transform_terms(p, 1, (half, 100, 50, 50))[1] == 1
    assert p * 400 > charsum.EXACT_WORK_CAP >= p * 100
    assert charsum._transform_terms(p, 1, (half, 300, 50, 50))[1] == 2
    # end to end: F_3329 with orders (1664, 832) and r = 10 takes
    # shift-and-add, until its 33 290 adds pass the cap; then the
    # transform serves it, no raise
    eq, box = instance(3329, 1, [(1, 9), (5, 81)], 0, 10)
    assert box.limits() == (1664, 10)
    want = spectral_counts(eq, box)
    calls = []
    fft_counts = charsum._fft_counts
    monkeypatch.setattr(charsum, "_fft_counts",
                        lambda *args: calls.append(1) or fft_counts(*args))
    assert spectral_counts(eq, box).tolist() == want.tolist()
    assert calls == []
    monkeypatch.setattr(charsum, "EXACT_WORK_CAP", 3329 * 10 - 1)
    assert spectral_counts(eq, box).tolist() == want.tolist()
    assert calls == [1]
