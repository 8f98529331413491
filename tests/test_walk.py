"""The vectorized power walk against the FieldElement reference, and the
narrow digit rows it returns against int64 arithmetic with %.

fields._power_walk computes the coefficient rows of a g^x from the
field's log table where the field holds one, and otherwise by doubling
with the multiplication-by-g matrix.  Every walk in the package goes
through it (the spectral counts, brute_count, gauss_partial_sum and the
solver's set-up), so it must equal the step-by-step FieldElement product
for every field, on either route: int64 products up to
nu (p-1)^2 < 2^63 and Python ints beyond.  Its rows come back in
fields._digit_dtype(p), where sums of digits are reduced by one
conditional -p; _grid_targets and brute_count must agree with the same
sums taken in int64 with %.
"""

import cmath
import functools
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expzeros import arith, charsum, fields
from expzeros.charsum import (brute_count, gauss_partial_sum, make_box,
                              make_equation, psi)
from expzeros.fields import make_field

P31 = (1 << 31) - 1   # 2 (p-1)^2 < 2^63 at nu = 2: the last int64 case
P31_NEXT = 2147483659  # the first prime above 2^31: int64 digit rows
P61 = (1 << 61) - 1   # (p-1)^2 > 2^63: Python-int (object) products

FIELDS = [(2, 1), (2, 3), (2, 12), (3, 2), (3, 5), (5, 3), (7, 1), (7, 4),
          (97, 2), (101, 1), (65537, 1), (P31, 1), (P31, 2), (P61, 1)]


def reference_walk(a, g, limit):
    rows = []
    cur = a
    for _ in range(limit):
        rows.append(cur.coeffs)
        cur = cur * g
    return rows


@settings(max_examples=120, deadline=None)
@given(field=st.sampled_from(FIELDS), a_seed=st.integers(1, 1 << 62),
       g_seed=st.integers(1, 1 << 62), limit=st.integers(1, 300))
@example(field=(2, 12), a_seed=1, g_seed=2, limit=4095)
@example(field=(7, 4), a_seed=5, g_seed=1, limit=40)      # g = 1
@example(field=(2, 1), a_seed=1, g_seed=1, limit=1)       # limit = 1
@example(field=(P31, 2), a_seed=P31 ** 2 - 1, g_seed=P31 ** 2 - 2,
         limit=64)
@example(field=(P61, 1), a_seed=P61 - 1, g_seed=P61 - 2, limit=33)
def test_walk_matches_field_elements(field, a_seed, g_seed, limit):
    spec = make_field(*field)
    q = spec.cardinality
    a = spec.from_packed(1 + a_seed % (q - 1))
    g = spec.from_packed(1 + g_seed % (q - 1))
    rows = fields._power_walk(a, g, limit)
    assert rows.dtype == fields._digit_dtype(spec.p)
    assert rows.shape == (limit, spec.nu)
    want = reference_walk(a, g, limit)
    assert [tuple(r) for r in rows.tolist()] == want
    packed = fields._pack(rows, spec.p).tolist()
    assert packed == [spec.element(c).packed() for c in want]


TABLE_FIELDS = [(2, 3), (3, 4), (7, 4), (2, 12), (3, 8), (97, 2)]


@pytest.mark.parametrize("p, nu", TABLE_FIELDS)
def test_walk_reads_the_log_table_where_the_field_holds_one(p, nu):
    # two specs of one field, only the first holding its log table: the
    # table walk (no multiplication matrix) gives the matrix walk's rows
    # and dtype, for limits up to past twice the order of g
    held, bare = fields.FieldSpec(p, nu), fields.FieldSpec(p, nu)
    arith._log_table(held)
    q = held.cardinality
    fact = arith.factorize(q - 1)
    rng = random.Random(q)
    for a, g in [(1, 2), (q - 1, 1)] + [(rng.randrange(1, q),
                                        rng.randrange(1, q))
                                       for _ in range(6)]:
        s = arith.multiplicative_order(held.from_packed(g), fact)
        for limit in sorted({1, 2, s - 1, s, s + 1, 2 * s + 3} - {0}):
            want = fields._power_walk(bare.from_packed(a),
                                      bare.from_packed(g), limit)
            with mock.patch.object(fields, "_mul_matrix",
                                   side_effect=AssertionError("matrix")):
                got = fields._power_walk(held.from_packed(a),
                                         held.from_packed(g), limit)
            assert got.dtype == want.dtype == fields._digit_dtype(p)
            assert got.shape == (limit, nu)
            assert np.array_equal(got, want)
    # zero has no log: its walk stays on the matrix route
    assert not fields._power_walk(held.zero(), held.from_packed(2), 5).any()
    assert bare._zech is None


@pytest.mark.parametrize("p, nu", TABLE_FIELDS + [(101, 1)])
def test_walks_never_build_a_log_table(p, nu):
    spec = fields.FieldSpec(p, nu)
    q = spec.cardinality
    a, g = spec.from_packed(q - 1), spec.from_packed(q // 2)
    fields._power_walk(a, g, q)
    gauss_partial_sum(a, spec.one(), g, 7)
    assert spec._zech is None


# ---------------------------------------------------------------------------
# narrow digit rows against int64 with %


def test_digit_dtype_rule():
    # the least unsigned dtype holding 2(p-1); int64 past uint32
    want = {2: np.uint8, 127: np.uint8, 131: np.uint16, 32749: np.uint16,
            32771: np.uint32, P31: np.uint32, P31_NEXT: np.int64,
            P61: np.int64}
    assert {p: fields._digit_dtype(p) for p in want} == want


def test_add_mod_at_the_top_of_each_dtype():
    for p in (2, 127, 131, 32749, 32771, P31, P31_NEXT, P61):
        digits = [0, 1, p - 2, p - 1]
        a, b = zip(*itertools.product(digits, repeat=2))
        dtype = fields._digit_dtype(p)
        got = fields._add_mod(np.array(a, dtype=dtype),
                              np.array(b, dtype=dtype), p)
        assert got.dtype == dtype
        assert got.tolist() == [(x + y) % p for x, y in zip(a, b)]


NARROW_FIELDS = [(2, 8), (2, 12), (127, 1), (127, 2), (131, 1), (131, 2),
                 (32749, 1), (32749, 2), (32771, 1), (32771, 2), (P31, 1),
                 (P31, 2), (P31_NEXT, 1), (P61, 1)]


@functools.cache
def small_divisors(q):
    """The divisors d <= 30 of q - 1."""
    return [d for d in range(1, 31) if (q - 1) % d == 0]


def reference_points(walks, p):
    """Every box point's sum of digit rows, in lexicographic order, by
    int64 arithmetic with %."""
    sums = np.zeros((1, walks[0].shape[1]), dtype=np.int64)
    for walk in walks:
        w = walk.astype(np.int64)
        sums = ((sums[:, None, :] + w[None, :, :]) % p).reshape(
            -1, sums.shape[1])
    return sums


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(NARROW_FIELDS), data=st.data(),
       block=st.sampled_from([1, 5, 64, charsum.BRUTE_BLOCK]))
def test_narrow_rows_match_int64_reference(field, data, block):
    spec = make_field(*field)
    p, q = spec.p, spec.cardinality
    rng = random.Random(data.draw(st.integers(0, 1 << 30)))
    n = data.draw(st.integers(1, 3))
    # u^((q-1)/d) has order dividing d: small orders in any field
    terms = [(spec.from_packed(rng.randrange(1, q)),
              spec.from_packed(rng.randrange(1, q)) ** ((q - 1) // d))
             for d in data.draw(st.lists(st.sampled_from(small_divisors(q)),
                                         min_size=n, max_size=n))]
    eq = make_equation(spec, terms, rng.randrange(q))
    box = make_box(eq, data.draw(st.integers(1, min(eq.orders))))
    limits = box.limits()
    dtype = fields._digit_dtype(p)
    walks = []
    for (a, g), limit in zip(charsum.sorted_terms(eq, box), limits):
        walks.append(fields._power_walk(a, g, limit))
        assert walks[-1].dtype == dtype
        assert [tuple(r) for r in walks[-1].tolist()] == reference_walk(
            a, g, limit)
    sums = reference_points(walks, p)
    # _grid_targets: b plus the walks at a run of lexicographic points
    lo = data.draw(st.integers(0, box.card - 1))
    hi = data.draw(st.integers(lo + 1, box.card))
    target = np.array(eq.b.coeffs, dtype=dtype)
    got = charsum._grid_targets(target, walks, limits, lo, hi, p)
    assert got.dtype == dtype
    want = (np.array(eq.b.coeffs, dtype=np.int64) + sums[lo:hi]) % p
    assert got.tolist() == want.tolist()
    # brute_count: the points whose sum is b, half the time a planted one
    if data.draw(st.booleans()):
        eq = make_equation(spec, terms, spec.element(
            sums[rng.randrange(box.card)].tolist()))
    hits = np.flatnonzero((sums == np.array(eq.b.coeffs)).all(axis=1))
    coords = np.unravel_index(hits, limits)
    want = [tuple(int(coords[box.perm.index(i)][j]) for i in range(n))
            for j in range(len(hits))]
    with mock.patch.object(charsum, "BRUTE_BLOCK", block):
        assert brute_count(eq, box) == (len(hits), want)


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(NARROW_FIELDS), data=st.data())
def test_brute_count_on_shared_walks_matches_its_own(field, data):
    # `count` walks the box once for both counts: brute_count reads the
    # shared walks of a_j as they are (it negates only the trailing sums
    # it materializes) and leaves them unchanged
    spec = make_field(*field)
    q = spec.cardinality
    rng = random.Random(data.draw(st.integers(0, 1 << 30)))
    terms = [(spec.from_packed(rng.randrange(1, q)),
              spec.from_packed(rng.randrange(1, q)) ** ((q - 1) // d))
             for d in data.draw(st.lists(st.sampled_from(small_divisors(q)),
                                         min_size=1, max_size=3))]
    eq = make_equation(spec, terms, rng.randrange(q))
    box = make_box(eq, data.draw(st.integers(1, min(eq.orders))))
    walks = list(charsum.box_walks(eq, box))
    kept = [walk.copy() for walk in walks]
    list_cap = data.draw(st.sampled_from([0, charsum.LIST_CAP]))
    with mock.patch.object(charsum, "BRUTE_BLOCK",
                           data.draw(st.sampled_from([1, 5, 1 << 16]))):
        shared = brute_count(eq, box, list_cap=list_cap, walks=walks)
        assert shared == brute_count(eq, box, list_cap=list_cap)
    assert all(np.array_equal(w, k) for w, k in zip(walks, kept))
    if q <= fields.DEFAULT_ENUM_CAP:
        assert charsum.spectral_counts(eq, box, walks=walks)[
            eq.b.packed()] == shared[0]


def test_mul_matrix_rows_are_monomials_times_g():
    spec = make_field(3, 5)
    g = spec.from_packed(200)
    x = spec.element([0, 1])
    for k, row in enumerate(fields._mul_matrix(g)):
        assert tuple(row) == (x ** k * g).coeffs


def test_gauss_partial_sum_on_object_path():
    # p = 2^61 - 1 has no root table and needs Python-int walk products
    spec = make_field(P61)
    a, mu, g = (spec.element(v) for v in (3, 12345, 7))
    limit = 50
    direct = sum(psi(a * mu * g ** x) for x in range(limit))
    assert abs(gauss_partial_sum(a, mu, g, limit) - direct) < 1e-9


def test_gauss_partial_sum_huge_extension_traces():
    # nu = 2 beyond the root-table cap: traces come from the monomial
    # traces, not from a FieldElement per step
    spec = make_field(1048583, 2)
    a, mu, g = (spec.element(v) for v in ([1, 2], [3, 4], [5, 6]))
    limit = 20
    direct = sum(cmath.exp(2j * cmath.pi * (a * mu * g ** x).trace()
                           / spec.p) for x in range(limit))
    assert abs(gauss_partial_sum(a, mu, g, limit) - direct) < 1e-9
