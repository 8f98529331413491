"""The vectorized power walk against the FieldElement reference.

fields._power_walk computes the coefficient rows of a g^x by doubling
with the multiplication-by-g matrix.  Every walk in the package goes
through it (the spectral counts, brute_count, gauss_partial_sum and the
solver's set-up), so it must equal the step-by-step FieldElement product
for every field: int64 up to nu (p-1)^2 < 2^63 and Python ints beyond.
"""

import cmath

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expzeros import fields
from expzeros.charsum import gauss_partial_sum, psi
from expzeros.fields import make_field

P31 = (1 << 31) - 1   # 2 (p-1)^2 < 2^63 at nu = 2: the last int64 case
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
    assert rows.dtype == np.int64 and rows.shape == (limit, spec.nu)
    want = reference_walk(a, g, limit)
    assert [tuple(r) for r in rows.tolist()] == want
    packed = fields._pack(rows, spec.p).tolist()
    assert packed == [spec.element(c).packed() for c in want]


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
