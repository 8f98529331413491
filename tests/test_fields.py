"""Tests for finite field construction and element arithmetic.

Small fields are checked exhaustively against hand-derived tables and an
independent no-root irreducibility oracle; larger fields get seeded random
sampling of the axioms.
"""

import random
from collections import Counter

import pytest

from expzeros import fields
from expzeros.errors import (
    CapExceeded,
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    NotPrime,
)
from expzeros.fields import (
    DEFAULT_ENUM_CAP,
    FieldElement,
    FieldSpec,
    enumerate_units,
    make_field,
)

AXIOM_TRIPLES = 10_000


# ---------------------------------------------------------------------------
# canonical modulus


def poly_eval(poly, x, p):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def brute_first_irreducible(p, nu):
    """Scan monic degree-nu polys in packed order; irreducibility by brute
    factor search (sufficient for the tiny degrees used here)."""
    for k in range(p ** nu):
        tail = []
        m = k
        for _ in range(nu):
            tail.append(m % p)
            m //= p
        poly = tail + [1]
        if poly[0] == 0:
            continue
        if nu <= 3:
            # degree 2 or 3: irreducible iff no root in F_p
            if all(poly_eval(poly, x, p) for x in range(p)):
                return tuple(poly)
        else:
            raise ValueError("oracle only handles degree <= 3")
    raise AssertionError("no irreducible candidate")


def test_canonical_modulus_matches_brute_scan():
    for p, nu in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2), (11, 2)]:
        assert make_field(p, nu).modulus == brute_first_irreducible(p, nu)


def test_canonical_modulus_frozen_examples():
    assert make_field(2, 2).modulus == (1, 1, 1)      # X^2 + X + 1
    assert make_field(2, 3).modulus == (1, 1, 0, 1)   # X^3 + X + 1
    assert make_field(3, 2).modulus == (1, 0, 1)      # X^2 + 1
    assert make_field(3, 3).modulus == (1, 2, 0, 1)   # X^3 + 2X + 1
    assert make_field(7).modulus == (0, 1)            # prime field: X


def test_construction_errors():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(1)
    with pytest.raises(ValueError):
        FieldSpec(5, 0)
    with pytest.raises(FieldTooLarge):
        make_field(2, 63)
    with pytest.raises(FieldTooLarge):
        make_field(2147483659, 2)
    # (2^31 - 1)^2 sits just under the 2^62 cap and must be accepted
    assert make_field(2147483647).cardinality == 2147483647


def test_make_field_caches_specs():
    assert make_field(13) is make_field(13)
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field(13) == FieldSpec(13, 1)


# ---------------------------------------------------------------------------
# packed encoding and enumeration


def test_packed_round_trip_exhaustive():
    for p, nu in [(2, 2), (2, 3), (3, 2), (5, 1), (7, 2)]:
        spec = make_field(p, nu)
        for k in range(spec.cardinality):
            x = spec.from_packed(k)
            assert x.packed() == k
            assert spec.element(k) == x
    spec = make_field(3, 2)
    assert spec.element([2, 1]).packed() == 2 + 3 * 1
    assert spec.element([2]).coeffs == (2, 0)


def test_packed_range_and_coeff_length_checks():
    spec = make_field(5, 2)
    with pytest.raises(ValueError):
        spec.from_packed(25)
    with pytest.raises(ValueError):
        spec.from_packed(-1)
    with pytest.raises(ValueError):
        spec.element([1, 2, 3])


def test_enumeration_order_and_caps(monkeypatch):
    f7 = make_field(7)
    assert [x.packed() for x in f7.elements()] == list(range(7))
    assert [x.packed() for x in enumerate_units(f7)] == list(range(1, 7))
    f4 = make_field(2, 2)
    units = list(enumerate_units(f4))
    assert len(units) == 3
    big = make_field(2, 21)
    assert big.cardinality == 2 ** 21 > DEFAULT_ENUM_CAP
    with pytest.raises(CapExceeded):
        list(big.elements())
    with pytest.raises(CapExceeded):
        list(enumerate_units(big))
    # the cap is a constant, read at call time: a field of exactly the
    # cap enumerates, one past it is refused
    monkeypatch.setattr(fields, "DEFAULT_ENUM_CAP", 32)
    assert sum(1 for _ in make_field(2, 5).elements()) == 32
    assert sum(1 for _ in enumerate_units(make_field(31))) == 30
    with pytest.raises(CapExceeded, match="cardinality 37 exceeds cap 32"):
        list(enumerate_units(make_field(37)))


def test_field_mismatch_rejected():
    a = make_field(7).element(3)
    b = make_field(11).element(3)
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        a * b
    with pytest.raises(FieldMismatch):
        make_field(11).element(a)


def test_same_spec_operands_take_the_fast_check():
    spec = make_field(3, 4)
    a, b = spec.element(5), spec.element(7)
    assert a._check(b) is b
    assert (a * b).spec is spec and (a + b).spec is spec


def test_equal_but_distinct_specs_still_combine():
    for p, nu in [(13, 1), (3, 4)]:
        mine, theirs = FieldSpec(p, nu), make_field(p, nu)
        assert mine is not theirs and mine == theirs
        a, b = mine.element(5), theirs.element(7)
        assert a._check(b) is b
        assert a * b == theirs.element(5) * b
        assert (a + b) == b + theirs.element(5)
        assert (a - b) / b == (theirs.element(5) - b) / b


def test_other_operands_are_still_rejected():
    a = make_field(3, 4).element(5)
    for other in [5, (5,), None, make_field(3, 2).element(5),
                  make_field(5).element(1)]:
        with pytest.raises(FieldMismatch):
            a * other
        with pytest.raises(FieldMismatch):
            a + other


# ---------------------------------------------------------------------------
# arithmetic examples


def test_f4_multiplication_table():
    # elements by packed value: 0, 1, X, X+1
    f4 = make_field(2, 2)
    expect = [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ]
    for i in range(4):
        for j in range(4):
            prod = f4.from_packed(i) * f4.from_packed(j)
            assert prod.packed() == expect[i][j]
    x = f4.element([0, 1])
    assert (x * x).coeffs == (1, 1)   # X^2 = X + 1


def test_prime_field_examples():
    f7 = make_field(7)
    three, five = f7.element(3), f7.element(5)
    assert (three * five).packed() == 1
    assert (three ** 6).packed() == 1
    assert (three ** 2).packed() == 2
    assert three.inverse() == five
    assert (f7.element(2) - f7.element(5)).packed() == 4
    assert (-f7.element(3)).packed() == 4
    assert (f7.element(6) / f7.element(2)).packed() == 3


def test_pow_edge_cases():
    f9 = make_field(3, 2)
    x = f9.element([0, 1])
    assert x ** 0 == f9.one()
    assert f9.zero() ** 0 == f9.one()
    assert f9.zero() ** 5 == f9.zero()
    assert x ** 1 == x
    assert x ** (9 - 1) == f9.one()
    assert x ** -1 == x.inverse()
    assert (x ** -3) * (x ** 3) == f9.one()


def test_inverse_all_units_small_fields():
    for p, nu in [(2, 2), (2, 3), (3, 2), (3, 3), (7, 1), (31, 1)]:
        spec = make_field(p, nu)
        for u in enumerate_units(spec):
            assert u * u.inverse() == spec.one()
    with pytest.raises(DivisionByZero):
        make_field(7).zero().inverse()
    with pytest.raises(DivisionByZero):
        make_field(2, 3).element(5) / make_field(2, 3).zero()


def test_euclid_inverse_of_every_unit():
    for p, nu in [(2, 6), (3, 4), (7, 2)]:
        spec = make_field(p, nu)
        for u in enumerate_units(spec):
            assert u * u.inverse() == spec.one()


@pytest.mark.parametrize("p, nu", [(2, 31), (3, 20)])
def test_euclid_inverse_equals_the_fermat_power(p, nu):
    spec = make_field(p, nu)
    rng = random.Random(p * 100 + nu)
    for _ in range(200):
        x = spec.from_packed(rng.randrange(1, spec.cardinality))
        assert x.inverse() == x ** (spec.cardinality - 2)
    with pytest.raises(DivisionByZero):
        spec.zero().inverse()


def test_field_axioms_random_triples():
    rng = random.Random(20260825)
    for p, nu in [(97, 1), (2, 2), (2, 3), (3, 3), (7, 2)]:
        spec = make_field(p, nu)
        q = spec.cardinality
        one, zero = spec.one(), spec.zero()
        for _ in range(AXIOM_TRIPLES):
            a = spec.from_packed(rng.randrange(q))
            b = spec.from_packed(rng.randrange(q))
            c = spec.from_packed(rng.randrange(q))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a + (-a) == zero
            assert a - b == a + (-b)
            if not a.is_zero():
                assert a * a.inverse() == one


def test_pow_additivity_large_exponents():
    rng = random.Random(7)
    for p, nu in [(2, 3), (7, 2), (101, 1)]:
        spec = make_field(p, nu)
        g = spec.from_packed(rng.randrange(1, spec.cardinality))
        for _ in range(25):
            a = rng.randrange(2 ** 32)
            b = rng.randrange(2 ** 32)
            assert (g ** a) * (g ** b) == g ** (a + b)
            assert (g ** a) ** 3 == g ** (3 * a)


def test_frobenius_is_additive():
    # (a + b)^p == a^p + b^p characterises characteristic p
    rng = random.Random(11)
    for p, nu in [(2, 3), (3, 2), (5, 2)]:
        spec = make_field(p, nu)
        for _ in range(200):
            a = spec.from_packed(rng.randrange(spec.cardinality))
            b = spec.from_packed(rng.randrange(spec.cardinality))
            assert (a + b) ** p == a ** p + b ** p


# ---------------------------------------------------------------------------
# trace


def mult_matrix_trace(x):
    """Independent oracle: absolute trace equals the matrix trace of the
    multiplication-by-x map in the polynomial basis."""
    spec = x.spec
    total = 0
    basis = [spec.element([0] * i + [1]) for i in range(spec.nu)]
    for i, e in enumerate(basis):
        col = (x * e).coeffs
        total += col[i]
    return total % spec.p


def test_trace_frozen_examples():
    f4 = make_field(2, 2)
    assert f4.zero().trace() == 0
    assert f4.one().trace() == 0
    assert f4.element([0, 1]).trace() == 1
    assert f4.element([1, 1]).trace() == 1
    f7 = make_field(7)
    for k in range(7):
        assert f7.element(k).trace() == k


def test_trace_matches_matrix_oracle():
    for p, nu in [(2, 2), (2, 3), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)]:
        spec = make_field(p, nu)
        for x in spec.elements():
            assert x.trace() == mult_matrix_trace(x)


def test_trace_linear_and_balanced():
    rng = random.Random(42)
    for p, nu in [(2, 3), (3, 3), (5, 2), (7, 2)]:
        spec = make_field(p, nu)
        q = spec.cardinality
        for _ in range(300):
            a = spec.from_packed(rng.randrange(q))
            b = spec.from_packed(rng.randrange(q))
            c = rng.randrange(p)
            scalar = spec.element([c])
            assert (a + b).trace() == (a.trace() + b.trace()) % p
            assert (scalar * a).trace() == c * a.trace() % p
        # every value in F_p is hit exactly p^(nu-1) times
        counts = Counter(x.trace() for x in spec.elements())
        assert counts == {v: p ** (nu - 1) for v in range(p)}
