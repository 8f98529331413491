"""Arithmetic in finite fields F_q with q = p^nu.

An element is a residue of a polynomial in F_p[X] modulo a fixed monic
irreducible modulus of degree nu, stored as one packed integer
sum_i c_i p^i of its coefficients (low first), in [0, q).  For a given
(p, nu) the modulus is canonical: the lexicographically first monic
irreducible, ordering candidates by their packed value.  Prime fields
(nu = 1) use the modulus X, so an element is its residue mod p.

The packed integer is the one encoding everywhere: the CLI's wire, a log
table's index and antilog, a discrete-log table's key.  `.coeffs` unpacks
it.  charsum/density get their runs of powers a g^x from `_power_walk`,
which computes them as coefficient rows with numpy matrix products
instead of one FieldElement multiplication per step, or reads them from
the field's log table where the field already holds one.

A scalar product in an extension field is a polynomial product of the
unpacked digits reduced mod the modulus, O(nu^2) Python steps, unless the
field already holds its log table (arith builds it where orders and
discrete logs repay it, q <= 2^14).  Then the product is a Zech-logarithm
lookup on the packed values, antilog[(log a + log b) mod (q-1)]: three
int32 reads.  A product never builds a table itself, and neither does a
walk.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    CapExceeded,
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    InvariantViolated,
    NotPrime,
)

MAX_CARDINALITY = 1 << 62
DEFAULT_ENUM_CAP = 1 << 20  # field elements or box points one call may list


def _check_enum(size: int, what: str = "cardinality") -> None:
    """Raise CapExceeded when `what` counts more than DEFAULT_ENUM_CAP;
    the one comparison with that cap, for fields and boxes alike."""
    if size > DEFAULT_ENUM_CAP:
        raise CapExceeded(f"{what} {size} exceeds cap {DEFAULT_ENUM_CAP}")


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; the base set covers all n < 3.3 * 10^24.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient lists, low degree first)


def _digits(k: int, p: int, nu: int) -> list[int]:
    """The nu base-p digits of k, low first: its coefficient list."""
    out = []
    for _ in range(nu):
        out.append(k % p)
        k //= p
    return out


def _undigits(coeffs: Sequence[int], p: int) -> int:
    """The packed value sum_i c_i p^i of coefficients c_i, low first."""
    k = 0
    for c in reversed(coeffs):
        k = k * p + c
    return k


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmulmod(a, b, mod, p):
    """a * b reduced mod the monic polynomial `mod`, all over F_p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    deg = len(mod) - 1
    for k in range(len(out) - 1, deg - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(deg):
                out[k - deg + j] = (out[k - deg + j] - c * mod[j]) % p
    return _ptrim(out)


def _ppowmod(a, e, mod, p):
    """a^e reduced mod `mod` over F_p, by square-and-multiply: the one
    exponentiation loop behind irreducibility tests and FieldElement."""
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _pmulmod(result, base, mod, p)
        e >>= 1
        if e:
            base = _pmulmod(base, base, mod, p)
    return result


def _pgcd(a, b, p):
    """(g, u): g = gcd(a, b) over F_p, monic, and u with u a = g mod b,
    by extended Euclid; b must be monic."""
    r0, r1 = _ptrim(list(a)), list(b)
    u0, u1 = [1], []
    while r1:
        # r0 mod r1 with r1 made monic on the fly; quot collects r0 div r1
        inv_lead = pow(r1[-1], p - 2, p)
        quot = [0] * max(len(r0) - len(r1) + 1, 0)
        while len(r0) >= len(r1) and r0:
            c = r0[-1] * inv_lead % p
            shift = len(r0) - len(r1)
            quot[shift] = c
            for j in range(len(r1)):
                r0[shift + j] = (r0[shift + j] - c * r1[j]) % p
            _ptrim(r0)
        qu = _pmulmod(_ptrim(quot), u1, b, p)
        r0, r1 = r1, r0
        u0, u1 = u1, _ptrim([(x - y) % p for x, y in
                             itertools.zip_longest(u0, qu, fillvalue=0)])
    inv_lead = pow(r0[-1], p - 2, p)
    return ([c * inv_lead % p for c in r0],
            [c * inv_lead % p for c in u0])


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over F_p."""
    nu = len(poly) - 1
    if nu == 1:  # a polynomial of degree 1 has no proper factor
        return True
    mod = list(poly)
    x = [0, 1]
    # x^(p^nu) == x mod poly
    xp = x
    for _ in range(nu):
        xp = _ppowmod(xp, p, mod, p)
    minus_x = _ptrim([(c - d) % p for c, d in
                      zip(xp + [0] * 2, [0, 1] + [0] * len(xp))])
    if minus_x:
        return False
    # gcd(x^(p^(nu/l)) - x, poly) == 1 for every prime l | nu
    primes = set()
    m, f = nu, 2
    while f * f <= m:
        while m % f == 0:
            primes.add(f)
            m //= f
        f += 1
    if m > 1:
        primes.add(m)
    for ell in primes:
        xq = x
        for _ in range(nu // ell):
            xq = _ppowmod(xq, p, mod, p)
        diff = _ptrim([(c - d) % p for c, d in
                       zip(xq + [0] * 2, [0, 1] + [0] * len(xq))])
        g, _ = _pgcd(diff, mod, p)
        if len(g) != 1:
            return False
    return True


def _first_irreducible(p: int, nu: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree nu over F_p."""
    if nu == 1:  # X; the loop skips polys with poly[0] = 0, which X divides
        return (0, 1)
    for k in range(p ** nu):
        poly = _digits(k, p, nu) + [1]
        if poly[0] != 0 and _is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible found; unreachable for prime p")


# ---------------------------------------------------------------------------


class FieldSpec:
    """A concrete finite field F_{p^nu} with its canonical modulus.

    Use make_field(p, nu) rather than calling this constructor directly;
    make_field caches specs so elements of the same field share one spec.

    `_zech` is None, or memoryviews (log, antilog) of the field's int32
    log table and its inverse, the packed powers of the generator: the
    only place the table is kept.  arith's _log_table sets it once, on
    the first order, discrete log or generator search that needs it;
    FieldElement.__mul__ only reads it.
    """

    __slots__ = ("p", "nu", "cardinality", "modulus", "_zero", "_one",
                 "_zech")

    def __init__(self, p: int, nu: int):
        if not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if nu < 1:
            raise ValueError(f"nu must be >= 1, got {nu}")
        q = p ** nu
        if q > MAX_CARDINALITY:
            raise FieldTooLarge(f"p^nu = {q} exceeds 2^62")
        self.p = p
        self.nu = nu
        self.cardinality = q
        self.modulus = _first_irreducible(p, nu)
        self._zech = None
        self._zero = FieldElement(self, 0)
        self._one = FieldElement(self, 1)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.nu) == (other.p, other.nu)

    def __hash__(self):
        return hash((self.p, self.nu))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, nu={self.nu})"

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def element(self, value) -> "FieldElement":
        """Coerce an int (packed encoding) or coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise FieldMismatch("element belongs to a different field")
            return value
        if isinstance(value, int):
            return self.from_packed(value % self.cardinality)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.nu:
            raise ValueError(f"coefficient vector longer than nu = {self.nu}")
        return FieldElement(self, _undigits(coeffs, self.p))

    def from_packed(self, k: int) -> "FieldElement":
        if not 0 <= k < self.cardinality:
            raise ValueError(
                f"packed value {k} outside [0, {self.cardinality})")
        # a numpy integer becomes a Python int, which cannot overflow
        return FieldElement(self, operator.index(k))

    def elements(self) -> Iterator["FieldElement"]:
        """All field elements in packed order, zero first."""
        _check_enum(self.cardinality)
        for k in range(self.cardinality):
            yield FieldElement(self, k)


@functools.lru_cache(maxsize=256)
def make_field(p: int, nu: int = 1) -> FieldSpec:
    """Construct (and cache) F_{p^nu} with the canonical modulus.

    The cache keeps the 256 fields used last.  A field evicted and built
    again is a new FieldSpec equal to the old one (specs compare by
    value), so its elements still match it; it builds its own log table
    again when an order, discrete log or generator search first needs one.
    """
    return FieldSpec(p, nu)


def enumerate_units(spec: FieldSpec) -> Iterator["FieldElement"]:
    """All nonzero elements in packed order."""
    return itertools.islice(spec.elements(), 1, None)


class FieldElement:
    """Immutable element of a FieldSpec, stored as its packed integer."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value: int):
        self.spec = spec
        self.value = value

    # -- representation -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficient tuple (c_0, ..., c_{nu-1}), low first."""
        if self.spec.nu == 1:  # the residue is its one digit; spares a loop
            return (self.value,)
        return tuple(_digits(self.value, self.spec.p, self.spec.nu))

    def packed(self) -> int:
        return self.value

    def is_zero(self) -> bool:
        return not self.value

    def __repr__(self):
        if self.spec.nu == 1:  # a residue mod p, not a coefficient list
            return f"FF({self.value} mod {self.spec.p})"
        return f"FF({list(self.coeffs)} over p={self.spec.p})"

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.value == other.value and self.spec == other.spec

    def __hash__(self):
        return hash((self.spec.p, self.spec.nu, self.value))

    def _check(self, other) -> "FieldElement":
        if type(other) is FieldElement and other.spec is self.spec:
            return other
        if not isinstance(other, FieldElement):
            raise FieldMismatch(f"cannot combine with {type(other).__name__}")
        if other.spec != self.spec:
            raise FieldMismatch("elements of different fields")
        return other

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, _undigits(
            [(a + b) % p for a, b in zip(self.coeffs, other.coeffs)], p))

    def __sub__(self, other):
        other = self._check(other)
        p = self.spec.p
        return FieldElement(self.spec, _undigits(
            [(a - b) % p for a, b in zip(self.coeffs, other.coeffs)], p))

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec,
                            _undigits([-a % p for a in self.coeffs], p))

    def __mul__(self, other):
        other = self._check(other)
        spec = self.spec
        a, b = self.value, other.value
        if spec.nu == 1:  # F_p: one integer product, no polynomial reduction
            return FieldElement(spec, a * b % spec.p)
        zech = spec._zech
        if zech is None:
            return FieldElement(spec, _undigits(_pmulmod(
                self.coeffs, other.coeffs, spec.modulus, spec.p), spec.p))
        if not a or not b:
            return spec._zero
        log, antilog = zech
        return FieldElement(
            spec, antilog[(log[a] + log[b]) % (spec.cardinality - 1)])

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("zero has no inverse")
        spec = self.spec
        if spec.nu == 1:  # Fermat: x^(p-2), no polynomial gcd
            return FieldElement(spec, pow(self.value, spec.p - 2, spec.p))
        # u x = 1 mod the modulus, which is irreducible and monic
        _, u = _pgcd(self.coeffs, spec.modulus, spec.p)
        return FieldElement(spec, _undigits(u, spec.p))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inverse() ** (-k)
        spec = self.spec
        if spec.nu == 1:  # the built-in modular pow on the residue
            return FieldElement(spec, pow(self.value, k, spec.p))
        prod = _ppowmod(self.coeffs, k, spec.modulus, spec.p)
        return FieldElement(spec, _undigits(prod, spec.p))

    def trace(self) -> int:
        """Absolute trace to F_p: x + x^p + ... + x^(p^(nu-1))."""
        spec = self.spec
        acc = self
        y = self
        for _ in range(spec.nu - 1):
            y = y ** spec.p
            acc = acc + y
        if acc.value >= spec.p:  # a digit above the constant one is set
            raise InvariantViolated(f"trace {acc!r} left F_p")
        return acc.value


# ---------------------------------------------------------------------------
# vectorized power walks


def _mul_matrix(g: FieldElement) -> list[list[int]]:
    """The F_p-matrix M of multiplication by g on coefficient rows.

    Row k holds the coefficients of X^k g, so c @ M mod p is the row of
    u g for u with row c.  Each row is the one before times X: shift up
    one degree, then replace X^nu by -(f_0 + ... + f_{nu-1} X^{nu-1})
    (the companion matrix of the modulus f).  O(nu^2) integer work.
    """
    spec = g.spec
    p = spec.p
    reduce_top = [-c % p for c in spec.modulus[:-1]]
    row = list(g.coeffs)
    out = [row]
    for _ in range(spec.nu - 1):
        row = [(low + row[-1] * f) % p
               for low, f in zip([0] + row[:-1], reduce_top)]
        out.append(row)
    return out


def _exact_dtype(p: int, nu: int):
    """int64 while a coefficient row times an F_p-matrix is exact in it,
    nu (p-1)^2 < 2^63; numpy object arrays of Python ints past that."""
    return np.int64 if nu * (p - 1) ** 2 < 1 << 63 else object


def _digit_dtype(p: int):
    """The dtype of coefficient rows: the least unsigned one that holds
    2(p-1), the sum of two digits (uint8 to p = 127, uint16 to 32749,
    uint32 to 2^31 - 1), and int64 past that."""
    top = 2 * (p - 1)
    if top < 1 << 8:
        return np.uint8
    if top < 1 << 16:
        return np.uint16
    if top < 1 << 32:
        return np.uint32
    return np.int64


def _add_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a + b mod p, entrywise with broadcasting, for digit arrays (entries
    < p) in _digit_dtype(p): one conditional -p instead of a division.
    In an unsigned dtype s - p wraps past s exactly when s < p, so the
    minimum of the two is the residue."""
    s = a + b
    if s.dtype == np.int64:
        return np.where(s >= p, s - p, s)
    return np.minimum(s, s - p, out=s)


def _power_walk(a: FieldElement, g: FieldElement, limit: int) -> np.ndarray:
    """Coefficient rows of a * g^x for x = 0..limit-1, shape (limit, nu),
    in _digit_dtype(p).

    Where spec._zech is set, which arith does only for fields where
    reads_log_table holds, the rows are antilog[(log a + x log g) mod
    (q-1)], unpacked to digits: one int64 arithmetic progression, one
    gather and nu digit divisions.  Everywhere else the walk doubles
    with the multiplication matrix: once the rows for x < k are known,
    rows @ M_g^k mod p gives those for k <= x < 2k, and M_g^k is squared
    for the next round.  That is log2(limit) matrix products and no field
    multiplication per step, in the dtype of _exact_dtype.  Like a
    product, a walk never builds a table, so the table's own build walks
    by matrix.
    """
    spec = a.spec
    p, nu = spec.p, spec.nu
    zech = spec._zech
    if zech is not None and not (a.is_zero() or g.is_zero()):
        log, antilog = zech
        exps = (log[a.packed()] + log[g.packed()]
                * np.arange(limit, dtype=np.int64)) % (spec.cardinality - 1)
        packed = np.asarray(antilog)[exps]
        digits = packed[:, None] // p ** np.arange(nu, dtype=np.int32) % p
        return digits.astype(_digit_dtype(p))
    dtype = _exact_dtype(p, nu)
    rows = np.empty((limit, nu), dtype=dtype)
    rows[0] = a.coeffs
    step = np.array(_mul_matrix(g), dtype=dtype)
    done = 1
    while done < limit:
        more = min(done, limit - done)
        rows[done:done + more] = rows[:more] @ step % p
        done += more
        if done < limit:
            step = step @ step % p
    return rows.astype(_digit_dtype(p), copy=False)


def _pack(rows: np.ndarray, p: int) -> np.ndarray:
    """Packed values sum_i c_i p^i of coefficient rows, as int64."""
    return rows @ p ** np.arange(rows.shape[1], dtype=np.int64)
