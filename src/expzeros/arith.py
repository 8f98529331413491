"""Integer and group-theoretic subroutines: factorization, multiplicative
orders, the divisor function, and discrete logarithms, by baby-step
giant-step or from a field's log table.

This module computes; it charges no ledger.  pow_cost and bsgs_table_cost
are the cost rules the solver writes its own ledger from.  It keeps no
state either: a field's log table and its antilog, two int32 arrays, live
on its FieldSpec.  Orders, discrete logs and instances.find_generator build
them on first use; FieldElement products and power walks read them where
they exist.  The table's generator is _first_generator's, found by the
build's scan, and find_generator reads it back as antilog[1], so a field
that reads a table is scanned for a generator once.
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolated, MemoryCap, ZeroElement
from .fields import FieldElement, FieldSpec, _is_prime, _pack, _power_walk

TRIAL_DIVISION_BOUND = 10 ** 6
# Baby steps of one BsgsTable: its dict holds about 108 B an entry
# (tracemalloc), so a table at the cap takes about 113 MB, the memory
# budget of one table, and seconds to build (9.7 s at 2^20 over
# F_1099511627791 on a 2-CPU Xeon).  Orders past 2^40 are refused.
BSGS_TABLE_CAP = 1 << 20
# Fields up to here, prime fields as the nu = 1 case, read orders,
# discrete logs and power walks from a log table.  Its one-off build
# (2-CPU Xeon) costs at most 7 ms up to 2^14 elements, 0.1-0.7 ms in a
# prime field.  An extension field repays it after 3 to 35 orders; a
# prime field, whose orders cost microseconds either way, after 2 to 12
# walks of 1000 rows (30 us on the table, 90 us by matrix).  F_{2^16}
# takes 31 ms and F_{2^20} 0.44 s: 15 and 110 orders' worth, more than a
# command that asks for a few orders ever spends.  One table holds at
# most 2 * 2^14 int32 entries (128 KiB), and make_field's 256-entry
# cache bounds how many fields keep one alive.
LOG_TABLE_MAX_Q = 1 << 14

is_prime = _is_prime


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite n, Brent's cycle variant.

    The polynomial is x^2 + c with c = 1, 2, 3, ... so runs are
    reproducible; n must be composite, odd, and have no factor below the
    trial division bound.
    """
    for c in range(1, 64):
        y, r, s = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                prod = 1
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g = math.gcd(prod, n)
                k += 128
            r *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError(f"pollard rho failed on {n}")


@dataclass(frozen=True)
class Factorization:
    value: int
    prime_powers: tuple[tuple[int, int], ...]


def factorize(m: int) -> Factorization:
    """Complete prime factorization; trial division then Pollard rho."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    powers: dict[int, int] = {}
    rem = m
    for d in range(2, 4):
        while rem % d == 0:
            powers[d] = powers.get(d, 0) + 1
            rem //= d
    f = 5
    while f <= TRIAL_DIVISION_BOUND and f * f <= rem:
        for d in (f, f + 2):
            while rem % d == 0:
                powers[d] = powers.get(d, 0) + 1
                rem //= d
        f += 6
    stack = [rem] if rem > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            powers[v] = powers.get(v, 0) + 1
            continue
        d = _pollard_brent(v)
        stack.append(d)
        stack.append(v // d)
    return Factorization(m, tuple(sorted(powers.items())))


def divisor_count(m: int) -> int:
    """d(m), the number of positive divisors."""
    return math.prod(e + 1 for _, e in factorize(m).prime_powers)


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending."""
    divs = [1]
    for p, e in factorize(m).prime_powers:
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def pow_cost(k: int) -> int:
    """Multiplications square-and-multiply spends on x^k (k >= 0): one per
    set bit and one squaring per bit after the lowest, none at k = 0."""
    return k.bit_count() + k.bit_length() - 1 if k else 0


def _first_generator(spec: FieldSpec, fact: Factorization) -> FieldElement:
    """The first unit gamma, in packed order, with gamma^((q-1)/l) != 1
    for every prime l | q-1: a generator of F_q^x.

    When nu > 1 the scan starts at packed p: every packed value below it
    lies in F_p, whose units have orders dividing p - 1 < q - 1.
    """
    one = spec.one()
    for k in range(spec.p if spec.nu > 1 else 1, spec.cardinality):
        gamma = spec.from_packed(k)
        if all(gamma ** (fact.value // ell) != one
               for ell, _ in fact.prime_powers):
            return gamma
    raise InvariantViolated(f"no generator of the units of {spec}")


def _log_table(spec: FieldSpec) -> memoryview:
    """log[packed(gamma^x)] = x for x in [0, q-1), gamma the first
    generator; entry 0 (the zero element) is -1.

    One walk of gamma's powers fills it, and the walk itself is kept as
    the antilog, antilog[x] = packed(gamma^x), which products read.  The
    first call builds both int32 arrays and leaves views of them in
    `spec._zech`, where every later call, every product and
    instances.find_generator find them; only that build factors q - 1 and
    scans for gamma.  This is Zech-logarithm arithmetic
    (Huber, "Some comments on Zech's logarithms", IEEE-IT 36, 1990).
    """
    if spec._zech is None:
        gamma = _first_generator(spec, factorize(spec.cardinality - 1))
        log = np.full(spec.cardinality, -1, dtype=np.int32)
        rows = _power_walk(spec.one(), gamma, spec.cardinality - 1)
        antilog = _pack(rows, spec.p).astype(np.int32)
        log[antilog] = np.arange(len(rows), dtype=np.int32)
        if log[0] != -1 or log[1:].min() < 0:
            raise InvariantViolated(f"the powers of {gamma!r} miss units")
        spec._zech = (memoryview(log), memoryview(antilog))
        _release_free_heap()
    return spec._zech[0]


def _release_free_heap() -> None:
    """Return the free pages of the malloc heap to the OS, where glibc can.

    Each time a process frees an mmapped block, glibc raises its mmap
    threshold to that block's size (up to 32 MiB) and its trim threshold
    to twice it.  Smaller blocks then come from the brk heap, and glibc
    gives the heap's free top back only when a free leaves that top past
    the trim threshold, which turns on which small block happens to be
    live just below it.  A log table's build frees its walk's temporaries,
    (q - 1) * nu int64 rows, and comes once per field, so it ends here:
    after it the resident size holds live data and no free heap, whatever
    the byte layout.  A call takes about 0.05 ms, and 0.14 ms more for
    each MiB it returns.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass  # no glibc: nothing to return this way


def reads_log_table(spec: FieldSpec) -> bool:
    """Whether orders and discrete logs in this field are read from its
    log table: every field with q <= LOG_TABLE_MAX_Q, prime fields as the
    nu = 1 case."""
    return spec.cardinality <= LOG_TABLE_MAX_Q


def multiplicative_order(g: FieldElement, fact: Factorization) -> int:
    """Order of the unit g given the factorization of q - 1.

    A field where reads_log_table holds reads it from the field's log
    table: g = gamma^x has order (q-1)/gcd(x, q-1).  Every other field
    starts at s = q - 1 and strips every prime factor that keeps g^s = 1.
    """
    if g.is_zero():
        raise ZeroElement("zero has no multiplicative order")
    spec = g.spec
    q_minus_1 = spec.cardinality - 1
    if fact.value != q_minus_1:
        raise ValueError(
            f"factorization is of {fact.value}, need q-1 = {q_minus_1}")
    if reads_log_table(spec):
        x = _log_table(spec)[g.packed()]
        return q_minus_1 // math.gcd(x, q_minus_1)
    one = spec.one()
    s = q_minus_1
    for p, e in fact.prime_powers:
        for _ in range(e):
            if g ** (s // p) == one:
                s //= p
            else:
                break
    return s


def bsgs_table_cost(s: int) -> tuple[int, int]:
    """(m, mults) of a baby-step table for an element of order s: m =
    ceil(sqrt(s)) baby steps, and the m - 1 multiplications that walk
    them, pow_cost(m) for g^m and one for its inverse.  The one cost rule
    of BsgsTable, and the one place its MemoryCap is raised."""
    if s < 1:
        raise ValueError(f"order must be >= 1, got {s}")
    m = math.isqrt(s - 1) + 1
    if m > BSGS_TABLE_CAP:
        raise MemoryCap(f"baby table of {m} entries exceeds cap")
    return m, (m - 1) + pow_cost(m) + 1


class BsgsTable:
    """Reusable baby-step table for discrete logs to a fixed base g.

    Building makes the m - 1 baby-step products, g^m and its inverse
    (bsgs_table_cost); a lookup of g^x makes x // m giant steps more.
    """

    __slots__ = ("g", "s", "m", "table", "giant")

    def __init__(self, g: FieldElement, s: int):
        m, _ = bsgs_table_cost(s)
        self.g = g
        self.s = s
        self.m = m
        table = {}
        cur = g.spec.one()
        for j in range(m):
            table.setdefault(cur.packed(), j)
            if j + 1 < m:
                cur = cur * g
        self.table = table
        # giant stride g^(-m)
        self.giant = (g ** m).inverse()

    def lookup(self, target: FieldElement) -> int | None:
        """x in [0, s) with g^x = target, or None if target not in <g>."""
        cur = target
        for i in range((self.s + self.m - 1) // self.m):
            j = self.table.get(cur.packed())
            if j is not None and i * self.m + j < self.s:
                return i * self.m + j
            cur = cur * self.giant
        return None


def discrete_logs(g: FieldElement, s: int
                  ) -> Callable[[FieldElement], int | None]:
    """The function target -> discrete log of target to base g of order
    s (None when absent), with its table set up once for every target.

    Where reads_log_table holds a lookup is one modular division on the
    field's log table: with step = (q-1)/s, log g = u step for a u prime
    to s, and target lies in <g> iff step divides its log; then
    x = (log target / step) u^{-1} mod s.  Everywhere else it is a lookup
    in one BsgsTable, built here.
    """
    spec = g.spec
    if not reads_log_table(spec):
        return BsgsTable(g, s).lookup
    log = _log_table(spec)
    step = (spec.cardinality - 1) // s
    u_inv = pow(log[g.packed()] // step, -1, s)

    def lookup(target: FieldElement) -> int | None:
        lt = log[target.packed()]
        if lt < 0 or lt % step:
            return None
        return lt // step * u_inv % s

    return lookup
