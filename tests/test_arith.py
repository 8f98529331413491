"""Tests for factorization, divisor counting, multiplicative orders, and
baby-step giant-step discrete logs, all validated against brute oracles.
"""

import functools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expzeros import arith, cli, fields, solver
from expzeros.arith import (
    BsgsTable,
    bsgs_table_cost,
    discrete_logs,
    divisor_count,
    divisors,
    factorize,
    is_prime,
    multiplicative_order,
    pow_cost,
)
from expzeros.charsum import make_equation
from expzeros.errors import MemoryCap, ZeroElement
from expzeros.fields import FieldSpec, enumerate_units, make_field
from expzeros.solver import QueryCounter


# ---------------------------------------------------------------------------
# primality and factorization


def test_is_prime_spot_checks():
    for p in [2, 3, 5, 97, 101, 1009, 65537, 2 ** 61 - 1]:
        assert is_prime(p)
    # 561 is a Carmichael number, 2047 is a strong pseudoprime to base 2
    for c in [0, 1, 4, 341, 561, 2047, 2 ** 62, 10 ** 12 + 1]:
        assert not is_prime(c)


def test_factorize_examples():
    assert factorize(1).prime_powers == ()
    assert factorize(6).prime_powers == ((2, 1), (3, 1))
    assert factorize(12).prime_powers == ((2, 2), (3, 1))
    assert factorize(2 ** 62).prime_powers == ((2, 62),)
    assert factorize(97).prime_powers == ((97, 1),)
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_semiprimes_beyond_trial_division():
    # both factors sit above the trial division bound, forcing Pollard rho
    n = 1000003 * 1000033
    assert factorize(n).prime_powers == ((1000003, 1), (1000033, 1))
    n = (10 ** 9 + 7) * (10 ** 9 + 9)
    assert factorize(n).prime_powers == ((10 ** 9 + 7, 1), (10 ** 9 + 9, 1))
    n = 1000003 ** 2
    assert factorize(n).prime_powers == ((1000003, 2),)


def test_factorize_random_reconstruction():
    rng = random.Random(101)
    for _ in range(300):
        m = rng.randrange(1, 10 ** 6)
        fact = factorize(m)
        assert fact.value == m
        rebuilt = math.prod(p ** e for p, e in fact.prime_powers)
        assert rebuilt == m
        ps = [p for p, _ in fact.prime_powers]
        assert ps == sorted(ps) and len(set(ps)) == len(ps)
        assert all(is_prime(p) for p in ps)


def naive_divisor_count(m):
    """Independent O(sqrt(m)) divisor enumeration, the oracle."""
    count = 0
    d = 1
    while d * d <= m:
        if m % d == 0:
            count += 2 if d * d != m else 1
        d += 1
    return count


def test_divisor_count_against_naive():
    for m in range(1, 2001):
        assert divisor_count(m) == naive_divisor_count(m)
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randrange(1, 10 ** 5)
        assert divisor_count(m) == naive_divisor_count(m)


def test_divisors_listing():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    for m in range(1, 201):
        assert divisors(m) == [d for d in range(1, m + 1) if m % d == 0]


# ---------------------------------------------------------------------------
# counted exponentiation


def counted_pow(x, k, counter, bucket="pow"):
    """x^k by right-to-left square-and-multiply, as fields._ppowmod runs
    it, charging `counter` one multiplication per product it performs:
    the oracle of pow_cost."""
    if k < 0:
        raise ValueError("counted_pow needs k >= 0")
    result, base, mults = x.spec.one(), x, 0
    while k:
        if k & 1:
            result, mults = result * base, mults + 1
        k >>= 1
        if k:
            base, mults = base * base, mults + 1
    counter.mults(mults, bucket)
    return result


def test_counted_pow_charges_exact_multiplications():
    f101 = make_field(101)
    g = f101.element(2)
    for k in [1, 2, 3, 6, 7, 15, 16, 100, 2 ** 20 + 3]:
        counter = QueryCounter()
        result = counted_pow(g, k, counter)
        assert result == g ** k
        expected = bin(k).count("1") + k.bit_length() - 1
        assert counter.group_mults == expected == pow_cost(k)
        assert counter.buckets == {"pow": expected}
    counter = QueryCounter()
    assert counted_pow(g, 0, counter) == f101.one()
    assert counter.group_mults == 0
    with pytest.raises(ValueError):
        counted_pow(g, -1, QueryCounter())


def counted_bsgs(g, s, counter):
    """Baby-step giant-step to the base g of order s, charging `counter`
    every product it makes: the m - 1 baby steps, g^m by counted_pow and
    one for its inverse as it builds the table, then one per giant step
    of each lookup.  Returns the lookup, t -> x in [0, s) with g^x = t or
    None.  The oracle of bsgs_table_cost and of the x // m lookup charge.
    """
    m = math.isqrt(s - 1) + 1
    table = {}
    cur = g.spec.one()
    for j in range(m):
        table.setdefault(cur.packed(), j)
        if j + 1 < m:
            cur = cur * g
            counter.mults(1, "bsgs_table")
    giant = counted_pow(g, m, counter, "bsgs_table").inverse()
    counter.mults(1, "bsgs_table")   # inversion charged as one mult

    def lookup(target):
        cur, found, steps = target, None, 0
        for i in range(-(-s // m)):
            j = table.get(cur.packed())
            if j is not None and i * m + j < s:
                found = i * m + j
                break
            cur, steps = cur * giant, steps + 1
        counter.dlog_calls += 1
        counter.mults(steps, "bsgs_lookup")
        return found

    return lookup


def test_query_counter_dict():
    a = QueryCounter()
    a.mults(3, "setup")
    a.mults(5, "setup")
    a.mults(1, "membership")
    a.dlog_calls = 2
    a.outer_points_visited = 7
    d = a.to_dict()
    assert d == {"group_mults": 9, "dlog_calls": 2,
                 "outer_points_visited": 7,
                 "buckets": {"membership": 1, "setup": 8}}
    assert list(d["buckets"]) == ["membership", "setup"]
    assert d["group_mults"] == sum(d["buckets"].values())


# ---------------------------------------------------------------------------
# multiplicative orders


def brute_order(g):
    one = g.spec.one()
    acc = g
    k = 1
    while acc != one:
        acc = acc * g
        k += 1
    return k


def test_multiplicative_order_exhaustive_small_fields():
    # (2, 8) and (3, 5) read every order from their log tables
    for p, nu in [(7, 1), (13, 1), (2, 4), (5, 2), (3, 3), (101, 1), (2, 8),
                  (3, 5)]:
        spec = make_field(p, nu)
        fact = factorize(spec.cardinality - 1)
        for g in enumerate_units(spec):
            s = multiplicative_order(g, fact)
            assert s == brute_order(g)
            assert (spec.cardinality - 1) % s == 0


def test_multiplicative_order_divisibility_certificate():
    spec = make_field(257)
    fact = factorize(256)
    for g in enumerate_units(spec):
        s = multiplicative_order(g, fact)
        assert g ** s == spec.one()
        for p, _ in factorize(s).prime_powers:
            assert g ** (s // p) != spec.one()


def test_log_table_orders_match_the_pow_loop(monkeypatch):
    fields = [make_field(2, 6), make_field(3, 4), make_field(7, 2),
              make_field(17, 2)]
    facts = [factorize(spec.cardinality - 1) for spec in fields]
    table = [[multiplicative_order(g, fact)
              for g in enumerate_units(spec)]
             for spec, fact in zip(fields, facts)]
    monkeypatch.setattr(arith, "LOG_TABLE_MAX_Q", 0)   # force the pow loop
    loop = [[multiplicative_order(g, fact)
             for g in enumerate_units(spec)]
            for spec, fact in zip(fields, facts)]
    assert table == loop


def test_log_table_is_the_walk_of_the_first_generator():
    spec = make_field(3, 5)
    fact = factorize(242)
    table = np.asarray(arith._log_table(spec))
    assert table.dtype == np.int32 and table[0] == -1
    assert sorted(table[1:].tolist()) == list(range(242))
    gamma = spec.from_packed(int(np.flatnonzero(table == 1)[0]))
    assert multiplicative_order(gamma, fact) == 242
    assert all(brute_order(spec.from_packed(k)) < 242
               for k in range(1, gamma.packed()))
    for k in (1, 2, 17, 100, 242):
        assert gamma ** int(table[k]) == spec.from_packed(k)


def scan_from_one(spec, fact):
    """The first generator by a scan over every unit from packed 1."""
    for k in range(1, spec.cardinality):
        gamma = spec.from_packed(k)
        if all(gamma ** (fact.value // ell) != spec.one()
               for ell, _ in fact.prime_powers):
            return gamma


@pytest.mark.parametrize("p, nu", [(2, 2), (2, 3), (2, 8), (3, 2), (3, 5),
                                   (5, 2), (5, 3), (7, 2), (11, 2), (13, 2),
                                   (31, 2), (101, 2), (257, 2), (7, 1),
                                   (101, 1)])
def test_first_generator_matches_the_scan_from_one(p, nu):
    spec = make_field(p, nu)
    fact = factorize(spec.cardinality - 1)
    assert arith._first_generator(spec, fact) == scan_from_one(spec, fact)


def test_first_generator_of_large_extension_fields_is_quick():
    start = time.perf_counter()
    spec = make_field(32749, 2)
    gamma = arith._first_generator(spec, factorize(32749 ** 2 - 1))
    assert gamma.packed() == 32751
    spec = make_field((1 << 31) - 1, 2)
    fact = factorize(spec.cardinality - 1)
    gamma = arith._first_generator(spec, fact)
    assert gamma.packed() >= spec.p
    assert multiplicative_order(gamma, fact) == spec.cardinality - 1
    # the scan from packed 1 took seconds on the first field and did not
    # end in 20 s on the second
    assert time.perf_counter() - start < 2


def test_planted_wrong_log_entry_is_caught(monkeypatch):
    spec = make_field(2, 8)
    fact = factorize(255)
    arith._log_table(spec)
    # products read the planted table too, so take the true orders first
    orders = {g.packed(): brute_order(g) for g in enumerate_units(spec)}
    log, antilog = spec._zech
    bad = np.array(log)
    gamma = int(np.flatnonzero(bad == 1)[0])
    bad[gamma] = 3    # gamma now reads as gamma^3, of order 85
    monkeypatch.setattr(spec, "_zech", (memoryview(bad), antilog))
    wrong = [k for k, s in orders.items()
             if multiplicative_order(spec.from_packed(k), fact) != s]
    assert wrong == [gamma]


@pytest.mark.parametrize("p, nu", [(2, 15), (3, 9), (2, 21)])
def test_extension_field_above_table_cap_takes_the_pow_loop(monkeypatch, p,
                                                            nu):
    # the fields just above LOG_TABLE_MAX_Q = 2^14, and one far above it
    spec = make_field(p, nu)
    assert spec.cardinality > arith.LOG_TABLE_MAX_Q

    def no_table(*args):
        raise AssertionError("log table built above LOG_TABLE_MAX_Q")

    monkeypatch.setattr(arith, "_log_table", no_table)
    fact = factorize(spec.cardinality - 1)
    rng = random.Random(21)
    for g in [spec.element([0, 1]), spec.element([1, 1, 1])] + [
            spec.from_packed(rng.randrange(2, spec.cardinality))
            for _ in range(3)]:
        s = multiplicative_order(g, fact)
        assert (spec.cardinality - 1) % s == 0
        assert g ** s == spec.one()
        for ell, _ in factorize(s).prime_powers:
            assert g ** (s // ell) != spec.one()


def test_largest_table_field_reads_orders_from_its_table(monkeypatch):
    spec = make_field(2, 14)
    assert spec.cardinality <= arith.LOG_TABLE_MAX_Q
    fact = factorize(spec.cardinality - 1)   # 3 * 43 * 127
    rng = random.Random(14)
    units = [spec.from_packed(rng.randrange(1, spec.cardinality))
             for _ in range(40)]
    table = [multiplicative_order(g, fact) for g in units]
    assert spec._zech is not None
    monkeypatch.setattr(arith, "LOG_TABLE_MAX_Q", 0)   # force the pow loop
    assert table == [multiplicative_order(g, fact) for g in units]


def test_evicted_field_still_finds_its_log_table():
    # make_field keeps the 256 fields used last.  A field evicted from it
    # and built again is a new FieldSpec equal to the old one, which
    # builds its own table and reads the same orders and products
    spec = make_field(2, 10)
    fact = factorize(spec.cardinality - 1)
    table = arith._log_table(spec)
    assert make_field.cache_info().maxsize == 256
    primes = [p for p in range(1009, 4000) if is_prime(p)][:300]
    assert len(primes) == 300
    for p in primes:
        make_field(p)
    again = make_field(2, 10)
    assert again is not spec
    assert again == spec and hash(again) == hash(spec)
    assert again._zech is None
    rebuilt = arith._log_table(again)
    assert again._zech is not None and rebuilt is not table
    assert arith._log_table(again) is rebuilt
    assert arith._log_table(spec) is table
    assert rebuilt == table and spec._zech[1] == again._zech[1]
    units = (2, 77, 1023)
    assert [multiplicative_order(again.from_packed(k), fact)
            for k in units] == [
        multiplicative_order(spec.from_packed(k), fact)
        for k in units]
    pairs = [(77, 1023), (2, 500), (0, 9)]
    assert [(again.from_packed(a) * again.from_packed(b)).packed()
            for a, b in pairs] == [
        (spec.from_packed(a) * spec.from_packed(b)).packed()
        for a, b in pairs]


def test_one_log_table_fits_in_128_kib():
    # the admission rule bounds each table: reads_log_table admits every
    # field with q <= LOG_TABLE_MAX_Q = 2^14, whose q log and q - 1
    # antilog int32 entries take at most 2 * 2^14 * 4 B = 128 KiB, and
    # make_field's 256-entry cache bounds how many fields it keeps alive
    # (at most 32 MiB of tables).  Raising the limit breaks this, and the
    # memory argument has to be made again
    assert 2 * arith.LOG_TABLE_MAX_Q * 4 <= 128 << 10
    assert make_field.cache_info().maxsize == 256
    # the largest admitted prime field and q = 2^14; the next prime is out
    for p, nu in [(16381, 1), (2, 14)]:
        spec = make_field(p, nu)
        assert arith.reads_log_table(spec)
        arith._log_table(spec)
        assert sum(view.nbytes for view in spec._zech) <= 128 << 10
    assert not arith.reads_log_table(make_field(16411))


# A fresh interpreter frees an 8 MiB block, which raises glibc's trim
# threshold to 16 MiB, then frees 12 MiB of 1 MiB blocks: they stay on the
# heap as its free top.  Prints that top's size before and after one table
# build, or "skip" where the C library has no mallinfo2.
FREE_TOP_SCRIPT = """
import ctypes
import numpy as np
from expzeros import arith, fields

libc = ctypes.CDLL(None)
if not hasattr(libc, "mallinfo2"):
    print("skip")
    raise SystemExit


class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks "
        "fordblks keepcost").split()]


libc.mallinfo2.restype = MallInfo2
np.ones(1 << 20)  # made and freed at once
blocks = [np.ones(1 << 17) for _ in range(12)]
del blocks
before = libc.mallinfo2().keepcost
arith._log_table(fields.make_field(101))
print(before, libc.mallinfo2().keepcost)
"""


def test_table_build_returns_the_free_heap_top():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", FREE_TOP_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "skip":
        pytest.skip("the C library has no mallinfo2")
    before, after = map(int, proc.stdout.split())
    assert before >= 8 << 20  # glibc kept the freed blocks
    assert after < 1 << 20


# ---------------------------------------------------------------------------
# products on the log table


def schoolbook(x, y):
    """x * y by the polynomial product mod the modulus, the route a field
    without a cached table takes."""
    spec = x.spec
    return spec.element(fields._pmulmod(list(x.coeffs), list(y.coeffs),
                                        list(spec.modulus), spec.p))


TABLE_FIELDS = [(2, 3), (3, 2), (5, 2), (2, 6), (3, 4), (7, 4), (2, 12),
                (3, 8), (97, 2)]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(TABLE_FIELDS), st.data())
def test_table_product_equals_the_polynomial_product(field, data):
    spec = make_field(*field)
    arith._log_table(spec)
    assert spec._zech is not None
    x, y = (spec.from_packed(data.draw(st.integers(0, spec.cardinality - 1)))
            for _ in range(2))
    zero, one = spec.zero(), spec.one()
    for u, v in [(x, y), (y, x), (x, zero), (zero, y), (zero, zero),
                 (x, one), (one, y)]:
        assert (u * v).coeffs == schoolbook(u, v).coeffs
    assert x * one == x and one * y == y
    assert x * zero == zero * y == zero


def test_field_past_the_table_cap_multiplies_without_a_table(monkeypatch):
    spec = make_field(3, 9)
    assert spec.cardinality > arith.LOG_TABLE_MAX_Q

    def no_table(*args):
        raise AssertionError("log table built above LOG_TABLE_MAX_Q")

    monkeypatch.setattr(arith, "_log_table", no_table)
    fact = factorize(spec.cardinality - 1)
    rng = random.Random(39)
    for _ in range(40):
        x, y = (spec.from_packed(rng.randrange(1, spec.cardinality))
                for _ in range(2))
        multiplicative_order(x, fact)
        assert (x * y).coeffs == schoolbook(x, y).coeffs
    assert spec._zech is None


def test_products_never_build_a_table(monkeypatch):
    # a fresh spec, outside make_field's cache
    spec = FieldSpec(2, 6)

    def no_table(*args):
        raise AssertionError("a product built a log table")

    x, y = spec.from_packed(37), spec.from_packed(50)
    walk = [x]
    with monkeypatch.context() as m:
        m.setattr(arith, "_log_table", no_table)
        m.setattr(arith, "_first_generator", no_table)
        for _ in range(70):
            walk.append(walk[-1] * y)
    assert spec._zech is None
    # once an order builds the table, products read it and agree
    multiplicative_order(y, factorize(63))
    assert spec._zech is not None
    assert [u * y for u in walk[:-1]] == walk[1:]
    assert all((u * y).coeffs == schoolbook(u, y).coeffs for u in walk)


# ---------------------------------------------------------------------------
# packed elements against coefficient-tuple arithmetic


def poly_mulmod(a, b, mod, p):
    """The coefficient tuple of a * b mod the monic `mod` over F_p,
    written out apart from fields: full product, then clear the top
    degrees one by one."""
    nu = len(mod) - 1
    out = [0] * (2 * nu)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    for k in range(len(out) - 1, nu - 1, -1):
        c = out[k] % p
        for j in range(nu + 1):
            out[k - nu + j] -= c * mod[j]
    return tuple(c % p for c in out[:nu])


def poly_pow(a, k, mod, p):
    """a^k mod `mod` by square-and-multiply on coefficient tuples."""
    out = (1,) + (0,) * (len(mod) - 2)
    for bit in bin(k)[2:]:
        out = poly_mulmod(out, out, mod, p)
        if bit == "1":
            out = poly_mulmod(out, a, mod, p)
    return out


# (p, nu, kind): "table" reads the field's log table; "bare" is a fresh
# FieldSpec, as tools/mul_ns.py builds one, so it has none; "past" lies
# past LOG_TABLE_MAX_Q and never has one
ORACLE_FIELDS = [(2, 4, "table"), (3, 3, "table"), (7, 2, "table"),
                 (101, 1, "table"), (3, 8, "bare"), (2, 16, "past")]


@functools.lru_cache(maxsize=None)
def oracle_spec(p, nu, kind):
    """The spec of one ORACLE_FIELDS entry, built once; kind "twin" is a
    second FieldSpec equal to the others of (p, nu), and not them."""
    if kind in ("bare", "twin"):
        return FieldSpec(p, nu)
    spec = make_field(p, nu)
    if kind == "table":
        arith._log_table(spec)
    return spec


def test_an_element_stores_only_its_packed_integer():
    assert fields.FieldElement.__slots__ == ("spec", "value")
    spec = make_field(3, 4)
    x = spec.from_packed(np.int64(47))
    assert type(x.value) is int and x.packed() == 47
    assert x.coeffs == (2, 0, 2, 1) == spec.element([2, 0, 2, 1]).coeffs


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.data())
def test_packed_arithmetic_matches_coefficient_tuples(field, data):
    spec = oracle_spec(*field)
    p, nu, mod = spec.p, spec.nu, spec.modulus
    x, y = (spec.from_packed(data.draw(st.integers(0, spec.cardinality - 1)))
            for _ in range(2))
    k = data.draw(st.integers(0, 3 * spec.cardinality))
    a, b = x.coeffs, y.coeffs
    assert len(a) == nu and all(type(c) is int and 0 <= c < p for c in a)
    assert x.packed() == sum(c * p ** i for i, c in enumerate(a))
    assert (x + y).coeffs == tuple((s + t) % p for s, t in zip(a, b))
    assert (x - y).coeffs == tuple((s - t) % p for s, t in zip(a, b))
    assert (-x).coeffs == tuple(-s % p for s in a)
    assert (x * y).coeffs == poly_mulmod(a, b, mod, p)
    assert (x ** k).coeffs == poly_pow(a, k, mod, p)
    if not x.is_zero():
        inv = x.inverse().coeffs
        assert poly_mulmod(a, inv, mod, p) == spec.one().coeffs
        assert (x ** -k).coeffs == poly_pow(inv, k, mod, p)
    # the trace sum_i x^(p^i), digit by digit, lies in F_p
    acc, frob = (0,) * nu, a
    for _ in range(nu):
        acc = tuple((s + t) % p for s, t in zip(acc, frob))
        frob = poly_pow(frob, p, mod, p)
    assert acc[1:] == (0,) * (nu - 1) and x.trace() == acc[0]
    # round trips, and equal elements hash alike across equal specs
    assert spec.element(a) == x and spec.from_packed(x.packed()) == x
    twin = oracle_spec(p, nu, "twin")
    u = twin.from_packed(x.packed())
    assert u.spec is not spec and u.spec == spec
    assert u == x and hash(u) == hash(x) and x * u == x * x
    assert (x == y) == (a == b)
    if x == y:
        assert hash(x) == hash(y)
    assert (spec._zech is not None) == (field[2] == "table")


def test_multiplicative_order_errors():
    f7 = make_field(7)
    with pytest.raises(ZeroElement):
        multiplicative_order(f7.zero(), factorize(6))
    with pytest.raises(ValueError):
        multiplicative_order(f7.element(3), factorize(5))
    assert multiplicative_order(f7.one(), factorize(6)) == 1


# ---------------------------------------------------------------------------
# baby-step giant-step


def test_bsgs_exhaustive_against_power_walk():
    # these fields read their discrete logs from the log table, so this
    # is the direct coverage of the baby-step table there
    for p, nu in [(11, 1), (2, 6), (101, 1)]:
        spec = make_field(p, nu)
        fact = factorize(spec.cardinality - 1)
        for g in enumerate_units(spec):
            s = multiplicative_order(g, fact)
            table = BsgsTable(g, s)
            acc = spec.one()
            for x in range(s):
                assert table.lookup(acc) == x
                assert discrete_logs(g, s)(acc) == x
                acc = acc * g


def test_bsgs_absent_targets_return_none():
    f101 = make_field(101)
    fact = factorize(100)
    # 5 has order 25 in F_101, so 75 units sit outside <5>
    g = f101.element(5)
    assert multiplicative_order(g, fact) == 25
    members = {(g ** x).packed() for x in range(25)}
    outside = [k for k in range(1, 101) if k not in members]
    assert len(outside) == 75
    for k in outside[:10]:
        assert discrete_logs(g, 25)(f101.element(k)) is None
    # logs lie in [0, s): with s = 10 below the order 100 of 2, the
    # giant steps reach g^10 and g^11 but the table reports neither
    two = f101.element(2)
    table = BsgsTable(two, 10)
    assert [table.lookup(two ** x) for x in range(12)] == [*range(10),
                                                           None, None]


def test_bsgs_multiplication_budget():
    # table + lookup should stay within ~4 sqrt(s) plus log terms
    for p in (1009, 65537):
        spec = make_field(p)
        fact = factorize(p - 1)
        rng = random.Random(p)
        for _ in range(20):
            g = spec.element(rng.randrange(1, p))
            s = multiplicative_order(g, fact)
            target = g ** rng.randrange(s)
            counter = QueryCounter()
            x = counted_bsgs(g, s, counter)(target)
            assert x is not None and g ** x == target
            assert x == discrete_logs(g, s)(target)
            budget = 4 * (math.isqrt(s - 1) + 1) + 2 * s.bit_length() + 8
            assert counter.group_mults <= budget
            assert counter.dlog_calls == 1
            assert sum(counter.buckets.values()) == counter.group_mults


def test_bsgs_table_reuse_matches_one_shot():
    f257 = make_field(257)
    g = f257.element(3)
    s = multiplicative_order(g, factorize(256))
    assert s == 256
    table = BsgsTable(g, s)
    rng = random.Random(0)
    for _ in range(50):
        x = rng.randrange(s)
        target = g ** x
        assert table.lookup(target) == x
        assert discrete_logs(g, s)(target) == x
    assert table.lookup(f257.zero()) is None


def test_bsgs_order_one_and_memory_cap():
    f7 = make_field(7)
    one = f7.one()
    assert discrete_logs(one, 1)(one) == 0
    assert discrete_logs(one, 1)(f7.element(3)) is None
    # and on the log-table route, where log g = 0 and u^{-1} mod 1 is 0
    f64 = make_field(2, 6)
    assert arith.reads_log_table(f64)
    assert discrete_logs(f64.one(), 1)(f64.one()) == 0
    assert discrete_logs(f64.one(), 1)(f64.from_packed(2)) is None
    with pytest.raises(MemoryCap):
        BsgsTable(f7.element(3), 2 ** 50)
    with pytest.raises(ValueError):
        BsgsTable(f7.element(3), 0)


def element_of_order(s):
    """A unit of order s, in the first prime field F_p with s | p - 1."""
    p = next(k * s + 1 for k in range(1, 10 ** 4) if is_prime(k * s + 1))
    spec = make_field(p)
    fact = factorize(p - 1)
    return arith._first_generator(spec, fact) ** ((p - 1) // s)


def test_bsgs_cost_rule_is_what_the_table_makes(monkeypatch):
    # the rule against the products the counted reference makes, and
    # against those BsgsTable itself makes: the baby steps' products,
    # square-and-multiply for g^m, one inversion
    mul = arith.FieldElement.__mul__
    products = []

    def counted_mul(x, y):
        products.append(1)
        return mul(x, y)

    for s in range(1, 301):
        g = element_of_order(s)
        m, cost = bsgs_table_cost(s)
        counter = QueryCounter()
        lookup = counted_bsgs(g, s, counter)
        assert counter.to_dict() == {
            "group_mults": cost, "dlog_calls": 0, "outer_points_visited": 0,
            "buckets": {"bsgs_table": cost}}
        with monkeypatch.context() as patch:
            patch.setattr(arith.FieldElement, "__mul__", counted_mul)
            products.clear()
            table = BsgsTable(g, s)
            assert table.m == m == math.isqrt(s - 1) + 1
            assert cost == len(products) + pow_cost(m) + 1
            assert pow_cost(m) == bin(m).count("1") + m.bit_length() - 1
            # a lookup of g^x takes x // m giant steps
            target = g.spec.one()
            for x in range(s):
                products.clear()
                assert table.lookup(target) == x
                assert len(products) == x // m
                target = mul(target, g)
        target = g.spec.one()
        for x in range(s):
            before = counter.group_mults
            assert lookup(target) == x
            assert counter.group_mults - before == x // m
            target = target * g
        assert counter.dlog_calls == s


def test_bsgs_cost_rule_refuses_where_the_table_does(monkeypatch):
    monkeypatch.setattr(arith, "BSGS_TABLE_CAP", 10)
    g = make_field(257).element(3)
    assert bsgs_table_cost(100)[0] == 10
    BsgsTable(g, 100)
    for build in (bsgs_table_cost, lambda s: BsgsTable(g, s)):
        with pytest.raises(MemoryCap, match="baby table of 11 entries"):
            build(101)
    with pytest.raises(ValueError):
        bsgs_table_cost(0)
    # s_1 = 128 needs m = 12: the solver refuses before any outer point

    def no_scan(*args):
        raise AssertionError("an outer point was visited")

    monkeypatch.setattr(solver, "_grid_targets", no_scan)
    eq = make_equation(make_field(257), [(1, 9), (1, 136)], 217)
    with pytest.raises(MemoryCap):
        solver.solve_classical(eq)
    assert cli.main(["solve", "--p", "257", "--terms", "1,9;1,136",
                     "--b", "217"]) == 2


@pytest.mark.parametrize("p, nu", [(2, 6), (3, 4), (5, 2)])
def test_table_dlog_matches_bsgs_for_every_base_and_target(p, nu):
    # discrete_logs' log-table route against the baby-step table; every
    # unit g is a base, so every s | q - 1 occurs as its order
    spec = make_field(p, nu)
    assert arith.reads_log_table(spec)
    fact = factorize(spec.cardinality - 1)
    units = list(enumerate_units(spec))
    orders = set()
    for g in units:
        s = multiplicative_order(g, fact)
        orders.add(s)
        table = BsgsTable(g, s)
        logs = [discrete_logs(g, s)(t) for t in units]
        assert logs == [table.lookup(t) for t in units]
        assert logs.count(None) == len(units) - s
        assert discrete_logs(g, s)(spec.zero()) is None
    assert orders == set(divisors(spec.cardinality - 1))
