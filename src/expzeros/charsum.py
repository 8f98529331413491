"""Additive characters over F_q and character-sum solution counting.

The canonical additive character is psi(u) = exp(2 pi i Tr(u) / p).
Averaging psi(u mu) over all mu in F_q gives the indicator [u = 0], which
turns counting zeros of

    f_b(x_1, ..., x_n) = a_1 g_1^{x_1} + ... + a_n g_n^{x_n} - b

over a box X_1 x ... x X_{n-1} x X_n(r) (X_j = [0, s_j), last coordinate
truncated to r) into a complete sum over mu that factors term by term:

    N(r) = (1/q) sum_mu psi(-mu b) prod_j sum_{x_j < limit_j} psi(mu a_j g_j^{x_j}).

The inner sums are partial Gauss sums; at full order their modulus is at
most sqrt(q), which is what the density bounds in density.py rest on.

That sum is a discrete Fourier transform on the additive group
(F_q, +) = (Z/p)^nu: the partial Gauss sums transform the histograms of
the walks a_j g_j^x, and N_{f_b}(r) for every b at once is the
convolution of those histograms.  `spectral_counts` evaluates it with one
FFT per term and one inverse, certified against rounding or redone in
exact integers; `brute_count` is the independent exhaustive oracle.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import factorize, multiplicative_order
from .errors import (CapExceeded, FieldMismatch, InvariantViolated, Overflow,
                     ZeroElement)
from .fields import (DEFAULT_ENUM_CAP, FieldElement, FieldSpec, _add_mod,
                     _digit_dtype, _pack, _power_walk)

TERM_CAP = 16
LIST_CAP = 1 << 16
BRUTE_BLOCK = 1 << 16  # box points per comparison block in brute_count
MAX_CARD = (1 << 63) - 1


@dataclass(frozen=True)
class ExpEquation:
    """The data (a_i, g_i)_{i=1..n} and b, with verified orders s_i."""

    spec: FieldSpec
    terms: tuple[tuple[FieldElement, FieldElement], ...]
    b: FieldElement
    orders: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.terms)

    @property
    def q(self) -> int:
        return self.spec.cardinality

    def to_dict(self) -> dict:
        return {
            "p": self.spec.p,
            "nu": self.spec.nu,
            "terms": [[a.packed(), g.packed()] for a, g in self.terms],
            "b": self.b.packed(),
            "orders": list(self.orders),
        }


def make_equation(spec: FieldSpec, terms, b, n_cap: int = TERM_CAP
                  ) -> ExpEquation:
    """Build an ExpEquation, computing and verifying the orders s_i.

    Term entries and b may be FieldElements or packed integers.
    """
    coerced = []
    for a, g in terms:
        a = spec.element(a)
        g = spec.element(g)
        if a.is_zero() or g.is_zero():
            raise ZeroElement("equation terms need nonzero a_i and g_i")
        coerced.append((a, g))
    if not coerced:
        raise ValueError("need at least one term")
    if len(coerced) > n_cap:
        raise CapExceeded(f"n = {len(coerced)} terms exceeds cap {n_cap}")
    b = spec.element(b)
    if b.spec != spec:
        raise FieldMismatch("b belongs to a different field")
    fact = factorize(spec.cardinality - 1)
    orders = tuple(multiplicative_order(g, fact).order for _, g in coerced)
    return ExpEquation(spec, tuple(coerced), b, orders)


def equation_from_dict(doc: dict) -> ExpEquation:
    from .fields import make_field
    spec = make_field(doc["p"], doc["nu"])
    eq = make_equation(spec, doc["terms"], doc["b"])
    if "orders" in doc and tuple(doc["orders"]) != eq.orders:
        raise ValueError("stored orders disagree with recomputation")
    return eq


@dataclass(frozen=True)
class SearchBox:
    """Sorted search domain X_1 x ... x X_{n-1} x X_n(r), s_1 >= ... >= s_n.

    perm[k] is the original term index occupying sorted position k; ties
    in the orders are broken by original index, so sorting is stable.
    """

    perm: tuple[int, ...]
    orders_sorted: tuple[int, ...]
    r: int
    card: int

    @property
    def n(self) -> int:
        return len(self.perm)

    def limits(self) -> tuple[int, ...]:
        """Per-coordinate ranges: full orders, last truncated to r."""
        return self.orders_sorted[:-1] + (self.r,)

    def to_dict(self) -> dict:
        return {"perm": list(self.perm),
                "orders_sorted": list(self.orders_sorted),
                "r": self.r, "card": self.card}


def make_box(eq: ExpEquation, r: int | None = None) -> SearchBox:
    """Sort the terms by descending order and truncate the last to r."""
    perm = tuple(sorted(range(eq.n), key=lambda i: (-eq.orders[i], i)))
    orders_sorted = tuple(eq.orders[i] for i in perm)
    if r is None:
        r = orders_sorted[-1]
    if not 1 <= r <= orders_sorted[-1]:
        raise ValueError(
            f"r = {r} outside [1, s_n = {orders_sorted[-1]}]")
    card = math.prod(orders_sorted[:-1]) * r
    if card > MAX_CARD:
        raise Overflow(f"box cardinality {card} exceeds 2^63-1")
    return SearchBox(perm, orders_sorted, r, card)


def log_of(q: int, log_base: str) -> float:
    """log q in the named base, "natural" or "base2"."""
    if log_base == "natural":
        return math.log(q)
    if log_base == "base2":
        return math.log2(q)
    raise ValueError(f"unknown log base {log_base!r}")


def box_radius(q: int, orders_sorted, log_base: str) -> float:
    """The density radius q^n (prod_{l<n} s_l)^(-2) log q, unrounded.

    orders_sorted is descending, so s_n is the smallest order.  The solver
    takes its ceiling, the minimal-r corollary its floor + 1 and the thm3
    model its floor.  Raises Overflow past 2^62.
    """
    logq = log_of(q, log_base)
    prod = math.prod(orders_sorted[:-1])
    big = Fraction(q ** len(orders_sorted), prod * prod)
    try:
        val = float(big) * logq
    except OverflowError as exc:
        raise Overflow(f"q^n/P^2 too large: {big}") from exc
    if val > float(1 << 62):
        raise Overflow(f"box radius {val:.3e} exceeds 2^62")
    return val


def sorted_terms(eq: ExpEquation, box: SearchBox
                 ) -> tuple[tuple[FieldElement, FieldElement], ...]:
    return tuple(eq.terms[i] for i in box.perm)


# ---------------------------------------------------------------------------
# additive characters


def _monomial_traces(spec: FieldSpec, count: int) -> list[int]:
    """Tr(X^k) for k = 0..count-1 (X = 0 in a prime field)."""
    x = spec.element([0, 1]) if spec.nu > 1 else spec.zero()
    out = []
    cur = spec.one()
    for _ in range(count):
        out.append(cur.trace())
        cur = cur * x
    return out


def psi(u: FieldElement) -> complex:
    """Canonical additive character exp(2 pi i Tr(u) / p)."""
    return cmath.exp(2j * cmath.pi * u.trace() / u.spec.p)


def delta_indicator(u: FieldElement, cap: int = DEFAULT_ENUM_CAP) -> float:
    """(1/q) sum_mu psi(u mu): 1.0 at u = 0, else 0.0 (to 1e-9).

    For mu with coefficients m, Tr(mu u) = m . (H u) mod p where H[k][j] =
    Tr(X^{k+j}): trace is F_p-linear, so one Hankel matrix of monomial
    traces covers every product (H = [[1]] in a prime field).
    """
    spec = u.spec
    q, p, nu = spec.cardinality, spec.p, spec.nu
    if q > cap:
        raise CapExceeded(f"cardinality {q} exceeds cap {cap}")
    taus = _monomial_traces(spec, 2 * nu - 1)
    hankel = np.array([[taus[k + j] for j in range(nu)] for k in range(nu)],
                      dtype=np.int64)
    t_u = (hankel @ np.array(u.coeffs, dtype=np.int64)) % p
    # the base-p digit rows (c_0 .. c_{nu-1}) of every mu, in packed order
    powers = p ** np.arange(nu, dtype=np.int64)
    mus = (np.arange(q, dtype=np.int64)[:, None] // powers) % p
    vals = (mus @ t_u) % p
    return float(np.exp(2j * np.pi * vals / p).sum().real) / q


def gauss_partial_sum(a: FieldElement, mu: FieldElement, g: FieldElement,
                      limit: int) -> complex:
    """sum_{x=0}^{limit-1} psi(a mu g^x); |.| <= sqrt(q) at limit = order."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if a.is_zero() or mu.is_zero() or g.is_zero():
        raise ZeroElement("gauss_partial_sum needs units")
    spec = a.spec
    rows = _power_walk(a * mu, g, limit)
    # The trace products are exact in int64: Tr(1) = 1 when nu = 1, and
    # q <= 2^62 gives nu (p-1)^2 < 2^63 when nu > 1.
    taus = np.array(_monomial_traces(spec, spec.nu), dtype=np.int64)
    tr = (rows @ taus) % spec.p
    return complex(np.exp(2j * np.pi * tr / spec.p).sum())


# ---------------------------------------------------------------------------
# the spectral counting engine
#
# A histogram h_j(v) = #{x < limit_j : a_j g_j^x = v}, stored in packed order
# and reshaped to (p,)*nu, has coefficient c_i of v on its own axis, so a
# Fourier transform along every axis is the Fourier transform on
# (Z/p)^nu.  Its characters exp(2 pi i m.c / p) differ from psi(mu u) only
# by the invertible Hankel change of variables mu -> m, which a count never
# sees: the inverse transform of prod_j FT(h_j) is N_{f_b}(r) for every b.
# Small p transform each axis by one product with the p x p character
# matrix; larger p, and boxes too large for that route's error bound, use
# numpy's FFT.

UNIT_ROUNDOFF = 2.0 ** -53
FFT_ERR_CONST = 8  # rounding growth per butterfly stage, in units of u
DENSE_ERR_CONST = 8  # rounded matrix entry and complex product, in units of u
ROUND_SLACK = 0.25  # largest certified distance from an integer
PAD_LIMIT = 8  # zero-pad a prime axis only up to this many times p
# Largest p whose axes go through the character matrix.  At the measured
# crossover (nu = 1, 2; n = 1..4) the matrix products beat numpy's FFT up
# to p = 127, tie between 131 and 193 and lose from 211 on.
MATRIX_MAX_P = 127


def _smooth_length(m: int) -> int:
    """The least 5-smooth integer 2^i 3^j 5^k >= m (m >= 1)."""
    best = 1 << (m - 1).bit_length()
    three = 1
    while three < best:
        odd = three
        while odd < best:
            best = min(best, odd << (-(-m // odd) - 1).bit_length())
            odd *= 5
        three *= 3
    return best


def _transform_shape(p: int, nu: int, n: int) -> tuple[int, ...]:
    """The grid numpy's FFT runs the convolution on.

    A prime-length FFT runs Bluestein's algorithm, several times slower
    than a 5-smooth length.  So a prime field's n histograms are
    zero-padded to the least 5-smooth L >= n(p-1)+1, where the cyclic
    convolution equals the linear one, to be folded mod p after.  Padding
    stops at PAD_LIMIT * p (many terms), keeping memory O(n q).
    """
    if nu == 1:
        length = _smooth_length(n * (p - 1) + 1)
        if length <= PAD_LIMIT * p:
            return (length,)
    return (p,) * nu


def _fft_error_bound(card: int, n: int, shape: tuple[int, ...],
                     dense: bool = False) -> float:
    """A-priori bound on |computed - exact| for every transform entry.

    Histogram h_j has L1 mass limit_j, so each of its transform
    coefficients has modulus <= limit_j, and the forward transform
    computes it to within gamma * limit_j, gamma = u times the sum over
    the axes of:

    - FFT axis of length m: FFT_ERR_CONST * ceil(log2(4m)).  That counts
      the butterfly stages, and 4m covers Bluestein's padded length.
    - Dense axis (`dense`, the character matrix) of length m:
      m + DENSE_ERR_CONST.  Each output is a sum of m products F_jk x_k
      with |F_jk| = 1.  Summed in any order, it is off by at most
      (m - 1) u sum_k |x_k| to first order.  The rounded entry
      exp(-2 pi i jk/p) and the complex product add a few u per term,
      which DENSE_ERR_CONST covers.  Here x_k is h_j summed over the axes
      already transformed, with unit weights, so sum_k |x_k| is at most
      the mass of h_j over the coordinates the entry depends on, never
      more than limit_j.  The error left by earlier axes passes through F
      with the same unit weights and sums the same way, so the per-axis
      terms add.

    The product of the n coefficients, of modulus <= card, is then off by
    at most card * n * (gamma + u) to first order.  The inverse transform,
    normalised by 1/size, averages those errors and adds gamma * card of
    its own.  While the bound is below ROUND_SLACK the first-order terms
    dominate and the constants absorb the rest.  The real-input FFTs
    compute the same coefficients (the other half are their conjugates)
    in no more stages than a complex transform of the same shape, so the
    bound covers them too.
    """
    if dense:
        per_axes = sum(m + DENSE_ERR_CONST for m in shape)
    else:
        per_axes = FFT_ERR_CONST * sum(math.ceil(math.log2(4 * m))
                                       for m in shape)
    gamma = UNIT_ROUNDOFF * per_axes
    return card * ((n + 1) * gamma + n * UNIT_ROUNDOFF)


@functools.cache
def _char_matrices(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The p x p character matrix exp(-2 pi i (jk mod p) / p) and its
    inverse, the conjugate over p.  Only p <= MATRIX_MAX_P are built: all
    31 such pairs together hold 4.4 MB."""
    k = np.arange(p)
    fwd = np.exp(-2j * np.pi * (np.outer(k, k) % p) / p)
    return fwd, fwd.conj() / p


def _matrix_transform(x: np.ndarray, mat: np.ndarray, p: int,
                      nu: int) -> np.ndarray:
    """mat applied along every axis of x (complex, packed order).

    Each product transforms the leading axis of the contiguous (p, q/p)
    view, and the transpose moves that axis last; after nu products the
    axes are back in packed order.  Both operands are complex, which keeps
    the product on BLAS (a mixed real/complex @ is about 200x slower).
    """
    for _ in range(nu):
        x = (mat @ x.reshape(p, -1)).T.copy()
    return x.reshape(-1)


def _matrix_convolve(hists: list[np.ndarray], p: int, nu: int) -> np.ndarray:
    """The cyclic convolution of the histograms on (Z/p)^nu, as the
    complex result of the character-matrix transforms."""
    fwd, inv = _char_matrices(p)
    spectrum = _matrix_transform(hists[0].astype(np.complex128), fwd, p, nu)
    for h in hists[1:]:
        spectrum *= _matrix_transform(h.astype(np.complex128), fwd, p, nu)
    return _matrix_transform(spectrum, inv, p, nu)


def _fft_counts(hists: list[np.ndarray], p: int, nu: int,
                card: int) -> np.ndarray | None:
    """Counts by floating-point transform, or None unless certified exact.

    Up to MATRIX_MAX_P the character matrix transforms complex data
    (`_matrix_convolve`).  Above it, or when the dense sums' looser error
    bound cannot certify the box, the histograms, being real, go through
    real-input FFTs (rfftn, irfftn) on half the spectrum: on the padded
    grid, or on the unpadded one, whose fewer butterfly stages certify
    larger boxes.  The certificate: the a-priori bound is below
    ROUND_SLACK, and after the transform every real part lies within
    ROUND_SLACK of an integer, every imaginary part (if the result has
    any) is below it, and the rounded values sum to card.
    """
    n, grid = len(hists), (p,) * nu
    if (p <= MATRIX_MAX_P
            and _fft_error_bound(card, n, grid, dense=True) < ROUND_SLACK):
        raw = _matrix_convolve(hists, p, nu)
    else:
        shape = _transform_shape(p, nu, n)
        if _fft_error_bound(card, n, shape) >= ROUND_SLACK:
            shape = grid
        if _fft_error_bound(card, n, shape) >= ROUND_SLACK:
            return None
        axes = tuple(range(len(shape)))
        spectrum = np.fft.rfftn(hists[0].reshape(grid), s=shape, axes=axes)
        for h in hists[1:]:
            spectrum *= np.fft.rfftn(h.reshape(grid), s=shape, axes=axes)
        raw = np.fft.irfftn(spectrum, s=shape, axes=axes).reshape(-1)
    counts = np.rint(raw.real)
    # written so that a NaN fails it
    if not (np.abs(raw.real - counts).max() < ROUND_SLACK
            and (not np.iscomplexobj(raw)
                 or np.abs(raw.imag).max() < ROUND_SLACK)):
        return None
    counts = counts.astype(np.int64)
    if int(counts.sum()) != card:
        return None
    if len(counts) != p ** nu:  # zero-padded prime axis: fold mod p
        counts = np.concatenate(
            [counts, np.zeros(-len(counts) % p, dtype=np.int64)])
        counts = counts.reshape(-1, p).sum(axis=0)
    return counts


# int64 adds the exact fallback may spend: about 10 s at the slowest
# measured rate (39 ns an add over (Z/2)^12), 2-5 ns an add in prime fields
EXACT_WORK_CAP = 1 << 28
# Fixed cost of one shift of `_exact_counts` on (Z/p), in the cost units
# of `_shift_add_first`, one L log2 L term of the transform (0.7-0.9 ns
# for L >= 6750): a shift measured 3.1-3.3 us besides its adds.  An add
# costs about 0.33 ns, so counting it as a whole unit errs toward the
# transform.
SHIFT_ADD_CALL_COST = 4096


def _exact_counts(hists: list[np.ndarray], p: int, nu: int) -> np.ndarray:
    """Counts by integer shift-and-add over (Z/p)^nu.

    For each value v a walk after the first takes, add h_j[v] times the
    running convolution shifted by v: q int64 adds per such value.  On
    (Z/p) the cyclic shift is two contiguous slice adds; over nu > 1 axes
    it rolls one axis at a time (numpy's roll over k axes at once copies
    2^k blocks).  Raises CapExceeded, before any of it, when those adds
    pass EXACT_WORK_CAP.
    """
    q, grid = p ** nu, (p,) * nu
    values = [np.flatnonzero(h) for h in hists[1:]]
    work = q * sum(len(v) for v in values)
    if work > EXACT_WORK_CAP:
        raise CapExceeded(f"exact convolution of {work} adds exceeds cap "
                          f"{EXACT_WORK_CAP}")
    acc = hists[0].reshape(grid)
    for h, vs in zip(hists[1:], values):
        out = np.zeros(grid, dtype=np.int64)
        for v, w in zip(vs.tolist(), h[vs].tolist()):
            if nu == 1:
                head, tail = acc[:q - v], acc[q - v:]
                if w != 1:
                    head, tail = w * head, w * tail
                out[v:] += head
                out[:v] += tail
            else:
                rolled = acc
                for axis, shift in enumerate(np.unravel_index(v, grid)):
                    if shift:
                        rolled = np.roll(rolled, shift, axis=axis)
                out += w * rolled
        acc = out
    return acc.reshape(-1)


def _shift_add_first(p: int, nu: int, limits: tuple[int, ...]) -> bool:
    """Whether a prime field above MATRIX_MAX_P takes exact shift-and-add
    before any transform.

    A walk a g^x with x below the order of g takes distinct values, so
    the trailing walks make sum(limits[1:]) shifts, each costing q adds
    plus SHIFT_ADD_CALL_COST.  The transform route costs about
    (n + 1) L log2 L for its n forward FFTs and one inverse on the
    `_transform_shape` grid of L points.  Shift-and-add goes first when
    it is no dearer and within EXACT_WORK_CAP, so a box the transform
    serves never meets that cap.
    """
    if nu > 1 or p <= MATRIX_MAX_P:
        return False
    shifts, n = sum(limits[1:]), len(limits)
    length = math.prod(_transform_shape(p, nu, n))
    return (p * shifts <= EXACT_WORK_CAP
            and shifts * (p + SHIFT_ADD_CALL_COST)
            <= (n + 1) * length * math.log2(length))


def spectral_counts(eq: ExpEquation, box: SearchBox,
                    cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """N_{f_b}(r) for every b, as int64 indexed by packed b (eq.b ignored).

    One term needs no convolution: the counts are its walk's histogram.
    A prime field above MATRIX_MAX_P whose trailing walks are short
    enough (`_shift_add_first`) convolves by exact shift-and-add.  Every
    other box uses the floating-point transform when its rounding is
    certified and exact shift-and-add otherwise (CapExceeded past its
    work cap).  Memory is O(n q) whatever the box.
    """
    spec = eq.spec
    q, p, nu = spec.cardinality, spec.p, spec.nu
    if q > cap:
        raise CapExceeded(f"cardinality {q} exceeds cap {cap}")
    limits = box.limits()
    hists = [np.bincount(_pack(_power_walk(a, g, limit), p), minlength=q)
             for (a, g), limit in zip(sorted_terms(eq, box), limits)]
    if len(hists) == 1:
        counts = hists[0]
    elif _shift_add_first(p, nu, limits):
        counts = _exact_counts(hists, p, nu)
    else:
        counts = _fft_counts(hists, p, nu, box.card)
        if counts is None:
            counts = _exact_counts(hists, p, nu)
    total = int(counts.sum())
    if total != box.card:
        raise InvariantViolated(
            f"per-b counts sum to {total}, not the box size {box.card}")
    return counts


def count_via_charsum(eq: ExpEquation, box: SearchBox,
                      cap: int = DEFAULT_ENUM_CAP) -> float:
    """N_{f_b}(r) by the character-sum identity: one entry of
    spectral_counts, returned as a float (an exact integer value)."""
    return float(spectral_counts(eq, box, cap)[eq.b.packed()])


def _grid_targets(target: np.ndarray, walks, limits: tuple[int, ...],
                  lo: int, hi: int, p: int) -> np.ndarray:
    """Coefficient rows of target + sum_j walks[j][x_j] (mod p) for the
    points x of the grid [0, limits[0]) x ... whose lexicographic index
    runs over lo..hi-1; walks[j] holds the rows of coordinate j's terms.
    Callers subtract a term by passing the walk of -a_j g_j^x.  Every
    array is in _digit_dtype(p).
    """
    need = np.broadcast_to(target, (hi - lo, len(target)))
    coords = np.unravel_index(np.arange(lo, hi), limits) if limits else ()
    for walk, x in zip(walks, coords):
        need = _add_mod(need, walk[x], p)
    return need


def brute_count(eq: ExpEquation, box: SearchBox,
                cap: int = DEFAULT_ENUM_CAP,
                list_cap: int = LIST_CAP
                ) -> tuple[int, list[tuple[int, ...]] | None]:
    """Exhaustive count over the box; the oracle for every other count.

    Evaluates f over the box in C order of the sorted coordinates, which
    is lexicographic order, in blocks of at most BRUTE_BLOCK points.  The
    sums over the trailing coordinates whose sub-box fits in a block are
    materialized once (digit rows added mod p); each block pairs them
    with a run of leading-coordinate points, and a point solves f_b = 0
    exactly when its trailing sum equals b minus its leading sum.
    Returns (N, solutions) with solution tuples in *original* term order,
    or (N, None) when box.card exceeds list_cap.
    """
    if box.card > cap:
        raise CapExceeded(f"box cardinality {box.card} exceeds cap {cap}")
    spec = eq.spec
    p, nu = spec.p, spec.nu
    dtype = _digit_dtype(p)
    limits = box.limits()
    keep_list = box.card <= list_cap
    split = box.n
    while split > 0 and math.prod(limits[split - 1:]) <= BRUTE_BLOCK:
        split -= 1
    # the leading sums are subtracted from b, the trailing ones added
    walks = [_power_walk(-a if k < split else a, g, limit)
             for k, ((a, g), limit)
             in enumerate(zip(sorted_terms(eq, box), limits))]
    tail = np.zeros((1, nu), dtype=dtype)
    for walk in walks[split:]:
        tail = _add_mod(tail[:, None, :], walk[None, :, :], p).reshape(-1, nu)
    tail = _pack(tail, p)
    target = np.array(eq.b.coeffs, dtype=dtype)
    head_limits = limits[:split]
    head_card = math.prod(head_limits)
    step = max(1, BRUTE_BLOCK // len(tail))
    count = 0
    hits = []
    for lo in range(0, head_card, step):
        need = _grid_targets(target, walks, head_limits, lo,
                             min(lo + step, head_card), p)
        found = np.flatnonzero(_pack(need, p)[:, None] == tail[None, :])
        count += len(found)
        if keep_list:
            hits.append(found + lo * len(tail))
    if not keep_list:
        return count, None
    coords = np.unravel_index(np.concatenate(hits), limits)
    cols = [None] * box.n
    for k, orig in enumerate(box.perm):
        cols[orig] = coords[k].tolist()
    return count, list(zip(*cols))
