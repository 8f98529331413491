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
Over the whole unit group (order and limit q - 1) the sum is complete:
sum_{x in F_q^*} psi(u x) = -1 for u != 0 (Lidl & Niederreiter, Finite
Fields, ch. 5).

That sum is a discrete Fourier transform on the additive group
(F_q, +) = (Z/p)^nu: the partial Gauss sums transform the histograms of
the walks a_j g_j^x, and N_{f_b}(r) for every b at once is the
convolution of those histograms.  A complete sum's histogram is
1 - delta_0, so `spectral_counts` folds each such coordinate in by one
exact step, c -> c.sum() - c, with no walk.  Of the others it transforms
the long walks' histograms, certified against rounding or redone in
exact integers, and shifts and adds the short ones exactly.  `brute_count`
is the independent exhaustive oracle: a sorted join that meets in the
middle, matching the sums over the leading coordinates against b minus
the sums over the trailing ones.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import factorize, multiplicative_order
from .errors import CapExceeded, InvariantViolated, Overflow, ZeroElement
from .fields import (FieldElement, FieldSpec, _add_mod, _check_enum,
                     _digit_dtype, _pack, _power_walk)

TERM_CAP = 16
LIST_CAP = 1 << 16
# Box points per block: brute_count's trailing sub-box and each block of
# its leading points, and the solver's largest outer block.
BRUTE_BLOCK = 1 << 16
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


def make_equation(spec: FieldSpec, terms, b) -> ExpEquation:
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
    if len(coerced) > TERM_CAP:
        raise CapExceeded(f"n = {len(coerced)} terms exceeds cap {TERM_CAP}")
    b = spec.element(b)
    fact = factorize(spec.cardinality - 1)
    orders = tuple(multiplicative_order(g, fact) for _, g in coerced)
    return ExpEquation(spec, tuple(coerced), b, orders)


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


def delta_indicator(u: FieldElement) -> float:
    """(1/q) sum_mu psi(u mu): 1.0 at u = 0, else 0.0 (to 1e-9).

    For mu with coefficients m, Tr(mu u) = m . (H u) mod p where H[k][j] =
    Tr(X^{k+j}): trace is F_p-linear, so one Hankel matrix of monomial
    traces covers every product (H = [[1]] in a prime field).
    """
    spec = u.spec
    q, p, nu = spec.cardinality, spec.p, spec.nu
    _check_enum(q)
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
            # odd 2^i >= m first at 2^i >= ceil(m / odd) = (m - 1) // odd + 1
            length = odd << ((m - 1) // odd).bit_length()
            if length < best:
                best = length
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


def _transform_route(p: int, nu: int, n: int,
                     card: int) -> tuple[bool, tuple[int, ...]] | None:
    """(dense, shape) of the route `_fft_counts` takes for n histograms of
    a box of card points, or None when no route's a-priori bound
    certifies it.

    Up to MATRIX_MAX_P the character matrix, when its dense bound
    certifies the box.  Otherwise the real-input FFTs: on the padded
    grid, or on the unpadded one, whose fewer butterfly stages certify
    larger boxes.
    """
    grid = (p,) * nu
    if (p <= MATRIX_MAX_P
            and _fft_error_bound(card, n, grid, dense=True) < ROUND_SLACK):
        return True, grid
    for shape in (_transform_shape(p, nu, n), grid):
        if _fft_error_bound(card, n, shape) < ROUND_SLACK:
            return False, shape
    return None


def _fft_counts(hists: list[np.ndarray], p: int, nu: int, card: int,
                route: tuple[bool, tuple[int, ...]]) -> np.ndarray | None:
    """Counts by floating-point transform, or None unless certified exact.

    `route` is `_transform_route(p, nu, len(hists), card)`, not None: the
    character matrix transforms complex data (`_matrix_convolve`); the
    FFTs transform the histograms, being real, by rfftn and irfftn on
    half the spectrum.  The certificate: the route's a-priori bound is
    below ROUND_SLACK, and after the transform every real part lies
    within ROUND_SLACK of an integer, every imaginary part (if the result
    has any) is below it, and the rounded values sum to card.
    """
    dense, shape = route
    if dense:
        raw = _matrix_convolve(hists, p, nu)
    else:
        grid, axes = (p,) * nu, tuple(range(len(shape)))
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
# Measured costs of the split rule `_transform_terms`, in units of one
# int64 add of a contiguous slice add (0.33 ns on a 2-CPU Xeon), fitted
# from best-of-15 timings of each route.  A shift: SLICE_COST per slice
# add (3 us) and RUN_COST per strided run of one over nu > 1 axes
# (80 ns).  A real FFT: FFT_CALL_COST (22 us, its share of the
# certificate included) plus FFT_COST per L log2 L (1.1 ns).  A
# character-matrix transform: MATRIX_CALL_COST (5 us), plus per axis
# MATRIX_ENTRY_COST per entry (product and transpose, 4 ns) and
# MATRIX_MAC_COST per complex multiply-add (0.12 ns).
SLICE_COST = 9000
RUN_COST = 240
FFT_CALL_COST = 66000
FFT_COST = 3.3
MATRIX_CALL_COST = 15000
MATRIX_ENTRY_COST = 12
MATRIX_MAC_COST = 0.35


def _add_shifted(out: np.ndarray, src: np.ndarray, shift, p: int) -> None:
    """out += src cyclically shifted by `shift` on (Z/p)^nu, in place.

    An axis shifted by s != 0 splits into two ranges, [0, p - s) ->
    [s, p) and [p - s, p) -> [0, s), so a shift with k nonzero
    components is 2^k slice adds of views, and no copy.
    """
    pairs, lead = [(out, src)], ()
    for s in shift:
        if s:
            split = []
            for o, f in pairs:
                split.append((o[lead + (slice(s, None),)],
                              f[lead + (slice(p - s),)]))
                split.append((o[lead + (slice(s),)],
                              f[lead + (slice(p - s, None),)]))
            pairs = split
        lead += (slice(None),)
    for o, f in pairs:
        o += f


def _exact_counts(hists: list[np.ndarray], p: int, nu: int) -> np.ndarray:
    """The cyclic convolution of the histograms on (Z/p)^nu, by integer
    shift-and-add.

    For each value v a histogram after the first takes, add h_j[v] times
    the running convolution shifted by v (`_add_shifted`): q int64 adds
    per such value.  Raises CapExceeded, before any of it, when those
    adds pass EXACT_WORK_CAP.
    """
    grid = (p,) * nu
    values = [np.flatnonzero(h) for h in hists[1:]]
    work = p ** nu * sum(len(v) for v in values)
    if work > EXACT_WORK_CAP:
        raise CapExceeded(f"exact convolution of {work} adds exceeds cap "
                          f"{EXACT_WORK_CAP}")
    acc = hists[0].reshape(grid)
    for h, vs in zip(hists[1:], values):
        out = np.zeros(grid, dtype=np.int64)
        shifts = zip(*(axis.tolist() for axis in np.unravel_index(vs, grid)))
        for shift, w in zip(shifts, h[vs].tolist()):
            _add_shifted(out, acc if w == 1 else w * acc, shift, p)
        acc = out
    return acc.reshape(-1)


def _shift_cost(p: int, nu: int) -> float:
    """Measured cost of one shift of `_exact_counts`: q adds, plus the
    slice adds of a shift by a random v (an axis of v is nonzero with
    chance (p-1)/p and then takes two slices, so ((2p-1)/p)^nu on
    average), plus over nu > 1 axes the strided runs of the last axis,
    two for each of its q/p rows when its shift is nonzero."""
    q = p ** nu
    cost = q + SLICE_COST * ((2 * p - 1) / p) ** nu
    if nu > 1:
        cost += RUN_COST * 2 * (p - 1) * q / p ** 2
    return cost


def _transform_cost(p: int, nu: int, m: int,
                    route: tuple[bool, tuple[int, ...]]) -> float:
    """Measured cost of `_fft_counts` on m histograms: m forward
    transforms and one inverse on `route`."""
    dense, shape = route
    if dense:
        q = p ** nu
        per = (MATRIX_CALL_COST
               + nu * q * (MATRIX_ENTRY_COST + MATRIX_MAC_COST * p))
    else:
        length = math.prod(shape)
        per = FFT_CALL_COST + FFT_COST * length * math.log2(length)
    return (m + 1) * per


def _transform_terms(p: int, nu: int, limits: tuple[int, ...]
                     ) -> tuple[int, tuple[bool, tuple[int, ...]] | None]:
    """How many leading walks the transform convolves, and on which
    route: the split m in 1..n of least measured cost, with
    `_transform_route` for its sub-box (None for m = 1).

    The leading m walks cost `_transform_cost` on the route that
    certifies their sub-box of prod(limits[:m]) points; a sub-box no
    route certifies is skipped, and m = 1 costs nothing (its counts are
    the first walk's histogram).  The other walks are shifted and added
    exactly: a walk a g^x with x below the order of g takes distinct
    values, so walk l makes limits[l] shifts of `_shift_cost` each.  A
    split whose shifts pass EXACT_WORK_CAP is never picked, so a box the
    transform serves never meets that cap; ties go to the larger m.  With
    no split left, (1, None): every walk is shifted (CapExceeded there).
    """
    n, q = len(limits), p ** nu
    shift = _shift_cost(p, nu)
    best, pick = math.inf, (1, None)
    for m in range(n, 0, -1):
        shifts = sum(limits[m:])
        cost = shifts * shift
        # shifts only grow as m falls: no smaller m can do better
        if q * shifts > EXACT_WORK_CAP or cost >= best:
            break
        route = None
        if m > 1:
            route = _transform_route(p, nu, m, math.prod(limits[:m]))
            if route is None:
                continue
            cost += _transform_cost(p, nu, m, route)
        if cost < best:
            best, pick = cost, (m, route)
    return pick


def box_walks(eq: ExpEquation, box: SearchBox) -> Iterator[np.ndarray]:
    """Digit rows of a_j g_j^x, x < limit_j, for each sorted coordinate j,
    one walk at a time: the walks `brute_count` reads (take a list to
    hand them to `spectral_counts` too, which skips the full-order ones:
    a limit of q - 1 walks the whole unit group)."""
    for (a, g), limit in zip(sorted_terms(eq, box), box.limits()):
        yield _power_walk(a, g, limit)


def spectral_counts(eq: ExpEquation, box: SearchBox,
                    walks: list[np.ndarray] | None = None) -> np.ndarray:
    """N_{f_b}(r) for every b, as int64 indexed by packed b (eq.b ignored).

    A coordinate whose limit is q - 1 takes every unit once: its
    histogram is 1 - delta_0, and convolving counts c with it gives
    c.sum() - c, one exact O(q) step with no walk.  The rest go through
    the engine: their leading m walks (`_transform_terms`) go through
    the floating-point transform, certified for their sub-box of
    prod(rest[:m]) points, and the other walks are shifted and added
    exactly; m = 1 needs no transform (the first walk's histogram), and
    no walk at all starts from delta_0.  An uncertified transform falls
    back to shift-and-add of every walk (CapExceeded past its work cap).
    `walks` are `box_walks(eq, box)`, of which the full-order ones are
    ignored; when not given, only the others are computed.  Memory is
    O(n q) whatever the box.
    """
    spec = eq.spec
    q, p, nu = spec.cardinality, spec.p, spec.nu
    _check_enum(q)
    limits = box.limits()
    part = [j for j, limit in enumerate(limits) if limit != q - 1]
    rest = tuple(limits[j] for j in part)
    if walks is None:
        terms = sorted_terms(eq, box)
        walks = (_power_walk(*terms[j], limits[j]) for j in part)
    else:
        walks = [walks[j] for j in part]
    hists = [np.bincount(_pack(walk, p), minlength=q) for walk in walks]
    if not hists:
        counts = np.zeros(q, dtype=np.int64)
        counts[0] = 1
    else:
        m, route = _transform_terms(p, nu, rest)
        counts = None
        if m > 1:
            counts = _fft_counts(hists[:m], p, nu, math.prod(rest[:m]),
                                 route)
        if counts is None:
            counts, m = hists[0], 1
        if m < len(hists):
            counts = _exact_counts([counts] + hists[m:], p, nu)
    for _ in range(len(limits) - len(rest)):
        counts = counts.sum() - counts
    total = int(counts.sum())
    if total != box.card:
        raise InvariantViolated(
            f"per-b counts sum to {total}, not the box size {box.card}")
    return counts


def count_via_charsum(eq: ExpEquation, box: SearchBox,
                      walks: list[np.ndarray] | None = None) -> float:
    """N_{f_b}(r) by the character-sum identity: one entry of
    spectral_counts, returned as a float (an exact integer value)."""
    return float(spectral_counts(eq, box, walks)[eq.b.packed()])


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


def check_box_card(box: SearchBox) -> None:
    """Raise CapExceeded when the box has more than DEFAULT_ENUM_CAP
    points.  Run it before walking the box: each limit is at most its
    card."""
    _check_enum(box.card, "box cardinality")


def _join_split(limits: tuple[int, ...]) -> int:
    """The number k >= 1 of head coordinates `brute_count` enumerates:
    the k with the fewest points on both sides of the join,
    prod(limits[:k]) + prod(limits[k:]), whose trailing sub-box fits in
    BRUTE_BLOCK; ties go to the larger k, the smaller table.  (k = 0 never
    wins: s_1 + card / s_1 <= 1 + card.)
    """
    best, split = math.inf, len(limits)
    for k in range(len(limits), 0, -1):
        tail = math.prod(limits[k:])
        if tail > BRUTE_BLOCK:
            break
        points = math.prod(limits[:k]) + tail
        if points < best:
            best, split = points, k
    return split


def brute_count(eq: ExpEquation, box: SearchBox,
                list_cap: int = LIST_CAP,
                walks: list[np.ndarray] | None = None
                ) -> tuple[int, list[tuple[int, ...]] | None]:
    """Exhaustive count over the box; the oracle for every other count.

    A sorted join, meeting in the middle (Horowitz & Sahni, J. ACM 21,
    1974): a point solves f_b = 0 exactly when the sum over its leading
    k coordinates equals b minus the sum over its trailing ones, k from
    `_join_split`.  The trailing values (digit rows added mod p) are
    packed once and stably sorted; the leading sums come in C order of
    the sorted coordinates, blocks of at most BRUTE_BLOCK points, and
    `searchsorted` left and right gives each one the run of trailing
    values equal to it, so repeated trailing sums count with their
    multiplicity.  The flat index head * R + t of a match (R trailing
    points) then runs in lexicographic order: heads ascend block by block,
    and the stable sort keeps equal trailing values in index order.
    `walks` are `box_walks(eq, box)` (shared with `spectral_counts`),
    computed here when not given.
    Returns (N, solutions) with solution tuples in *original* term order,
    or (N, None) when box.card exceeds list_cap.
    """
    check_box_card(box)
    spec = eq.spec
    p, nu = spec.p, spec.nu
    dtype = _digit_dtype(p)
    limits = box.limits()
    keep_list = box.card <= list_cap
    split = _join_split(limits)
    walks = list(box_walks(eq, box)) if walks is None else walks
    # b minus the trailing sums: b plus the trailing walks with their
    # digits negated (p - d, 0 staying 0), short walks copied once each
    rest = np.array(eq.b.coeffs, dtype=dtype)[None, :]
    for walk in walks[split:]:
        rest = _add_mod(rest[:, None, :],
                        np.where(walk == 0, walk, p - walk)[None, :, :],
                        p).reshape(-1, nu)
    rest = _pack(rest, p)
    order = np.argsort(rest, kind="stable")
    rest = rest[order]
    zero = np.zeros(nu, dtype=dtype)
    head_limits = limits[:split]
    head_card = math.prod(head_limits)
    count = 0
    hits = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, head_card, BRUTE_BLOCK):
        head = _pack(_grid_targets(zero, walks, head_limits, lo,
                                   min(lo + BRUTE_BLOCK, head_card), p), p)
        left = np.searchsorted(rest, head, side="left")
        runs = np.searchsorted(rest, head, side="right") - left
        found = int(runs.sum())
        count += found
        if keep_list and found:
            # the run of each matching head, in head order
            heads = np.repeat(np.arange(lo, lo + len(head)), runs)
            starts = np.repeat(left - np.cumsum(runs) + runs, runs)
            hits.append(heads * len(rest)
                        + order[starts + np.arange(found)])
    if not keep_list:
        return count, None
    coords = np.unravel_index(np.concatenate(hits), limits)
    cols = [None] * box.n
    for k, orig in enumerate(box.perm):
        cols[orig] = coords[k].tolist()
    return count, list(zip(*cols))
