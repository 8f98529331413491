"""Full-b density sweeps: deviation terms, the energy bound, and the
exceptional-b census.

For a fixed term family (a_j, g_j) and box, the spectral engine of
charsum convolves the n walk histograms over F_q, giving N_{f_b}(r) for
every b at once.  Writing main = r prod_{l<n} s_l / q,

    Delta_b(r) = N_{f_b}(r) - main,      E(r) = sum_b Delta_b(r)^2,

the mean-value bound E(r) < q^{n-1} r forces all but q/delta^2 values of
b to satisfy |Delta_b(r)| < delta sqrt(r q^{n-2}).  Everything here is
exact: counts are integers, main and E are Fractions, and the census
compares integers, so boundary cases are deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .charsum import ExpEquation, SearchBox, box_radius, spectral_counts
from .errors import BadDelta, InvariantViolated

INT64_MAX = np.iinfo(np.int64).max
INT64_MIN = np.iinfo(np.int64).min


@dataclass(frozen=True)
class DensityReport:
    """Per-b counts over one box; the constant term of eq is irrelevant."""

    eq: ExpEquation
    box: SearchBox
    counts: np.ndarray  # int64, counts[packed(b)] = N_{f_b}(r)
    main: Fraction
    energy: Fraction

    @property
    def q(self) -> int:
        return self.eq.q

    def delta(self, b_packed: int) -> Fraction:
        return int(self.counts[b_packed]) - self.main

    def to_dict(self) -> dict:
        """Fields for cli's JSON writer; counts stays the int64 array
        (json.dumps needs counts.tolist())."""
        return {
            "eq": self.eq.to_dict(),
            "box": self.box.to_dict(),
            "counts": self.counts,
            "main": [self.main.numerator, self.main.denominator],
            "energy": [self.energy.numerator, self.energy.denominator],
        }


def sweep_b(eq: ExpEquation, box: SearchBox) -> DensityReport:
    """Count N_{f_b}(r) for every b with the spectral engine (eq.b is
    ignored).  Memory is O(n q), whatever the size of the box."""
    counts = spectral_counts(eq, box)
    q = eq.q
    main = Fraction(box.card, q)
    # sum c^2 <= max(c) * sum c = max(c) * card, so int64 is exact below
    if int(counts.max()) * box.card < 1 << 63:
        ssq = int(counts @ counts)
    else:
        ssq = sum(c * c for c in counts.tolist())
    energy = Fraction(q * ssq - box.card * box.card, q)
    return DensityReport(eq, box, counts, main, energy)


def energy_bound_check(report: DensityReport) -> tuple[bool, Fraction]:
    """E(r) < q^(n-1) r, with the exact margin."""
    q, n = report.q, report.box.n
    bound = Fraction(q) ** (n - 1) * report.box.r
    margin = bound - report.energy
    return report.energy < bound, margin


@dataclass(frozen=True)
class CensusResult:
    """Exceptional-b census at one delta."""

    delta: float
    delta_sq: Fraction  # exact square of the delta actually used
    threshold_sq: Fraction  # delta^2 r q^(n-2)
    # read-only bool, mask[packed(b)]; compared through `exceptional`,
    # which it fixes
    mask: np.ndarray = field(compare=False, repr=False)
    exceptional: tuple[int, ...]  # packed b values, ascending
    bound: Fraction  # q / delta^2
    size_ok: bool

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "delta_sq": [self.delta_sq.numerator, self.delta_sq.denominator],
            "threshold_sq": [self.threshold_sq.numerator,
                             self.threshold_sq.denominator],
            "exceptional": list(self.exceptional),
            "bound": [self.bound.numerator, self.bound.denominator],
            "size_ok": self.size_ok,
        }


def exceptional_census(report: DensityReport, delta) -> CensusResult:
    """All b with |Delta_b(r)| >= delta sqrt(r q^(n-2)), exactly.

    delta may be an int, float, or Fraction; it is squared exactly from
    delta.as_integer_ratio(), and every comparison is integer arithmetic,
    so ties (|Delta| exactly equal to the threshold counts as
    exceptional) are decided deterministically.  Postcondition: census
    size <= q / delta^2.
    """
    q, n, r = report.q, report.box.n, report.box.r
    if not 0 < delta < math.inf:   # False for nan too
        raise BadDelta(f"need a finite delta > 0, got {delta}")
    num, den = delta.as_integer_ratio()
    num, den = num * num, den * den   # delta^2 = num/den in lowest terms
    if num > q * den:
        raise BadDelta("need delta <= sqrt(q), got delta^2 = "
                       f"{Fraction(num, den)}")
    # thr = delta^2 r q^(n-2), and |N - card/q|^2 >= thr  <=>  den (q N -
    # card)^2 >= num r q^n  <=>  |q N - card| >= t, the least integer
    # with den t^2 >= num r q^n  <=>  N >= ceil((card + t) / q)  or
    # N <= floor((card - t) / q).
    scaled = num * r * q ** n
    t = math.isqrt(-(-scaled // den))
    if den * t * t < scaled:
        t += 1
    card = report.box.card
    # strict comparisons, so clipping to int64 never admits a count
    above = min(-(-(card + t) // q) - 1, INT64_MAX)
    below = max((card - t) // q + 1, INT64_MIN)
    mask = (report.counts > above) | (report.counts < below)
    mask.flags.writeable = False
    exceptional = np.flatnonzero(mask).tolist()
    size_ok = len(exceptional) * num <= q * den
    bound = Fraction(q * den, num)
    if not size_ok:
        raise InvariantViolated(
            f"census of {len(exceptional)} exceeds q/delta^2 = {bound}; "
            "energy bound violated?")
    threshold_sq = (Fraction(num * r * q ** (n - 2), den) if n >= 2
                    else Fraction(num * r, den * q))
    return CensusResult((num / den) ** 0.5, Fraction(num, den), threshold_sq,
                        mask, tuple(exceptional), bound, size_ok)


def corollary_min_r(q: int, orders, log_base: str = "natural"
                    ) -> tuple[int, bool]:
    """Least r with r > q^n (prod_{l<n} s_l)^(-2) log q, and whether it
    fits under s_n (so non-emptiness is guaranteed for non-exceptional b).
    """
    orders = list(orders)
    if any(orders[i] < orders[i + 1] for i in range(len(orders) - 1)):
        raise ValueError("orders must be sorted descending")
    r0 = math.floor(box_radius(q, orders, log_base)) + 1
    return r0, r0 <= orders[-1]


# ---------------------------------------------------------------------------
# serialization


def report_to_dict(report: DensityReport,
                   census: CensusResult | None = None) -> dict:
    doc = {"schema": 1, "kind": "density_report", **report.to_dict()}
    if census is not None:
        doc["census"] = census.to_dict()
    return doc


def write_per_b_csv(report: DensityReport, census: CensusResult, out) -> None:
    """Per-b table: b_index, N, main_num, main_den, delta, exceptional_flag.

    The bytes of the csv module's default dialect (no field needs
    quoting, rows end in CRLF), written by one format operation.  delta
    = N - card/q = (q N - card)/q: while every |q N - card| < 2^53 both
    operands are exact doubles, so one IEEE division rounds the exact
    quotient once, as float(Fraction) does; past that, each delta is
    taken from the Fraction.
    """
    main, counts, q = report.main, report.counts, report.q
    card = report.box.card
    if q * int(counts.max()) < 1 << 53 and card < 1 << 53:
        deltas = ((q * counts - card) / q).tolist()
    else:
        deltas = [float(count - main) for count in counts.tolist()]
    row = f"%d,%d,{main.numerator},{main.denominator},%r,%d\r\n"
    out.write("b_index,N,main_num,main_den,delta,exceptional_flag\r\n")
    out.write(row * len(counts) % tuple(itertools.chain.from_iterable(zip(
        range(len(counts)), counts.tolist(), deltas,
        census.mask.view(np.uint8).tolist()))))
