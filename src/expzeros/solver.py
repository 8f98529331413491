"""Classical grid search: solve f_b = 0 by iterating the outer coordinates
and resolving the first (largest-order) coordinate with a discrete log.

The box radius comes from the density threshold

    r_raw = ceil( q^n (prod_{l<n} s_l)^{-2} log q ),

clamped to r = min(r_raw, s_n).  Two regimes follow:

  r_raw >  s_n : the full domain is searched, so an empty search is a
                 certificate that no solution exists anywhere.
  r_raw <= s_n : only the truncated box is searched; an empty search
                 means b is exceptional for this box (solutions may lie
                 outside), reported as box_exhausted, never as a negative.

Every group multiplication the search model spends is charged to the
report's QueryCounter, in closed form from the scan's outcome: the scan
itself only computes what the membership test and the one discrete log
need.  QueryCounter is defined here: no other layer keeps a ledger.  The
cost of factoring q-1 and finding the orders is the usual sqrt(q)
polylog and is reported as a separate modeled line item, not folded
into the counted search multiplications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import bsgs_table_cost, discrete_logs, pow_cost
from .charsum import (BRUTE_BLOCK, ExpEquation, SearchBox, _grid_targets,
                      box_radius, log_of, make_box, sorted_terms)
from .errors import CapExceeded, IndexOutOfRange, InvariantViolated, Overflow
from .fields import (FieldElement, _digit_dtype, _exact_dtype, _mul_matrix,
                     _pack, _power_walk)

FOUND = "found"
NO_SOLUTION_CERTIFIED = "no_solution_certified"
BOX_EXHAUSTED = "box_exhausted"

OUTER_GRID_CAP = 1 << 22
FIRST_BLOCK = 1 << 10  # outer points in the first block of a scan


@dataclass
class QueryCounter:
    """Accumulator for classical query accounting.

    group_mults counts field multiplications in the unit group (inversions
    are charged as one multiplication).  Buckets break the same total down
    by phase; they always sum to group_mults.
    """

    group_mults: int = 0
    dlog_calls: int = 0
    outer_points_visited: int = 0
    buckets: dict = field(default_factory=dict)

    def mults(self, k: int, bucket: str = "misc"):
        self.group_mults += k
        self.buckets[bucket] = self.buckets.get(bucket, 0) + k

    def to_dict(self) -> dict:
        return {
            "group_mults": self.group_mults,
            "dlog_calls": self.dlog_calls,
            "outer_points_visited": self.outer_points_visited,
            "buckets": dict(sorted(self.buckets.items())),
        }


@dataclass(frozen=True)
class SolutionReport:
    status: str
    x: tuple[int, ...] | None  # original term order
    queries: QueryCounter
    box: SearchBox
    r_raw: int
    order_finding_cost_model: float  # sqrt(q) (ln q)^3, modeled not counted

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "solution_report",
            "status": self.status,
            "x": list(self.x) if self.x is not None else None,
            "queries": self.queries.to_dict(),
            "box": self.box.to_dict(),
            "r_raw": self.r_raw,
            "order_finding_cost_model": self.order_finding_cost_model,
        }


def build_box(eq: ExpEquation, log_base: str = "natural"
              ) -> tuple[SearchBox, int]:
    """Box from the ceiling formula; returns (box, unclamped r_raw).

    Past the 2^62 where box_radius refuses, r_raw exceeds every order,
    so the box is the full domain; r_raw is then the exact ceiling of
    q^n (prod_{l<n} s_l)^(-2) times the float log q.
    """
    orders_sorted = sorted(eq.orders, reverse=True)
    try:
        r_raw = math.ceil(box_radius(eq.q, orders_sorted, log_base))
    except Overflow:
        prod = math.prod(orders_sorted[:-1])
        r_raw = math.ceil(Fraction(eq.q ** eq.n, prod * prod)
                          * Fraction(log_of(eq.q, log_base)))
    return make_box(eq, min(r_raw, orders_sorted[-1])), r_raw


def _first_hit(eq: ExpEquation, box: SearchBox, counter: QueryCounter
               ) -> tuple[int, int] | None:
    """(index, x_1) for the first outer point, by lexicographic index in
    the outer grid (sorted coordinates 2..n), with a_1 g_1^{x_1} =
    b - partial; or None.

    The targets t = a_1^{-1}(b - partial) come a block at a time, as
    matrix products.  The first block holds at most FIRST_BLOCK points
    and each next one twice as many, up to BRUTE_BLOCK, so an early hit
    computes few targets.  Per point the scan only tests t^{s_1} = 1
    (t != 0), and the hit's x_1 is one discrete_logs lookup.  The
    ledger is then what the model charges that outcome: one
    multiplication per visited point, a membership test per nonzero
    target, a baby-step table built up front (bsgs_table_cost, whose
    MemoryCap comes before any point) and x_1 // m giant steps for the
    hit's lookup.
    """
    spec = eq.spec
    terms = sorted_terms(eq, box)
    a1, g1 = terms[0]
    s1 = box.orders_sorted[0]
    m, table_cost = bsgs_table_cost(s1)
    a1_inv = np.array(_mul_matrix(a1.inverse()),
                      dtype=_exact_dtype(spec.p, spec.nu))
    counter.mults(1, "setup")  # inversion charged as one mult
    counter.mults(table_cost, "bsgs_table")
    b = np.array(eq.b.coeffs, dtype=_digit_dtype(spec.p))
    outer_limits = box.limits()[1:]
    # walks of -a_l g_l^x: the block targets add them to b
    walks = []
    for (a, g), limit in zip(terms[1:], outer_limits):
        walks.append(_power_walk(-a, g, limit))
        counter.mults(limit - 1, "setup")
    one = spec.one()
    hi = math.prod(outer_limits)
    hit = None
    nonzero = 0
    start, size = 0, FIRST_BLOCK
    while start < hi and hit is None:
        stop = min(start + size, hi)
        need = _grid_targets(b, walks, outer_limits, start, stop, spec.p)
        targets = _pack(need @ a1_inv % spec.p, spec.p).tolist()
        for index, k in enumerate(targets, start):
            if not k:
                continue
            nonzero += 1
            t = FieldElement(spec, k)
            if t ** s1 == one:
                x1 = discrete_logs(g1, s1)(t)
                if x1 is None:
                    raise InvariantViolated(
                        "membership passed but dlog missed")
                hit = index, x1
                break
        start, size = stop, min(2 * size, BRUTE_BLOCK)
    counter.outer_points_visited = hi if hit is None else hit[0] + 1
    counter.mults(counter.outer_points_visited, "subroutine")
    if nonzero:
        counter.mults(pow_cost(s1) * nonzero, "membership")
    if hit is not None:
        counter.dlog_calls += 1
        counter.mults(hit[1] // m, "bsgs_lookup")
    return hit


def verify_solution(eq: ExpEquation, x: tuple[int, ...]) -> bool:
    """Exact check of f_b(x) = 0; x in original term order."""
    if len(x) != eq.n:
        raise IndexOutOfRange(f"need {eq.n} coordinates, got {len(x)}")
    for xi, s in zip(x, eq.orders):
        if not 0 <= xi < s:
            raise IndexOutOfRange(f"coordinate {xi} outside [0, {s})")
    total = eq.spec.zero()
    for (a, g), xi in zip(eq.terms, x):
        total = total + a * g ** xi
    return total == eq.b


def _checked(eq: ExpEquation, x: tuple[int, ...]) -> tuple[int, ...]:
    """x, after verify_solution accepts it; a rejected hit is a bug."""
    if not verify_solution(eq, x):
        raise InvariantViolated(f"search returned {x}, which is no zero")
    return x


def solve_classical(eq: ExpEquation, log_base: str = "natural"
                    ) -> SolutionReport:
    """Search the box, iterating the outer grid (sorted coordinates 2..n)
    in lexicographic order and resolving x_1 per point; returns the first
    hit, which is therefore deterministic, or a certificate/exhaustion
    status.  Refuses an outer grid past OUTER_GRID_CAP points.
    """
    counter = QueryCounter()
    box, r_raw = build_box(eq, log_base)
    outer_limits = box.limits()[1:]
    outer_size = math.prod(outer_limits)
    if outer_size > OUTER_GRID_CAP:
        raise CapExceeded(f"outer grid of {outer_size} points exceeds cap")
    cost_model = math.sqrt(eq.q) * math.log(eq.q) ** 3
    hit = _first_hit(eq, box, counter)
    if hit is None:
        status = (NO_SOLUTION_CERTIFIED if r_raw > box.orders_sorted[-1]
                  else BOX_EXHAUSTED)
        return SolutionReport(status, None, counter, box, r_raw, cost_model)
    # x_1 < s_1 lies in the box: for n = 1, r_raw = ceil(q log q) > s_1
    index, x1 = hit
    sorted_x = (x1, *np.unravel_index(index, outer_limits))
    x = [0] * box.n
    for k, orig in enumerate(box.perm):
        x[orig] = int(sorted_x[k])
    return SolutionReport(FOUND, _checked(eq, tuple(x)), counter, box, r_raw,
                          cost_model)
