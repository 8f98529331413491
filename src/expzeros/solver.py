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

Every group multiplication in the search phase is charged to the report's
QueryCounter.  The cost of factoring q-1 and finding the orders is the
usual sqrt(q) polylog and is reported as a separate modeled line item,
not folded into the counted search multiplications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import BsgsTable, QueryCounter, pow_cost
from .charsum import (ExpEquation, SearchBox, _pack, _power_walk, box_radius,
                      make_box, sorted_terms)
from .errors import CapExceeded, IndexOutOfRange, InvariantViolated
from .fields import raw_ops

FOUND = "found"
NO_SOLUTION_CERTIFIED = "no_solution_certified"
BOX_EXHAUSTED = "box_exhausted"

OUTER_GRID_CAP = 1 << 22


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
    """Box from the ceiling formula; returns (box, unclamped r_raw)."""
    orders_sorted = sorted(eq.orders, reverse=True)
    r_raw = math.ceil(box_radius(eq.q, orders_sorted, log_base))
    return make_box(eq, min(r_raw, orders_sorted[-1])), r_raw


class _SearchContext:
    """Per-equation state shared by every outer point of one solve."""

    def __init__(self, eq: ExpEquation, box: SearchBox,
                 counter: QueryCounter):
        spec = eq.spec
        self.spec = spec
        self.ops = raw_ops(spec)
        self.box = box
        terms = sorted_terms(eq, box)
        a1, g1 = terms[0]
        self.s1 = box.orders_sorted[0]
        self.membership_cost = pow_cost(self.s1)
        self.a1_inv = a1.inverse().packed()
        counter.mults(1, "setup")  # inversion charged as one mult
        self.b = eq.b.packed()
        self.table = BsgsTable(g1, self.s1, counter)
        limits = box.limits()
        self.walks = []
        for (a, g), limit in zip(terms[1:], limits[1:]):
            walk = _pack(_power_walk(a, g, limit), spec.p).tolist()
            counter.mults(limit - 1, "setup")
            self.walks.append(walk)

    def resolve(self, partial: int, counter: QueryCounter) -> int | None:
        """x_1 with a_1 g_1^{x_1} = b - partial, or None."""
        ops = self.ops
        t = ops.mul(self.a1_inv, ops.sub(self.b, partial))
        counter.mults(1, "subroutine")
        if t == 0:
            return None
        counter.mults(self.membership_cost, "membership")
        if ops.pow(t, self.s1) != 1:
            return None
        counter.dlog_calls += 1
        x1 = self.table.lookup(self.spec.from_packed(t), counter)
        if x1 is None:
            raise InvariantViolated("membership passed but dlog missed")
        return x1


def subroutine_S(eq: ExpEquation, outer: tuple[int, ...],
                 counter: QueryCounter | None = None) -> int | None:
    """Resolve x_1 for one outer point (x_2, ..., x_n) in sorted coords.

    Standalone form of the solver's inner step; builds its setup tables
    fresh on each call, so prefer solve_classical for sweeps.
    """
    if counter is None:
        counter = QueryCounter()
    box = make_box(eq)
    if len(outer) != box.n - 1:
        raise IndexOutOfRange(f"outer point needs {box.n - 1} coordinates")
    for x, s in zip(outer, box.orders_sorted[1:]):
        if not 0 <= x < s:
            raise IndexOutOfRange(f"coordinate {x} outside [0, {s})")
    ctx = _SearchContext(eq, box, counter)
    partial = 0
    for j, x in enumerate(outer):
        partial = ctx.ops.add(partial, ctx.walks[j][x])
    return ctx.resolve(partial, counter)


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


def solve_classical(eq: ExpEquation, log_base: str = "natural",
                    counter: QueryCounter | None = None,
                    outer_cap: int = OUTER_GRID_CAP) -> SolutionReport:
    """Search the box, iterating the outer grid (sorted coordinates 2..n)
    in lexicographic order and resolving x_1 per point; returns the first
    hit, which is therefore deterministic, or a certificate/exhaustion
    status.
    """
    if counter is None:
        counter = QueryCounter()
    box, r_raw = build_box(eq, log_base)
    limits = box.limits()
    outer_limits = limits[1:]
    outer_size = math.prod(outer_limits) if outer_limits else 1
    if outer_size > outer_cap:
        raise CapExceeded(f"outer grid of {outer_size} points exceeds cap")
    cost_model = math.sqrt(eq.q) * math.log(eq.q) ** 3
    ctx = _SearchContext(eq, box, counter)
    n = box.n

    def report(status, x):
        return SolutionReport(status, x, counter, box, r_raw, cost_model)

    def finish():
        if r_raw > box.orders_sorted[-1]:
            return report(NO_SOLUTION_CERTIFIED, None)
        return report(BOX_EXHAUSTED, None)

    if n == 1:
        counter.outer_points_visited += 1
        x1 = ctx.resolve(0, counter)
        if x1 is not None and x1 < box.r:
            return report(FOUND, _checked(eq, (x1,)))
        return finish()

    x = [0] * (n - 1)
    partial = [0] * n  # partial[j] = sum of walk values for coords < j
    for j in range(n - 1):
        partial[j + 1] = ctx.ops.add(partial[j], ctx.walks[j][0])
    while True:
        counter.outer_points_visited += 1
        x1 = ctx.resolve(partial[n - 1], counter)
        if x1 is not None:
            sorted_x = (x1,) + tuple(x)
            sol = [0] * n
            for k in range(n):
                sol[box.perm[k]] = sorted_x[k]
            return report(FOUND, _checked(eq, tuple(sol)))
        j = n - 2
        while j >= 0:
            x[j] += 1
            if x[j] < outer_limits[j]:
                break
            x[j] = 0
            j -= 1
        if j < 0:
            return finish()
        for k in range(j, n - 1):
            partial[k + 1] = ctx.ops.add(partial[k], ctx.walks[k][x[k]])
