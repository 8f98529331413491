"""Quantum query-cost models: Grover amplitude dynamics (closed form and
exact small-scale simulation), the unknown-m guessing schedule's expected
queries as a closed-form series, modeled costs for the two quantum search
strategies, and the classical-vs-quantum exponent table.

Quantum subroutines are modeled, not executed: order finding and discrete
logs are answered classically and charged polylog cost; Grover is charged
oracle queries.  The two strategies differ in what one oracle query is:

  thm2: Grover over the outer grid of t points, one subroutine call per
        query, ceil(sqrt(t)) queries charged.
  thm3: the grid radius comes from the floor formula (valid only under
        the size hypothesis (prod_{l<n} s_l)^2 s_n > q^n log q), the box
        then holds M = Theta(r prod s_l / q) solutions, and the
        unknown-m search needs only about sqrt(t/M) queries.

Exact M is recovered by brute force at desk scale and compared against
the r prod s_l / q estimate; the comparison is restricted to b that are
non-exceptional at delta = 1, the regime where the estimate is provably
within a factor 4 (tighter deltas admit counterexamples at small r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charsum import ExpEquation, box_radius, brute_count, log_of, make_box
from .errors import (BadCounts, CapExceeded, HypothesisFailed,
                     InvariantViolated, Overflow)
from .solver import build_box

GROVER_SIM_CAP = 1 << 14
BBHT_GROWTH = 6 / 5
# Past L_j >= 1/sin(2 theta) each round misses with probability at most
# 3/4, so the expectation meets BBHT_TAIL_TOL within 1000 rounds for t/m
# up to 10^150, far past the box cap; 1.2^j overflows near j = 3900.
BBHT_MAX_ROUNDS = 1000
BBHT_TAIL_TOL = 1e-12


def _theta(t: int, m: int) -> float:
    """The Grover angle arcsin(sqrt(m/t)), for 1 <= m <= t."""
    if t < 1 or not 1 <= m <= t:
        raise BadCounts(f"need 1 <= m <= t, got t={t} m={m}")
    return math.asin(math.sqrt(m / t))


def grover_success(t: int, m: int, k: int) -> float:
    """Closed-form success probability sin^2((2k+1) theta) after k
    iterations, theta = arcsin(sqrt(m/t))."""
    if k < 0:
        raise BadCounts(f"need k >= 0, got {k}")
    return math.sin((2 * k + 1) * _theta(t, m)) ** 2


def grover_optimal_k(t: int, m: int) -> int:
    """floor(pi / (4 theta)), the standard iteration count."""
    return int(math.pi / (4 * _theta(t, m)))


def grover_simulate(t: int, marked, k: int, return_drift: bool = False):
    """Exact state-vector run of k Grover iterations on t items.

    Returns the probability mass on the marked set; with return_drift,
    also the largest |norm - 1| observed after any iteration.
    """
    if t > GROVER_SIM_CAP:
        raise CapExceeded(f"t = {t} exceeds simulation cap {GROVER_SIM_CAP}")
    idx = sorted(set(int(i) for i in marked))
    if not idx or idx[0] < 0 or idx[-1] >= t:
        raise BadCounts("marked set must be a nonempty subset of [0, t)")
    if k < 0:
        raise BadCounts(f"need k >= 0, got {k}")
    idx = np.array(idx, dtype=np.intp)
    state = np.full(t, 1.0 / math.sqrt(t))
    drift = 0.0
    for _ in range(k):
        state[idx] *= -1.0  # oracle: phase flip on marked items
        state = 2.0 * state.mean() - state  # inversion about the mean
        drift = max(drift, abs(float(np.dot(state, state)) - 1.0))
    prob = float(np.square(state[idx]).sum())
    if return_drift:
        return prob, drift
    return prob


def bbht_expected_queries(t: int, m: int) -> float:
    """Expected oracle queries of the exponential guessing schedule.

    Round j draws k uniformly from [0, L_j), L_j = ceil(c^j), c = 6/5, and
    spends k + 1 queries (k Grover iterations and the verification query),
    (L_j + 1)/2 on average.  Summing sin^2 over (2k+1) theta, it misses
    with probability f_j = 1/2 + sin(4 L_j theta) / (4 L_j sin 2 theta), so
    E = sum_j (prod_{i<j} f_i) (L_j + 1)/2, and m = t gives E = 1 exactly.

    Tail: once L_J sin 2 theta >= 1, each f_j <= 3/4 from round J on, and
    L_{J+d} <= (6/5)^d L_J + 1, so with R = prod_{i<J} f_i those rounds add
    at most R sum_d (3/4)^d ((6/5)^d L_J + 2)/2 = R (5 L_J + 4).  The sum
    stops when that falls below BBHT_TAIL_TOL times the sum so far, and
    raises InvariantViolated if it has not by BBHT_MAX_ROUNDS.
    """
    theta = _theta(t, m)
    if m == t:
        return 1.0
    sin_2theta = math.sin(2 * theta)
    total, reach = 0.0, 1.0
    for j in range(BBHT_MAX_ROUNDS):
        limit = math.ceil(BBHT_GROWTH ** j)
        if (limit * sin_2theta >= 1
                and reach * (5 * limit + 4) < BBHT_TAIL_TOL * total):
            return total
        total += reach * (limit + 1) / 2
        reach *= _round_miss(limit, theta, sin_2theta)
    raise InvariantViolated(f"guessing schedule's expectation not within "
                            f"tolerance after {BBHT_MAX_ROUNDS} rounds")


def _round_miss(limit: int, theta: float, sin_2theta: float) -> float:
    """1 - mean of sin^2((2k+1) theta) over k < limit, in closed form."""
    return 0.5 + math.sin(4 * limit * theta) / (4 * limit * sin_2theta)


# ---------------------------------------------------------------------------
# exponent table


@dataclass(frozen=True)
class ExponentRow:
    """Query exponents (cost = q^exponent up to polylog) for n terms."""

    n: int
    classical_exp: Fraction  # n/2, what the classical search achieves
    classical_thm_exp: Fraction  # n(n+1)/(2(2n-1)), the stated bound
    quantum_exp: Fraction  # n(n-1)/(2(2n-1))
    ratio: Fraction  # classical/quantum = (2n-1)/(n-1)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "classical_exp": str(self.classical_exp),
            "classical_thm_exp": str(self.classical_thm_exp),
            "quantum_exp": str(self.quantum_exp),
            "ratio": str(self.ratio),
        }


def classical_exponent(n: int) -> Fraction:
    return Fraction(n, 2)


def classical_stated_exponent(n: int) -> Fraction:
    return Fraction(n * (n + 1), 2 * (2 * n - 1))


def quantum_exponent(n: int) -> Fraction:
    return Fraction(n * (n - 1), 2 * (2 * n - 1))


def exponent_row(n: int) -> ExponentRow:
    if n < 2:
        raise BadCounts(f"exponent rows start at n = 2, got {n}")
    classical = classical_exponent(n)
    quantum = quantum_exponent(n)
    return ExponentRow(n, classical, classical_stated_exponent(n),
                       quantum, classical / quantum)


@dataclass(frozen=True)
class ExponentTable:
    rows: tuple[ExponentRow, ...]

    def to_dict(self) -> dict:
        return {"schema": 1, "kind": "exponent_table",
                "rows": [row.to_dict() for row in self.rows],
                "discrepancies": discrepancy_report(self.rows[-1].n)}

    def to_text(self) -> str:
        lines = [f"{'n':>4}  {'classical':>10}  {'quantum':>10}  {'C/Q':>8}"]
        for row in self.rows:
            lines.append(f"{row.n:>4}  {str(row.classical_exp):>10}  "
                         f"{str(row.quantum_exp):>10}  {str(row.ratio):>8}")
        notes = discrepancy_report(self.rows[-1].n)
        if notes:
            lines.append("")
            lines.append("stated deterministic exponent n(n+1)/(2(2n-1)) "
                         "disagrees with the derived n/2 for:")
            for d in notes:
                lines.append(f"  n={d['n']}: stated {d['stated']} "
                             f"vs derived {d['derived']}")
        return "\n".join(lines)


def exponent_table(n_max: int) -> ExponentTable:
    if n_max < 2:
        raise BadCounts(f"need n_max >= 2, got {n_max}")
    return ExponentTable(tuple(exponent_row(n) for n in range(2, n_max + 1)))


def discrepancy_report(n_max: int) -> list[dict]:
    """Rows where the stated deterministic exponent n(n+1)/(2(2n-1))
    differs from the n/2 the search actually achieves (all n >= 3)."""
    out = []
    for n in range(2, n_max + 1):
        stated = classical_stated_exponent(n)
        derived = classical_exponent(n)
        if stated != derived:
            out.append({"n": n, "stated": str(stated),
                        "derived": str(derived)})
    return out


# ---------------------------------------------------------------------------
# cost model


@dataclass(frozen=True)
class QueryCostReport:
    mode: str  # "thm2" | "thm3"
    q: int
    n: int
    r: int  # box radius actually used
    r_raw: int  # pre-clamp value from the ceiling/floor formula
    r_clamped: bool
    t: int  # Grover search-space size (outer grid)
    m_exact: int | None  # solutions in the box, when brute force ran
    m_estimate: float | None  # r prod_{l<n} s_l / q (thm3)
    m_ratio: float | None  # m_exact / m_estimate
    b_exceptional: bool | None  # |Delta_b| >= sqrt(r q^(n-2)), delta = 1
    modeled_queries: int
    expected_queries: float | None  # guessing schedule's mean, m_exact > 0
    shor_calls: int  # n order findings + one dlog per query
    theoretical_bound: float
    within_bound: bool
    chain_case: str | None  # thm2 grid-bound chain: "r<=s_n" | "r>s_n"
    chain_holds: bool | None
    hypothesis_ok: bool | None
    log_base: str
    slack_exponent: int

    def to_dict(self) -> dict:
        doc = {"schema": 1, "kind": "query_cost_report"}
        doc.update(self.__dict__)
        return doc


def grid_chain_check(orders_sorted, r_raw: int) -> tuple[str, bool]:
    """The thm2 grid-bound chain, as one exact integer comparison: with
    r = min(r_raw, s_n),

        r prod_{l=2..n-1} s_l <= ((prod_{l<n} s_l)^2 r)^((n-1)/(2n-1)).

    The case, "r<=s_n" or "r>s_n", says which of the two set r.  Not a
    theorem for every order profile; callers get the verdict.
    """
    n = len(orders_sorted)
    if n == 1:
        return "n=1", True  # no outer grid, nothing to bound
    r = min(r_raw, orders_sorted[-1])
    prod_front = math.prod(orders_sorted[:-1])
    lhs = r * math.prod(orders_sorted[1:-1])
    holds = lhs ** (2 * n - 1) <= (prod_front * prod_front * r) ** (n - 1)
    return ("r<=s_n" if r_raw <= orders_sorted[-1] else "r>s_n"), holds


def _count_in_box(eq: ExpEquation, box) -> int | None:
    """The exact in-box count, or None past brute_count's box cap."""
    try:
        count, _ = brute_count(eq, box, list_cap=0)
    except CapExceeded:
        return None
    return count


def model_quantum_solve(eq: ExpEquation, mode: str,
                        log_base: str = "natural",
                        slack_exponent: int = 3) -> QueryCostReport:
    """Model the quantum search cost for one instance.

    thm2 needs no hypothesis, takes the solver's ceiling box and charges
    ceil(sqrt(t)) queries over the outer grid of t points; thm3 requires
    (prod_{l<n} s_l)^2 s_n > q^n log q, takes the floor radius, and
    charges ceil(sqrt(t/M)), M the exact count when it is positive and
    the rounded estimate when the box is past the count's cap.  The
    theoretical bound gets a (log q)^slack_exponent factor standing in
    for the usual q^eps slack.
    """
    q, n = eq.q, eq.n
    logq = log_of(q, log_base)
    try:
        slack = logq ** slack_exponent
    except OverflowError:
        raise Overflow(f"slack (log q)^{slack_exponent} overflows a float"
                       ) from None
    orders_sorted = sorted(eq.orders, reverse=True)
    m_estimate = case = holds = hypothesis_ok = None
    if mode == "thm2":
        box, r_raw = build_box(eq, log_base)
        r_clamped = r_raw > orders_sorted[-1]
        bound = float(q) ** float(quantum_exponent(n)) * slack
        case, holds = grid_chain_check(orders_sorted, r_raw)
    elif mode == "thm3":
        # n >= 2 here: for n = 1, s_1 <= q - 1 < q log q
        prod_front = math.prod(orders_sorted[:-1])
        hyp_lhs = prod_front * prod_front * orders_sorted[-1]
        if not hyp_lhs > q ** n * logq:  # exact: hyp_lhs may overflow a float
            raise HypothesisFailed(
                "hypothesis (∏s)²sₙ > qⁿ log q failed: "
                f"{hyp_lhs} <= {q ** n * logq:.6g}")
        r_raw = math.floor(box_radius(q, orders_sorted, log_base))
        r_clamped, hypothesis_ok = r_raw < 1, True
        box = make_box(eq, max(r_raw, 1))
        bound = (math.sqrt(q)
                 * float(hyp_lhs) ** (-1.0 / (2 * (2 * n - 1))) * slack)
        m_estimate = float(Fraction(box.r * prod_front, q))
    else:
        raise ValueError(f"unknown mode {mode!r}; use thm2 or thm3")
    if not math.isfinite(bound):
        raise Overflow(f"bound with slack (log q)^{slack_exponent} "
                       "overflows a float")
    t = math.prod(box.limits()[1:])
    m_exact = _count_in_box(eq, box)
    # M is 1 for thm2 and for an empty box; thm3 takes the count, or the
    # rounded estimate past the count's cap
    m = 1
    if m_estimate is not None and m_exact != 0:
        m = m_exact or max(1, round(m_estimate))
    modeled = math.isqrt(-(-t // m) - 1) + 1  # ceil(sqrt(t/m)), exactly
    return QueryCostReport(
        mode=mode, q=q, n=n, r=box.r, r_raw=r_raw, r_clamped=r_clamped,
        t=t, m_exact=m_exact, m_estimate=m_estimate,
        m_ratio=(m_exact / m_estimate
                 if m_exact is not None and m_estimate else None),
        b_exceptional=_exceptional_at_delta1(eq, box, m_exact),
        modeled_queries=modeled,
        expected_queries=(bbht_expected_queries(t, m_exact)
                          if m_exact else None),
        shor_calls=n + modeled, theoretical_bound=bound,
        within_bound=modeled <= bound, chain_case=case, chain_holds=holds,
        hypothesis_ok=hypothesis_ok, log_base=log_base,
        slack_exponent=slack_exponent)


def _exceptional_at_delta1(eq: ExpEquation, box, m_exact: int | None
                           ) -> bool | None:
    """Is this b exceptional at delta = 1, i.e. (qN - card)^2 >= r q^n?

    Needs the exact in-box count; None when that was out of reach.
    """
    if m_exact is None:
        return None
    q, n = eq.q, box.n
    dev = q * m_exact - box.card
    return dev * dev >= box.r * q ** n
