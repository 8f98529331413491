"""Seeded workload corpora, their check data, and the per-op output checks.

A corpus is a list of Ops, each one `expzeros` CLI invocation with
`--format json` and explicit `--terms/--b` (never `--n --seed`, whose
random draws often hit the caps).  Every instance is drawn here with
`expzeros.instances` from the workload seed.  The shape of each op (field,
multiplicative orders, box radius) is fixed per workload; the seed picks
the coefficients, the generators of each order and b.  That keeps the
work per run nearly constant across seeds while the inputs change.

Check data comes from `box_counts` and `first_outer_hits`: exact numpy
scans of the box, built from `FieldElement` arithmetic and independent of
the package's counting, sweeping and solving code.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from expzeros import fields, instances

SOLVER_STATUSES = ("found", "no_solution_certified", "box_exhausted")
BRUTE_CAP = 1 << 20  # qmodel's default enum cap: m_exact is None beyond it
CHUNK = 1 << 20  # array elements per block of the reference computations

# count: (p, nu, orders, r or None for the full last order, copies).
# Boxes stay <= 1e5 points.  The q-sized mu-sum of count_via_charsum costs
# about q * sum(limits) evaluations, so the heavy ops are the large fields
# with long walks; the small truncated boxes in the largest fields are the
# ones where that transform is pure overhead next to a tiny brute force.
# The twelve F_9973 n = 3 ops form one cluster around the 90th percentile of
# op latency, so op_p90_ms tracks one op shape rather than the edge between
# two.  Likewise the median falls about seven ops inside the band of 20 to
# 33 ms ops, which the ten F_1031 (206, 103, 5) ops widen, and not on its
# lower edge, where the op latencies jump from about 15 to 24 ms.
COUNT_SHAPES = [
    (7, 1, (6, 6, 6, 6), None, 2),
    (7, 1, (6, 3), None, 2),
    (31, 1, (30, 15, 10), None, 4),
    (31, 1, (30,), None, 2),
    (101, 1, (100, 100, 10), 5, 4),
    (101, 1, (50, 25, 20, 4), None, 4),
    (257, 1, (256, 128), 64, 4),
    (257, 1, (64, 32, 16), 8, 4),
    (1031, 1, (1030, 103), 50, 4),
    (1031, 1, (206, 103, 5), 2, 10),
    (9973, 1, (831, 277), 40, 4),
    (9973, 1, (277, 277, 12), 1, 12),
    (9973, 1, (9972,), 8, 4),
    (9973, 1, (277, 12), 3, 4),
    (2, 3, (7, 7, 7), None, 4),
    (3, 2, (8, 8, 8, 4), None, 4),
    (5, 2, (24, 12, 8), None, 4),
    (2, 6, (63, 21, 9), None, 4),
    (3, 4, (80, 40), None, 4),
    (7, 4, (96, 25, 25), 12, 4),
    (7, 4, (2400,), 30, 4),
    (2, 12, (585, 63), 63, 4),
    (2, 12, (4095,), 5, 4),
    (3, 8, (205, 41), 41, 4),
    (3, 8, (41, 41, 5), 3, 4),
    (97, 2, (147, 49, 7), 3, 4),
    (97, 2, (96, 96), 4, 4),
]

# sweep: same tuple layout.  Two kinds: small q with boxes up to about 2^21
# points, where materializing the box dominates (and sets peak RSS), and
# large q with small r, where the per-b CSV, census and JSON dominate.
# The twelve F_1031 ops put the median of op latency inside the band of
# 20 to 25 ms ops, and the ten F_12289 ops put the 90th percentile inside
# their own cluster; otherwise each would sit on a jump between two op
# shapes and move from seed to seed.
SWEEP_SHAPES = [
    (7, 1, (6, 6), None, 5),
    (31, 1, (30, 30, 30), None, 5),
    (97, 1, (96, 96, 96), None, 6),
    (101, 1, (100, 100, 100), None, 6),
    (257, 1, (256, 256, 32), None, 6),
    (769, 1, (768, 768, 3), None, 4),
    (1031, 1, (1030, 1030), None, 12),
    (2, 3, (7, 7, 7, 7), None, 8),
    (3, 2, (8, 8, 8, 8), None, 8),
    (5, 2, (24, 24, 24, 24), None, 6),
    (2, 6, (63, 63, 63), None, 6),
    (3, 4, (80, 80, 80), None, 6),
    (7, 4, (2400, 2400), 100, 4),
    (2, 12, (4095, 4095), 256, 1),
    (3, 8, (6560, 328), None, 1),
    (97, 2, (9408, 147), None, 2),
    (3329, 1, (3328, 3328), 10, 4),
    (9973, 1, (9972, 9972), 8, 4),
    (12289, 1, (12288, 12288), 12, 10),
    (40961, 1, (40960, 40960), 16, 1),
    (65537, 1, (65536, 65536), 20, 2),
]

# solve: (p, nu, orders, found b per family, zero-count b per family).
# The large-order n = 2 families sit in the box_exhausted regime
# (r_raw <= s_n), where an empty box is rare; with s_1 = (q-1)/2 and
# s_2 | s_1, b = 0 has none when -a_2/a_1 lies outside <g_1>, and families
# are drawn until it does.  The small-order families are searched over the
# full domain, so their empty b come back as no_solution_certified.  Extension
# fields mostly get small orders: qmodel's brute-force m_exact over an
# exhausted-regime box (about 2 q ln q points) would otherwise dominate.
# The F_{2^12} (65, 63, 3) family carries 22 empty b: each is a full-domain
# search of the same cost, and with the qmodel ops of like cost they form one
# cluster around the 90th percentile of op latency, so op_p90_ms tracks one
# op shape rather than the seed-dependent tail of the found ops below it.
SOLVE_FAMILIES = [
    (65537, 1, (32768, 32768), 14, 1),
    (65537, 1, (64, 32, 32), 10, 5),
    (1031, 1, (515, 515), 14, 1),
    (12289, 1, (6144, 6144), 14, 1),
    (12289, 1, (32, 24, 16), 10, 5),
    (2, 12, (65, 63, 3), 10, 22),
    (2, 12, (1365, 3), 10, 5),
    (3, 8, (3280, 3280), 14, 1),
    (97, 2, (4704, 2), 10, 5),
    (97, 2, (98, 96, 2), 10, 5),
]
FAMILY_TRIES = 400


@dataclass
class Op:
    """One CLI call and what its output must satisfy."""

    kind: str  # "count" | "density" | "solve" | "qmodel"
    argv: list
    field: tuple  # (p, nu)
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# reference counting


def sorted_box(orders, r=None):
    """(perm, limits) with the CLI's box convention: descending orders,
    ties by index, last sorted coordinate truncated to r."""
    perm = sorted(range(len(orders)), key=lambda i: (-orders[i], i))
    limits = [orders[i] for i in perm]
    if r is not None:
        limits[-1] = r
    return perm, limits


def solver_radius(q, orders):
    """r_raw = ceil(q^n (prod_{l<n} s_l)^-2 ln q), the solver's formula."""
    _, limits = sorted_box(orders)
    prod = math.prod(limits[:-1])
    return math.ceil(float(Fraction(q ** len(orders), prod * prod))
                     * math.log(q))


def thm3_radius(q, orders):
    """The floor radius of the thm3 model, or None when its size
    hypothesis (prod_{l<n} s_l)^2 s_n > q^n ln q fails."""
    _, limits = sorted_box(orders)
    prod = math.prod(limits[:-1])
    if not float(prod * prod * limits[-1]) > q ** len(orders) * math.log(q):
        return None
    return max(math.floor(float(Fraction(q ** len(orders), prod * prod))
                          * math.log(q)), 1)


def _walk_digits(a, g, limit):
    """Digit rows of a g^x for x < limit, by FieldElement arithmetic."""
    rows = []
    cur = a
    for _ in range(limit):
        rows.append(cur.coeffs)
        cur = cur * g
    return np.array(rows, dtype=np.int64)


def _pack(digits, p):
    return digits @ (p ** np.arange(digits.shape[-1], dtype=np.int64))


def _sums(walks, p):
    """Digit rows of every sum of one value per walk, in lexicographic
    order of the walk indices (the first walk most significant)."""
    acc = walks[0]
    for walk in walks[1:]:
        acc = ((acc[:, None, :] + walk[None, :, :]) % p).reshape(
            -1, acc.shape[1])
    return acc


def _box_walks(eq, r):
    perm, limits = sorted_box(eq.orders, r)
    return [_walk_digits(*eq.terms[i], limit)
            for i, limit in zip(perm, limits)]


def box_counts(eq, r=None):
    """counts[packed b] = number of box points x with sum a_i g_i^x_i = b."""
    spec = eq.spec
    p, nu, q = spec.p, spec.nu, spec.cardinality
    walks = sorted(_box_walks(eq, r), key=len)
    last = walks[-1]
    head = (_sums(walks[:-1], p) if len(walks) > 1
            else np.zeros((1, nu), dtype=np.int64))
    counts = np.zeros(q, dtype=np.int64)
    step = max(1, CHUNK // last.size)
    for i in range(0, len(head), step):
        block = (head[i:i + step, None, :] + last[None, :, :]) % p
        counts += np.bincount(_pack(block.reshape(-1, nu), p), minlength=q)
    return counts


def first_outer_hits(eq, r):
    """first[packed b] = index of the first outer point (sorted coordinates
    2..n, in the solver's lexicographic order) at which some x_1 solves
    the equation, or -1 when no point of the box does.  Needs n >= 2."""
    spec = eq.spec
    p, q = spec.p, spec.cardinality
    walks = _box_walks(eq, r)
    inner = walks[0]  # distinct values: a_1 g_1^x for x below its order
    first = np.full(q, -1, dtype=np.int64)
    for k, point in enumerate(_sums(walks[1:], p)):
        values = _pack((inner + point) % p, p)
        first[values[first[values] < 0]] = k
    return first


# ---------------------------------------------------------------------------
# corpus construction


def terms_arg(eq):
    return ";".join(f"{a.packed()},{g.packed()}" for a, g in eq.terms)


def equation_argv(command, eq, b):
    spec = eq.spec
    return [command, "--p", str(spec.p), "--nu", str(spec.nu),
            "--terms", terms_arg(eq), "--b", str(b), "--format", "json"]


class Drawer:
    """Seeded instance source; one generator per field, distinct terms."""

    def __init__(self, seed, workload):
        self.rng = random.Random(f"{workload}:{seed}")
        self.gens = {}
        self.seen = set()

    def draw(self, p, nu, orders):
        """An equation with the given term orders, terms unseen so far."""
        spec = fields.make_field(p, nu)
        if spec not in self.gens:
            self.gens[spec] = instances.find_generator(spec)
        while True:
            eq = instances.random_equation_with_orders(
                spec, list(orders), self.rng, self.gens[spec])
            key = (p, nu, terms_arg(eq))
            if key not in self.seen:
                self.seen.add(key)
                return eq


def count_corpus(drawer):
    ops = []
    for p, nu, orders, r, copies in COUNT_SHAPES:
        for _ in range(copies):
            eq = drawer.draw(p, nu, orders)
            b = eq.b.packed()
            argv = equation_argv("count", eq, b)
            if r is not None:
                argv += ["--r", str(r)]
            ops.append(Op("count", argv, (p, nu),
                          {"count": int(box_counts(eq, r)[b])}))
    return ops


def sweep_corpus(drawer):
    ops = []
    for p, nu, orders, r, copies in SWEEP_SHAPES:
        for _ in range(copies):
            eq = drawer.draw(p, nu, orders)
            _, limits = sorted_box(eq.orders, r)
            argv = equation_argv("density", eq, eq.b.packed())
            if r is not None:
                argv += ["--r", str(r)]
            card = math.prod(limits)
            ops.append(Op("density", argv, (p, nu),
                          {"card": card, "r": limits[-1]}))
    return ops


def _zero_has_no_solution(eq):
    """For n = 2 with s_2 | s_1: a_1 g_1^x + a_2 g_2^y = 0 has no solution
    exactly when -a_2/a_1 lies outside <g_1>, the units whose order divides
    s_1."""
    (a1, _), (a2, _) = eq.terms
    return (-a2 / a1) ** eq.orders[0] != eq.spec.one()


def _family(drawer, p, nu, orders, n_zero):
    """A term family whose solver box has at least n_zero empty b.

    In the box_exhausted regime the empty b is b = 0, ensured by the
    cheap test above, so set-up does not vary with how many draws that
    takes; in the full-domain regime about a third of all b are empty.
    """
    r_raw = solver_radius(p ** nu, orders)
    s_n = sorted_box(orders)[1][-1]
    r = min(r_raw, s_n)
    for _ in range(FAMILY_TRIES):
        eq = drawer.draw(p, nu, orders)
        if r_raw <= s_n and not _zero_has_no_solution(eq):
            continue
        counts = box_counts(eq, r)
        if int(np.count_nonzero(counts == 0)) >= n_zero:
            return eq, r, counts
    raise RuntimeError(f"no family over F_{p}^{nu} with orders {orders} "
                       f"has {n_zero} empty b in {FAMILY_TRIES} draws")


def _spread_found(rng, first, n):
    """n distinct b with a solution, whose first-hit positions sit at evenly
    spaced quantiles over all such b.  A found op's cost grows with that
    position, so this keeps the solver's work per op the same from seed to
    seed while the b themselves change."""
    hit = np.flatnonzero(first >= 0)
    ranked = first[hit[np.argsort(first[hit], kind="stable")]]
    picks = []
    for i in range(n):
        pos = ranked[(2 * i + 1) * len(ranked) // (2 * n)]
        pool = [b for b in hit[first[hit] == pos].tolist() if b not in picks]
        picks.append(rng.choice(pool))
    return picks


def solve_corpus(drawer):
    ops = []
    rng = drawer.rng
    for p, nu, orders, n_found, n_zero in SOLVE_FAMILIES:
        q = p ** nu
        eq, r, counts = _family(drawer, p, nu, orders, n_zero)
        first = first_outer_hits(eq, r)
        _, limits = sorted_box(eq.orders, r)
        outer_size = math.prod(limits[1:])
        empties = np.flatnonzero(first < 0).tolist()
        chosen = (_spread_found(rng, first, n_found)
                  + rng.sample(empties, n_zero))
        rng.shuffle(chosen)
        base = {"terms": [[a.packed(), g.packed()] for a, g in eq.terms],
                "orders": list(eq.orders), "r": r,
                "r_raw": solver_radius(q, eq.orders),
                "s_n": sorted_box(eq.orders)[1][-1]}
        for b in chosen:
            visited = first[b] + 1 if first[b] >= 0 else outer_size
            ops.append(Op("solve", equation_argv("solve", eq, b), (p, nu),
                          dict(base, b=b, count=int(counts[b]),
                               outer_points=int(visited))))
        # qmodel's guessing-schedule cost depends on the solution count, so
        # its b has the median count of the family
        hits = counts[counts > 0]
        median = int(np.sort(hits)[len(hits) // 2])
        b = rng.choice(np.flatnonzero(counts == median).tolist())
        card = math.prod(limits)
        ops.append(Op("qmodel", equation_argv("qmodel", eq, b)
                      + ["--mode", "thm2"], (p, nu),
                      {"m_exact": median if card <= BRUTE_CAP else None}))
        r3 = thm3_radius(q, eq.orders)
        if r3 is not None:
            card3 = math.prod(sorted_box(eq.orders, r3)[1])
            m3 = int(box_counts(eq, r3)[b]) if card3 <= BRUTE_CAP else None
            ops.append(Op("qmodel", equation_argv("qmodel", eq, b)
                          + ["--mode", "thm3"], (p, nu), {"m_exact": m3}))
    return ops


CORPUS = {"count": count_corpus, "sweep": sweep_corpus,
          "solve": solve_corpus}
WORKLOADS = tuple(CORPUS)


def build_corpus(workload, seed):
    return CORPUS[workload](Drawer(seed, workload))


def warmup_argvs(ops):
    """One cheap `orders` call per field of the corpus, in corpus order:
    it runs the CLI's parse, field and factorization paths once."""
    seen = {}
    for op in ops:
        if op.field not in seen:
            seen[op.field] = (["orders"] + op.argv[1:op.argv.index("--format")]
                              + ["--format", "json"])
    return list(seen.values())


# ---------------------------------------------------------------------------
# checks


def _check_count(op, doc):
    problems = []
    brute, approx = doc["brute"], doc["charsum"]
    if brute != round(approx):
        problems.append(f"brute {brute} != round(charsum {approx!r})")
    if brute != op.expect["count"]:
        problems.append(f"brute {brute} != reference {op.expect['count']}")
    return problems


def _check_density(op, doc):
    problems = []
    counts = doc["counts"]
    q = len(counts)
    box = doc["box"]
    card, r, n = box["card"], box["r"], len(box["orders_sorted"])
    if card != op.expect["card"] or r != op.expect["r"]:
        problems.append(f"box {card}/{r} != expected "
                        f"{op.expect['card']}/{op.expect['r']}")
    if sum(counts) != card:
        problems.append(f"sum of counts {sum(counts)} != card {card}")
    energy = Fraction(*doc["energy"])
    recomputed = Fraction(q * sum(c * c for c in counts) - card * card, q)
    if energy != recomputed:
        problems.append(f"energy {energy} != recomputed {recomputed}")
    if Fraction(*doc["main"]) != Fraction(card, q):
        problems.append("main term != card / q")
    if not energy < Fraction(q) ** (n - 1) * r:
        problems.append("energy bound E(r) < q^(n-1) r fails")
    census = doc["census"]
    if len(census["exceptional"]) > q / Fraction(*census["delta_sq"]):
        problems.append("census larger than q / delta^2")
    return problems


def _check_solve(op, doc):
    exp = op.expect
    status, count = doc["status"], exp["count"]
    if status not in SOLVER_STATUSES:
        return [f"unknown status {status!r}"]
    problems = []
    if doc["r_raw"] != exp["r_raw"] or doc["box"]["r"] != exp["r"]:
        problems.append(f"box radius {doc['r_raw']}/{doc['box']['r']} != "
                        f"expected {exp['r_raw']}/{exp['r']}")
    if (status == "found") != (count > 0):
        problems.append(f"status {status} but {count} solutions in box")
    visited = doc["queries"]["outer_points_visited"]
    if visited != exp["outer_points"]:
        problems.append(f"visited {visited} outer points, the first "
                        f"solution needs {exp['outer_points']}")
    if status == "found":
        problems += _witness_problems(op, doc["x"])
    elif status == "no_solution_certified" and exp["r_raw"] <= exp["s_n"]:
        problems.append("certificate outside the full-domain regime")
    elif status == "box_exhausted" and exp["r_raw"] > exp["s_n"]:
        problems.append("box_exhausted in the full-domain regime")
    return problems


def _witness_problems(op, x):
    exp = op.expect
    spec = fields.make_field(*op.field)
    orders = exp["orders"]
    if x is None or len(x) != len(orders):
        return [f"malformed witness {x!r}"]
    if any(not 0 <= xi < s for xi, s in zip(x, orders)):
        return [f"witness {x} outside the orders {orders}"]
    perm, _ = sorted_box(orders)
    if x[perm[-1]] >= exp["r"]:
        return [f"witness {x} outside the box radius {exp['r']}"]
    total = spec.zero()
    for (a, g), xi in zip(exp["terms"], x):
        total = total + spec.element(a) * spec.element(g) ** xi
    if total != spec.element(exp["b"]):
        return [f"witness {x} does not solve the equation"]
    return []


def _check_qmodel(op, doc):
    if doc["m_exact"] != op.expect["m_exact"]:
        return [f"m_exact {doc['m_exact']} != reference "
                f"{op.expect['m_exact']}"]
    return []


CHECKS = {"count": _check_count, "density": _check_density,
          "solve": _check_solve, "qmodel": _check_qmodel}

# The exact fields of each output: integers, Fractions as [num, den],
# statuses and the QueryCounter ledger.  Floats are left out.
EXACT_KEYS = {
    "count": ("brute", "solutions", "box"),
    "density": ("counts", "main", "energy", "box"),
    "solve": ("status", "x", "queries", "box", "r_raw"),
    "qmodel": ("mode", "r", "r_raw", "r_clamped", "t", "m_exact",
               "b_exceptional", "modeled_queries", "shor_calls",
               "within_bound", "chain_case", "chain_holds",
               "hypothesis_ok"),
}
CENSUS_EXACT_KEYS = ("delta_sq", "threshold_sq", "exceptional", "bound",
                     "size_ok")


def exact_part(kind, doc):
    part = {k: doc[k] for k in EXACT_KEYS[kind]}
    if kind == "density":
        part["census"] = {k: doc["census"][k] for k in CENSUS_EXACT_KEYS}
    return part


@dataclass
class Outcome:
    """Checked result of one op: its parsed output or why it failed."""

    doc: dict | None
    exact: dict | None
    problems: list


def evaluate(op, rc, text):
    """Parse and check one op's output; any problem fails the op."""
    if rc != 0:
        return Outcome(None, None, [f"exit {rc}"])
    try:
        doc = json.loads(text)
        return Outcome(doc, exact_part(op.kind, doc),
                       CHECKS[op.kind](op, doc))
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(None, None, [f"bad output: {exc!r}"])


def digest(ops, outcomes):
    """sha256 over the exact output fields of one corpus pass."""
    parts = [[op.kind, out.exact] for op, out in zip(ops, outcomes)]
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
