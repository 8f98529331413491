#!/usr/bin/env python3
"""Host-scaled ns per FieldElement product, and per power-walk entry, on a
fixed grid of fields.

    python3 tools/mul_ns.py
    python3 tools/mul_ns.py --parent ../before --change . --rounds 5 \\
        --out BENCH_mul.json

The grid is F_{2^3}, F_{5^2}, F_{2^6}, F_{7^4}, F_{2^12}, F_{3^8}, F_{97^2},
F_{3^9}, F_9973 and F_65537.  Each field's product is timed the way
perfbench times `fields.mul_ns`: a chain x = x * g of LOOP products,
median over repeats.  Before the chain, the order of g is taken, as
`make_equation` does for every term, so a field that caches a log table
has it (a product never builds one).  The kernel of perfbench/speed.py,
imported read-only, is timed next to every repeat, and each figure is
scaled to its reference host speed: ns = raw_ns * speed.scale(kernel_ns).

The walk layer is timed on the same grid: ns per row of
`fields._power_walk(a, g, WALK)`, WALK_LOOP walks per repeat, on a fresh
FieldSpec without a log table ("walk-matrix.<field>"), and, where
`arith.reads_log_table` holds, also on the field's own FieldSpec, which
the order of g gave its table ("walk-table.<field>").  That is every
field of the grid with q <= 2^14, F_9973 included; the other two, F_{3^9}
and F_65537, never hold a table, so they walk by matrix only.

With no checkout given, the grid is timed for this checkout and printed.
With --parent and --change, every round times each checkout in a fresh
interpreter, the two in alternating order, and the JSON holds both sides'
runs and, per field, both medians, the parent's quartiles, the speed-up
and how many rounds the change won.  Standard library only; the package
timed needs numpy.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GRID = [(2, 3), (5, 2), (2, 6), (7, 4), (2, 12), (3, 8), (97, 2), (3, 9),
        (9973, 1), (65537, 1)]
LOOP = 2000
REPEATS = 9
WALK = 4096
WALK_LOOP = 5
SIDES = ("parent", "change")


def tag(p: int, nu: int) -> str:
    return f"p{p}-nu{nu}"


def measure(grid=GRID, repeats=REPEATS, loop=LOOP) -> dict:
    """name -> {"ns", "raw_ns", "kernel_ns"} for the expzeros on sys.path:
    ns per product under the field's tag, and ns per walk entry under
    "walk-table.<tag>" (fields that read a log table) and
    "walk-matrix.<tag>"."""
    from expzeros import arith, fields

    found = importlib.util.spec_from_file_location(
        "speed", ROOT / "perfbench" / "speed.py")
    speed = importlib.util.module_from_spec(found)
    found.loader.exec_module(speed)

    def timed(run, per):
        times, kernels = [], []
        for _ in range(repeats):
            kernels.append(speed.kernel_ns())
            start = time.perf_counter_ns()
            run()
            times.append((time.perf_counter_ns() - start) / per)
        raw, kernel = statistics.median(times), statistics.median(kernels)
        return {"ns": raw * speed.scale(kernel), "raw_ns": raw,
                "kernel_ns": kernel}

    rng = random.Random(8)
    speed.warm()
    out, walks = {}, {}
    for p, nu in grid:
        spec = fields.make_field(p, nu)
        a, g = (spec.from_packed(rng.randrange(1, spec.cardinality))
                for _ in range(2))
        arith.multiplicative_order(g, arith.factorize(spec.cardinality - 1))

        def chain():
            x = a
            for _ in range(loop):
                x = x * g

        out[tag(p, nu)] = timed(chain, loop)
        bare = fields.FieldSpec(p, nu)
        routes = {"matrix": (bare.from_packed(a.packed()),
                             bare.from_packed(g.packed()))}
        if arith.reads_log_table(spec):
            routes = {"table": (a, g), **routes}
        for route, (wa, wg) in routes.items():
            def walks_of_field():
                for _ in range(WALK_LOOP):
                    fields._power_walk(wa, wg, WALK)

            walks[f"walk-{route}.{tag(p, nu)}"] = timed(
                walks_of_field, WALK_LOOP * WALK)
    return {**out, **walks}


def run_checkout(checkout: Path) -> dict:
    """measure() in a fresh interpreter on checkout/src."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure"],
        cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(runs: dict) -> dict:
    """Per field: both sides' median ns, the parent's quartiles, the
    speed-up parent/change and the rounds the change was faster in."""
    out = {}
    for name in runs["parent"][0]:
        parent = [run[name]["ns"] for run in runs["parent"]]
        change = [run[name]["ns"] for run in runs["change"]]
        q1, _, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1
                     else parent * 3)
        med_p, med_c = statistics.median(parent), statistics.median(change)
        out[name] = {"parent_ns": med_p, "change_ns": med_c,
                     "parent_q1": q1, "parent_q3": q3,
                     "speedup": med_p / med_c,
                     "change_wins": sum(c < p for p, c in zip(parent, change)),
                     "rounds": len(parent)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", type=Path, help="JSON file for the pairs")
    parser.add_argument("--measure", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if not (args.parent and args.change):
        for name, m in measure().items():
            print(f"{name:22} {m['ns']:9.0f} ns  (raw {m['raw_ns']:.0f}, "
                  f"kernel {m['kernel_ns'] / 1e3:.0f} us)")
        return 0
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    for k in range(args.rounds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_checkout(checkouts[side]))
    summary = summarize(runs)
    doc = {"loop": LOOP, "repeats": REPEATS, "runs": runs,
           "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, s in summary.items():
        print(f"{name:22} {s['parent_ns']:9.0f} -> {s['change_ns']:7.0f} ns"
              f"  x{s['speedup']:.2f}  wins {s['change_wins']}/{s['rounds']}"
              f"  parent IQR {s['parent_q3'] - s['parent_q1']:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
