#!/usr/bin/env python3
"""Where a pass of a perfbench workload goes, timed in one process.

    python3 tools/pass_split.py --workload sweep --seed 101 --passes 10

Builds the workload's corpus with perfbench (imported read-only), runs
its warm-up ops and WARMUP whole passes, then times --passes passes with
these functions wrapped: `cli.parse_args`, `cli.resolve_equation`, the
workload's compute calls (COMPUTE) and `cli._json_text`, the JSON
writer's entry point (`emit` calls it once a document).  A wrapped
function is timed at its outermost call only.  None of them calls
another, so "other", the pass minus the wrapped columns, is what an op
costs outside them: perfbench's own call, the config merge, the box, the
write.  Prints the mean ms a pass of the whole pass ("pass"), of each
wrapped function and of "other".  Set OPENBLAS_NUM_THREADS=1 for steady
numbers.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402  (perfbench/run.py puts src/ on sys.path)

from expzeros import cli, density  # noqa: E402

WARMUP = 2
COMPUTE = {
    "count": [(cli, "brute_count"), (cli, "count_via_charsum")],
    "sweep": [(density, "sweep_b"), (density, "exceptional_census")],
    "solve": [(cli, "solve_classical"), (cli, "model_quantum_solve")],
}


def split(workload: str, seed: int, passes: int) -> dict:
    """name -> mean ms a pass: "pass", each wrapped function, "other"."""
    ops, _ = run.setup(workload, seed)
    for op in ops * WARMUP:
        run.run_op(op.argv)
    targets = ([(cli, "parse_args"), (cli, "resolve_equation")]
               + COMPUTE[workload] + [(cli, "_json_text")])
    spent = dict.fromkeys(["pass"] + [name for _, name in targets], 0)
    originals = [(module, name, getattr(module, name))
                 for module, name in targets]

    def timed(name, func):
        def wrapper(*args, **kwargs):
            start, depth[name] = time.perf_counter_ns(), depth[name] + 1
            try:
                return func(*args, **kwargs)
            finally:
                depth[name] -= 1
                if not depth[name]:  # the outermost call
                    spent[name] += time.perf_counter_ns() - start
        return wrapper

    depth = dict.fromkeys(spent, 0)
    try:
        for module, name, func in originals:
            setattr(module, name, timed(name, func))
        for _ in range(passes):
            start = time.perf_counter_ns()
            for op in ops:
                run.run_op(op.argv)
            spent["pass"] += time.perf_counter_ns() - start
    finally:
        for module, name, func in originals:
            setattr(module, name, func)
    spent["other"] = spent["pass"] - sum(
        ns for name, ns in spent.items() if name != "pass")
    return {name: ns / passes / 1e6 for name, ns in spent.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(COMPUTE),
                        required=True)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--passes", type=int, default=10)
    args = parser.parse_args(argv)
    for name, ms in split(args.workload, args.seed, args.passes).items():
        print(f"{name:20} {ms:8.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
