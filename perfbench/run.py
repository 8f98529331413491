#!/usr/bin/env python3
"""expzeros benchmark: count, sweep and solve workloads through the CLI.

    python3 perfbench/run.py --workload count --seed 1 --seconds 36 --trace 0

Run from the repository root.  The benchmark draws a seeded corpus of
equations (see corpus.py), then runs it as a closed loop from this one
process: one client, no think time, each op one in-process call of
`expzeros.cli.main([...])` with `--format json`.  Whole corpus passes
repeat for `--seconds`.  Every output is parsed and checked after its pass,
outside the timed region.  Time metrics are scaled to a reference host
speed by a kernel timed between ops (see speed.py); raw figures are
printed too.

With `--trace 0` the last line holds the end-to-end metrics.  With
`--trace 1` the run times untraced passes for half the time and traced
passes for the rest, and the last line holds the per-layer metrics.
`--workload all` runs the three workloads one after another, each in its
own process.  See README.md for the metrics and why the workloads are what
they are.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from expzeros import cli, fields  # noqa: E402

import corpus  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

SETUP_RUNS = 3  # fresh child processes timed for setup_s
SETUP_KERNELS = 15  # speed-kernel timings on each side of a timed set-up
CHILD_TIMEOUT_S = 170
MUL_LOOP = 2000
MUL_REPEATS = 3
SOLVER_BUCKETS = ("setup", "bsgs_table", "membership", "bsgs_lookup",
                  "subroutine")


def field_tag(p, nu):
    return f"p{p}-nu{nu}"


def mul_fields():
    shapes = corpus.COUNT_SHAPES + corpus.SWEEP_SHAPES + corpus.SOLVE_FAMILIES
    return sorted({(s[0], s[1]) for s in shapes})


def solve_fields():
    return sorted({(f[0], f[1]) for f in corpus.SOLVE_FAMILIES})


# (name, unit) of every metric, in print order.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB")]


def per_layer_units():
    units = {"fields.make_field_s": "s"}
    for p, nu in mul_fields():
        units[f"fields.mul_ns.{field_tag(p, nu)}"] = "ns"
    units.update({
        "arith.factorize_s": "s", "arith.order_s": "s",
        "arith.bsgs_table_s": "s", "arith.bsgs_lookup_s": "s",
        "charsum.count_s": "s", "charsum.count_evals_per_s": "1/s",
        "charsum.count_max_err": "count", "charsum.brute_s": "s",
        "charsum.brute_points_per_s": "1/s",
        "density.sweep_s": "s", "density.sweep_points_per_s": "1/s",
        "density.census_s": "s", "density.csv_s": "s",
        "density.csv_unused_frac": "ratio",
        "solver.self_s": "s", "solver.group_mults": "count",
    })
    for bucket in SOLVER_BUCKETS:
        units[f"solver.mults.{bucket}"] = "count"
    units.update({"solver.outer_points": "count",
                  "solver.dlog_hit_ratio": "ratio"})
    for p, nu in solve_fields():
        units[f"solver.ns_per_mult.{field_tag(p, nu)}"] = "ns"
    for status in corpus.SOLVER_STATUSES:
        units[f"solver.status.{status}"] = "count"
    units.update({
        "qmodel.self_s": "s", "qmodel.bbht_s": "s",
        "qmodel.modeled_queries": "count",
        "cli.self_s": "s", "cli.out_bytes": "bytes",
        "trace.overhead_frac": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# running ops


def run_op(argv):
    """One in-process CLI call; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # the op failed; the run goes on
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def op_facts(op, doc, out_bytes):
    """The few numbers of one output the per-layer metrics need."""
    facts = {"bytes": out_bytes}
    if doc is None:
        return facts
    if op.kind == "count":
        facts["err"] = abs(doc["charsum"] - doc["brute"])
    elif op.kind == "solve":
        facts["status"] = doc["status"]
        facts["queries"] = doc["queries"]
    elif op.kind == "qmodel":
        facts["modeled_queries"] = doc["modeled_queries"]
    return facts


@dataclass
class Pass:
    wall_ns: int  # sum of the op latencies
    latencies_ns: list
    kernel_ns: float  # median speed-kernel time over the pass
    failures: list  # (op index, problems)
    digest: str
    facts: list


def run_pass(ops, tracer=None):
    gc.collect()
    latencies = []
    kernels = []
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter_ns()
        results.append(run_op(op.argv))
        latencies.append(time.perf_counter_ns() - t0)
        if i % speed.KERNEL_EVERY == 0:
            kernels.append(speed.kernel_ns())
    outcomes = [corpus.evaluate(op, rc, text)
                for op, (rc, text) in zip(ops, results)]
    failures = [(i, out.problems) for i, out in enumerate(outcomes)
                if out.problems]
    facts = [op_facts(op, out.doc, len(text.encode()))
             for op, out, (_, text) in zip(ops, outcomes, results)]
    return Pass(sum(latencies), latencies, statistics.median(kernels),
                failures, corpus.digest(ops, outcomes), facts)


def run_passes(ops, seconds, tracer=None):
    """Whole passes for `seconds`: at least one, and no further pass once
    one more like the last would end past the deadline."""
    passes = []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, tracer))
        last = time.perf_counter() - t0
    return passes


# ---------------------------------------------------------------------------
# set-up


def setup(workload, seed):
    """Fields, generators, corpus and check data, then one warm-up op per
    field; returns (ops, seconds)."""
    start = time.perf_counter()
    ops = corpus.build_corpus(workload, seed)
    for argv in corpus.warmup_argvs(ops):
        run_op(argv)
    return ops, time.perf_counter() - start


def timed_setup(workload, seed):
    """Set-up seconds, raw and scaled by the kernel timed on either side."""
    speed.warm()
    before = speed.median_kernel_ns(SETUP_KERNELS)
    _, seconds = setup(workload, seed)
    after = speed.median_kernel_ns(SETUP_KERNELS)
    kernel = (before * after) ** 0.5
    return {"raw_s": seconds,
            "setup_s": seconds * speed.scale(kernel)}


def child_setup(workload, seed):
    """Set-up timed in a fresh interpreter, so no cache is warm."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# reporting


def environment(workload, seed):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(), "workload": workload, "seed": seed}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_passes(workload, passes):
    """(attempted, failed, correct) over the passes; prints each failure."""
    attempted = sum(len(p.latencies_ns) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for k, p in enumerate(passes):
        for i, problems in p.failures[:5]:
            print(f"FAIL {workload} pass {k} op {i}: {'; '.join(problems)}")
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        print(f"FAIL {workload}: passes disagree on the output digest")
    print(f"digest {workload} sha256={passes[0].digest}")
    print(f"{workload} failed_frac = {failed / attempted:.6g} "
          f"({failed}/{attempted} ops)")
    return attempted, failed, failed == 0 and len(digests) == 1


def quantile(values, frac):
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(frac * 100) - 1]


def scaled_walls(passes):
    """Pass times in seconds at the reference host speed."""
    return [p.wall_ns / 1e9 * speed.scale(p.kernel_ns) for p in passes]


def end_to_end_metrics(passes, setups):
    """(scaled metrics, raw time metrics, latency sample count)."""
    lat_ms = []
    for p in passes:
        factor = speed.scale(p.kernel_ns)
        lat_ms += [ns / 1e6 * factor for ns in p.latencies_ns]
    raw_ms = [ns / 1e6 for p in passes for ns in p.latencies_ns]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(scaled_walls(passes)),
        "op_p50_ms": quantile(lat_ms, 0.5),
        "op_p90_ms": quantile(lat_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    raw = {
        "setup_s": statistics.median(s["raw_s"] for s in setups),
        "wall_s": statistics.median(p.wall_ns / 1e9 for p in passes),
        "op_p50_ms": quantile(raw_ms, 0.5),
        "op_p90_ms": quantile(raw_ms, 0.9),
    }
    return values, raw, len(lat_ms)


def mul_ns(p, nu, rng):
    """ns per multiplication through FieldElement, median of repeats."""
    spec = fields.make_field(p, nu)
    a = spec.from_packed(rng.randrange(1, spec.cardinality))
    g = spec.from_packed(rng.randrange(1, spec.cardinality))
    times = []
    for _ in range(MUL_REPEATS):
        x = a
        start = time.perf_counter_ns()
        for _ in range(MUL_LOOP):
            x = x * g
        times.append((time.perf_counter_ns() - start) / MUL_LOOP)
    return statistics.median(times)


def per_layer_metrics(ops, passes, spans, setup_spans, untraced_wall, seed):
    """Per-layer figures per traced pass, from spans and output ledgers."""
    by_name, per_op = summarize(spans)
    n_pass = len(passes)

    def total_s(name):
        return by_name.get(name, {}).get("ns", 0) / 1e9 / n_pass

    def rate(name):
        agg = by_name.get(name)
        return agg["work"] / (agg["ns"] / 1e9) if agg and agg["ns"] else 0.0

    def layer_self_s(layer):
        return sum(v["self_ns"] for k, v in by_name.items()
                   if k.startswith(layer + ".")) / 1e9 / n_pass

    setup_summary, _ = summarize(setup_spans)
    m = {"fields.make_field_s":
         setup_summary.get("fields.make_field", {}).get("ns", 0) / 1e9}
    rng = random.Random(f"mul:{seed}")
    for p, nu in mul_fields():
        m[f"fields.mul_ns.{field_tag(p, nu)}"] = mul_ns(p, nu, rng)
    m.update({
        "arith.factorize_s": total_s("arith.factorize"),
        "arith.order_s": total_s("arith.multiplicative_order"),
        "arith.bsgs_table_s": total_s("arith.BsgsTable.__init__"),
        "arith.bsgs_lookup_s": total_s("arith.BsgsTable.lookup"),
        "charsum.count_s": total_s("charsum.count_via_charsum"),
        "charsum.count_evals_per_s": rate("charsum.count_via_charsum"),
        "charsum.count_max_err": max(
            [f.get("err", 0.0) for p in passes for f in p.facts] or [0.0]),
        "charsum.brute_s": total_s("charsum.brute_count"),
        "charsum.brute_points_per_s": rate("charsum.brute_count"),
        "density.sweep_s": total_s("density.sweep_b"),
        "density.sweep_points_per_s": rate("density.sweep_b"),
        "density.census_s": total_s("density.exceptional_census"),
        "density.csv_s": total_s("density.write_per_b_csv"),
    })
    density_ops = [i for i, op in enumerate(ops) if op.kind == "density"]
    csv_ops = per_op.get("density.write_per_b_csv", {})
    unused = [i for i in density_ops if i in csv_ops
              and "csv" not in ops[i].argv]
    m["density.csv_unused_frac"] = (len(unused) / len(density_ops)
                                    if density_ops else 0.0)

    first = passes[0].facts
    solve_ops = [i for i, op in enumerate(ops) if op.kind == "solve"]
    ledgers = [first[i]["queries"] for i in solve_ops
               if "queries" in first[i]]
    group_mults = sum(q["group_mults"] for q in ledgers)
    outer = sum(q["outer_points_visited"] for q in ledgers)
    m["solver.self_s"] = layer_self_s("solver")
    m["solver.group_mults"] = group_mults
    for bucket in SOLVER_BUCKETS:
        m[f"solver.mults.{bucket}"] = sum(q["buckets"].get(bucket, 0)
                                          for q in ledgers)
    m["solver.outer_points"] = outer
    m["solver.dlog_hit_ratio"] = (sum(q["dlog_calls"] for q in ledgers)
                                  / outer if outer else 0.0)
    solve_ns = per_op.get("solver.solve_classical", {})
    for p, nu in solve_fields():
        idx = [i for i in solve_ops if ops[i].field == (p, nu)]
        mults = sum(first[i].get("queries", {}).get("group_mults", 0)
                    for i in idx)
        ns = sum(solve_ns.get(i, 0) for i in idx) / n_pass
        m[f"solver.ns_per_mult.{field_tag(p, nu)}"] = (ns / mults
                                                      if mults else 0.0)
    for status in corpus.SOLVER_STATUSES:
        m[f"solver.status.{status}"] = sum(
            1 for i in solve_ops if first[i].get("status") == status)
    m.update({
        "qmodel.self_s": layer_self_s("qmodel"),
        "qmodel.bbht_s": total_s("qmodel.bbht_expected_queries"),
        "qmodel.modeled_queries": sum(f.get("modeled_queries", 0)
                                      for f in first),
        "cli.self_s": by_name.get("cli.main", {}).get("self_ns", 0)
        / 1e9 / n_pass,
        "cli.out_bytes": sum(f["bytes"] for f in first),
    })
    traced_wall = statistics.median(scaled_walls(passes))
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return m


def emit_result(workload, correct, attempted, failed, values, units):
    for name, value in values.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))


# ---------------------------------------------------------------------------
# modes


def untraced_run(args):
    setups = [child_setup(args.workload, args.seed)
              for _ in range(SETUP_RUNS)]
    ops, _ = setup(args.workload, args.seed)
    speed.warm()
    passes = run_passes(ops, args.seconds)
    attempted, failed, correct = check_passes(args.workload, passes)
    values, raw, samples = end_to_end_metrics(passes, setups)
    print(f"{args.workload} passes={len(passes)} ops/pass={len(ops)} "
          f"latency samples={samples}")
    print(f"{args.workload} pass walls, raw s / kernel us: "
          + " ".join(f"{p.wall_ns / 1e9:.3f}/{p.kernel_ns / 1e3:.0f}"
                     for p in passes))
    print(f"{args.workload} set-ups, raw s / scaled s: "
          + " ".join(f"{s['raw_s']:.3f}/{s['setup_s']:.3f}" for s in setups))
    print(f"{args.workload} raw, unscaled: "
          + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    emit_result(args.workload, correct, attempted, failed, values,
                dict(END_TO_END))


def traced_run(args):
    tracer = Tracer()
    tracer.install()
    try:
        ops, _ = setup(args.workload, args.seed)
    finally:
        tracer.uninstall()
    setup_spans = list(tracer.spans)
    tracer.clear()
    speed.warm()
    half = args.seconds / 2
    untraced = run_passes(ops, half)
    untraced_wall = statistics.median(scaled_walls(untraced))
    tracer.install()
    try:
        traced = run_passes(ops, half, tracer)
    finally:
        tracer.uninstall()
    passes = untraced + traced
    attempted, failed, correct = check_passes(args.workload, passes)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    print(f"{args.workload} untraced passes={len(untraced)} traced "
          f"passes={len(traced)} spans={len(tracer.spans)} "
          f"-> {spans_path.relative_to(ROOT)}")
    values = per_layer_metrics(ops, traced, tracer.spans, setup_spans,
                               untraced_wall, args.seed)
    emit_result(args.workload, correct, attempted, failed, values,
                per_layer_units())


def run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    metrics = {}
    attempted = failed = 0
    correct = True
    for workload in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {workload} failed")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps(timed_setup(args.workload, args.seed)))
        return 0
    if args.workload == "all":
        run_all(args)
        return 0
    env = environment(args.workload, args.seed)
    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    if args.trace:
        traced_run(args)
    else:
        untraced_run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
