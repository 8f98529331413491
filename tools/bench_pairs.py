#!/usr/bin/env python3
"""Paired before/after benchmark runs, written to BENCH_<tag>.json or --out.

    python3 tools/bench_pairs.py --parent ../before --change . \\
        --workload sweep --seeds 8501-8510 --tag sweep

Runs `perfbench/run.py --trace 0` in two checkouts of the repository, one
seed at a time, for the run length perfbench itself fixes.  Even-numbered
pairs run the parent first and odd ones the change first, so a drift of
the host's speed during the session falls on both sides alike.  The JSON
file holds, per seed, both sides' end-to-end metrics, `correct` flag,
output digest, number of passes, raw (unscaled) times and each pass's
[raw wall s, scaling-kernel us] reading; per metric, both medians, how
many pairs the change won, the quartiles of both sides' runs and three
verdicts read against the metric's bound in BENCHMARK.json (see
`summarize`); and each side's median passes.  perfbench keeps every
pass's facts, so an RSS move is read against the passes.  A slow spell of the host shows
in the raw times, and in the per-pass readings as kernel times that
rise with the walls.  Each run's `env` line (CPU, Python, numpy, commit)
is kept with it.

Exits 1 when a run is not `correct`, exits non-zero, or when the two sides
print different digests for the same seed (the change altered an output).
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """"8501-8505,8601" -> [8501, ..., 8505, 8601]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run in `checkout`: its result line and digest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.splitlines()

    def after(prefix):
        return next((line[len(prefix):] for line in lines
                     if line.startswith(prefix)), None)

    digest = after(f"digest {workload} sha256=")
    env = next((line for line in lines if line.startswith("env ")), None)
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "correct": False, "digest": digest,
                "env": env, "stderr": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    passes = after(f"{workload} passes=")
    raw = after(f"{workload} raw, unscaled: ") or ""
    walls = after(f"{workload} pass walls, raw s / kernel us: ") or ""
    return {"exit": 0, "correct": result["correct"], "env": env,
            "attempted": result["attempted"], "failed": result["failed"],
            "digest": digest,
            "passes": int(passes.split()[0]) if passes else None,
            "raw": {name: float(value) for name, _, value
                    in (item.partition("=") for item in raw.split())},
            "pass_walls": [[float(x) for x in item.split("/")]
                           for item in walls.split()],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def json_text(doc: dict) -> str:
    """json.dumps(doc, indent=2), with each list of number lists (a run's
    pass_walls) on one line instead of four lines a pass."""
    return re.sub(r"\[(?:\s*\[[-+.\deE,\s]*\],?)+\s*\]",
                  lambda m: json.dumps(json.loads(m.group())),
                  json.dumps(doc, indent=2))


def median_passes(pairs: list[dict]) -> dict:
    """Each side's median number of passes, where the runs report it: an
    RSS move is read against it, since a faster side runs more passes."""
    out = {}
    for side in SIDES:
        counts = [pair[side]["passes"] for pair in pairs
                  if pair[side].get("passes") is not None]
        out[side] = statistics.median(counts) if counts else None
    return out


def end_to_end(checkout: Path) -> dict:
    """Metric name -> {"better": "lower" or "higher", "bound": relative
    bound}, from BENCHMARK.json."""
    doc = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: {"better": m["better"], "bound": m["bound"]}
            for m in doc["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return q1, q3


def summarize(pairs: list[dict], metrics: dict) -> dict:
    """Per metric: medians, wins, quartiles and three verdicts.

    claim_met: the change won at least 9 of 10 pairs and its median gain
    exceeds the parent's IQR.  worse_than_bound: the change's median is
    worse than the parent's by more than bound x the parent median.
    unresolved: either side's IQR is wider than bound x the parent
    median (a bimodal metric), unless every change run beats every
    parent run; neither a pass nor a fail can then be read."""
    out = {}
    names = [name for name in pairs[0]["parent"].get("metrics", {})
             if all("metrics" in pair[side]
                    for pair in pairs for side in SIDES)]
    for name in names:
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        better, bound = metrics[name]["better"], metrics[name]["bound"]
        sign = -1 if better == "lower" else 1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        q1, q3 = quartiles(parent)
        c1, c3 = quartiles(change)
        med_p, med_c = statistics.median(parent), statistics.median(change)
        gain = sign * (med_c - med_p)
        width = bound * abs(med_p)
        separated = all(sign * (c - p) > 0 for c in change for p in parent)
        out[name] = {
            "better": better, "bound": bound,
            "parent_median": med_p, "change_median": med_c,
            "change_wins": wins, "pairs": len(pairs),
            "parent_q1": q1, "parent_q3": q3, "parent_iqr": q3 - q1,
            "change_q1": c1, "change_q3": c3, "change_iqr": c3 - c1,
            "gain_exceeds_parent_iqr": gain > q3 - q1,
            "claim_met": 10 * wins >= 9 * len(pairs) and gain > q3 - q1,
            "worse_than_bound": -gain > width,
            "unresolved": max(q3 - q1, c3 - c1) > width and not separated,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        help='e.g. "8501-8510" or "1,2,5-7"')
    parser.add_argument("--tag",
                        help="writes BENCH_<tag>.json unless --out is set")
    parser.add_argument("--out", type=Path,
                        help="output file (default BENCH_<tag>.json)")
    args = parser.parse_args(argv)
    if args.out is None and args.tag is None:
        parser.error("one of --tag or --out is required")
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    pairs, problems = [], []
    for k, seed in enumerate(parse_seeds(args.seeds)):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(checkouts[side], args.workload, seed)
            if not pair[side]["correct"]:
                problems.append(f"seed {seed}: {side} run not correct")
        if pair["parent"]["digest"] != pair["change"]["digest"]:
            problems.append(f"seed {seed}: digests differ")
        wall = {side: pair[side].get("metrics", {}).get("wall_s")
                for side in SIDES}
        print(f"seed {seed} ({pair['first']} first): wall_s parent "
              f"{wall['parent']} change {wall['change']}", flush=True)
        pairs.append(pair)
    summary = summarize(pairs, end_to_end(checkouts["change"]))
    passes = median_passes(pairs)
    doc = {"workload": args.workload, "pairs": pairs, "summary": summary,
           "passes_median": passes, "problems": problems}
    out = args.out or Path(f"BENCH_{args.tag}.json")
    out.write_text(json_text(doc) + "\n")
    for name, s in summary.items():
        flags = [flag for flag in ("claim_met", "worse_than_bound",
                                   "unresolved") if s[flag]]
        print(f"{name}: {s['parent_median']:.6g} -> {s['change_median']:.6g} "
              f"wins {s['change_wins']}/{s['pairs']} IQR parent "
              f"{s['parent_iqr']:.3g} change {s['change_iqr']:.3g}"
              f"{''.join(' ' + flag for flag in flags)}")
    print(f"passes: {passes['parent']} -> {passes['change']} (medians)")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
