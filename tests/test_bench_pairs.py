"""tools/bench_pairs.py: seed lists, pair summaries and the exit code,
with the perfbench runs stubbed out."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("8501-8503,8601") == [8501, 8502, 8503,
                                                         8601]
    assert bench_pairs.parse_seeds("7") == [7]


def fake_run(walls, digests=None, correct=True, passes=None):
    """A run_side stub: wall_s per (side, seed) from the walls dicts, and
    passes per (side, seed) from `passes`."""
    calls = []

    def run_side(checkout, workload, seed):
        side = checkout.name
        calls.append((side, seed))
        digest = (digests or {}).get((side, seed), f"d{seed}")
        return {"exit": 0, "correct": correct, "env": "env", "digest": digest,
                "attempted": 10, "failed": 0,
                "passes": (passes or {}).get((side, seed)),
                "raw": {"wall_s": walls[side][seed] * 1.1},
                "metrics": {"wall_s": walls[side][seed],
                            "peak_rss_mb": 50.0}}
    return run_side, calls


METRICS_JSON = {
    "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
}
METRICS = {name: {"better": m["better"], "bound": m["bound"]}
           for name, m in METRICS_JSON.items()}


@pytest.fixture
def checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [METRICS_JSON["wall_s"],
                            METRICS_JSON["peak_rss_mb"]]}))
    return tmp_path


def run_tool(checkouts, monkeypatch, run_side, seeds="1-4",
             names=("--tag", "t", "--out", "BENCH_t.json")):
    """main() on stubbed runs, in the checkouts' directory; the summary
    written to BENCH_t.json."""
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    monkeypatch.chdir(checkouts)
    rc = bench_pairs.main(["--parent", str(checkouts / "parent"),
                           "--change", str(checkouts / "change"),
                           "--workload", "sweep", "--seeds", seeds,
                           *names])
    return rc, json.loads((checkouts / "BENCH_t.json").read_text())


def test_output_named_by_tag_or_out(checkouts, monkeypatch, capsys):
    walls = {side: {1: 0.2} for side in ("parent", "change")}
    run_side, calls = fake_run(walls)
    # --tag alone writes BENCH_<tag>.json, --out alone needs no tag
    assert run_tool(checkouts, monkeypatch, run_side, "1",
                    ["--tag", "t"])[0] == 0
    (checkouts / "BENCH_t.json").unlink()
    assert run_tool(checkouts, monkeypatch, run_side, "1",
                    ["--out", str(checkouts / "BENCH_t.json")])[0] == 0
    assert len(calls) == 4
    # neither is a usage error before any run
    with pytest.raises(SystemExit) as exc:
        run_tool(checkouts, monkeypatch, run_side, "1", [])
    assert exc.value.code == 2 and len(calls) == 4
    assert "one of --tag or --out is required" in capsys.readouterr().err


def test_pairs_alternate_and_summarize(checkouts, monkeypatch):
    walls = {"parent": {1: 0.20, 2: 0.22, 3: 0.21, 4: 0.19},
             "change": {1: 0.13, 2: 0.14, 3: 0.23, 4: 0.12}}
    run_side, calls = fake_run(walls)
    rc, doc = run_tool(checkouts, monkeypatch, run_side)
    assert rc == 0 and doc["problems"] == []
    assert calls == [("parent", 1), ("change", 1), ("change", 2),
                     ("parent", 2), ("parent", 3), ("change", 3),
                     ("change", 4), ("parent", 4)]
    wall = doc["summary"]["wall_s"]
    assert wall["change_wins"] == 3 and wall["pairs"] == 4
    assert wall["parent_median"] == pytest.approx(0.205)
    assert wall["change_median"] == pytest.approx(0.135)
    assert wall["parent_iqr"] == pytest.approx(
        wall["parent_q3"] - wall["parent_q1"])
    assert wall["gain_exceeds_parent_iqr"]
    assert doc["summary"]["peak_rss_mb"]["change_wins"] == 0
    assert [pair["seed"] for pair in doc["pairs"]] == [1, 2, 3, 4]


def test_digest_mismatch_or_incorrect_run_exits_1(checkouts, monkeypatch):
    walls = {side: {1: 0.2, 2: 0.2} for side in ("parent", "change")}
    run_side, _ = fake_run(walls, digests={("change", 2): "other"})
    rc, doc = run_tool(checkouts, monkeypatch, run_side, "1-2")
    assert rc == 1 and doc["problems"] == ["seed 2: digests differ"]
    run_side, _ = fake_run(walls, correct=False)
    rc, doc = run_tool(checkouts, monkeypatch, run_side, "1")
    assert rc == 1 and len(doc["problems"]) == 2


PERFBENCH_STDOUT = """env cpu="Xeon" python="3.11.7"
digest count sha256=abc123
count failed_frac = 0 (0/1160)
count passes=10 ops/pass=116 latency samples=1160
count pass walls, raw s / kernel us: 0.150/812 0.149/810
count set-ups, raw s / scaled s: 0.300/0.250 0.310/0.252
count raw, unscaled: wall_s=0.151 op_p50_ms=1.2 op_p90_ms=2.5
{"correct": true, "attempted": 1160, "failed": 0, "metrics": {"wall_s": \
{"value": 0.13, "unit": "s"}}}
"""


def test_run_side_keeps_passes_and_raw_times(monkeypatch, tmp_path):
    def fake_subprocess_run(argv, cwd, **kwargs):
        assert argv[1:] == ["perfbench/run.py", "--workload", "count",
                            "--seed", "7", "--trace", "0"]
        return bench_pairs.subprocess.CompletedProcess(
            argv, 0, PERFBENCH_STDOUT, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    run = bench_pairs.run_side(tmp_path, "count", 7)
    assert run["correct"] and run["digest"] == "abc123"
    assert run["passes"] == 10
    assert run["raw"] == {"wall_s": 0.151, "op_p50_ms": 1.2,
                          "op_p90_ms": 2.5}
    assert run["metrics"] == {"wall_s": 0.13}
    assert run["env"].startswith("env ")


def test_summary_gives_each_sides_median_passes(checkouts, monkeypatch):
    walls = {side: {1: 0.2, 2: 0.2, 3: 0.2} for side in ("parent", "change")}
    passes = {("parent", 1): 200, ("parent", 2): 240, ("parent", 3): 210,
              ("change", 1): 280, ("change", 2): 260, ("change", 3): 300}
    run_side, _ = fake_run(walls, passes=passes)
    rc, doc = run_tool(checkouts, monkeypatch, run_side, "1-3")
    assert rc == 0
    assert doc["passes_median"] == {"parent": 210, "change": 280}
    assert doc["pairs"][0]["change"]["raw"] == {"wall_s": 0.2 * 1.1}
    # runs that print no passes line leave the median undefined
    run_side, _ = fake_run(walls)
    rc, doc = run_tool(checkouts, monkeypatch, run_side, "1-3")
    assert doc["passes_median"] == {"parent": None, "change": None}


def test_run_side_keeps_each_pass_wall_and_kernel_reading(monkeypatch,
                                                          tmp_path):
    def serve(stdout):
        monkeypatch.setattr(
            bench_pairs.subprocess, "run",
            lambda argv, cwd, **kwargs: bench_pairs.subprocess
            .CompletedProcess(argv, 0, stdout, ""))

    # a slow spell shows per pass: the third wall and kernel reading rise
    # together, which the scaled metrics hide
    stdout = PERFBENCH_STDOUT.replace(
        "0.150/812 0.149/810", "0.150/812 0.149/810 0.201/1093")
    serve(stdout)
    run = bench_pairs.run_side(tmp_path, "count", 7)
    assert run["pass_walls"] == [[0.150, 812.0], [0.149, 810.0],
                                 [0.201, 1093.0]]
    # a run that prints no such line keeps no readings
    serve(stdout.replace("pass walls", "pass times"))
    assert bench_pairs.run_side(tmp_path, "count", 7)["pass_walls"] == []
    # BENCH files keep each run's readings on one line
    doc = {"pass_walls": run["pass_walls"], "raw": {"wall_s": 0.151}}
    text = bench_pairs.json_text(doc)
    assert json.loads(text) == doc
    assert ('"pass_walls": [[0.15, 812.0], [0.149, 810.0], [0.201, 1093.0]],'
            in text)


def synthetic_pairs(parent, change, name="wall_s"):
    return [{"parent": {"metrics": {name: p}},
             "change": {"metrics": {name: c}}}
            for p, c in zip(parent, change)]


def test_verdict_on_a_clean_win():
    parent = [1.70, 1.72, 1.68, 1.71, 1.69, 1.73, 1.70, 1.74, 1.67, 1.71]
    change = [1.10, 1.12, 1.09, 1.11, 1.13, 1.10, 1.08, 1.12, 1.11, 1.75]
    s = bench_pairs.summarize(synthetic_pairs(parent, change),
                              METRICS)["wall_s"]
    assert s["change_wins"] == 9 and s["bound"] == 0.25
    assert s["claim_met"] and not s["worse_than_bound"]
    assert not s["unresolved"]
    # 8 wins of 10 do not make a claim, however large the gain
    change[0] = 1.80
    s = bench_pairs.summarize(synthetic_pairs(parent, change),
                              METRICS)["wall_s"]
    assert s["change_wins"] == 8 and not s["claim_met"]


def test_verdict_on_a_regression():
    parent = [0.10, 0.11, 0.10, 0.10, 0.11]
    change = [0.14, 0.15, 0.14, 0.13, 0.14]
    s = bench_pairs.summarize(synthetic_pairs(parent, change),
                              METRICS)["wall_s"]
    assert s["worse_than_bound"] and not s["claim_met"]
    assert not s["unresolved"] and s["change_wins"] == 0
    # +20 % is within the 25 % bound
    s = bench_pairs.summarize(synthetic_pairs(parent, [0.12] * 5),
                              METRICS)["wall_s"]
    assert not s["worse_than_bound"]


def test_verdict_on_a_bimodal_rss_spread():
    # the heap-trim lottery: runs fall near 55 MB or near 63 MB, so the
    # change's IQR (8 MB) exceeds 10 % of the parent median (6.2 MB)
    parent = [61.1, 62.0, 63.2, 61.8, 62.6, 61.5, 63.9, 62.2, 61.9, 62.4]
    change = [55.2, 63.1, 56.0, 64.2, 55.8, 63.8, 55.4, 64.5, 62.9, 56.4]
    s = bench_pairs.summarize(
        synthetic_pairs(parent, change, "peak_rss_mb"),
        METRICS)["peak_rss_mb"]
    assert s["change_iqr"] > 0.1 * s["parent_median"]
    assert s["unresolved"]
    assert not s["claim_met"] and not s["worse_than_bound"]
    # a spread as wide, with every change run below every parent run,
    # is resolved
    s = bench_pairs.summarize(
        synthetic_pairs(parent, [v - 10 for v in change], "peak_rss_mb"),
        METRICS)["peak_rss_mb"]
    assert not s["unresolved"]
