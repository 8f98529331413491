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


def fake_run(walls, digests=None, correct=True):
    """A run_side stub: wall_s per (side, seed) from the walls dicts."""
    calls = []

    def run_side(checkout, workload, seed):
        side = checkout.name
        calls.append((side, seed))
        digest = (digests or {}).get((side, seed), f"d{seed}")
        return {"exit": 0, "correct": correct, "env": "env", "digest": digest,
                "attempted": 10, "failed": 0,
                "metrics": {"wall_s": walls[side][seed],
                            "peak_rss_mb": 50.0}}
    return run_side, calls


@pytest.fixture
def checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "wall_s", "better": "lower"},
                            {"name": "peak_rss_mb", "better": "lower"}]}))
    return tmp_path


def run_tool(checkouts, monkeypatch, run_side, seeds="1-4"):
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = checkouts / "BENCH_t.json"
    rc = bench_pairs.main(["--parent", str(checkouts / "parent"),
                           "--change", str(checkouts / "change"),
                           "--workload", "sweep", "--seeds", seeds,
                           "--tag", "t", "--out", str(out)])
    return rc, json.loads(out.read_text())


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
