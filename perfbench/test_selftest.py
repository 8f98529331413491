"""Planted-fault self-test of the benchmark's output checks.

    python -m pytest perfbench/test_selftest.py

Each test corrupts one field of a real CLI output (a count, a witness, a
status, ...) and shows that the matching check fires; the last one plants
faults through a whole pass and shows they reach `failed_frac`.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import corpus  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def ops():
    """A few ops of every kind, each run once through the CLI."""
    count = corpus.build_corpus("count", 1)
    sweep = corpus.build_corpus("sweep", 1)
    solve = corpus.build_corpus("solve", 1)
    found = next(op for op in solve
                 if op.kind == "solve" and op.expect["count"] > 0)
    empty = next(op for op in solve
                 if op.kind == "solve" and op.expect["count"] == 0)
    qmodel = next(op for op in solve
                  if op.kind == "qmodel" and op.expect["m_exact"])
    return {"count": count[0], "density": sweep[0], "found": found,
            "empty": empty, "qmodel": qmodel}


def outputs(op):
    rc, text = run.run_op(op.argv)
    assert rc == 0
    return json.loads(text)


def problems(op, doc):
    return corpus.evaluate(op, 0, json.dumps(doc)).problems


def test_clean_outputs_pass(ops):
    for op in ops.values():
        assert problems(op, outputs(op)) == []


def test_corrupted_count_fires(ops):
    doc = outputs(ops["count"])
    doc["brute"] += 1
    assert problems(ops["count"], doc)


def test_corrupted_counts_fire(ops):
    doc = outputs(ops["density"])
    doc["counts"][0] += 1
    assert problems(ops["density"], doc)


def test_corrupted_witness_fires(ops):
    op = ops["found"]
    doc = outputs(op)
    assert doc["status"] == "found"
    doc["x"][0] = (doc["x"][0] + 1) % op.expect["orders"][0]
    assert problems(op, doc)


def test_corrupted_status_fires(ops):
    found = outputs(ops["found"])
    found["status"] = "box_exhausted"
    assert problems(ops["found"], found)
    empty = outputs(ops["empty"])
    assert empty["status"] != "found"
    empty["status"] = "found"
    empty["x"] = [0] * len(ops["empty"].expect["orders"])
    assert problems(ops["empty"], empty)


def test_corrupted_m_exact_fires(ops):
    doc = outputs(ops["qmodel"])
    doc["m_exact"] += 1
    assert problems(ops["qmodel"], doc)


def test_planted_faults_reach_failed_frac(ops, monkeypatch):
    """Faults planted in the CLI output of a pass are counted as failed."""
    real_run_op = run.run_op
    faulty = {tuple(ops["count"].argv): ("brute", 1),
              tuple(ops["found"].argv): ("status", "no_solution_certified")}

    def planted(argv):
        rc, text = real_run_op(argv)
        if tuple(argv) in faulty:
            key, value = faulty[tuple(argv)]
            doc = json.loads(text)
            doc[key] = doc[key] + value if key == "brute" else value
            text = json.dumps(doc)
        return rc, text

    monkeypatch.setattr(run, "run_op", planted)
    batch = list(ops.values())
    clean = run.run_pass(batch)
    attempted, failed, correct = run.check_passes("selftest", [clean])
    assert (attempted, failed) == (len(batch), 2)
    assert failed / attempted > 0 and not correct


def test_same_seed_same_corpus_and_digest(ops):
    first = corpus.build_corpus("solve", 7)
    second = corpus.build_corpus("solve", 7)
    assert [(op.argv, op.expect) for op in first] == \
        [(op.argv, op.expect) for op in second]
    batch = list(ops.values())
    assert run.run_pass(batch).digest == run.run_pass(batch).digest
