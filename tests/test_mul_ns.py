"""tools/mul_ns.py: the timed grid on this checkout, products and walks,
and the summary of paired rounds."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mul_ns.py"
spec = importlib.util.spec_from_file_location("mul_ns", TOOL)
mul_ns = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mul_ns)


def test_grid_is_the_fixed_one():
    assert [mul_ns.tag(p, nu) for p, nu in mul_ns.GRID] == [
        "p2-nu3", "p5-nu2", "p2-nu6", "p7-nu4", "p2-nu12", "p3-nu8",
        "p97-nu2", "p3-nu9", "p9973-nu1", "p65537-nu1"]


def test_measure_times_every_field():
    grid = [(2, 3), (97, 2), (3, 9), (101, 1), (40961, 1)]
    out = mul_ns.measure(grid, repeats=2, loop=5)
    tags = ["p2-nu3", "p97-nu2", "p3-nu9", "p101-nu1", "p40961-nu1"]
    # only the fields that read a log table (q <= 2^14) walk from one
    assert list(out) == tags + [
        "walk-table.p2-nu3", "walk-matrix.p2-nu3", "walk-table.p97-nu2",
        "walk-matrix.p97-nu2", "walk-matrix.p3-nu9", "walk-table.p101-nu1",
        "walk-matrix.p101-nu1", "walk-matrix.p40961-nu1"]
    for m in out.values():
        assert m["raw_ns"] > 0 and m["kernel_ns"] > 0 and m["ns"] > 0


def test_walk_timings_take_each_route(monkeypatch):
    # the table walks never build a multiplication matrix; the matrix
    # walks build one each (2 repeats of WALK_LOOP), and so does the
    # build of the log table, which walks by matrix
    from expzeros import fields

    held = []
    real = fields._mul_matrix

    def counted(g):
        held.append(g.spec._zech is not None)
        return real(g)

    monkeypatch.setattr(fields, "_mul_matrix", counted)
    mul_ns.measure([(3, 4)], repeats=2, loop=5)
    assert not any(held) and len(held) >= 2 * mul_ns.WALK_LOOP


def test_summary_of_paired_rounds():
    def run(ns):
        return {"p2-nu3": {"ns": ns, "raw_ns": ns, "kernel_ns": 1.0}}
    runs = {"parent": [run(9.0), run(10.0), run(11.0)],
            "change": [run(2.0), run(2.5), run(12.0)]}
    s = mul_ns.summarize(runs)["p2-nu3"]
    assert s["parent_ns"] == 10.0 and s["change_ns"] == 2.5
    assert s["speedup"] == 4.0
    assert s["change_wins"] == 2 and s["rounds"] == 3
    assert s["parent_q1"] <= 10.0 <= s["parent_q3"]
