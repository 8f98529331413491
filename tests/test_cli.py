"""End-to-end checks of the command-line front end.

Every test drives cli.main(argv) in process and captures stdout/stderr,
so the whole file stays fast.  Numeric expectations reuse instances that
the module tests already pin down (the F_7 two-term equation, the F_11
certificate case, the q=101 model example).
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expzeros import arith, charsum, cli, fields
from expzeros import density as density_mod
from expzeros.charsum import make_equation
from expzeros.cli import ConfigError, main, parse_config_file, parse_terms
from expzeros.errors import MemoryCap
from expzeros.fields import make_field
from expzeros.reduction import reduce_equation
from expzeros.solver import solve_classical
from test_density import report_from_dict


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


F7_ARGS = ["--p", "7", "--terms", "1,3;1,2", "--b", "3"]


# ---------------------------------------------------------------- helpers


def test_parse_terms():
    assert parse_terms("1,3;1,2") == [(1, 3), (1, 2)]
    assert parse_terms(" 2 , 5 ") == [(2, 5)]
    for bad in ("", "1;2", "1,2,3", "x,3"):
        try:
            parse_terms(bad)
        except (ConfigError, ValueError):
            continue
        raise AssertionError(f"parse_terms({bad!r}) should fail")


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# a comment line\n"
        "p = 7\n"
        "\n"
        "terms = 1,3;1,2   # trailing comment\n"
        "b=3\n")
    cfg = parse_config_file(str(path))
    assert cfg == {"p": "7", "terms": "1,3;1,2", "b": "3"}


def test_parse_config_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("p = 7\nwhat is this\n")
    try:
        parse_config_file(str(path))
    except ConfigError as exc:
        msg = str(exc)
        assert f"{path}:2" in msg and "key=value" in msg
    else:
        raise AssertionError("missing '=' must be rejected")


# ------------------------------------------------------------- count/orders


def test_count_text_output():
    rc, out, err = run(["count", *F7_ARGS])
    assert rc == 0 and err == ""
    assert "brute count:        3" in out
    assert "character-sum count: 3.000000" in out
    assert "solutions (original term order): [(0, 1), (2, 0), (3, 2)]" in out
    assert "box: sorted orders [6, 3] r=3 card=18" in out


def test_count_truncated_radius():
    rc, out, _ = run(["count", *F7_ARGS, "--r", "1"])
    assert rc == 0
    assert "brute count:        1" in out
    assert "[(2, 0)]" in out


def test_count_json_document():
    rc, out, _ = run(["count", *F7_ARGS, "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["kind"] == "count"
    assert doc["brute"] == 3
    assert abs(doc["charsum"] - 3.0) < 1e-9
    assert doc["box"]["card"] == 18
    assert [0, 1] in doc["solutions"] and [3, 2] in doc["solutions"]


def test_orders_command():
    rc, out, _ = run(["orders", *F7_ARGS])
    assert rc == 0
    # one row per term, with the multiplicative order in the last column
    rows = [line.split() for line in out.splitlines() if line[:3].strip().isdigit()]
    assert [r[-1] for r in rows] == ["6", "3"]
    rc, out, _ = run(["orders", *F7_ARGS, "--format", "json"])
    doc = json.loads(out)
    assert doc["kind"] == "orders"
    assert doc["q_minus_1_factorization"] == [[2, 1], [3, 1]]


# ------------------------------------------------------------------ density


def test_density_per_b_csv():
    rc, out, _ = run(["density", *F7_ARGS, "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b_index,N,main_num,main_den,delta,exceptional_flag"
    assert len(lines) == 1 + 7
    first = lines[1].split(",")
    assert first[:4] == ["0", "3", "18", "7"]
    # default delta = sqrt(ln 7) leaves no exceptional b here
    assert all(line.split(",")[-1] == "0" for line in lines[1:])


def test_density_text_and_json():
    rc, out, _ = run(["density", *F7_ARGS, "--delta", "1"])
    assert rc == 0
    assert "main term: 18/7" in out
    assert "energy E(r): 12/7" in out
    assert "holds=True" in out
    assert "0 exceptional b" in out
    rc, out, _ = run(["density", *F7_ARGS, "--format", "json"])
    doc = json.loads(out)
    report = report_from_dict(doc)
    assert list(report.counts) == [3, 2, 2, 3, 2, 3, 3]
    assert doc["census"]["exceptional"] == []
    assert doc["census"]["size_ok"] is True


def test_density_builds_csv_only_for_csv_output(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-b CSV rendered for a non-CSV format")

    monkeypatch.setattr(density_mod, "write_per_b_csv", refuse)
    for fmt in ("json", "text"):
        rc, out, _ = run(["density", *F7_ARGS, "--format", fmt])
        assert rc == 0 and out


def test_invariant_violation_exits_3(monkeypatch):
    from expzeros import errors

    def broken(*args, **kwargs):
        raise errors.InvariantViolated("planted")

    monkeypatch.setattr(density_mod, "spectral_counts", broken)
    rc, out, err = run(["density", *F7_ARGS, "--format", "json"])
    assert rc == 3 and out == ""
    assert "internal error: planted" in err


# -------------------------------------------------------------------- solve


def test_solve_text_and_json():
    rc, out, _ = run(["solve", *F7_ARGS])
    assert rc == 0
    assert "status: found" in out
    assert "solution (original term order): [2, 0]" in out
    rc, out, _ = run(["solve", *F7_ARGS, "--format", "json"])
    doc = json.loads(out)
    assert doc["kind"] == "solution_report" and doc["status"] == "found"
    assert doc["x"] == [2, 0]
    buckets = doc["queries"]["buckets"]
    assert buckets["setup"] == 3 and buckets["bsgs_table"] == 6
    assert buckets["membership"] == 4 and buckets["subroutine"] == 1


def test_solve_certificate_status():
    rc, out, _ = run(["solve", "--p", "11", "--terms", "1,3;1,10",
                      "--b", "1", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "no_solution_certified"
    assert doc["x"] is None
    # r_raw exceeds the smallest order (2), so the box is clamped and the
    # full multiplicative relation certifies emptiness
    assert doc["r_raw"] == 12 and doc["box"]["r"] == 2


# ------------------------------------------------------------------- qmodel


def test_qmodel_thm2_json():
    rc, out, _ = run(["qmodel", *F7_ARGS, "--mode", "thm2",
                      "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["mode"] == "thm2"
    assert doc["t"] == 3 and doc["m_exact"] == 3
    assert doc["modeled_queries"] == 2 and doc["within_bound"]
    assert doc["b_exceptional"] is False


def test_qmodel_thm3_success():
    rc, out, _ = run(["qmodel", "--p", "101", "--terms", "1,2;1,5",
                      "--b", "7", "--mode", "thm3", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["hypothesis_ok"] is True
    assert doc["m_exact"] == 4 and doc["t"] == 4
    assert abs(doc["m_estimate"] - 400 / 101) < 1e-12
    assert doc["within_bound"] and not doc["b_exceptional"]


def test_qmodel_thm3_hypothesis_failure_exits_2():
    rc, out, err = run(["qmodel", "--p", "7", "--terms", "1,6;2,6",
                        "--b", "0", "--mode", "thm3"])
    assert rc == 2 and out == ""
    assert "hypothesis" in err


def test_qmodel_thm3_huge_field_exits_1_like_solve():
    # (prod s)^2 s_n overflows a float here; the hypothesis holds, and the
    # box then fails make_box's size check, as it does for solve
    args = ["--p", "2305843009213693951", "--n", "16", "--seed", "0"]
    for argv in (["qmodel", *args, "--mode", "thm3"], ["solve", *args]):
        rc, out, err = run(argv)
        assert rc == 1 and out == ""
        assert err.startswith("error: box cardinality")
        assert "Traceback" not in err


# ---------------------------------------------------------------- exponents


def test_exponents_text():
    rc, out, _ = run(["exponents", "--n-max", "4"])
    assert rc == 0
    assert "n=3: stated 6/5 vs derived 3/2" in out
    assert "n=4: stated 10/7 vs derived 2" in out


def test_exponents_csv():
    rc, out, _ = run(["exponents", "--n-max", "3", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,classical,classical_stated,quantum,ratio"
    assert lines[1] == "2,1,1,1/3,3"
    assert lines[2] == "3,3/2,6/5,3/5,5/2"


# ------------------------------------------------------------------- reduce


def test_reduce_json():
    rc, out, _ = run(["reduce", "--p", "7", "--terms", "1,3;1,5;1,2",
                      "--b", "0", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["mu"] == 2 and doc["d_bound"] == 4
    orders = [g["order"] for g in doc["groups"]]
    assert orders == [6, 3]
    assert doc["groups"][0]["members"] == [0, 1]


# ------------------------------------------------------ config file handling


def test_config_file_and_flag_override(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p = 7\nterms = 1,3;1,2\nb = 3\nformat = json\n")
    rc, out, _ = run(["count", "--config", str(path)])
    assert rc == 0 and json.loads(out)["brute"] == 3
    # flags win over file values
    rc, out, _ = run(["count", "--config", str(path), "--b", "5"])
    doc = json.loads(out)
    assert doc["eq"]["b"] == 5 and doc["brute"] == 3


def test_config_unknown_key_exits_1(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("p = 7\nbogus = 1\n")
    rc, out, err = run(["count", "--config", str(path)])
    assert rc == 1 and out == ""
    assert f"{path}:2" in err and "bogus" in err


def test_config_enum_cap_is_an_unknown_key(tmp_path):
    # qmodel never read it; like card_cap before it, naming it is an error
    path = tmp_path / "old.cfg"
    path.write_text("p = 7\nterms = 1,3;1,2\nb = 3\nenum_cap = 100\n")
    rc, out, err = run(["qmodel", "--config", str(path)])
    assert rc == 1 and out == ""
    assert f"{path}:4: unknown key 'enum_cap'" in err


def test_config_workers_is_an_unknown_key(tmp_path):
    # bench runs its cells in one process; the pool size is gone
    path = tmp_path / "old.cfg"
    path.write_text("qs = 11\nns = 2\nworkers = 2\n")
    rc, out, err = run(["bench", "--config", str(path)])
    assert rc == 1 and out == ""
    assert f"{path}:3: unknown key 'workers'" in err


# ------------------------------------------------------------- json writer


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(1 << 64, 1 << 200), st.integers(-(1 << 200), -(1 << 64)),
    st.floats(), st.sampled_from([float("nan"), float("inf"),
                                  float("-inf"), -0.0, 5e-324, 1e-310]),
    st.text())
INT_OR_BOOL = st.one_of(st.booleans(), st.integers())
# tables of int rows, as count's solutions are, and their near misses:
# ragged or empty rows, tuples among lists, bools among ints
INT_ROWS = st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(st.integers(), min_size=k, max_size=k)
    | st.tuples(*[st.integers()] * k)
    | st.lists(INT_OR_BOOL, min_size=k, max_size=k),
    min_size=1, max_size=6))
JSON_DOCS = st.recursive(
    JSON_SCALARS | st.lists(st.integers()) | st.lists(st.booleans())
    | st.lists(INT_OR_BOOL) | INT_ROWS
    | st.lists(st.lists(st.integers(), max_size=3), max_size=4)
    | st.lists(st.lists(INT_OR_BOOL, max_size=3).map(tuple), max_size=4),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=25)


@settings(max_examples=150, deadline=None)
@given(JSON_DOCS)
@example({})
@example({"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": {"f": []}}})
@example({"flags": [True, False], "mixed": [1, True, 0, False], "t": (1, 2)})
@example([[-1, 2 ** 64 + 1, -2 ** 70], {"ü": "∞", "\x00": "\ud800"}])
@example({"solutions": [[3, 0, 12], (4, 1, -2), [5, 2, 2 ** 70]]})
@example({"rows": [[1, 2], [3]], "empty": [[], []], "bools": [[1, True]]})
def test_json_writer_matches_stdlib_indent_2(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


INT64_MAX = (1 << 63) - 1


@st.composite
def int_arrays(draw):
    """1-D arrays around and far past ARRAY_TEXT_MIN: non-negative int64
    (the array writer's input), all-zero ones, and near misses that must
    take the list path (a negative entry, other dtypes)."""
    n = draw(st.sampled_from([1, 255, 256, 257]) | st.integers(1, 70_000))
    top = draw(st.sampled_from([0, 1, 9, 10, 99, 10 ** 9 - 1, 10 ** 9,
                                1 << 32, INT64_MAX]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arr = rng.integers(0, top, n, dtype=np.int64, endpoint=True)
    arr[rng.integers(0, n)] = top
    kind = draw(st.sampled_from(["int64", "negative", "int32", "uint64",
                                 "float64"]))
    if kind == "negative":
        arr[rng.integers(0, n)] = -draw(st.integers(1, INT64_MAX))
    elif kind != "int64":
        arr = (arr % (1 << 31)).astype(kind)
    return arr


@settings(max_examples=60, deadline=None)
@given(int_arrays(), st.sampled_from(["", "  ", "    ", "      "]))
def test_json_writer_formats_int_arrays_like_their_lists(arr, indent):
    want = json.dumps(arr.tolist(), indent=2).replace("\n", "\n" + indent)
    assert cli._json_text(arr, indent) == want


def test_json_writer_array_digit_places():
    # every power of ten and its predecessor, in both digit dtypes;
    # the second array is ten digits wide, its top entry past 2^32
    edges = [0] + [v for k in range(1, 19) for v in (10 ** k - 1, 10 ** k)]
    for arr in (np.array(edges + [INT64_MAX] * 300, dtype=np.int64),
                np.array(edges[:20] * 20, dtype=np.int64),
                np.zeros(cli.ARRAY_TEXT_MIN, dtype=np.int64),
                np.zeros((0,), dtype=np.int64),
                np.arange(600, dtype=np.int64).reshape(2, 300)):
        assert cli._json_text({"counts": arr}) == json.dumps(
            {"counts": arr.tolist()}, indent=2)


def test_json_writer_rejects_non_str_keys():
    with pytest.raises(TypeError):
        cli._json_text({"ok": {1: 2}})


# ----------------------------------------------------------- error handling


def test_missing_inputs_exit_1():
    rc, _, err = run(["count", "--terms", "1,3;1,2", "--b", "3"])
    assert rc == 1 and "missing p" in err
    rc, _, err = run(["count", "--p", "7", "--terms", "1,3;1,2"])
    assert rc == 1 and "missing b" in err
    rc, _, err = run(["count", "--p", "4", "--terms", "1,3;1,2", "--b", "3"])
    assert rc == 1 and "not prime" in err


@pytest.mark.parametrize("argv, names", [
    (["density", "--delta", "inf"], "finite delta"),
    (["density", "--delta", "1e400"], "finite delta"),
    (["density", "--delta", "nan"], "finite delta"),
    (["qmodel", "--slack-exponent", "10000"], "slack"),
    (["qmodel", "--slack-exponent", "10000", "--mode", "thm3"], "slack"),
    (["reduce", "--samples", "-1"], "need samples >= 1"),
    # (ln 7)^1066 is a float, but the bound it multiplies is not
    (["qmodel", "--terms", "1,3;1,2", "--slack-exponent", "1066"], "slack"),
    (["qmodel", "--terms", "1,3;1,2", "--slack-exponent", "1066", "--mode",
      "thm3"], "slack"),
    (["reduce", "--samples", "0"], "need samples >= 1"),
])
def test_bad_parameter_exits_1_with_one_error_line(argv, names):
    rc, out, err = run([argv[0], "--p", "7", "--terms", "1,3", "--b", "1",
                        *argv[1:]])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err and "Traceback" not in err


def test_cardinality_cap_exits_2():
    rc, _, err = run(["count", "--p", "1009",
                      "--terms", "1,11;1,11;1,11", "--b", "0"])
    assert rc == 2 and "cap" in err


@pytest.mark.parametrize("command", ["solve", "reduce"])
def test_baby_step_table_past_the_cap_exits_2(command):
    # p = 2^40 + 15: 3 and 3^7 = 2187 both generate F_p^x, of order
    # p - 1 in (BSGS_TABLE_CAP^2, 2^48], so x_1 of a hit, or the relation
    # between the two, needs a table of 2^20 + 1 baby steps, past the cap
    p = 1099511627791
    assert arith.BSGS_TABLE_CAP ** 2 < p - 1 <= 1 << 48
    argv = [command, "--p", str(p), "--terms", "1,3;1,2187", "--b", "5"]
    eq = make_equation(make_field(p), parse_terms("1,3;1,2187"), 5)
    assert eq.orders == (p - 1, p - 1)
    with pytest.raises(MemoryCap, match="baby table of 1048577 entries"):
        (solve_classical if command == "solve" else reduce_equation)(eq)
    rc, out, err = run(argv)
    assert rc == 2 and out == ""
    assert err == "error: baby table of 1048577 entries exceeds cap\n"


def test_count_refuses_a_large_box_before_walking_it(monkeypatch):
    # r defaults to the order 2^31 - 2 of 7 mod 2^31 - 1, whose walk is a
    # 17 GB array: the box cap must refuse it first.  A walk past the cap
    # fails here instead of being allocated.
    real_walk = charsum._power_walk

    def capped_walk(a, g, limit):
        assert limit <= fields.DEFAULT_ENUM_CAP, f"walk of {limit} rows"
        return real_walk(a, g, limit)

    monkeypatch.setattr(charsum, "_power_walk", capped_walk)
    tracemalloc.start()
    try:
        rc, out, err = run(["count", "--p", "2147483647",
                            "--terms", "1,7", "--b", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == ""
    assert "box cardinality 2147483646 exceeds cap 1048576" in err
    assert peak < 1 << 24


def test_exact_fallback_work_cap_exits_2(monkeypatch):
    # orders 32768 (9 = 3^2, half of q - 1): 32768^3 points are past the
    # float certificate, and the exact fallback would need 2 * 32768 *
    # 65537 adds: refused, not run
    rc, out, err = run(["density", "--p", "65537",
                        "--terms", "1,9;2,9;5,9", "--b", "0"])
    assert rc == 2 and out == ""
    assert ("exact convolution of 4295032832 adds exceeds cap 268435456"
            in err)
    # planted: an F_7 sweep of orders (3, 3), no coordinate of order
    # q - 1, forced off the coset step and onto the exact route under a
    # tiny cap
    f7 = ["density", "--p", "7", "--terms", "1,2;3,2", "--b", "3"]
    plan = charsum._plan
    monkeypatch.setattr(charsum, "_plan", lambda p, nu, limits, full:
                        plan(p, nu, limits, 0))
    monkeypatch.setattr(charsum, "_fft_counts", lambda *args: None)
    assert run(f7)[0] == 0
    monkeypatch.setattr(charsum, "EXACT_WORK_CAP", 7 * 3 - 1)
    rc, out, err = run(f7)
    assert rc == 2 and out == ""
    assert "exact convolution of 21 adds exceeds cap 20" in err


def test_full_order_density_over_f65537_runs():
    # three terms of order q - 1: the counts fold in closed form, with no
    # walk and no convolution, and match the classical count of k = 3
    # units summing to b: ((q-1)^k - (-1)^k)/q for b != 0, and
    # ((q-1)^k + (q-1)(-1)^k)/q for b = 0
    q, k = 65537, 3
    rc, out, err = run(["density", "--p", str(q), "--terms", "1,3;2,3;5,3",
                        "--b", "0", "--format", "json"])
    assert rc == 0, err
    counts = json.loads(out)["counts"]
    assert len(counts) == q
    assert counts[0] == ((q - 1) ** k + (q - 1) * (-1) ** k) // q
    assert set(counts[1:]) == {((q - 1) ** k - (-1) ** k) // q}


def test_csv_unsupported_for_solve():
    rc, _, err = run(["solve", *F7_ARGS, "--format", "csv"])
    assert rc == 1 and "no csv form" in err


# ------------------------------------------------------- misc plumbing


def test_random_instance_is_seeded():
    argv = ["count", "--p", "101", "--n", "2", "--seed", "3"]
    rc1, out1, _ = run(argv)
    rc2, out2, _ = run(argv)
    assert rc1 == rc2 == 0 and out1 == out2
    assert "randomly generated" in out1


def test_out_flag_writes_file(tmp_path):
    dest = tmp_path / "count.json"
    rc, out, _ = run(["count", *F7_ARGS, "--format", "json",
                      "--out", str(dest)])
    assert rc == 0 and out == ""
    assert json.loads(dest.read_text())["brute"] == 3


def test_bench_small_grid_deterministic():
    argv = ["bench", "--qs", "11,13", "--ns", "2", "--seed", "1",
            "--format", "csv"]
    rc1, out1, _ = run(argv)
    rc2, out2, _ = run(argv)
    assert rc1 == rc2 == 0 and out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0].startswith("q,n,classical_mults")
    cells = [line.split(",") for line in lines[1:]]
    assert [(c[0], c[1]) for c in cells] == [("11", "2"), ("13", "2")]
    assert all(c[-1] in ("found", "no_solution_certified", "box_exhausted")
               for c in cells)


# ------------------------------------------------------------ parser reuse


def test_cached_parser_matches_fresh_parser(monkeypatch):
    # one process, several subcommands through the cached parser; a flag
    # given to one command (--r, --delta) must not leak into the next
    argvs = [["count", *F7_ARGS, "--r", "1", "--format", "json"],
             ["density", *F7_ARGS, "--format", "json"],
             ["density", *F7_ARGS, "--delta", "1", "--r", "2"],
             ["count", *F7_ARGS]]
    assert main is cli.main and cli.build_parser() is cli.build_parser()
    assert cli.command_parser("count") is cli.command_parser("count")
    cached = [run(argv) for argv in argvs]
    hits = cli.command_parser.cache_info().hits
    cached += [run(argv) for argv in argvs]
    assert cli.command_parser.cache_info().hits == hits + len(argvs)
    monkeypatch.setattr(cli, "command_parser",
                        cli.command_parser.__wrapped__)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(argv) for argv in argvs] * 2
    assert cached == fresh
    assert all(rc == 0 for rc, _, _ in cached)


def test_cached_parser_still_rejects_bad_arguments():
    for argv in (["count", "--p", "seven"], ["nosuchcommand"],
                 ["density", "--format", "xml"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
    # the parser is still usable after those errors
    assert run(["count", *F7_ARGS])[0] == 0


# ------------------------------------------------------- one-pass dispatch


def test_dispatch_gives_the_full_parsers_namespace(tmp_path):
    # a subcommand's own parser reads its argv into the namespace the
    # two-level parse gives, config file and repeated flags included
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("p = 7\nterms = 1,3;1,2\nb = 3\n")
    argvs = [["orders", "--p", "101", "--n", "3", "--seed", "1"],
             ["count", "--config", str(cfg), "--r", "1", "--r", "2"],
             ["density", *F7_ARGS, "--delta", "1", "--format", "csv"],
             ["solve", "--config", str(cfg), "--b", "4", "--b", "5",
              "--log-base", "base2"],
             ["qmodel", *F7_ARGS, "--mode", "thm3"],
             ["exponents", "--n-max", "3", "--format", "json"],
             ["reduce", *F7_ARGS, "--samples", "2"],
             ["bench", "--qs", "11", "--ns", "2", "--seed", "1"]]
    full = cli.build_parser()
    assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
    assert full.format_usage().count(",".join(cli.COMMANDS)) == 1
    for argv in argvs:
        assert cli.parse_args(argv) == full.parse_args(argv)


EQUATION_COMMANDS = ["orders", "count", "density", "solve", "qmodel",
                     "reduce"]


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nosuchcommand"], ["count", "--p", "seven"],
    ["count", *F7_ARGS, "--bogus", "1"],
    *([name, "-h"] for name in EQUATION_COMMANDS + ["exponents", "bench"]),
    *([name, *F7_ARGS, "--format", "xml"] for name in EQUATION_COMMANDS)])
def test_dispatch_exits_as_the_full_parser_does(argv):
    def exit_of(parse):
        out, err = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              pytest.raises(SystemExit) as exc):
            parse(argv)
        return exc.value.code, out.getvalue(), err.getvalue()

    full = exit_of(cli.build_parser().parse_args)
    assert exit_of(main) == full
    assert full[0] == (0 if "-h" in argv else 2)


def test_a_command_builds_its_own_parser_and_no_other(monkeypatch):
    # every parser a subcommand runs gets its flags from _add_arguments
    built = []
    add_arguments = cli._add_arguments

    def recording(sp, name):
        built.append(sp.prog)
        add_arguments(sp, name)

    def clear_caches():
        cli.command_parser.cache_clear()
        cli.build_parser.cache_clear()

    clear_caches()
    monkeypatch.setattr(cli, "_add_arguments", recording)
    try:
        assert run(["count", *F7_ARGS, "--format", "json"])[0] == 0
        assert run(["count", *F7_ARGS])[0] == 0
        assert built == ["expzeros count"]
        # the top-level parser, and with it every subparser, only for
        # what a subcommand's parser cannot answer alone
        with pytest.raises(SystemExit):
            run(["count", *F7_ARGS, "--bogus", "1"])
        assert built[1:] == [f"expzeros {name}" for name in cli.COMMANDS]
    finally:
        clear_caches()


def test_python_dash_m_prints_what_main_prints():
    argv = ["orders", *F7_ARGS, "--format", "json"]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "expzeros", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(argv)


# -------------------------------------------- text built only when printed


MACHINE_ARGVS = [["count", *F7_ARGS, "--format", "json"],
                 ["density", "--p", "101", "--n", "2", "--seed", "3",
                  "--delta", "1", "--format", "json"],
                 ["density", *F7_ARGS, "--format", "csv"],
                 ["solve", *F7_ARGS, "--format", "json"],
                 ["qmodel", *F7_ARGS, "--format", "json"]]


def test_json_and_csv_do_no_text_work(monkeypatch):
    before = [run(argv) for argv in MACHINE_ARGVS]

    def text_work(*args):
        raise AssertionError("text report built for a json or csv run")

    monkeypatch.setattr(cli, "describe_instance", text_work)
    monkeypatch.setattr(density_mod, "energy_bound_check", text_work)
    assert [run(argv) for argv in MACHINE_ARGVS] == before
    assert all(rc == 0 and out for rc, out, _ in before)
