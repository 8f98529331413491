"""Golden CLI outputs: byte-for-byte JSON for a fixed corpus, and the
default text report for a few of its cases.

Each case runs `expzeros.cli.main(argv + ["--format", "json"])` in process
and compares stdout with tests/golden/<name>.json.  The corpus covers
every subcommand over prime and extension fields, and all three solve
statuses, so a refactor that changes a count, a census, a
solution or a QueryCounter ledger shows up here.  Each TEXT_CASES entry
runs `main(argv)` with no --format and compares stdout with
tests/golden/<name>.txt, so the text report is pinned as well.  The
parser's own help and error texts (PARSER_CASES) are pinned the same way,
at a fixed COLUMNS, so a change to how argv is read shows up as drift in
what argparse prints.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from expzeros.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CASES = {
    # count: brute force and character sum, prime and extension fields
    "count_f7": ["count", "--p", "7", "--terms", "1,3;1,2", "--b", "3"],
    "count_f101_n3": ["count", "--p", "101", "--n", "3", "--seed", "4",
                      "--r", "2"],
    "count_f3e4": ["count", "--p", "3", "--nu", "4", "--terms", "2,9;3,9",
                   "--b", "5"],
    "count_f2e6_r1": ["count", "--p", "2", "--nu", "6", "--n", "3",
                      "--seed", "2", "--r", "1"],
    "count_f2e8": ["count", "--p", "2", "--nu", "8", "--n", "2",
                   "--seed", "1"],
    # brute_count's digit rows in uint8 and at the top of uint16: over
    # F_{2^12} a listed 51597-point box held as one block, and a head
    # scan with two walks summed in the tail; p = 32749 is the largest
    # prime whose sums 2(p-1) fit in uint16
    "count_f2e12_r63": ["count", "--p", "2", "--nu", "12", "--terms",
                        "9,255;1234,51", "--b", "3000", "--r", "63"],
    "count_f2e12_n3_r63": ["count", "--p", "2", "--nu", "12", "--terms",
                           "5,796;17,3192;1000,3459", "--b", "100",
                           "--r", "63"],
    "count_f32749_r30": ["count", "--p", "32749", "--n", "2", "--seed", "2",
                         "--r", "30"],
    # density: per-b counts, energy and census
    "density_f7": ["density", "--p", "7", "--terms", "1,3;1,2", "--b", "0"],
    "density_f101": ["density", "--p", "101", "--n", "2", "--seed", "3",
                     "--delta", "1"],
    "density_f3e4": ["density", "--p", "3", "--nu", "4", "--terms",
                     "2,9;3,9", "--b", "0", "--delta", "1"],
    "density_f2e6_r2": ["density", "--p", "2", "--nu", "6", "--n", "3",
                        "--seed", "5", "--r", "2"],
    "density_f5e2": ["density", "--p", "5", "--nu", "2", "--terms",
                     "2,8;3,8", "--b", "0"],
    # solve: all three statuses, prime and extension fields
    "solve_f257_found": ["solve", "--p", "257", "--terms", "1,9;1,136",
                         "--b", "217"],
    "solve_f11_certified": ["solve", "--p", "11", "--terms", "1,3;1,10",
                            "--b", "1"],
    "solve_f41_exhausted": ["solve", "--p", "41", "--terms", "2,36;3,36",
                            "--b", "0"],
    "solve_f41_base2_certified": ["solve", "--p", "41", "--terms",
                                  "2,36;3,36", "--b", "0", "--log-base",
                                  "base2"],
    "solve_f13_n3": ["solve", "--p", "13", "--n", "3", "--seed", "2"],
    "solve_f101_n1": ["solve", "--p", "101", "--terms", "3,5", "--b", "7"],
    "solve_f3e4_found": ["solve", "--p", "3", "--nu", "4", "--terms",
                         "2,9;3,9", "--b", "1"],
    "solve_f3e4_exhausted": ["solve", "--p", "3", "--nu", "4", "--terms",
                             "2,9;3,9", "--b", "0"],
    "solve_f2e8_certified": ["solve", "--p", "2", "--nu", "8", "--terms",
                             "2,51;3,51", "--b", "0"],
    "solve_f5e2_certified": ["solve", "--p", "5", "--nu", "2", "--terms",
                             "2,8;3,8", "--b", "6"],
    "solve_f2e6_n3": ["solve", "--p", "2", "--nu", "6", "--n", "3",
                      "--seed", "41"],
    "solve_f7e2_n3": ["solve", "--p", "7", "--nu", "2", "--n", "3",
                      "--seed", "0"],
    # n = 4 (outer index unravelled over three axes) and n = 1 (one outer
    # point, no walks), both over extension fields
    "solve_f3e4_n4_found": ["solve", "--p", "3", "--nu", "4", "--terms",
                            "64,77;46,59;12,75;23,2", "--b", "15"],
    "solve_f3e4_n4_certified": ["solve", "--p", "3", "--nu", "4", "--terms",
                                "61,76;68,26;19,75;48,2", "--b", "35"],
    "solve_f2e8_n1_found": ["solve", "--p", "2", "--nu", "8", "--n", "1",
                            "--seed", "2"],
    "solve_f2e8_n1_certified": ["solve", "--p", "2", "--nu", "8", "--n", "1",
                                "--seed", "1"],
    # qmodel: both modes, brute-force m_exact and the BBHT expectation
    "qmodel_f7_thm2": ["qmodel", "--p", "7", "--terms", "1,3;1,2", "--b",
                       "3", "--mode", "thm2"],
    "qmodel_f101_thm3": ["qmodel", "--p", "101", "--terms", "1,2;1,5",
                         "--b", "7", "--mode", "thm3"],
    "qmodel_f101_thm3_base2": ["qmodel", "--p", "101", "--terms", "1,2;1,5",
                               "--b", "7", "--mode", "thm3", "--log-base",
                               "base2"],
    "qmodel_f3e4_thm2": ["qmodel", "--p", "3", "--nu", "4", "--terms",
                         "2,9;3,9", "--b", "1", "--mode", "thm2"],
    "qmodel_f2e8_thm3": ["qmodel", "--p", "2", "--nu", "8", "--terms",
                         "1,3;2,5", "--b", "9", "--mode", "thm3"],
    # qmodel's other branches: thm2 with r_raw > s_n and with n = 1;
    # thm3 with r_raw = 0 and with an empty box; both modes past the box
    # cap, where m_exact is null and thm3 takes M from the estimate
    "qmodel_f101_thm2_clamped": ["qmodel", "--p", "101", "--terms",
                                 "8,17;95,87", "--b", "32", "--mode", "thm2"],
    "qmodel_f101_thm2_n1": ["qmodel", "--p", "101", "--terms", "1,2", "--b",
                            "17", "--mode", "thm2"],
    "qmodel_f101_thm3_r0": ["qmodel", "--p", "101", "--terms",
                            "1,2;3,2;7,2", "--b", "55", "--mode", "thm3"],
    "qmodel_f41_thm3_empty": ["qmodel", "--p", "41", "--terms", "2,36;3,36",
                              "--b", "0", "--mode", "thm3"],
    "qmodel_f65537_thm2_uncapped": ["qmodel", "--p", "65537", "--terms",
                                    "33482,24798;46994,17726", "--b", "3801",
                                    "--mode", "thm2"],
    "qmodel_f65537_thm3_uncapped": ["qmodel", "--p", "65537", "--terms",
                                    "33482,24798;46994,17726", "--b", "3801",
                                    "--mode", "thm3"],
    # the other subcommands, a float-valued bench row and a long counts list
    "orders_f101_n3": ["orders", "--p", "101", "--n", "3", "--seed", "1"],
    "exponents_n4": ["exponents", "--n-max", "4"],
    "reduce_f101_samples": ["reduce", "--p", "101", "--n", "4", "--seed",
                            "2", "--samples", "3"],
    # an order-80 group over F_{3^4}: its relations [1, 37, 37] are
    # discrete logs in an extension field
    "reduce_f3e4_n5": ["reduce", "--p", "3", "--nu", "4", "--n", "5",
                       "--seed", "2"],
    "bench_f101_n2": ["bench", "--qs", "101", "--ns", "2"],
    "density_f1031_r3": ["density", "--p", "1031", "--n", "2", "--seed", "1",
                         "--r", "3", "--delta", "0.5"],
    # a trailing walk of 10 values over F_3329: counts by shift-and-add,
    # 3 329 of them written from the int64 array
    "density_f3329_r10": ["density", "--p", "3329", "--terms", "1,3;5,243",
                          "--b", "0", "--r", "10"],
}


# Text reports: count with its solutions line and past 20 solutions
# without it, density with its census, solve at a hit and at a
# certificate, and qmodel in both modes.  Three are generated --n
# instances, whose text says so.
TEXT_CASES = {
    "count_f7_text": CASES["count_f7"],
    "count_f101_n3_text": CASES["count_f101_n3"],
    "density_f101_text": CASES["density_f101"],
    "density_f3e4_text": CASES["density_f3e4"],
    "solve_f257_found_text": CASES["solve_f257_found"],
    "solve_f13_n3_text": CASES["solve_f13_n3"],
    "solve_f11_certified_text": CASES["solve_f11_certified"],
    "qmodel_f101_thm3_text": CASES["qmodel_f101_thm3"],
    "qmodel_f3e4_thm2_text": CASES["qmodel_f3e4_thm2"],
}


# argparse's own output: top-level and per-subcommand help (exit 0, on
# stdout) and three usage errors (exit 2, on stderr).
PARSER_CASES = {
    "help": ["-h"],
    **{f"help_{name}": [name, "-h"]
       for name in ["orders", "count", "density", "solve", "qmodel",
                    "exponents", "reduce", "bench"]},
    "error_no_command": [],
    "error_bad_int": ["count", "--p", "seven"],
    "error_unknown_flag": ["solve", "--p", "7", "--bogus", "1"],
}
PARSER_COLUMNS = "80"


def render(argv, fmt=("--format", "json")) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([*argv, *fmt])
    assert rc == 0, f"{argv} exited {rc}"
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_json(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert render(CASES[name]) == expected


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_golden_cli_text(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert render(TEXT_CASES[name], fmt=()) == expected


def parser_exit(argv) -> tuple[int, str]:
    """(exit code, text) of a parse that exits: stdout for help, stderr
    for an error, with the other stream required empty."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          pytest.raises(SystemExit) as exc):
        main(argv)
    code = exc.value.code
    quiet, text = (err, out) if code == 0 else (out, err)
    assert quiet.getvalue() == ""
    return code, text.getvalue()


@pytest.mark.parametrize("name", sorted(PARSER_CASES))
def test_golden_parser_text(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", PARSER_COLUMNS)
    code, text = parser_exit(PARSER_CASES[name])
    assert code == (2 if name.startswith("error_") else 0)
    assert text == (GOLDEN_DIR / f"{name}.txt").read_text()


def test_golden_corpus_covers_every_solve_status():
    statuses = {json.loads((GOLDEN_DIR / f"{name}.json").read_text())["status"]
                for name in CASES if name.startswith("solve_")}
    assert statuses == {"found", "no_solution_certified", "box_exhausted"}


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN_DIR / f"{name}.json").write_text(render(argv))
    for name, argv in TEXT_CASES.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(render(argv, fmt=()))
    os.environ["COLUMNS"] = PARSER_COLUMNS
    for name, argv in PARSER_CASES.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(parser_exit(argv)[1])
