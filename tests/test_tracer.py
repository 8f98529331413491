"""The benchmark's traced run names its per-layer metrics after package
functions (`perfbench/tracer.py` wraps them by name).  A refactor that
renames or inlines one of those functions would silently zero the
metrics built on it; this test fails instead.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from expzeros import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# the spans perfbench/run.py reads its per-layer metrics from
REQUIRED_SPANS = {
    "solver.solve_classical",
    "arith.BsgsTable.__init__",
    "arith.BsgsTable.lookup",
    "arith.multiplicative_order",
    "charsum.count_via_charsum",
    "charsum.brute_count",
    "cli.main",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_cover_the_benchmark_entry_points():
    main = cli.main
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            # F_40961 is past LOG_TABLE_MAX_Q: its hit's dlog is a lookup
            # in a baby-step table
            assert cli.main(["solve", "--p", "40961", "--terms",
                             "39810,139;29189,17455", "--b", "14992"]) == 0
            assert cli.main(["count", "--p", "7", "--terms", "1,3;1,2",
                             "--b", "3"]) == 0
    finally:
        tracer.uninstall()
    assert cli.main is main
    names = {span[0] for span in tracer.spans}
    assert REQUIRED_SPANS <= names, REQUIRED_SPANS - names
