"""tools/pass_split.py: one pass of a workload, split by layer."""

import importlib.util
from pathlib import Path

import pytest

from expzeros import cli, density

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pass_split.py"
spec = importlib.util.spec_from_file_location("pass_split", TOOL)
pass_split = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pass_split)


def test_one_pass_times_every_layer():
    wrapped = (cli.parse_args, cli.resolve_equation, density.sweep_b,
               density.exceptional_census, cli._json_text)
    out = pass_split.split("sweep", 1, passes=1)
    layers = ["parse_args", "resolve_equation", "sweep_b",
              "exceptional_census", "_json_text"]
    assert list(out) == ["pass", *layers, "other"]
    assert all(ms > 0 for ms in out.values())
    # the layers lie inside the pass, "other" is the rest of it, and
    # every wrapper is taken off
    assert out["other"] == pytest.approx(
        out["pass"] - sum(out[name] for name in layers))
    assert (cli.parse_args, cli.resolve_equation, density.sweep_b,
            density.exceptional_census, cli._json_text) == wrapped


def test_every_workload_names_its_compute_calls():
    assert sorted(pass_split.COMPUTE) == ["count", "solve", "sweep"]
    for calls in pass_split.COMPUTE.values():
        for module, name in calls:
            assert callable(getattr(module, name))
