"""instances.find_generator: one generator search per field.

Where a field reads a log table the generator is the table's own,
antilog[1], and the table build's scan is the field's only one; past the
table the scan runs as before and builds nothing.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from expzeros import arith, instances
from expzeros.arith import LOG_TABLE_MAX_Q, _first_generator, factorize
from expzeros.fields import FieldSpec, make_field
from expzeros.instances import find_generator, random_equation_with_orders

CORPUS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"


def corpus_fields():
    """Every (p, nu) the count, sweep and solve corpora draw from."""
    spec = importlib.util.spec_from_file_location("perfbench_corpus",
                                                  CORPUS_PATH)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # its dataclasses look their module up
    spec.loader.exec_module(corpus)
    shapes = corpus.COUNT_SHAPES + corpus.SWEEP_SHAPES + corpus.SOLVE_FAMILIES
    return sorted({(p, nu) for p, nu, *_ in shapes})


def test_generator_is_the_first_generator_on_every_corpus_field():
    fields = corpus_fields()
    # fields on both sides of the table: F_40961 and F_65537 lie past it
    assert len(fields) == 21 and (65537, 1) in fields
    for p, nu in fields:
        spec = make_field(p, nu)
        gen = find_generator(spec)
        assert gen == _first_generator(spec, factorize(p ** nu - 1)), (p, nu)
        assert (spec._zech is not None) == arith.reads_log_table(spec)


@pytest.mark.parametrize("p, nu", [(3, 9), (5, 7)])
def test_generator_past_the_table_scans_and_builds_no_table(p, nu):
    spec = make_field(p, nu)
    assert spec.cardinality > LOG_TABLE_MAX_Q
    fact = factorize(spec.cardinality - 1)
    expected = _first_generator(spec, fact)
    assert find_generator(spec) == expected
    assert spec._zech is None


@pytest.mark.parametrize("p", [2, 3])
def test_generator_of_the_smallest_fields(p):
    # q - 1 = 1 or 2 entries of antilog: the generator is antilog[1 mod (q-1)]
    spec = FieldSpec(p, 1)
    assert find_generator(spec) == _first_generator(spec, factorize(p - 1))


def test_a_table_fields_first_draw_scans_for_a_generator_once(monkeypatch):
    calls = []

    def counted(spec, fact):
        calls.append(spec)
        return _first_generator(spec, fact)

    monkeypatch.setattr(arith, "_first_generator", counted)
    monkeypatch.setattr(instances, "_first_generator", counted)
    # a spec of its own, so no earlier test has built its table
    spec = FieldSpec(3, 8)
    assert arith.reads_log_table(spec) and spec._zech is None
    rng = random.Random(7)
    eq = random_equation_with_orders(spec, [41, 5], rng)
    assert sorted(eq.orders) == [5, 41]
    assert calls == [spec]
    # later draws read the table too
    random_equation_with_orders(spec, [205], rng)
    assert calls == [spec]
