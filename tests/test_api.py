"""The package's signatures: caps are module constants, not parameters,
and the solver keeps its own ledger: no public callable takes a counter.

A cap that only tests set is a constant (fields.DEFAULT_ENUM_CAP,
charsum.TERM_CAP, solver.OUTER_GRID_CAP, qmodel.GROVER_SIM_CAP, ...);
tests monkeypatch the constant instead of passing a value.
"""

import importlib
import inspect
import pkgutil

import expzeros

# parameters production sets to more than one value
ALLOWED = {"expzeros.charsum.brute_count": {"list_cap"}}


def public_callables():
    """(qualified name, callable) for every public function of each
    package module and every public method (and __init__) of its public
    classes, counting only what the module itself defines."""
    for info in pkgutil.iter_modules(expzeros.__path__):
        module = importlib.import_module(f"expzeros.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if (inspect.isfunction(member)
                            and (attr == "__init__"
                                 or not attr.startswith("_"))):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_the_walk_sees_the_package():
    names = {name for name, _ in public_callables()}
    assert {"expzeros.charsum.brute_count", "expzeros.fields.enumerate_units",
            "expzeros.fields.FieldSpec.elements",
            "expzeros.solver.solve_classical",
            "expzeros.arith.BsgsTable.__init__"} <= names


def test_no_cap_parameters():
    found = []
    for name, fn in public_callables():
        for param in inspect.signature(fn).parameters:
            if ((param == "cap" or param.endswith("_cap"))
                    and param not in ALLOWED.get(name, ())):
                found.append(f"{name}({param})")
    assert found == []


def test_solve_classical_owns_its_ledger():
    # the report's QueryCounter is the ledger; callers read rep.queries,
    # and no public callable takes a counter to charge
    found = [name for name, fn in public_callables()
             if "counter" in inspect.signature(fn).parameters]
    assert found == []
