"""Every name the benchmark tracer patches resolves in fractdim.

`benchmark/tracing.py` wraps library functions and methods by name, and a
name that is gone makes a traced benchmark run raise.  The tracer is loaded
from its file, unedited, and its tables are checked against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", ROOT / "benchmark" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_tracing()


@pytest.mark.parametrize(
    "mod_name, attr",
    [(mod_name, attr) for mod_name, attr, _, _ in TRACING._FUNCTIONS],
    ids=[f"{mod_name}.{attr}" for mod_name, attr, _, _ in TRACING._FUNCTIONS],
)
def test_traced_function_exists(mod_name, attr):
    module = importlib.import_module(f"fractdim.{mod_name}")
    assert callable(getattr(module, attr))


@pytest.mark.parametrize(
    "mod_name, cls_name, attr",
    [(mod_name, cls_name, attr) for mod_name, cls_name, attr, _, _ in TRACING._METHODS]
    + [("symbolic", "AdaptedMetric", "weight")],
    ids=[f"{m}.{c}.{a}" for m, c, a, _, _ in TRACING._METHODS]
    + ["symbolic.AdaptedMetric.weight"],
)
def test_traced_method_is_defined_on_its_class(mod_name, cls_name, attr):
    # the tracer reads the method from the class's own __dict__
    cls = getattr(importlib.import_module(f"fractdim.{mod_name}"), cls_name)
    assert callable(cls.__dict__[attr])
