"""The benchmark's span tracer wraps benchlock functions by name. A rename
in ``src/`` would otherwise break traced benchmark runs only when someone
runs them; this checks every name it wraps still resolves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("modname, attr, span", tracing.FUNCTIONS)
def test_traced_function_resolves(modname, attr, span):
    assert modname.startswith("benchlock.")
    assert callable(getattr(importlib.import_module(modname), attr, None))
    assert span.split(".", 1)[0] in tracing.MODULES


@pytest.mark.parametrize("modname, cls_name, meth, span", tracing.METHODS)
def test_traced_method_resolves(modname, cls_name, meth, span):
    cls = getattr(importlib.import_module(modname), cls_name)
    # the tracer wraps the method on the class that defines it
    assert callable(cls.__dict__.get(meth))
    assert span.split(".", 1)[0] in tracing.MODULES


def test_traced_modules_exist():
    for mod in tracing.MODULES:
        importlib.import_module(f"benchlock.{mod}")
