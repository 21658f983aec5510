"""Every library name the benchmark's tracer rebinds still exists.

`perfbench/tracing.py` looks each target up with `getattr` when it
installs itself, so a renamed function would break `--trace 1` and nothing
else.  The tracer module is loaded from its file and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("target", tracing.TARGETS, ids=lambda t: f"{t.module}.{t.name}")
def test_target_resolves(target):
    assert callable(getattr(importlib.import_module(target.module), target.name))


def test_cat_property_resolves():
    cls_name, attr = tracing.CAT.name.split(".")
    cls = getattr(importlib.import_module(tracing.CAT.module), cls_name)
    assert isinstance(cls.__dict__[attr], property)
