"""The benchmark's tracer wraps sonsim functions by name; every name it
lists must still resolve, or a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, qualname", traced_targets())
def test_trace_target_resolves(module, qualname):
    mod = importlib.import_module(f"sonsim.{module}")
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        # the tracer replaces the method in the class's own namespace
        target = vars(getattr(mod, cls_name)).get(meth)
    else:
        target = getattr(mod, qualname, None)
    assert callable(target), f"sonsim.{module}.{qualname}"
