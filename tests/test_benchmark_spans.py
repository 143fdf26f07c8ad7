"""The benchmark's tracer wraps public names of the program; each must still exist.

perfbench/tracer.py is loaded from its file and only its WRAPPED table is
read: install() would rebind the functions for the whole test process.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wrapped_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, name) for layer, names in tracer.WRAPPED.items() for name in names]


@pytest.mark.parametrize("layer, qualname", _wrapped_names())
def test_every_traced_name_resolves(layer, qualname):
    target = importlib.import_module(f"normcharts.{layer}")
    for attr in qualname.split("."):
        target = getattr(target, attr)
    assert callable(target)
