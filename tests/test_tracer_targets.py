"""Every entry point the benchmark's tracer wraps still exists.

`perfbench/tracer.py` patches module functions and class methods by name;
methods are looked up in the class's own `__dict__`.  A refactor that
moves or renames one would make `perfbench/run.py --trace 1` fail with a
KeyError, so each (module, attribute) pair is resolved here the way the
tracer resolves it.  The tracer file is only read, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _load_tracer()
TARGETS = sorted({**_TRACER.SPANS, **_TRACER.COUNTERS}.items())


def test_tracer_has_targets():
    assert len(TARGETS) == len(_TRACER.SPANS) + len(_TRACER.COUNTERS) > 20


@pytest.mark.parametrize("name, target", TARGETS, ids=[name for name, _ in TARGETS])
def test_tracer_target_resolves(name, target):
    module_name, attr = target
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name)), f"{name}: {attr} not defined on the class"
    else:
        assert callable(getattr(module, attr, None)), f"{name}: {module_name}.{attr} missing"
