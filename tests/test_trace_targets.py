"""Every function the benchmark's tracer wraps must exist in alignstat.

``perfbench/tracing.py`` skips a target it cannot find with a warning, and
that target's per-layer metrics then read 0, so a rename would go unseen.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module,path", [(m, p) for m, p, _, _ in tracing.TARGETS], ids=lambda v: str(v)
)
def test_trace_target_resolves(module, path):
    assert module in tracing.MODULES
    owner = importlib.import_module(f"alignstat.{module}")
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
    # the tracer looks the attribute up in the owner's own namespace
    assert callable(vars(owner).get(attr)), f"alignstat.{module}.{path}"
