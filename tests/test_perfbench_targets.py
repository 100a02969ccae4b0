"""Every function the benchmark traces still exists in the library.

``perfbench/tracing.py`` wraps library functions by dotted name and only
warns when one is missing, so a rename would silently zero its per-layer
metrics.  This test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# traced by name but deleted from the library: ``Echelon`` was folded into
# ``KernelEchelon``; the benchmark drops this target in its next change
DEAD = {("symideal.linalg", "Echelon.add")}


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, path) for mod, path, _ in module.TARGETS]


TARGETS = load_targets()


def test_dead_targets_are_still_listed():
    # once the benchmark drops a dead target, drop it from DEAD too
    assert DEAD <= set(TARGETS)


@pytest.mark.parametrize("mod_name, path", [t for t in TARGETS if t not in DEAD],
                         ids=lambda v: v)
def test_target_resolves_to_a_callable(mod_name, path):
    obj = importlib.import_module(mod_name)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    assert callable(obj), f"{mod_name}.{path} is traced but not defined"
