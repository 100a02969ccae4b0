"""The library and the code that drives it stay in step.

``perfbench/tracing.py`` wraps library functions by dotted name and only
warns when one is missing, so a rename would silently zero its per-layer
metrics.  This test fails instead.  In the other direction, every name the
package exports is used by the library's own code, the benchmark or the
scripts, not only by tests.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "symideal"

# traced by name but deleted from the library; the benchmark drops these
# targets in its next change.  ``Echelon`` was folded into ``KernelEchelon``.
# The other six were reached by no CLI verb and moved beside the tests that
# use them; each of their per-layer metrics already read 0 on every
# workload, so the tracer's output does not change.
DEAD = {
    ("symideal.linalg", "Echelon.add"),
    ("symideal.ideals", "Ideal.normal_form"),
    ("symideal.linalg", "solve_in_span"),
    ("symideal.poly", "apolar_pair"),
    ("symideal.poly", "apolar_scalar"),
    ("symideal.poly", "integrate_duals"),
    ("symideal.combinat", "irreducible_character"),
}


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
    assert callable(resolve(mod_name, path)), f"{mod_name}.{path} is traced but not defined"


@pytest.mark.parametrize("mod_name, path", sorted(DEAD), ids=lambda v: v)
def test_dead_target_is_gone(mod_name, path):
    # a dead entry for a function that exists would keep it from the test above
    assert resolve(mod_name, path) is None, f"{mod_name}.{path} exists: drop it from DEAD"


def resolve(mod_name, path):
    obj = importlib.import_module(mod_name)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def names_used(path: Path) -> set[str]:
    """Identifiers a module's code names: variables, attributes and imports,
    not definitions, docstrings or other strings."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_export_has_a_user():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    used = set().union(*map(names_used, users))
    exports = [alias.name for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [name for name in exports if name not in used] == []
