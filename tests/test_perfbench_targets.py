"""The library and the code that drives it stay in step.

``perfbench/tracing.py`` wraps library functions by dotted name and only
warns when one is missing, so a rename would silently zero its per-layer
metrics.  This test fails instead.  In the other direction, every name the
package exports, and every public function and method it defines, is used
by the library's own code, the benchmark or the scripts, not only by tests.
"""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "symideal"

# traced by name but deleted from the library; the benchmark drops these
# targets in its next change.  ``Echelon`` was folded into ``KernelEchelon``.
# Six more were reached by no CLI verb and moved beside the tests that use
# them; each of their per-layer metrics already read 0 on every workload,
# so the tracer's output does not change.  ``Ideal.standard_monomials``
# followed once ``Ideal.colength``, its last caller, counted the record's
# standard keys instead: its metric reads 0 from then on.
DEAD = {
    ("symideal.linalg", "Echelon.add"),
    ("symideal.ideals", "Ideal.normal_form"),
    ("symideal.ideals", "Ideal.standard_monomials"),
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
    return set(name_counts(ast.parse(path.read_text())))


def name_counts(tree: ast.AST) -> Counter:
    """How often the code under a node names each identifier."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name] += 1
    return counts


# the code whose names count as uses: not the tests, and not the exports
USERS = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
USERS += [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]


def test_every_export_has_a_user():
    used = set().union(*map(names_used, USERS))
    exports = [alias.name for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [name for name in exports if name not in used] == []


def test_every_public_definition_has_a_user():
    # the method-level twin of the test above: a module-level function or a
    # method of a module-level class must be named somewhere but in its own
    # body, or it belongs beside the tests that use it
    trees = {path: ast.parse(path.read_text()) for path in USERS}
    counts = sum(map(name_counts, trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            defs = node.body if isinstance(node, ast.ClassDef) else [node]
            for d in defs:
                if (isinstance(d, ast.FunctionDef) and not d.name.startswith("_")
                        and counts[d.name] == name_counts(d)[d.name]):
                    unused.append(f"{path.name}: {d.name}")
    assert unused == []
