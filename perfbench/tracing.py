"""Spans around the library's layer boundaries, recorded from outside.

``Tracer.install`` replaces each traced function or method with a
wrapper, in every module and class of the ``symideal`` package that
binds it (``from .poly import apolar_scalar`` makes a second binding
that a wrapper on ``symideal.poly`` alone would miss).  Each call then
records one span: name, start, end and the span that was open when it
started.  Spans stay in memory; ``layer_metrics`` derives the per-layer
metrics from them, and ``write_spans`` writes them out at the end.

Nothing in the library is edited; the wrappers live only in the traced
process.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

# (module, attribute path, span name) for every traced function
TARGETS = (
    ("symideal.ideals", "Ideal.normal_form", "ideals.normal_form"),
    ("symideal.ideals", "Ideal.contains", "ideals.contains"),
    ("symideal.ideals", "Ideal.standard_monomials", "ideals.standard_monomials"),
    ("symideal.ideals", "Ideal.__eq__", "ideals.eq"),
    ("symideal.ideals", "_buchberger", "ideals.buchberger"),
    # the engine's reduction routine, so that Buchberger's self time
    # excludes the reductions it runs
    ("symideal.ideals", "_normal_form", "ideals.reduce"),
    ("symideal.equivariant", "is_symmetric", "equivariant.is_symmetric"),
    ("symideal.equivariant", "decompose_quotient", "equivariant.decompose_quotient"),
    ("symideal.equivariant", "tangent_dimension", "equivariant.tangent_dimension"),
    ("symideal.equivariant", "_minimal_generator_space", "equivariant.tangent.generators"),
    ("symideal.equivariant", "_hom_basis_equivariant", "equivariant.tangent.hom_basis"),
    ("symideal.linalg", "KernelEchelon.add", "linalg.kernel_echelon_add"),
    ("symideal.linalg", "Echelon.add", "linalg.echelon_add"),
    ("symideal.linalg", "solve_in_span", "linalg.solve_in_span"),
    ("symideal.poly", "Polynomial.__mul__", "poly.mul"),
    ("symideal.poly", "apolar_pair", "poly.apolar_pair"),
    ("symideal.poly", "apolar_scalar", "poly.apolar_scalar"),
    ("symideal.poly", "integrate_duals", "poly.integrate_duals"),
    ("symideal.poly", "apply_permutation", "poly.apply_permutation"),
    ("symideal.specht", "distinct_specht_polynomials", "specht.distinct_specht"),
    ("symideal.specht", "specht_polynomial", "specht.specht_polynomial"),
    ("symideal.tanisaki", "tanisaki_ideal", "tanisaki.build"),
    ("symideal.tanisaki", "_apolar_generators", "tanisaki.build.apolar"),
    ("symideal.tanisaki", "inclusion_chain_check", "tanisaki.inclusion_chain"),
    ("symideal.classification", "classification_cases", "classification.cases"),
    ("symideal.combinat", "irreducible_character", "combinat.irreducible_character"),
)

# inclusive times, by span name
TIME_METRICS = {
    "ideals.normal_form.s": "ideals.normal_form",
    "ideals.standard_monomials.s": "ideals.standard_monomials",
    "ideals.buchberger.s": "ideals.buchberger",
    "equivariant.is_symmetric.s": "equivariant.is_symmetric",
    "equivariant.decompose_quotient.s": "equivariant.decompose_quotient",
    "equivariant.tangent_dimension.s": "equivariant.tangent_dimension",
    "equivariant.tangent.generators_s": "equivariant.tangent.generators",
    "equivariant.tangent.hom_basis_s": "equivariant.tangent.hom_basis",
    "linalg.kernel_echelon_add.s": "linalg.kernel_echelon_add",
    "linalg.echelon_add.s": "linalg.echelon_add",
    "poly.mul.s": "poly.mul",
    "poly.apolar_pair.s": "poly.apolar_pair",
    "poly.apolar_scalar.s": "poly.apolar_scalar",
    "poly.integrate_duals.s": "poly.integrate_duals",
    "specht.distinct_specht.s": "specht.distinct_specht",
    "tanisaki.build.s": "tanisaki.build",
    "tanisaki.build.apolar_s": "tanisaki.build.apolar",
    "tanisaki.inclusion_chain.s": "tanisaki.inclusion_chain",
    "classification.cases.s": "classification.cases",
    "combinat.irreducible_character.s": "combinat.irreducible_character",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_ratio") or name.endswith("overhead"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.missing: list[str] = []
        # counts read from arguments and results at the traced boundaries
        self.normal_form_inputs: set = set()
        self._ideals_seen: dict[int, object] = {}
        self.specht_shapes: set = set()
        self.basis_len = 0
        self.tanisaki_generators = 0
        self.n2_count = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped so that each call records a span."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every target inside the loaded package."""
        hooks = {
            "ideals.normal_form": (self._note_normal_form, None),
            "ideals.buchberger": (None, self._note_basis),
            "specht.distinct_specht": (self._note_shape, None),
            "tanisaki.build": (None, self._note_tanisaki),
            "equivariant.tangent_dimension": (None, self._note_tangent),
        }
        owners = []
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "symideal" and not mod_name.startswith("symideal."):
                continue
            owners.append(module)
            owners += [value for value in vars(module).values()
                       if isinstance(value, type) and value.__module__ == mod_name]
        for mod_name, path, name in TARGETS:
            original = sys.modules.get(mod_name)
            for part in path.split("."):
                original = getattr(original, part, None)
            if not callable(original):
                self.missing.append(f"{mod_name}.{path}")
                continue
            before, after = hooks.get(name, (None, None))
            wrapper = self.span(name, original, before, after)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)

    # -- argument and result hooks --------------------------------------
    def _note_normal_form(self, args, kwargs) -> None:
        ideal, f = args[0], args[1]
        order = args[2] if len(args) > 2 else kwargs.get("order")
        # keep the ideal alive so that its id is never reused in this run
        self._ideals_seen[id(ideal)] = ideal
        self.normal_form_inputs.add((id(ideal), f, getattr(order, "name", None)))

    def _note_shape(self, args, kwargs) -> None:
        self.specht_shapes.add(tuple(args[0].parts))

    def _note_basis(self, result) -> None:
        self.basis_len += len(result)

    def _note_tanisaki(self, result) -> None:
        self.tanisaki_generators += len(result.generators)

    def _note_tangent(self, result) -> None:
        self.n2_count += result.n2_count

    # -- derived metrics -------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the recorded spans."""
        count = len(self.names)
        calls = [0] * count
        inclusive = [0.0] * count
        own = [0.0] * count
        child_time = [0.0] * len(self.span_name)
        names, parents, starts, ends = self.span_name, self.parent, self.start, self.end
        for idx in range(len(names)):
            duration = ends[idx] - starts[idx]
            nid = names[idx]
            calls[nid] += 1
            inclusive[nid] += duration
            if parents[idx] >= 0:
                child_time[parents[idx]] += duration
        for idx in range(len(names)):
            own[names[idx]] += ends[idx] - starts[idx] - child_time[idx]

        def by_name(values, name):
            nid = self._name_ids.get(name)
            return 0 if nid is None else values[nid]

        metrics: dict[str, float] = {}
        for key, name in TIME_METRICS.items():
            metrics[key] = by_name(inclusive, name)
        nf_calls = by_name(calls, "ideals.normal_form")
        shape_calls = by_name(calls, "specht.distinct_specht")
        metrics.update({
            "ideals.normal_form.calls": nf_calls,
            "ideals.normal_form.distinct_ratio":
                len(self.normal_form_inputs) / nf_calls if nf_calls else 0.0,
            "ideals.contains.calls": by_name(calls, "ideals.contains"),
            "ideals.buchberger.calls": by_name(calls, "ideals.buchberger"),
            "ideals.buchberger.self_s": by_name(own, "ideals.buchberger"),
            "ideals.buchberger.basis_len": self.basis_len,
            "ideals.eq.calls": by_name(calls, "ideals.eq"),
            "equivariant.is_symmetric.calls": by_name(calls, "equivariant.is_symmetric"),
            "equivariant.tangent.relations_s": self._relations_time(),
            "equivariant.tangent.n2_count": self.n2_count,
            "linalg.kernel_echelon_add.calls": by_name(calls, "linalg.kernel_echelon_add"),
            "linalg.echelon_add.calls": by_name(calls, "linalg.echelon_add"),
            "linalg.solve_in_span.calls": by_name(calls, "linalg.solve_in_span"),
            "poly.mul.calls": by_name(calls, "poly.mul"),
            "poly.apolar_scalar.calls": by_name(calls, "poly.apolar_scalar"),
            "poly.apply_permutation.calls": by_name(calls, "poly.apply_permutation"),
            "specht.distinct_specht.calls": shape_calls,
            "specht.distinct_specht.distinct_ratio":
                len(self.specht_shapes) / shape_calls if shape_calls else 0.0,
            "specht.specht_polynomial.calls": by_name(calls, "specht.specht_polynomial"),
            "tanisaki.generators": self.tanisaki_generators,
        })
        return metrics

    def _relations_time(self) -> float:
        """Time in each tangent_dimension call after its equivariant-hom
        phase returns: the relation step modulo the square of the ideal.

        Its self time in the span sense would leave out the normal forms
        and echelon steps that make up that phase, because they are spans
        of their own."""
        tangent = self._name_ids.get("equivariant.tangent_dimension")
        hom = self._name_ids.get("equivariant.tangent.hom_basis")
        if tangent is None or hom is None:
            return 0.0
        hom_end: dict[int, float] = {}
        names, parents, ends = self.span_name, self.parent, self.end
        for idx in range(len(names)):
            if names[idx] == hom and parents[idx] >= 0 and names[parents[idx]] == tangent:
                hom_end[parents[idx]] = ends[idx]
        return sum(ends[idx] - start for idx, start in hom_end.items())

    def write_spans(self, path) -> None:
        """Write every span as gzipped JSON lines: a header naming the
        columns and the span names, then one [name, start, end, parent]
        row per span, in start order."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps({"columns": ["name", "start", "end", "parent"],
                                     "names": self.names}) + "\n")
            for idx in range(len(self.span_name)):
                handle.write(f"[{self.span_name[idx]},{self.start[idx]!r},"
                             f"{self.end[idx]!r},{self.parent[idx]}]\n")

