"""Command-line verification and exploration tools.

Verbs: ``specht``, ``tanisaki``, ``table1``, ``lemmas``, ``tangent``,
``decompose``, ``gr``.  Every verb emits a machine-readable report (JSON
with a ``schema_version`` field) or a plain-text rendering.  The exit code
is 0 when all verifications in the run passed, 1 when one failed, 2 on bad
input and 3 when an internal invariant check broke.  Fixed seeds give
bit-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from math import factorial, prod

from . import __version__
from .classification import (RowCase, classification_cases,
                             lemma_membership_ideal_a,
                             lemma_membership_ideal_b, pair_product_ideal,
                             relation_f, relation_g, relation_p, row_case)
from .combinat import (Partition, Tableau, d_min, multinomial, partitions_of,
                       standard_tableaux)
from .equivariant import (decompose_quotient, is_permutation_module_sum,
                          is_symmetric, tangent_dimension)
from .ideals import Ideal, orbit_ideal
from .poly import Polynomial, parse_polynomial, power_sum
from .specht import (coinvariant_isotypic_basis, distinct_specht_polynomials,
                     specht_polynomial)
from .tanisaki import MODES, inclusion_chain_check, tanisaki_ideal

SCHEMA_VERSION = 1

# the n each verb accepts, checked before it starts; one Specht polynomial
# (``specht --tableau``) is bounded by its term count and TABLEAU_N_BOUND instead
N_GUARDS = {
    "specht": (1, 6),
    "tanisaki": (2, 6),
    "table1": (3, 6),
    "lemmas": (3, 6),
    "tangent": (2, 6),
    "decompose": (2, 6),
    "gr": (2, 6),
}

# ``specht --tableau``: a column of height k contributes k! terms, each
# packed in n fields and printed with n exponents
TABLEAU_TERM_BOUND = factorial(7)
TABLEAU_N_BOUND = 64


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _parse_gens(text: str, n: int) -> list[Polynomial]:
    """``--gens``: polynomials separated by semicolons."""
    return [parse_polynomial(chunk, n) for chunk in text.split(";") if chunk.strip()]


def _parse_point(text: str, n: int) -> tuple[Fraction, ...]:
    """``--point``: n comma-separated rationals."""
    point = tuple(_parse_rational(v) for v in text.split(","))
    if len(point) != n:
        raise ValueError(f"point has {len(point)} coordinates, expected {n}")
    return point


def _parse_param(text: str) -> tuple[Fraction, Fraction]:
    """``--param``: a:b."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"--param takes the form a:b, got {text!r}")
    return _parse_rational(parts[0]), _parse_rational(parts[1])


def pool_size(jobs: int, cases: int) -> int:
    """Worker processes for ``jobs`` requested: never more than the CPUs or the cases."""
    return min(jobs, os.cpu_count() or 1, cases)


def _parse_partition(text: str, n: int) -> Partition:
    lam = Partition(int(p) for p in text.split(","))
    if lam.n != n:
        raise ValueError(f"partition {lam.parts} is not a partition of n={n}")
    return lam


def _parse_tableau(text: str) -> Tableau:
    return Tableau([[int(v) for v in row.split(",")] for row in text.split("/")])


def _random_parameters(seed: int, count: int = 3) -> list[tuple[Fraction, Fraction]]:
    """Small-height rational parameter pairs, deterministic per seed."""
    rng = random.Random(seed)
    out: list[tuple[Fraction, Fraction]] = []
    while len(out) < count:
        a = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        b = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        if b == 0 or a == 0:
            continue  # keep clear of the torus-fixed members, sampled anyway
        out.append((a, b))
    return out


def _ideal_from_args(args) -> Ideal:
    """The ideal named by ``--gens``, ``--row`` or ``--tanisaki``; argparse
    lets at most one of them through."""
    n = args.n
    if args.row:
        param = None if args.param is None else _parse_param(args.param)
        return row_case(args.row, n, r=args.colength, param=param).ideal
    if args.colength is not None or args.param is not None:
        raise ValueError("--colength and --param apply only with --row")
    if args.gens:
        return Ideal(n, _parse_gens(args.gens, n))
    if args.tanisaki:
        return tanisaki_ideal(_parse_partition(args.tanisaki, n))
    raise ValueError("provide an ideal via --gens, --row, or --tanisaki")


# ---------------------------------------------------------------------------
# verb implementations; each returns (results, ok)


def cmd_specht(args) -> tuple[list[dict], bool]:
    lam = _parse_partition(args.lam, args.n)
    result: dict = {
        "lambda": list(lam.parts),
        "min_degree": d_min(lam),
    }
    if args.tableau:
        t = _parse_tableau(args.tableau)
        if t.shape != lam:
            raise ValueError(f"tableau shape {t.shape.parts} does not match {lam.parts}")
        terms = prod(factorial(len(col)) for col in t.columns())
        if terms > TABLEAU_TERM_BOUND:
            raise ValueError(f"tableau has {terms} terms, above the bound "
                             f"{TABLEAU_TERM_BOUND} = 7!")
        result["tableau"] = args.tableau
        result["specht_polynomial"] = str(specht_polynomial(t, args.n))
    else:
        spechts = [specht_polynomial(t) for t in standard_tableaux(lam)]
        basis = coinvariant_isotypic_basis(lam)
        result["specht_polynomials"] = [str(f) for f in spechts]
        result["specht_count"] = len(spechts)
        result["module_dimension"] = len(spechts)
        result["ideal_generators"] = [str(f) for f in distinct_specht_polynomials(lam)]
        result["higher_specht_basis"] = [str(f) for f in basis]
        result["higher_specht_count"] = len(basis)
    return [result], True


def cmd_tanisaki(args) -> tuple[list[dict], bool]:
    lam = _parse_partition(args.lam, args.n)
    reference = args.mode if args.mode != "all" else "subset_elementary"
    ideal = tanisaki_ideal(lam, reference)
    record: dict = {
        "lambda": list(lam.parts),
        "mode": args.mode,
        "generators": [str(g) for g in ideal.generators],
        "groebner_basis": [str(g) for g in ideal.groebner_basis()],
        "colength": ideal.colength(),
        "expected_colength": multinomial(lam),
        "decomposition": str(decompose_quotient(ideal)),
    }
    ok = record["colength"] == record["expected_colength"]
    if args.mode == "all":
        agree = all(tanisaki_ideal(lam, mode) == ideal for mode in MODES if mode != reference)
        record["modes_agree"] = agree
        ok = ok and agree
    record["ok"] = ok
    return [record], ok


def verify_row_case(case: RowCase) -> dict:
    """Full verification of one classification entry (used by table1)."""
    started = time.monotonic()
    ideal = case.ideal
    record: dict = {
        "row": case.label,
        "n": case.n,
        "colength_expected": case.colength,
        "geometry_expected": case.geometry,
        "component_dim": case.component_dim,
    }
    if case.param is not None:
        record["param"] = [str(case.param[0]), str(case.param[1])]
    checks: dict[str, bool] = {}
    checks["symmetric"] = is_symmetric(ideal)
    checks["homogeneous"] = ideal.is_homogeneous()
    colength = ideal.colength()
    record["colength"] = colength
    checks["colength"] = colength == case.colength and colength <= 2 * case.n
    decomposition = decompose_quotient(ideal)
    record["decomposition"] = str(decomposition)
    checks["decomposition"] = decomposition == case.expected
    report = tangent_dimension(ideal)
    record["tangent_dim"] = report.tangent_dim
    if case.geometry == "smooth":
        checks["geometry"] = report.tangent_dim == case.component_dim
    else:
        checks["geometry"] = report.tangent_dim > case.component_dim
    record["checks"] = checks
    record["ok"] = all(checks.values())
    record["wall_time_s"] = round(time.monotonic() - started, 3)
    return record


def cmd_table1(args) -> tuple[list[dict], bool]:
    cases = classification_cases(args.n, _random_parameters(args.seed))
    workers = pool_size(args.jobs, len(cases))
    if workers > 1:
        from multiprocessing import Pool  # imported only when a pool runs
        with Pool(workers) as pool:
            results = pool.map(verify_row_case, cases)
    else:
        results = [verify_row_case(case) for case in cases]
    ok = all(r["ok"] for r in results)
    return results, ok


def cmd_lemmas(args) -> tuple[list[dict], bool]:
    n = args.n
    results: list[dict] = []
    x1 = Polynomial.variable(1, n)
    x2 = Polynomial.variable(2, n)
    pair_ideal = pair_product_ideal(n)
    f, g, p = relation_f(n), relation_g(n), relation_p(n)
    if n == 3:
        containments = {
            "relation_f_vanishes": f.is_zero(),
            "relation_g_vanishes": g.is_zero(),
            "relation_p": pair_ideal.contains(p),
        }
    else:
        containments = {
            "relation_f": pair_ideal.contains(f),
            "relation_g": pair_ideal.contains(g),
            "relation_p": pair_ideal.contains(p),
        }
    ideal_a = lemma_membership_ideal_a(n)
    ideal_b = lemma_membership_ideal_b(n)
    cube_difference = x1 ** 3 - x2 ** 3
    p2_difference = power_sum(2, n) * (x1 - x2)
    memberships = {
        "cube_difference_in_first": ideal_a.contains(cube_difference),
        "p2_difference_in_second": ideal_b.contains(p2_difference),
        "cube_difference_in_second": ideal_b.contains(cube_difference),
    }
    results.append({"containments": containments, "memberships": memberships})
    chain_records = []
    for mu in partitions_of(n):
        report = inclusion_chain_check(mu)
        chain_records.append({
            "mu": list(mu.parts),
            "holds": report.ok,
            "first_strict": report.first_strict,
            "second_strict": report.second_strict,
            "witnesses": report.witnesses,
            "failures": report.failures,
        })
    results.append({"inclusion_chains": chain_records})
    ok = (all(containments.values()) and all(memberships.values())
          and all(r["holds"] for r in chain_records))
    return results, ok


def cmd_tangent(args) -> tuple[list[dict], bool]:
    return [tangent_dimension(_ideal_from_args(args)).record()], True


def cmd_decompose(args) -> tuple[list[dict], bool]:
    ideal = _ideal_from_args(args)
    decomposition = decompose_quotient(ideal)
    perm = is_permutation_module_sum(decomposition)
    record = {
        "generators": [str(g) for g in ideal.generators],
        "colength": ideal.colength(),
        "decomposition": str(decomposition),
        "multiplicities": {str(list(lam.parts)): m for lam, m in decomposition.multiplicities},
        "permutation_module_sum": None if perm is None else [list(p.parts) for p in perm],
    }
    return [record], True


def cmd_gr(args) -> tuple[list[dict], bool]:
    point = _parse_point(args.point, args.n)
    ideal = orbit_ideal(point)
    graded = ideal.associated_graded()
    record: dict = {
        "point": [str(v) for v in point],
        "orbit_colength": ideal.colength(),
        "graded_generators": [str(g) for g in graded.generators],
        "graded_colength": graded.colength(),
    }
    ok = record["orbit_colength"] == record["graded_colength"]
    multiplicities = sorted((point.count(v) for v in set(point)), reverse=True)
    lam = Partition(multiplicities)
    record["orbit_type"] = list(lam.parts)
    if sum(point) == 0:
        record["matches_tanisaki"] = graded == tanisaki_ideal(lam)
        ok = ok and record["matches_tanisaki"]
    record["ok"] = ok
    return [record], ok


# ---------------------------------------------------------------------------
# report plumbing


def _strip_wall_times(obj):
    """Remove timing fields so JSON reports are byte-identical per seed."""
    if isinstance(obj, dict):
        return {k: _strip_wall_times(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_strip_wall_times(v) for v in obj]
    return obj


def _render_text(record: dict) -> str:
    lines = [f"# {record['command']} n={record['n']} seed={record['seed']} "
             f"version={record['library_version']} ok={record['ok']}"]

    def walk(obj, indent: int) -> None:
        pad = "  " * indent
        if isinstance(obj, dict):
            for key, value in obj.items():
                if isinstance(value, (dict, list)) and value and not isinstance(value, str):
                    lines.append(f"{pad}{key}:")
                    walk(value, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {value}")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(item, indent + 1)
                else:
                    lines.append(f"{pad}- {item}")

    walk(record["results"], 1)
    return "\n".join(lines) + "\n"


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="symideal",
        description="exact verification tools for zero-dimensional symmetric ideals")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, help="number of variables")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for table1, capped at the CPU count")

    p = sub.add_parser("specht", help="Specht and higher Specht polynomials of a shape")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. 2,1")
    p.add_argument("--tableau", default=None, help="rows joined by /, entries by ,")

    p = sub.add_parser("tanisaki", help="build and verify the ideal of a partition")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mode", choices=MODES + ("all",), default="all")

    p = sub.add_parser("table1", help="verify the full colength <= 2n classification")
    common(p)

    p = sub.add_parser("lemmas", help="verify the membership relations and inclusion chains")
    common(p)

    for verb in ("tangent", "decompose"):
        p = sub.add_parser(verb)
        common(p)
        source = p.add_mutually_exclusive_group()
        source.add_argument("--gens", default=None, help="semicolon-separated generators")
        source.add_argument("--row", default=None, help="classification row label, e.g. 7a")
        source.add_argument("--tanisaki", default=None, help="partition, e.g. 2,1")
        p.add_argument("--colength", type=int, default=None, help="with --row")
        p.add_argument("--param", default=None, help="a:b for parameter rows, with --row")

    p = sub.add_parser("gr", help="orbit vanishing ideal and its associated graded")
    common(p)
    p.add_argument("--point", required=True, help="comma-separated rational coordinates")

    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse reads an option value "--" as []
        parser.exit(2, f"symideal {args.command}: '--' is not an option value\n")
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    handlers = {
        "specht": cmd_specht,
        "tanisaki": cmd_tanisaki,
        "table1": cmd_table1,
        "lemmas": cmd_lemmas,
        "tangent": cmd_tangent,
        "decompose": cmd_decompose,
        "gr": cmd_gr,
    }
    started = time.monotonic()
    try:
        verb, (lo, hi) = args.command, N_GUARDS[args.command]
        if getattr(args, "tableau", None):
            verb, hi = "specht --tableau", TABLEAU_N_BOUND
        if not lo <= args.n <= hi:
            raise ValueError(f"{verb} is guarded at {lo} <= n <= {hi}")
        if args.out and (os.path.isdir(args.out)
                         or not os.path.isdir(os.path.dirname(os.path.abspath(args.out)))):
            raise ValueError(f"--out {args.out!r} is not a file in an existing directory")
        results, ok = handlers[args.command](args)
    except ValueError as error:
        parser.exit(2, f"symideal {args.command}: {error}\n")
    except ArithmeticError as error:
        parser.exit(3, f"symideal {args.command}: internal invariant broken: {error}\n")
    record = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "monomial_order": "degrevlex",
        "command": args.command,
        "n": args.n,
        "seed": args.seed,
        "ok": ok,
        "results": results,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    if args.format == "json":
        text = json.dumps(_strip_wall_times(record), indent=2, default=str) + "\n"
    else:
        text = _render_text(record)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as error:
            parser.exit(2, f"symideal {args.command}: cannot write --out {args.out!r}: "
                           f"{error.strerror}\n")
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
