"""The benchmark's workloads: inputs, operations and known answers.

Each workload drives the library through the functions the CLI verbs use
(``cli.run``, ``cli.verify_row_case`` and
``tanisaki.inclusion_chain_check``).  An operation returns the record the
CLI would report; its check compares that record with an answer taken
from the classification catalog or from a closed form, never from the
code path being timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Callable

from symideal import cli, tanisaki
from symideal.classification import (classification_cases,
                                     lemma_membership_ideal_a,
                                     lemma_membership_ideal_b,
                                     pair_product_ideal, relation_f,
                                     relation_g, relation_p)
from symideal.combinat import Partition, kostka_decomposition, partitions_of
from symideal.poly import Polynomial, power_sum


@dataclass
class Operation:
    """One closed-loop request: ``call`` returns a report record and
    ``check`` lists how that record differs from the known answer."""

    label: str
    call: Callable[[], dict]
    check: Callable[[dict], list[str]]


def strip_wall_times(obj):
    """The report with its timing fields removed, as the CLI strips them."""
    if isinstance(obj, dict):
        return {k: strip_wall_times(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [strip_wall_times(v) for v in obj]
    return obj


def _expect(checks: dict[str, bool]) -> list[str]:
    return [name for name, holds in checks.items() if not holds]


def _cli_record(argv: list[str]) -> dict:
    """Run one CLI verb in-process and return its parsed JSON report."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(argv + ["--format", "json"])
    record = json.loads(buffer.getvalue())
    record["exit_code"] = code
    return record


# -- classify ---------------------------------------------------------------

def parameter_samples(seed: int, count: int = 3) -> list[tuple[Fraction, Fraction]]:
    """Rational [a:b] samples for the parameter rows, drawn as ``table1
    --seed`` draws them, so that a pass at seed s checks the same rows as
    ``table1 --n 5 --seed s``."""
    rng = random.Random(seed)
    out: list[tuple[Fraction, Fraction]] = []
    while len(out) < count:
        a = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        b = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        if a != 0 and b != 0:
            out.append((a, b))
    return out


def _row_operation(case) -> Operation:
    def check(record: dict) -> list[str]:
        tangent = record["tangent_dim"]
        return _expect({
            "colength": record["colength"] == case.colength <= 2 * case.n,
            "decomposition": record["decomposition"] == str(case.expected),
            "geometry": (tangent == case.component_dim if case.geometry == "smooth"
                         else tangent > case.component_dim),
            "verdict": record["ok"] is True,
        })

    label = f"row {case.label} r={case.colength}"
    if case.param is not None:
        label += f" [{case.param[0]}:{case.param[1]}]"
    return Operation(label, lambda: cli.verify_row_case(case), check)


def classify(seed: int) -> list[Operation]:
    """Every classification row at n = 5: many small ideals built cold."""
    return [_row_operation(case) for case in classification_cases(5, parameter_samples(seed))]


# -- tanisaki ---------------------------------------------------------------

# the shapes of 6 with colength <= 120; (2,1,1,1,1) takes minutes
TANISAKI_SHAPES = ((6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (2, 2, 2), (3, 1, 1, 1))


def _tanisaki_operation(parts: tuple[int, ...]) -> Operation:
    lam = Partition(parts)
    colength = factorial(lam.n) // prod(factorial(p) for p in parts)
    decomposition = str(kostka_decomposition(lam))
    argv = ["tanisaki", "--n", str(lam.n), "--lambda", ",".join(map(str, parts)),
            "--mode", "all"]

    def check(record: dict) -> list[str]:
        result = record["results"][0]
        return _expect({
            "exit_code": record["exit_code"] == 0,
            "colength": result["colength"] == colength,
            "decomposition": result["decomposition"] == decomposition,
            "modes_agree": result["modes_agree"] is True,
        })

    return Operation(f"tanisaki {list(parts)}", lambda: _cli_record(argv), check)


def tanisaki_modes(seed: int) -> list[Operation]:
    """Three constructions per shape, compared by reduced Groebner basis."""
    return [_tanisaki_operation(parts) for parts in TANISAKI_SHAPES]


# -- tangent ----------------------------------------------------------------

TANGENT_SHAPES = ((5, 1), (4, 2), (3, 3), (4, 1, 1))


def _tangent_operation(parts: tuple[int, ...]) -> Operation:
    argv = ["tangent", "--n", str(sum(parts)), "--tanisaki", ",".join(map(str, parts))]

    def check(record: dict) -> list[str]:
        # the Tanisaki points are smooth, with tangent dimension the
        # number of parts of the shape
        return _expect({
            "exit_code": record["exit_code"] == 0,
            "tangent_dim": record["results"][0]["tangent_dim"] == len(parts),
        })

    return Operation(f"tangent {list(parts)}", lambda: _cli_record(argv), check)


def tangent(seed: int) -> list[Operation]:
    """Few large quotients, normal forms repeated on one cached basis."""
    return [_tangent_operation(parts) for parts in TANGENT_SHAPES]


# -- lemmas -----------------------------------------------------------------

def _membership_block(n: int) -> dict:
    """The containment and membership checks of ``lemmas`` (n >= 4)."""
    x1, x2 = Polynomial.variable(1, n), Polynomial.variable(2, n)
    pair_ideal = pair_product_ideal(n)
    cube_difference = x1 ** 3 - x2 ** 3
    ideal_a = lemma_membership_ideal_a(n)
    ideal_b = lemma_membership_ideal_b(n)
    return {
        "containments": {
            "relation_f": pair_ideal.contains(relation_f(n)),
            "relation_g": pair_ideal.contains(relation_g(n)),
            "relation_p": pair_ideal.contains(relation_p(n)),
        },
        "memberships": {
            "cube_difference_in_first": ideal_a.contains(cube_difference),
            "p2_difference_in_second": ideal_b.contains(power_sum(2, n) * (x1 - x2)),
            "cube_difference_in_second": ideal_b.contains(cube_difference),
        },
    }


def _chain_record(mu: Partition) -> dict:
    report = tanisaki.inclusion_chain_check(mu)
    return {
        "mu": list(mu.parts),
        "holds": report.ok,
        "first_strict": report.first_strict,
        "second_strict": report.second_strict,
        "witnesses": report.witnesses,
        "failures": report.failures,
    }


def _check_membership(record: dict) -> list[str]:
    # the paper's lemmas assert every one of these relations
    return [name for block in record.values() for name, holds in block.items() if not holds]


def _check_chain(record: dict) -> list[str]:
    return _expect({"holds": record["holds"] is True, "no_failures": not record["failures"]})


def lemmas(seed: int) -> list[Operation]:
    """Specht construction and polynomial products dominate here."""
    n = 5
    ops = [Operation("memberships", lambda: _membership_block(n), _check_membership)]
    for mu in partitions_of(n):
        ops.append(Operation(f"chain {list(mu.parts)}",
                             lambda mu=mu: _chain_record(mu), _check_chain))
    return ops


WORKLOADS: dict[str, Callable[[int], list[Operation]]] = {
    "classify": classify,
    "tanisaki": tanisaki_modes,
    "tangent": tangent,
    "lemmas": lemmas,
}
