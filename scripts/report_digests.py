#!/usr/bin/env python3
"""Print the SHA-256 of a fixed set of JSON reports.

The set is the ROADMAP "same behaviour" set: ``table1 --n 3..5 --seed
0..2``, ``lemmas --n 3..5`` and ``tanisaki --mode all`` for every partition
of n = 3..5.  Then come ``specht --lambda`` and ``tanisaki --mode apolar``
for the same partitions, the reports that print Specht, higher Specht and
inverse-system polynomials as text, then ``tanisaki --mode apolar``
for the eight shapes of 6 of colength <= 120 and for (2,2,1,1) and
(2,1,1,1,1), then ``tangent --tanisaki`` for every partition of n = 3..5
and eight shapes of 6, ``decompose --tanisaki`` for every partition of
n = 3..6, ``gr`` at six points, ``decompose --gens`` for a free orbit at
n = 3 and for a homogeneous ideal given by inhomogeneous generators, and
last ``lemmas --n 6`` and ``tanisaki --mode apolar`` at 1^6, whose
constructions skip the most Groebner work above the degree asked.  The
orbit ideals are the only non-homogeneous ideals in the set.  Each report
runs in-process through ``cli.run`` with ``--format json``, and one line
``sha256  command`` is printed per report, in a fixed order: 126 in all,
in about 16 s on a 2-vCPU machine.  The listing is committed beside this
script as ``report_digests.txt``, and CI compares the output with it, so
a change to any report fails CI; a deliberate change updates the listing
and says why.  To check a change by hand:

    PYTHONPATH=src python scripts/report_digests.py | diff scripts/report_digests.txt -

It is not part of the test suite.  Exits 1 if a report does not pass.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

from symideal.cli import run
from symideal.combinat import partitions_of


# the shapes of 6 with colength <= 120, as in the benchmark's tanisaki
# workload, then (2,2,1,1) and (2,1,1,1,1), colength 180 and 360, whose
# dual layers keep the fewest of the images they could take
N6_APOLAR_SHAPES = ("6", "5,1", "4,2", "4,1,1", "3,3", "3,2,1", "2,2,2", "3,1,1,1",
                    "2,2,1,1", "2,1,1,1,1")
# the shapes of 6 whose tangent report takes under twenty seconds
N6_TANGENT_SHAPES = ("5,1", "4,2", "3,3", "4,1,1", "3,2,1", "2,2,2", "2,2,1,1", "3,1,1,1")
# split on whitespace, so the generators are written without spaces
DECOMPOSE_GENS = ((3, "x1+x2+x3;x1^2+x2^2+x3^2-6;x1^3+x2^3+x3^3"),  # the orbit of (0,√3,-√3)
                  (2, "x1+x2+x1^2;x1+x2;x1*x2"))  # == (x1+x2, x1^2, x1*x2)
# orbit points: one of orbit type (3,1), a rational one with distinct
# coordinates, the free orbit at n = 5, one of orbit type (2,2,1,1) with
# 180 points, one of type (2,1,1,1,1) with 360 and the free orbit at n = 6,
# 720 points, the largest kernel that the orbit walk's echelon meets here
GR_POINTS = ((4, "3,-1,-1,-1"), (4, "1/2,-3,7,0"), (5, "1,2,3,4,5"),
             (6, "1,1,2,2,3,-9"), (6, "0,1,2,3,4,4"), (6, "1,2,3,4,5,6"))


def commands() -> list[str]:
    out = [f"table1 --n {n} --seed {seed}" for n in range(3, 6) for seed in range(3)]
    out += [f"lemmas --n {n}" for n in range(3, 6)]
    for n in range(3, 6):
        for lam in partitions_of(n):
            parts = ",".join(str(p) for p in lam.parts)
            out.append(f"tanisaki --n {n} --lambda {parts} --mode all")
    for n in range(3, 6):
        for lam in partitions_of(n):
            parts = ",".join(str(p) for p in lam.parts)
            out.append(f"specht --n {n} --lambda {parts}")
            out.append(f"tanisaki --n {n} --lambda {parts} --mode apolar")
    for parts in N6_APOLAR_SHAPES:
        out.append(f"tanisaki --n 6 --lambda {parts} --mode apolar")
    for n in range(3, 6):
        for lam in partitions_of(n):
            parts = ",".join(str(p) for p in lam.parts)
            out.append(f"tangent --n {n} --tanisaki {parts}")
    for parts in N6_TANGENT_SHAPES:
        out.append(f"tangent --n 6 --tanisaki {parts}")
    for n in range(3, 7):
        for lam in partitions_of(n):
            parts = ",".join(str(p) for p in lam.parts)
            out.append(f"decompose --n {n} --tanisaki {parts}")
    out += [f"gr --n {n} --point {point}" for n, point in GR_POINTS]
    out += [f"decompose --n {n} --gens {gens}" for n, gens in DECOMPOSE_GENS]
    out += ["lemmas --n 6", "tanisaki --n 6 --lambda 1,1,1,1,1,1 --mode apolar"]
    return out


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        for command in commands():
            code = run(command.split() + ["--format", "json", "--out", str(path)])
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {command}", flush=True)
            if code != 0:
                failed.append(command)
    for command in failed:
        print(f"failed: {command}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
