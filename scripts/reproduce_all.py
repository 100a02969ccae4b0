#!/usr/bin/env python3
"""Rerun the standard verification battery and collect JSON reports.

Covers, for n up to --max-n (5 by default, at most 6), the classification
tables at n = 3..max-n (including tangent-space verdicts), the membership
relations and inclusion chains at n = 3..max-n and, from --max-n 5 on, at
n = 6, and per-partition ideal and tangent reports for every partition of
n <= max-n.  --max-n 6 writes 64 reports, in about a minute on a 2-vCPU
machine.  Each tangent line shows the tangent dimension beside the number
of parts of the shape, which it equals at a smooth point; that comparison
is reported, not checked.  Exits nonzero if any verb fails.
"""

import argparse
import json
import pathlib
import sys

from symideal.cli import run
from symideal.combinat import partitions_of


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="reports", help="report directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--max-n", type=int, default=5, choices=(3, 4, 5, 6))
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failures = []

    def invoke(argv, name):
        code = run(argv + ["--format", "json", "--seed", str(args.seed),
                           "--out", str(out / name)])
        print(f"{name}: {'ok' if code == 0 else 'FAILED'}")
        if code != 0:
            failures.append(name)

    for n in range(3, args.max_n + 1):
        invoke(["table1", "--n", str(n), "--jobs", str(args.jobs)], f"table1_n{n}.json")
    for n in range(3, (6 if args.max_n == 5 else args.max_n) + 1):
        invoke(["lemmas", "--n", str(n)], f"lemmas_n{n}.json")
    for n in range(2, args.max_n + 1):
        for lam in partitions_of(n):
            tag = "-".join(str(p) for p in lam.parts)
            parts = ",".join(str(p) for p in lam.parts)
            invoke(["tanisaki", "--n", str(n), "--lambda", parts], f"tanisaki_n{n}_{tag}.json")
            name = f"tangent_n{n}_{tag}.json"
            invoke(["tangent", "--n", str(n), "--tanisaki", parts], name)
            if name not in failures:
                record = json.loads((out / name).read_text())["results"][0]
                print(f"  tangent_dim {record['tangent_dim']}, parts {len(lam.parts)}")

    if failures:
        print("failures:", ", ".join(failures))
        return 1
    print(f"all reports written to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
