"""Benchmark of the symideal verification verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  NAME is one of ``classify``, ``tanisaki``, ``tangent``,
``lemmas`` (see ``workloads.py``), or ``all`` to run each in turn.

Every pass over a workload runs in a fresh interpreter (``child.py``), so
caches start cold and peak memory is the pass's own.  Inside it the load
is a closed loop with one operation in flight, and every operation is
checked against its known answer.

``--trace 0`` runs one pass, and more while the next one is expected to
end within S seconds, plus set-up-only processes up to SETUP_SAMPLES
set-up measurements.  It reports the end-to-end metrics, with times in
seconds at the probe's reference speed (``probe.py``); the raw medians
are printed beside them.  ``--trace 1`` ignores S: it runs one untraced
pass and two traced passes of the same seed, requires the traced passes
to agree on every count metric, writes their spans under
``.perfbench_out/`` and reports the per-layer metrics, times again in
seconds at the reference speed.

Every metric is printed with its unit and sample count; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from probe import REFERENCE_S, scaled
from tracing import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("classify", "tanisaki", "tangent", "lemmas")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload: str, seed: int, setup_only: bool = False,
          spans: Path | None = None) -> tuple[float, float, dict | None]:
    """Start one child; return its scaled and raw set-up times and its
    pass result."""
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed)]
    if setup_only:
        command.append("--setup-only")
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    tag, _, counters = first.partition(" ")
    if code != 0 or tag != "ready":
        raise BenchError(f"{workload} child exited with code {code}")
    probe = json.loads(counters)
    own = setup - probe["probe_s"]
    setup_scaled = scaled(own, probe["samples"], probe["probe_s"], REFERENCE_S)
    result = None if setup_only else json.loads(rest.splitlines()[-1])
    return setup_scaled, own, result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return correctness, counts and metrics with
    their sample counts."""
    passes: list[dict] = []
    setups: list[tuple[float, float]] = []
    problems: list[str] = []
    if trace:
        OUT.mkdir(exist_ok=True)
        passes.append(spawn(workload, seed)[2])
        traced = [spawn(workload, seed, spans=OUT / f"{workload}-seed{seed}-{k}.spans.jsonl.gz")[2]
                  for k in (1, 2)]
        counts = [name for name in traced[0]["layers"] if unit_of(name) != "s"]
        for name in counts:
            values = [t["layers"][name] for t in traced]
            if values[0] != values[1]:
                problems.append(f"count {name} differs between traced runs: {values}")
        for target in traced[0]["missing"]:
            print(f"warning: traced function {target} not found", file=sys.stderr)
        passes += traced
    else:
        deadline = perf_counter() + seconds
        while True:
            started = perf_counter()
            setup, raw_setup, result = spawn(workload, seed)
            setups.append((setup, raw_setup))
            passes.append(result)
            now = perf_counter()
            if now + (now - started) > deadline:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, setup_only=True)[:2])

    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        problems.append(f"report digests differ between passes: {digests}")
    for p in passes:
        problems += p["failures"]

    metrics: dict[str, tuple[float, str, int]] = {}
    raw: dict[str, float] = {}
    if trace:
        untraced, traced = passes[0], passes[1:]
        for name in traced[0]["layers"]:
            values = [t["layers"][name] for t in traced]
            value = values[0] if name in counts else statistics.median(values)
            metrics[name] = (value, unit_of(name), len(traced))
        traced_wall = statistics.median(sum(t["op_s"]) for t in traced)
        overhead = traced_wall / sum(untraced["op_s"]) - 1
        metrics["bench.trace_overhead"] = (overhead, "ratio", len(traced))
    else:
        def timings(key: str) -> dict[str, tuple[float, int]]:
            ops = [s for p in passes for s in p[key]]
            return {
                "wall_s": (statistics.median(sum(p[key]) for p in passes), len(passes)),
                "op_s.p50": (statistics.median(ops), len(ops)),
                "op_s.max": (statistics.median(max(p[key]) for p in passes), len(passes)),
            }

        values = {"setup_s": (statistics.median(s for s, _ in setups), len(setups))}
        values.update(timings("op_s"))
        values["peak_rss_mb"] = (statistics.median(p["peak_rss_mb"] for p in passes), len(passes))
        metrics = {name: (value, "MB" if name == "peak_rss_mb" else "s", count)
                   for name, (value, count) in values.items()}
        raw = {name: value for name, (value, _) in timings("raw_op_s").items()}
        raw["setup_s"] = statistics.median(r for _, r in setups)
    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "problems": problems,
        "digest": digests[0],
        "metrics": metrics,
        "raw": raw,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "symideal" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
            for problem in outcome["problems"]:
                print(f"{name}: {problem}", file=sys.stderr)
            print(f"{name}: seed {args.seed}, {outcome['attempted']} operations, "
                  f"{outcome['failed']} failed, report sha256 {outcome['digest']}")
            for metric, (value, unit, count) in outcome["metrics"].items():
                shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6f}"
                line = f"{name:9} {metric:38} {shown} {unit:6} n={count}"
                if metric in outcome["raw"]:
                    line += f"  (raw {outcome['raw'][metric]:.6f})"
                print(line)
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 1

    def metric_key(workload: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{workload}.{metric}"

    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {metric_key(w, m): {"value": value, "unit": unit}
                    for w, r in results.items()
                    for m, (value, unit, _count) in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
