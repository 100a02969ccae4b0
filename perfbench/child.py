"""One benchmark process: set up a workload, then run one pass over it.

Started by ``run.py`` in a fresh interpreter so that every pass sees cold
caches and its own peak memory.  Protocol on standard output: the line
``ready {probe counters}`` once the inputs exist (the parent times set-up
up to it), then, unless ``--setup-only``, one JSON line with the pass's
results.  The host-speed probe (``probe.py``) runs from the process's
first line on, and every time reported is scaled by it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path

from probe import REFERENCE_S, SpeedProbe, scaled
from tracing import Tracer, unit_of


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="trace the pass and write its spans to this file")
    args = parser.parse_args()

    probe = SpeedProbe()
    probe.start()
    try:
        return run(args, probe)
    finally:
        probe.stop()


def run(args, probe: SpeedProbe) -> int:
    started = probe.mark()

    import symideal
    source = Path(__file__).resolve().parent.parent / "src"
    if source not in Path(symideal.__file__).resolve().parents:
        print(f"symideal imported from {symideal.__file__}, not from {source}", file=sys.stderr)
        return 2

    tracer = None
    if args.spans:
        tracer = Tracer()
        # wrap before the workload module binds anything, so that set-up
        # work such as building the classification cases is traced too
        import symideal.cli  # noqa: F401  (loads every library module)
        tracer.install()
    from workloads import WORKLOADS, strip_wall_times

    operations = WORKLOADS[args.workload](args.seed)
    probe.ensure_samples(started)
    _, samples, probe_s = SpeedProbe.interval(started, probe.mark())
    print("ready", json.dumps({"samples": samples, "probe_s": probe_s}), flush=True)
    if args.setup_only:
        return 0

    intervals = []
    records: list = []
    failures: list[str] = []
    pass_start = probe.mark()
    for op in operations:
        before = probe.mark()
        try:
            record = op.call() if tracer is None else tracer.span("bench.op", op.call)()
        except Exception:  # an operation that raises counts as failed
            intervals.append(SpeedProbe.interval(before, probe.mark()))
            failures.append(f"{op.label}: raised\n{traceback.format_exc()}")
            records.append(None)
            continue
        intervals.append(SpeedProbe.interval(before, probe.mark()))
        records.append(strip_wall_times(record))
        wrong = op.check(record)
        if wrong:
            failures.append(f"{op.label}: wrong {', '.join(wrong)}")
    own_s, samples, probe_s = SpeedProbe.interval(pass_start, probe.mark())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    pass_mean = probe_s / samples if samples else REFERENCE_S
    text = json.dumps(records, indent=2, default=str)
    result = {
        "op_s": [scaled(own, n, p, pass_mean) for own, n, p in intervals],
        "raw_op_s": [own for own, _, _ in intervals],
        "peak_rss_mb": peak_kib / 1024,
        "attempted": len(operations),
        "failures": failures,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }
    if tracer is not None:
        # span times include the probe's share of the pass; scale them as
        # the pass is scaled
        factor = scaled(own_s, samples, probe_s, pass_mean) / (own_s + probe_s)
        result["layers"] = {name: value * factor if unit_of(name) == "s" else value
                            for name, value in tracer.layer_metrics().items()}
        result["missing"] = tracer.missing
        tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
