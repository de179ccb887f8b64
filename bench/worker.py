"""Run one workload in this fresh interpreter; print one JSON result line.

run.py starts this script; it is not meant to be run by hand:

    worker.py --workload W --seed N --seconds S --trace 0|1 --spawned-at T
              [--setup-only] [--spans PATH]

``--spawned-at`` is the parent's ``perf_counter()`` just before it
started this process.  On Linux ``perf_counter`` reads CLOCK_MONOTONIC,
which all processes share, so the difference taken just before the first
timed call is the set-up time: interpreter start, ``import khcube``,
input generation and, when tracing, installing the wrappers.

Items run one at a time (a closed loop, no threads).  Each item's output
is checked only after every item has run, so the checks neither add to
the timings nor raise the peak RSS reported for the workload.

Every time reported is converted to a reference CPU speed with the
probes of ``speed.py``: set-up by probes taken right after it, the run
and each item by the probes taken while they ran.  The measured times
are reported too, under ``raw``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from time import perf_counter


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def percentiles(xs):
    """(p50, p90) of a sample; a single value is both."""
    if len(xs) == 1:
        return xs[0], xs[0]
    cuts = statistics.quantiles(xs, n=10, method="inclusive")
    return cuts[4], cuts[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import speed
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    specs = workload.generate(args.seed, args.seconds)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    setup_raw = perf_counter() - args.spawned_at
    setup_s = setup_raw * speed.spot_rate()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    outputs, spans, raised = [], [], {}
    sampler = speed.Sampler()
    sampler.start()
    first = perf_counter()
    for i, spec in enumerate(specs):
        if tracer:
            tracer.begin_item(i)
        t0, p0 = perf_counter(), sampler.spent
        try:
            out = workload.run(spec)
        except Exception as exc:  # an item that raises counts as failed
            out = None
            raised[i] = f"{type(exc).__name__}: {exc}"
        spans.append((t0, perf_counter(), sampler.spent - p0))
        if tracer:
            tracer.end_item()
        outputs.append(out)
    run = (first, perf_counter(), sampler.spent)
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = workloads.check_all(workload, specs, outputs)
    failures.update(raised)
    p50, p90 = percentiles([speed.converted(x, sampler) for x in spans])
    raw50, raw90 = percentiles([t1 - t0 for t0, t1, _ in spans])
    result = {
        "setup_s": setup_s,
        "wall_s": speed.converted(run, sampler),
        "item_p50_s": p50,
        "item_p90_s": p90,
        "peak_rss_mb": peak_rss_mb,
        "raw": {"setup_s": setup_raw, "wall_s": run[1] - run[0],
                "item_p50_s": raw50, "item_p90_s": raw90,
                "speed": sampler.rate_between(*run[:2]),
                "probes": len(sampler.took)},
        "items": len(specs),
        "failed": len(failures),
        "failures": [f"item {i}: {why}" for i, why in
                     sorted(failures.items())[:5]],
        "inputs_sha256": digest(specs),
        "outputs_sha256": digest(outputs),
    }
    if tracer:
        # Layer times at reference speed too, by the run's mean speed.
        rate = result["raw"]["speed"]
        result["layers"] = {k: v * rate if k.endswith("_s") else v
                            for k, v in tracer.layer_metrics().items()}
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
