"""One pass of one workload in a fresh interpreter.

The package's functor and transformation caches are module-global, so a
second pass in the same process would mostly time dictionary lookups; every
sample is therefore its own process, cold, as a CLI user or a first test
session starts.  Prints one JSON object on its last line of output.

    python3 perfbench/worker.py --workload ortho-sweep --seed 0 --trace 0 --sample 0

With --setup-only it stops after set-up: an extra set-up sample.
"""
import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import tracer as tracing
import workloads

SPANS = workloads.BENCH_TMP / "spans"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sample", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only setup_s")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(workloads.SRC))
    import birkhoff2d
    if workloads.SRC not in Path(birkhoff2d.__file__).resolve().parents:
        raise SystemExit("birkhoff2d was not imported from %s" % workloads.SRC)
    import_s = time.perf_counter() - t0

    tr = tracing.install() if args.trace else None
    span = tr.span if tr else (lambda name: nullcontext())
    extra = {}
    trace_dir = None
    if tr and args.workload == "cli-session":
        trace_dir = SPANS / "cli-session"
        trace_dir.mkdir(parents=True, exist_ok=True)
        for old in trace_dir.iterdir():
            old.unlink()
        extra["trace_dir"] = trace_dir
    try:
        with span("bench.setup"):
            plan = workloads.WORKLOADS[args.workload](args.seed, **extra)
    except workloads.InputMismatch as exc:
        print(json.dumps({"setup_error": "inputs differ from the known answer: %s" % exc}))
        return 0
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies, failures, observed = [], [], {}
    clock = time.perf_counter
    start = clock()
    for label, run, judge in plan.checks:
        c0 = clock()
        try:
            with span("bench.check"):
                obs = run()
            error = None
        except Exception as exc:  # a check that raises is a failed check
            obs, error = None, exc
        latencies.append(clock() - c0)
        observed[label] = obs
        if error is not None:
            failures.append("%s raised %r" % (label, error))
        elif not judge(obs):
            failures.append("%s: unexpected verdict %r" % (label, obs))
    run_s = clock() - start
    failed = len(failures)
    if plan.finish is not None:
        for message, count in plan.finish(observed):
            failures.append(message)
            failed += count
    failed = min(failed, len(latencies))

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "cli-session":
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "latencies_ms": [1000.0 * x for x in latencies],
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures[:5],
        "peak_rss_mb": rss_kb / 1024.0,
        "verdicts": hashlib.sha256(
            repr(sorted((k, repr(v)) for k, v in observed.items())).encode()).hexdigest(),
    }
    if tr:
        layers = tracing.layer_metrics(tr)
        layers["cli.import_s"] = import_s
        if trace_dir is not None:
            layers = dict.fromkeys(layers, 0)
            for path in sorted(trace_dir.glob("*.json")):
                for key, value in json.loads(path.read_text()).items():
                    layers[key] = layers.get(key, 0) + value
        result["layers"] = layers
        SPANS.mkdir(parents=True, exist_ok=True)
        tracing.write_spans(tr, SPANS / ("%s.tsv" % args.workload), args.sample)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
