"""birkhoff2d benchmark: a closed-loop batch verifier over five workloads.

    python3 perfbench/run.py --workload ortho-sweep --seed 0 --seconds 20 --trace 0

One client issues the next check only after the previous verdict returns,
and one worker process runs at a time.  Each sample is one pass of the
workload in a fresh interpreter (worker.py): set-up, then every check in the
order the seed gives.  A run repeats passes until it has measured for
--seconds, and in any case makes at least three passes and pools at least
100 checks, so that check_ms.p90 has ten samples beyond it; a run that
cannot reach these floors within WALL_LIMIT fails.  With --trace 0 two more
fresh workers stop after set-up after each pass, so setup_s is a median over
three samples per pass.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: medians
over passes of set-up time and peak RSS, the mean pass time, and check
latency pooled over all passes.  --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of the traced passes (lower
medians) plus trace.overhead_s, the traced minus the untraced mean pass time.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  The lines before it repeat every metric with its unit and give
fail_ratio, the failed share of the checks attempted.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
MIN_CHECKS = 100
SETUP_REPEATS = 2  # extra set-up-only workers after each untraced pass
WALL_LIMIT = 150.0  # seconds; no new pass starts once it could end later


class BenchError(Exception):
    pass


def run_worker(workload, seed, trace, sample, budget, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--sample", str(sample)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("pass %d of %s did not finish in %.0f s" % (sample, workload, budget))
    if proc.returncode != 0:
        raise BenchError("pass %d of %s exited %d:\n%s"
                         % (sample, workload, proc.returncode, err.decode()[-2000:]))
    result = json.loads(out.decode().splitlines()[-1])
    if "setup_error" in result:
        raise BenchError(result["setup_error"])
    return result


def run_passes(workload, seed, seconds, trace):
    """Untraced passes, or alternating untraced and traced ones, plus the
    set-up times of the untraced passes and of extra set-up-only workers."""
    start = time.monotonic()
    passes = {0: [], 1: []}
    setups = []
    while True:
        kind = 1 if trace and len(passes[1]) < len(passes[0]) else 0
        sample = len(passes[0]) + len(passes[1])
        budget = WALL_LIMIT + 25.0 - (time.monotonic() - start)
        passes[kind].append(run_worker(workload, seed, kind, sample, budget))
        if not trace:
            setups.append(passes[0][-1]["setup_s"])
            for _ in range(SETUP_REPEATS):
                budget = WALL_LIMIT + 25.0 - (time.monotonic() - start)
                setups.append(run_worker(workload, seed, 0, sample, budget, True)["setup_s"])
        elapsed = time.monotonic() - start
        done = passes[0] + passes[1]
        floors = (len(done) >= MIN_PASSES
                  and sum(p["attempted"] for p in done) >= MIN_CHECKS
                  and (not trace or len(passes[1]) == len(passes[0])))
        if floors and elapsed >= seconds:
            return passes, setups
        if elapsed * (len(done) + 1) / len(done) > WALL_LIMIT:
            if floors:
                return passes, setups
            raise BenchError("%d passes (%d traced) and %d checks took %.0f s; the next pass"
                             " could end after %.0f s, before %d passes and %d checks"
                             % (len(done), len(passes[1]), sum(p["attempted"] for p in done),
                                elapsed, WALL_LIMIT, MIN_PASSES, MIN_CHECKS))


def end_to_end(untraced, setups):
    latencies = sorted(x for p in untraced for x in p["latencies_ms"])
    return {
        "setup_s": statistics.median(setups),
        # The host's speed flips between states within seconds; a median pass
        # time jumps with the state most passes saw, while a mean moves with
        # the share of time spent in each and repeats more closely from run
        # to run (README.md, Steadiness).
        "run_s": statistics.fmean(p["run_s"] for p in untraced),
        "check_ms.p50": statistics.median(latencies),
        "check_ms.p90": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }


def per_layer(untraced, traced):
    layers = [p["layers"] for p in traced]
    # median_low keeps counts whole; they repeat exactly anyway
    out = {k: statistics.median_low(layer[k] for layer in layers) for k in layers[0]}
    calls = out["fincat.enum_functors.calls"]
    out["fincat.enum_functors.repeat_share"] = (
        1.0 - out["fincat.enum_functors.distinct"] / calls if calls else 0.0)
    out["trace.overhead_s"] = (statistics.fmean(p["run_s"] for p in traced)
                               - statistics.fmean(p["run_s"] for p in untraced))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        passes, setups = run_passes(args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    done = passes[0] + passes[1]
    values = per_layer(passes[0], passes[1]) if args.trace else end_to_end(passes[0], setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("benchmark failed: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(p["attempted"] for p in done)
    failed = sum(p["failed"] for p in done)

    print("%s seed %d: %d passes (%d traced), %d checks per pass"
          % (args.workload, args.seed, len(done), len(passes[1]), done[0]["attempted"]))
    for name, m in metrics.items():
        print("  %-36s %14.6f %s" % (name, m["value"], m["unit"]))
    print("  %-36s %14.6f (%d of %d checks failed)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    for message in sorted({msg for p in done for msg in p["failures"]})[:10]:
        print("  failure: %s" % message)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
