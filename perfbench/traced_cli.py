"""`python -m birkhoff2d` with the per-layer tracer installed.

Runs one CLI command exactly as the module entry point would, then writes
the layer metrics to $PERFBENCH_TRACE_OUT.json and the spans to
$PERFBENCH_TRACE_OUT.tsv.  Used by the traced cli-session workload.
"""
import json
import os
import sys
import time

import tracer


def main():
    out = os.environ["PERFBENCH_TRACE_OUT"]
    t0 = time.perf_counter()
    import birkhoff2d.cli
    import_s = time.perf_counter() - t0
    tr = tracer.install()
    with tr.span("bench.check"):
        code = birkhoff2d.cli.run(sys.argv[1:])
    sys.stdout.flush()
    metrics = tracer.layer_metrics(tr)
    metrics["cli.import_s"] = import_s
    with open(out + ".json", "w") as fh:
        json.dump(metrics, fh)
    tracer.write_spans(tr, out + ".tsv", os.path.basename(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
