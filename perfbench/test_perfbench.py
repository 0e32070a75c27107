"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

Each workload runs once untraced and twice traced with the same seed: the
verdicts must agree, every layer the workload is meant to stress must show
calls, and every count must repeat exactly so that a later change can cite
one as an exact figure.  Every per-layer metric of BENCHMARK.json must be
nonzero on at least one listed workload.  Takes about a minute and a half.
"""
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Metrics that must be nonzero on each workload: the layers it is chosen to stress.
STRESSED = {
    "ortho-sweep": ("fincat.calls", "factor.calls", "factor.ortho.calls",
                    "factor.fillins.calls", "fincat.compose.calls", "fincat.whisker.calls"),
    "kernel-lemmas": ("fincat.calls", "kernel.calls", "kernel.kernels_built",
                      "kernel.coequify.calls", "kernel.universal.calls",
                      "fincat.enum_nats.calls"),
    "variety": ("theory.calls", "birkhoff.calls", "theory.algebras_built",
                "theory.satisfies.calls", "theory.enum_homs.calls", "birkhoff.iso.calls"),
    "scale-ladder": ("fincat.calls", "fincat.enum_functors.calls", "fincat.saturate.calls",
                     "factor.factorise.calls"),
    "cli-session": ("cli.calls", "jsonio.calls", "jsonio.loads", "theory.calls"),
}
COUNT_SUFFIXES = (".calls", "_built", ".distinct", ".results", ".law_checks", ".loads",
                  ".found")


@functools.lru_cache(maxsize=None)
def worker(workload, trace, seed=7, repeat=0):
    """One pass; `repeat` tells apart passes that must both run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, check=True, timeout=170)
    return json.loads(out.stdout.decode().splitlines()[-1])


def counts(result):
    return {k: v for k, v in result["layers"].items() if k.endswith(COUNT_SUFFIXES)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracing_keeps_verdicts_and_repeats_counts(workload):
    plain = worker(workload, 0)
    first, second = worker(workload, 1), worker(workload, 1, repeat=1)
    for result in (plain, first, second):
        assert result["failed"] == 0, result["failures"]
        assert result["attempted"] == plain["attempted"]
        assert result["verdicts"] == plain["verdicts"]
    for metric in STRESSED[workload]:
        assert first["layers"][metric] > 0, metric
    assert first["layers"]["jsonio.loads"] > 0
    assert counts(first) == counts(second)


def test_every_per_layer_metric_moves_on_a_listed_workload():
    """No per-layer metric of BENCHMARK.json reads 0 on every listed workload."""
    listed = [w["name"] for w in SPEC["workloads"]]
    layers = [worker(name, 1)["layers"] for name in listed]
    derived = {"fincat.enum_functors.repeat_share", "trace.overhead_s"}  # computed by run.py
    dead = [m["name"] for m in SPEC["per_layer"] if m["name"] not in derived
            and not any(layer[m["name"]] for layer in layers)]
    assert dead == []


def test_install_rebinds_every_reference():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import birkhoff2d.cli, birkhoff2d.corpus, tracer\n"
        "tr = tracer.install()\n"
        "assert 'fincat.enumerate_functors' in tr.originals\n"
        "assert 'theory.eval_term_obj' not in tr.originals\n"
        "print(repr(tracer.unwrapped_references(tr)))\n"
    ) % (str(workloads.SRC), str(HERE))
    out = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, check=True)
    assert out.stdout.decode().strip() == "[]"


def test_self_time_subtracts_wrapped_children():
    tr = tracer.Tracer()
    bof, compose = tr.name_id("factor.factor_bof"), tr.name_id("fincat.compose_functors")
    tr.spans.extend((2, compose, 1, 0.6, 1.0))  # spans are recorded as they close
    tr.spans.extend((1, compose, 0, 0.5, 1.5))
    tr.spans.extend((0, bof, -1, 0.0, 3.0))
    rows = tracer.aggregate(tr)
    assert rows["factor.factor_bof"] == pytest.approx([1, 3.0, 2.0])
    assert rows["fincat.compose_functors"] == pytest.approx([2, 1.0, 1.0])
    layers = tracer.layer_metrics(tr)
    assert layers["factor.self_s"] == pytest.approx(2.0)
    assert layers["fincat.self_s"] == pytest.approx(1.0)
    assert (layers["fincat.compose.calls"], layers["fincat.compose.s"]) == (2, pytest.approx(1.0))


def test_seed_zero_keeps_acceptance_order_and_chains_stay_together():
    readme = [name for name, _ in workloads.CLI_COMMANDS]
    assert workloads.cli_units(0) == readme
    orders = {tuple(workloads.cli_units(seed)) for seed in range(1, 30)}
    assert len(orders) > 1
    for order in orders:
        assert sorted(order) == sorted(readme)
        for head, tail in workloads.CLI_CHAINS:
            assert order.index(tail) == order.index(head) + 1


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, group):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "variety", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, check=True, timeout=170)
    result = json.loads(out.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % 23 == 0
    assert {m["name"]: m["unit"] for m in SPEC[group]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
