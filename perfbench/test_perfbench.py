"""Tests of the benchmark's own logic: statistics, failure accounting, digest
checks, the traced rebuild and the declared metric set."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import benchlib  # noqa: E402
from repro.datasets.synthetic import generate_digits  # noqa: E402
from repro.faults import FaultSpec  # noqa: E402
from repro.hybrid import HybridStochasticBinaryNetwork  # noqa: E402
from repro.nn import build_lenet5_small, quantize_and_freeze  # noqa: E402
from repro.sc import new_sc_engine, old_sc_engine  # noqa: E402


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(100, 90.0, 10), (1000, 99.0, 10), (40, 75.0, 10), (39, 50.0, 19), (20, 50.0, 10)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, percentile, beyond):
    samples = [float(v) for v in np.random.default_rng(n).permutation(n)]
    q, value, counted = benchlib.tail_percentile(samples)
    assert (q, counted) == (percentile, beyond)
    assert sum(s > value for s in samples) == beyond


def test_tail_percentile_falls_back_to_median_below_twenty_samples():
    q, value, beyond = benchlib.tail_percentile([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (q, value, beyond) == (50.0, 3.0, 2)


def test_failed_frac_counts_raised_and_failed_ops():
    def op(i):
        if i == 1:
            raise RuntimeError("boom")
        return i

    def check(i, out):
        if i == 3:
            return "bad output"
        if i == 4:
            raise ValueError("check crashed")
        return None

    log = benchlib.OpLog()
    benchlib.closed_loop(op, check, seconds=0.0, log=log, quantum=5)
    assert log.attempted == 5
    assert log.failed == 3
    assert log.failed_frac == pytest.approx(0.6)
    assert len(log.seconds) == 5
    assert any("RuntimeError: boom" in p for p in log.problems)
    assert any("bad output" in p for p in log.problems)
    assert any("ValueError: check crashed" in p for p in log.problems)


def test_digest_mismatch_becomes_a_failed_op():
    classes = [np.array([i, 7], dtype=np.int64) for i in range(3)]
    pinned = {"classes": [benchlib.digest(c) for c in classes]}
    pinned["classes"][1] = "0" * 16

    def check(i, out):
        return benchlib.check_digest(pinned, "classes", i, benchlib.digest(out))

    log = benchlib.OpLog()
    benchlib.closed_loop(lambda i: classes[i], check, seconds=0.0, log=log, min_ops=3)
    assert (log.attempted, log.failed) == (3, 1)
    assert "op 1: classes digest" in log.problems[0]
    # Ops beyond the pinned list are not digest-checked.
    assert benchlib.check_digest(pinned, "classes", 5, "anything") is None


def _tiny_networks(design, faults=None):
    model = quantize_and_freeze(
        build_lenet5_small(seed=0), precision=4, sc_resolution=True, soft_threshold=0.02
    )
    factory = new_sc_engine if design == "this_work" else old_sc_engine
    return [
        HybridStochasticBinaryNetwork(
            model, engine=factory(4, seed=1), soft_threshold=0.02, faults=faults
        )
        for _ in range(2)
    ]


@pytest.mark.parametrize(
    "design, faults",
    [
        ("this_work", None),
        # MUX select seeds advance on every prepare_weights call, so equality
        # over several ops pins the call sequence, not just one op.
        ("old_sc", None),
        ("this_work", FaultSpec(flip_rate=1e-2, stuck_one_rate=1e-2, burst_rate=1e-3, seed=3)),
    ],
)
def test_traced_rebuild_equals_untraced_forward(design, faults):
    untraced, twin = _tiny_networks(design, faults)
    images, _ = generate_digits(6, 0)
    tracer = benchlib.Tracer()
    for i in range(3):
        chunk = images[2 * i : 2 * i + 2]
        logits = untraced.forward(chunk, mode="bitexact")
        replay = benchlib.hybrid_replay(twin, chunk, tracer)
        assert replay.logits.dtype == logits.dtype
        assert np.array_equal(replay.logits, logits)
        assert replay.positive.min() >= 0 and replay.positive.max() <= 16
    names = {name for _, name, *_ in tracer.spans}
    assert {"sc.counts", "nn.dense7", "hybrid.acquire"} <= names
    assert tracer.counters["sc.counts.patches"] == 3 * 2 * 28 * 28


def test_traced_rebuild_detects_a_diverged_call_sequence():
    untraced, twin = _tiny_networks("old_sc")
    images, _ = generate_digits(2, 0)
    twin.forward(images, mode="bitexact")  # one extra call advances the MUX seeds
    logits = untraced.forward(images, mode="bitexact")
    replay = benchlib.hybrid_replay(twin, images, benchlib.NULL_TRACER)
    assert not np.array_equal(replay.logits, logits)


def test_benchmark_json_declares_exactly_the_printed_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == benchlib.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == benchlib.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(benchlib.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "old_sc_4bit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
