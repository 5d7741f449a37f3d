"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

tt = run.import_library()
SEED = 7


@pytest.fixture(autouse=True)
def deadlines():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def small_ops(wl):
    """A tiny slice of a workload's operations."""
    if wl.name == "lattice":
        wl.levels = [min(wl.levels, key=lambda level: level[2].M)]
        return wl.traced_ops()
    if wl.name == "cli":
        return wl.pass_ops()[:4]
    return wl.pass_ops()[:40]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_every_workload(name):
    wl = WORKLOADS[name](tt, SEED)
    tally = run.Tally()
    try:
        for op in small_ops(wl):
            tally.add(op, *run.execute(op))
        peak = wl.peak_rss_mb()
    finally:
        wl.close()
    assert tally.wrong == 0, tally.reasons
    if name != "certify":  # a certify slice may hold a pair that stalls past its work budget
        assert tally.failed == 0, tally.reasons
    assert tally.units > 0
    assert peak > 0


def test_certify_budget_cuts_the_same_pairs():
    """The work budget, not the speed of the box, decides which pairs fail."""
    numth = sys.modules["tametransfer.numth"]
    original = numth._brent_rho
    wl = WORKLOADS["certify"](tt, SEED)
    try:
        ops = {op.label: op for op in wl.pass_ops()}
        # (18, 29) stalls in rho; (23, 23) needs 4924 of the 6500 batches
        verdicts = [run.execute(ops[label])[1:] for label in ("b=18 r=29", "b=23 r=23")]
    finally:
        wl.close()
    assert verdicts == [(run.OVER_BUDGET, None), (None, None)]
    assert numth._brent_rho is original


def test_cli_peak_is_a_commands_own():
    """A command's peak must not carry the benchmark's own high-water mark."""
    ballast = bytearray(64 * 2**20)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # touch every page
    wl = WORKLOADS["cli"](tt, SEED)
    try:
        for op in wl.pass_ops()[:2]:
            run.execute(op)
        peak = wl.peak_rss_mb()
    finally:
        wl.close()
    assert 5 < peak < 60, peak


def traced_counters(name: str, ops_limit: int) -> dict:
    wl = WORKLOADS[name](tt, SEED)
    tracer = layertrace.Tracer()
    try:
        run.replay(wl.traced_ops()[:ops_limit], tracer)
    finally:
        wl.close()
    return {k: v for k, v in tracer.metrics().items() if not k.endswith("self_s")}


@pytest.mark.parametrize("name, ops_limit", [("certify", 120), ("cli", 40), ("lift", 60)])
def test_traced_counters_repeat_exactly(name, ops_limit):
    first = traced_counters(name, ops_limit)
    assert first == traced_counters(name, ops_limit)
    assert first["numth.factorize.input_bits"] > 0


def run_benchmark(cwd: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    done = run_benchmark(ROOT, "--workload", "lift", "--seed", str(SEED), "--seconds", "0.05", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert [m["name"] for m in declared["per_layer"]] == run.per_layer_names()


def test_two_traced_runs_give_identical_counters():
    results = []
    for _ in range(2):
        done = run_benchmark(ROOT, "--workload", "lift", "--seed", str(SEED), "--trace", "1")
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1])["metrics"])
    counters = [{k: v["value"] for k, v in r.items() if k.endswith((".calls", ".input_bits"))} for r in results]
    assert counters[0] == counters[1]
    assert counters[0]["characters.orbit_of.calls"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(str(tmp_path), "--workload", "lift", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
