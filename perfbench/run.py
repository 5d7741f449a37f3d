"""Benchmark of tametransfer: one workload, one seed, one run.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports the library from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
replays a fixed, seed-determined list of operations with every public
function of the library wrapped, and reports the per-layer metrics.  Either
way it prints a readable report, one JSON line with the run's record
(machine, seed, counts, failures), and, last, the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``correct`` is false when a completed operation gave a wrong answer.
``failed`` counts wrong answers, exceptions, missed deadlines and CLI runs
that break the JSON contract; known defects are counted, never skipped.
See README.md in this directory for the metrics and the workloads.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, Broken, CommandTimeout, DeadlineExceeded, OverBudget, subprocess_env  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
MIN_SAMPLES = 100  # a p90 needs ten samples beyond it
MIN_REPEATS = 3
REFERENCE_S = 1.0e-3  # best time of reference_work on the box the bounds were set on
SETUP_SAMPLES = 15
BLOCK_CALLS = 60  # reference_work calls in a block before and after a long operation
COMMAND_BLOCK_CALLS = 20  # reference_work calls in a block between two cli commands
SPAWN_SAMPLES = 5
GATE_TIMEOUT_S = 150.0
OVER_BUDGET = "over its work budget"


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise DeadlineExceeded()


def execute(op, tracer: layertrace.Tracer | None = None) -> tuple[float, str | None, str | None]:
    """Time one operation, then check it outside the timed region.

    Returns (seconds, failure, wrong): ``failure`` when the operation gave no
    answer (exception, missed deadline, used-up work budget, broken CLI
    contract), ``wrong`` when its answer disagrees with the independent
    check.  Counts of an operation cut by its work budget are kept: where
    that cut falls depends on the inputs alone.
    """
    global _armed
    if op.prepare:
        op.prepare()
    snap = tracer.snapshot() if tracer else None
    failure = wrong = result = None
    if op.deadline_s:
        signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
        _armed = True
    start = time.perf_counter()
    try:
        try:
            result = op.run()
        finally:
            _armed = False
    except OverBudget:
        failure = OVER_BUDGET
    except (DeadlineExceeded, CommandTimeout):
        failure = "missed deadline"
    except Exception as exc:  # an unexpected exception is a failed operation
        failure = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if op.deadline_s:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if failure is None and elapsed > op.deadline_s:
            failure = "missed deadline"
    if failure == "missed deadline" and tracer:
        tracer.restore(snap)
    if failure is None:
        try:
            wrong = op.check(result)
        except Broken as exc:
            failure = str(exc)
        except Exception as exc:  # a result the check cannot read is wrong
            wrong = f"unreadable result: {type(exc).__name__}: {exc}"
    return elapsed, failure, wrong


class Tally:
    """Latency samples, units and failures of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.attempted = self.failed = self.wrong = self.units = 0
        self.busy = 0.0
        self.reasons: list[str] = []

    def add(self, op, seconds: float, failure: str | None, wrong: str | None) -> None:
        self.attempted += 1
        self.busy += seconds
        self.samples.append(seconds)
        self.by_kind.setdefault(op.kind, []).append(seconds)
        reason = failure or wrong
        if reason is None:
            self.units += op.units
            return
        self.failed += 1
        self.wrong += wrong is not None
        if len(self.reasons) < 20:
            self.reasons.append(f"{op.kind} {op.label}: {reason}")


def reference_work() -> float:
    """Seconds taken by a fixed piece of pure-Python integer, list and dict
    work shaped like the library's inner loops; it calls no library code."""
    start = time.perf_counter()
    M, x, members, seen = 3**40 - 1, 5, [], {}
    for i in range(3000):
        x = x * 3 % M
        members.append(x)
        seen[x % 65521] = i
    members.sort()
    n = 10**15 + 37
    [p for p in range(3, 6000, 2) if n % p == 0]  # trial division, as in factorize
    return time.perf_counter() - start


def reference_block(calls: int = BLOCK_CALLS) -> float:
    """Mean time of one ``reference_work`` over ``calls`` calls in a row."""
    start = time.perf_counter()
    for _ in range(calls):
        reference_work()
    return (time.perf_counter() - start) / calls


class Reference:
    """Best time of ``reference_work`` over a run, sampled between operations
    at most every ``every_s`` seconds."""

    def __init__(self, every_s: float = 0.2) -> None:
        self.every_s, self.best, self.samples, self.last = every_s, float("inf"), 0, -every_s

    def tick(self) -> None:
        if time.perf_counter() - self.last >= self.every_s:
            self.best = min(self.best, reference_work())
            self.samples += 1
            self.last = time.perf_counter()


class SetupSampler:
    """Times SETUP_SAMPLES fresh set-up processes, spread over the window.

    Samples taken back to back would all land in whichever speed the shared
    box has at that moment; spread over the run, their median follows the
    run as a whole.
    """

    def __init__(self, args) -> None:
        self.argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--setup-only"]
        self.every_s = args.seconds / SETUP_SAMPLES
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def sample(self) -> None:
        elapsed, done = timed_subprocess(self.argv, GATE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-400:]}")
        self.samples.append(elapsed)
        self.last = time.perf_counter()

    def tick(self) -> None:
        if len(self.samples) < SETUP_SAMPLES and time.perf_counter() - self.last >= self.every_s:
            self.sample()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return self.samples


def run_best_of(wl, seconds: float, sampler: SetupSampler, reference: Reference) -> tuple[Tally, int]:
    """Repeat the run's operations until ``seconds`` of operation time and at
    least MIN_REPEATS rounds; each operation counts once, with its best time,
    calibrated against ``reference_work``.

    Each CPU of the small shared box this was built on switches between a
    fast and a slow phase every few seconds to minutes, and a single timing
    of an operation differs by up to 60% between runs.  The rounds alternate
    between the CPUs the process may use, and each operation keeps its best
    time over the rounds.  When a whole run falls in a slow phase, the best
    time of the reference work, sampled between the same operations, is slow
    by about as much; so each best time is scaled by REFERENCE_S / (best
    reference time).

    That holds for short operations, whose best time comes from a fast
    moment as the reference's does.  A long one (``op.long``, up to seconds)
    averages over the box's fast and slow moments, and its time follows the
    mean speed of the box around it instead: each of its executions is scaled
    by REFERENCE_S / (mean time of reference_work in the blocks run right
    before and after it), and it keeps the best scaled time.

    An operation that fails is not repeated: it counts once, at the time it
    took to fail.  A missed wall-time deadline costs its deadline, unscaled.
    An operation cut by its work budget did a fixed amount of work, which
    takes up to seconds; like a long operation, its time is scaled by the
    mean time of reference_work in a block run right after it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    order = wl.pass_ops()  # an operation may appear more than once in a round
    ops = list({id(op): op for op in order}.values())
    best = {id(op): float("inf") for op in ops}
    verdicts: dict[int, tuple[float, str | None, str | None]] = {}
    busy, repeats = 0.0, 0
    while repeats < MIN_REPEATS or busy < seconds:
        os.sched_setaffinity(0, {cpus[repeats % len(cpus)]})
        for op in order:
            if id(op) in verdicts:
                continue
            if op.long:
                around = reference_block()
            elapsed, failure, wrong = execute(op)
            busy += elapsed
            if op.long:
                around = (around + reference_block()) / 2
                best[id(op)] = min(best[id(op)], elapsed * REFERENCE_S / around)
            else:
                best[id(op)] = min(best[id(op)], elapsed)
            sampler.tick()
            reference.tick()
            if failure == OVER_BUDGET:
                elapsed *= REFERENCE_S / reference_block()
            if failure or wrong:
                verdicts[id(op)] = (elapsed, failure, wrong)
        repeats += 1
    os.sched_setaffinity(0, set(cpus))
    scale = REFERENCE_S / reference.best
    tally = Tally()
    for op in ops:
        if id(op) in verdicts:
            tally.add(op, *verdicts[id(op)])
        else:
            tally.add(op, best[id(op)] * (1.0 if op.long else scale), None, None)
    return tally, repeats


def run_passes(wl, seconds: float, sampler: SetupSampler, reference: Reference) -> tuple[Tally, int]:
    """Whole passes until ``seconds`` of operation time and MIN_SAMPLES
    samples; every execution is a sample.

    A command process (0.1-0.3 s) follows the box's mean speed around it,
    as a long operation of ``run_best_of`` does: each execution is scaled
    by REFERENCE_S / (mean time of reference_work in the blocks run right
    before and after it), one block between two commands.  A failed
    execution is not scaled.
    """
    runs = [(op, *execute(op)) for op in wl.prologue()]
    busy, passes = sum(run[1] for run in runs), 0
    before = reference_block(COMMAND_BLOCK_CALLS)
    while busy < seconds or len(runs) < MIN_SAMPLES:
        for op in wl.pass_ops():
            elapsed, failure, wrong = execute(op)
            after = reference_block(COMMAND_BLOCK_CALLS)
            busy += elapsed
            if not (failure or wrong):
                elapsed *= REFERENCE_S / ((before + after) / 2)
            runs.append((op, elapsed, failure, wrong))
            sampler.tick()
            reference.tick()
            before = after
        passes += 1
    tally = Tally()
    for run in runs:
        tally.add(*run)
    return tally, passes


def replay(ops, tracer=None) -> Tally:
    tally = Tally()
    if tracer:
        tracer.install()
    try:
        for op in ops:
            tally.add(op, *execute(op, tracer))
    finally:
        if tracer:
            tracer.uninstall()
    return tally


def timed_subprocess(argv: list[str], timeout_s: float) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=subprocess_env(), capture_output=True, text=True, timeout=timeout_s)
    return time.perf_counter() - start, done


def run_gate() -> tuple[float, dict]:
    """The acceptance gate: ``tametransfer selftest`` at small scale, in a
    fresh process; returns its wall time and the payload of its report."""
    elapsed, done = timed_subprocess([sys.executable, "-m", "tametransfer", "selftest"], GATE_TIMEOUT_S)
    try:
        return elapsed, json.loads(done.stdout)["payload"]
    except (ValueError, KeyError) as exc:
        raise RuntimeError(f"selftest printed no report (exit {done.returncode}): {done.stderr.strip()[-400:]}") from exc


def percentile_ms(values: list[float], q: int) -> float:
    return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_ms(command: list[str]) -> float:
    return 1000.0 * statistics.median(timed_subprocess(command, GATE_TIMEOUT_S)[0] for _ in range(SPAWN_SAMPLES))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Hash of the library's source files, which identifies the code measured
    also in a checkout without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "tametransfer")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def measure(args, wl) -> tuple[dict, Tally, dict]:
    setup_main = time.perf_counter() - PROCESS_START
    sampler, reference = SetupSampler(args), Reference()
    if wl.best_of_repeats:
        tally, rounds = run_best_of(wl, args.seconds, sampler, reference)
    else:
        tally, rounds = run_passes(wl, args.seconds, sampler, reference)
    peak = wl.peak_rss_mb()
    setups = sampler.finish()
    lat = tally.samples
    metrics = {
        "setup_s": statistics.median(setups) * REFERENCE_S / reference.best,
        "throughput_per_s": tally.units / tally.busy,
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_p90_ms": percentile_ms(lat, 90),
        "peak_rss_mb": peak,
    }
    extra = {
        "rounds": rounds,
        "samples": len(lat),
        "samples_beyond_p90": sum(x * 1000.0 > metrics["op_p90_ms"] for x in lat),
        "samples_by_kind": {k: len(v) for k, v in tally.by_kind.items()},
        "p50_ms_by_kind": {k: 1000.0 * statistics.median(v) for k, v in tally.by_kind.items()},
        "units_correct": tally.units,
        "busy_s": tally.busy,
        "fail_ratio": tally.failed / tally.attempted,
        "setup_main_s": setup_main,
        "setup_samples_s": setups,
        "failures": tally.reasons,
        "reference_best_ms": 1000 * reference.best,
        "reference_samples": reference.samples,
    }
    return metrics, tally, extra


def measure_traced(wl) -> tuple[dict, Tally, dict]:
    ops = wl.traced_ops()
    plain = replay(ops)
    tracer = layertrace.Tracer()
    traced = replay(ops, tracer)
    metrics = tracer.metrics()
    metrics["cli.spawn_ms"] = median_ms([sys.executable, "-c", "pass"])
    metrics["cli.import_ms"] = median_ms([sys.executable, "-c", "import tametransfer.cli"])
    gate_s, report = run_gate()
    metrics["selftest.gate_s"] = gate_s
    metrics["selftest.gate_budget_frac"] = max(c["seconds"] / c["budget_seconds"] for c in report["criteria"])
    for c in report["criteria"]:
        metrics[f"selftest.{c['name']}.s"] = c["seconds"]
        metrics[f"selftest.{c['name']}.budget_frac"] = c["seconds"] / c["budget_seconds"]
    metrics["trace.overhead_frac"] = traced.busy / plain.busy - 1.0
    cost = layertrace.wrapper_cost_s()
    tally = Tally()
    for part in (plain, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.wrong += part.wrong
        tally.reasons += part.reasons
    failing = [c["name"] for c in report["criteria"] if not c["passed"]]
    tally.attempted += 1
    if failing:
        tally.failed += 1
        tally.reasons.append(f"selftest criteria failed: {failing}")
    extra = {
        "ops_replayed": len(ops),
        "untraced_busy_s": plain.busy,
        "traced_busy_s": traced.busy,
        "wrapper_cost_us": cost * 1e6,
        # functions whose self time is mostly the wrapper's own cost
        "near_wrapper_cost": tracer.flagged(cost),
        "failures": tally.reasons,
    }
    return metrics, tally, extra


def per_layer_names() -> list[str]:
    from tametransfer.selftest import CRITERIA

    names = layertrace.metric_names() + ["cli.spawn_ms", "cli.import_ms", "selftest.gate_s", "selftest.gate_budget_frac"]
    for c in CRITERIA:
        names += [f"selftest.{c.name}.s", f"selftest.{c.name}.budget_frac"]
    return names + ["trace.overhead_frac"]


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".input_bits"):
        return "bits"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio"


def import_library():
    sys.path.insert(0, SRC)
    try:
        import tametransfer
        import tametransfer.cli  # noqa: F401  (brings the jsonio and selftest layers)
    except ImportError as exc:
        sys.exit(f"cannot import tametransfer from {SRC}: {exc}")
    if not os.path.abspath(tametransfer.__file__).startswith(os.path.join(SRC, "")):
        sys.exit(f"tametransfer was imported from {tametransfer.__file__}, not from {SRC}")
    return tametransfer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    load_start = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    tt = import_library()
    wl = WORKLOADS[args.workload](tt, args.seed)
    if args.setup_only:
        return 0
    signal.signal(signal.SIGALRM, _on_alarm)

    try:
        if args.trace:
            metrics, tally, extra = measure_traced(wl)
            names = per_layer_names()
        else:
            metrics, tally, extra = measure(args, wl)
            names = list(END_TO_END)
    finally:
        wl.close()
    units = {name: END_TO_END.get(name) or unit_of(name) for name in names}
    run_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": nproc, "cpu_model": cpu_model(),
        "commit": commit(), "source_digest": source_digest(),
        "load_start": load_start, "load_end": os.getloadavg(), **extra,
    }

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name in names:
        print(f"{name:52s} {metrics[name]:>16.6g} {units[name]}")
    if not args.trace:
        print(f"{'fail_ratio':52s} {extra['fail_ratio']:>16.6g} ratio  ({tally.failed} of {tally.attempted});"
              f" {extra['samples']} latency samples, {extra['samples_beyond_p90']} beyond p90")
    print(json.dumps({"record": run_record}, default=str))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
