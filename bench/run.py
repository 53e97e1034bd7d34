"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository: the package is
imported from the checkout's own ``src/``, never from an installed copy.
With ``--trace 0`` the run is untraced and prints the end-to-end metrics;
with ``--trace 1`` it runs the calls with spans installed, measures the
tracing overhead on pairs of untraced and traced repeats of one item's
work, and prints the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Files go to ``.bench_work/`` in the checkout.  On the disk the benchmark
was sized on (ext4 mounted with discard), deleting or resizing many files,
or leaving them to be written back, made file writes and computation in the
next seconds measurably slower.  So a workload's inputs and outputs live in
fixed directories that every run overwrites and none deletes; the repeated
set-ups rewrite the same input files, between the timed calls, each after
emptying and flushing the previous one's files; and the run flushes its own
files before it exits, so the next run does not pay for their writeback.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 16
MAX_LAYER_SUM_GAP_PCT = 10.0
PROBE_SECONDS = 3.0


def import_package():
    """Import detectbert from this checkout's src/, or exit non-zero."""
    init = SRC / "detectbert" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} is missing; run the benchmark inside a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import detectbert
    from detectbert import attention, baselines, cli, data, model, numerics, training  # noqa: F401

    if Path(detectbert.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported detectbert from {detectbert.__file__}, not {init}")
    return detectbert


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, inputs: Path, work: Path) -> tuple[float, float]:
    """One set-up: (CPU seconds of this thread, wall seconds).

    ``setup_s`` reports the CPU time.  On the shared host the benchmark was
    sized on, set-up is file writing and small allocations, and its wall
    time rose about twice as much as the timed calls' when the host got
    slower (time stolen by other guests, I/O waits); the thread's CPU time
    leaves stolen time and waits out.  The set-up itself runs on this one
    thread, except for BLAS calls, whose helper threads it does not count.

    The set-up is timed from a state that does not depend on the previous one.

    A repeated set-up rewrites the previous one's input files.  Freeing
    their blocks as they are truncated costs the file system more, and far
    less steadily, than writing them, and a first set-up frees nothing; so
    they are emptied first.  Rewriting a file whose pages are still being
    written back waits for that writeback, so the run's files are flushed
    too.  Neither step is timed.  The new inputs are flushed after the timer
    stops, so the calls that follow do not pay for their writeback.
    """
    for path in files_under(inputs):
        with open(path, "r+b") as f:
            f.truncate(0)
    flush_files(work)
    c0, t0 = time.thread_time(), time.perf_counter()
    workload.setup(inputs)
    cpu, wall = time.thread_time() - c0, time.perf_counter() - t0
    flush_files(inputs)
    return cpu, wall


def measure(workload, seconds: float, between=None) -> list:
    """Closed loop: run ops back to back until the next one would overrun ``seconds``.

    Returns each op's list of calls.  ``between(k, elapsed)``, if given,
    runs before op k, where ``elapsed`` is the ops' time so far; its own
    time is not part of the ``seconds`` budget.
    """
    ops, durations = [], []
    while len(ops) < workload.min_ops or sum(durations) + statistics.median(durations) <= seconds:
        if between is not None:
            between(len(ops), sum(durations))
        start = time.perf_counter()
        ops.append(workload.op())
        durations.append(time.perf_counter() - start)
    return ops


def timed_calls(workload, calls) -> list:
    """The successful calls whose latency and throughput the workload reports."""
    done = [c for c in calls if c.label == workload.latency_call and c.items]
    if not done:
        raise RuntimeError(f"{workload.name}: no {workload.latency_call} call succeeded")
    return done


def end_to_end(workload, calls, setup_times) -> dict:
    done = timed_calls(workload, calls)
    return {
        "setup_s": (statistics.median(cpu for cpu, _ in setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "latency_ms_p50": (statistics.median(c.wall_s for c in done) * 1000.0, "ms"),
    }


def files_under(directory: Path) -> list:
    return [path for path in directory.rglob("*") if path.is_file()] if directory.is_dir() else []


def flush_files(directory: Path):
    """fsync every file under ``directory``."""
    for path in files_under(directory):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def traced_layers(det, workload, seconds, work: Path, failures, notes) -> dict:
    """Traced set-up and calls, then the overhead probe; returns the per-layer metrics.

    A forward pass whose primitive counts differ from the others is a
    failure of the program.  The layer self-time sum missing the untraced
    wall time by more than the allowed gap is a failure of the instrument:
    it goes to ``notes``, not ``failures``, since with the same spans a
    faster program would fail it.
    """
    from spans import BENCH_SETUP, Tracer, layer_metrics, layer_sum_problem, tracing_overhead, untraced_layer_sum_pct

    tracer = Tracer()
    tracer.install(det)
    workload.tracer = tracer
    try:
        tracer.begin(BENCH_SETUP)
        workload.setup(work / "setup-traced")
        tracer.finish()
        calls = [c for op in measure(workload, seconds) for c in op]
    finally:
        tracer.uninstall()
        workload.tracer = None
    recorded = tracer.spans()
    metrics, checks = layer_metrics(recorded, sum(c.items for c in calls))
    ratio = tracing_overhead(det, workload.unit_calls(), PROBE_SECONDS)
    layer_sum_pct = untraced_layer_sum_pct(checks["layer_sum_ns"], checks["op_wall_ns"], ratio)
    metrics["trace.overhead_pct"] = (100.0 * (ratio - 1.0), "%")
    metrics["trace.layer_sum_pct"] = (layer_sum_pct, "%")
    problem = layer_sum_problem(layer_sum_pct, MAX_LAYER_SUM_GAP_PCT)
    if problem:
        notes.append(problem)
    if not checks["forward_counts_equal"]:
        failures.append("forward passes recorded different primitive counts")
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    tracer.save(WORK / "traces" / f"{workload.name}.npz", recorded)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    det = import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment()
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](det, args.seed, work / "ops")
    bench_failures: list[str] = []
    notes: list[str] = []
    with open(WORK / f"{args.workload}.lock", "w") as lock:
        # runs of one workload share its directories, so they take turns
        fcntl.flock(lock, fcntl.LOCK_EX)
        setup_times = [timed_setup(workload, work / "inputs", work)]

        def repeat_setups(k, elapsed):
            # spread over the timed loop, so that the set-ups sample the
            # machine's speed over the same stretch of time as the calls
            share = min(elapsed / args.seconds, 1.0)
            while len(setup_times) < 1 + int((SETUP_REPEATS - 1) * share):
                setup_times.append(timed_setup(workload, work / "inputs", work))

        calls = []
        if args.trace:
            metrics = traced_layers(det, workload, args.seconds, work, bench_failures, notes)
        else:
            calls = [c for op in measure(workload, args.seconds, between=repeat_setups) for c in op]
            repeat_setups(0, args.seconds)
            metrics = end_to_end(workload, calls, setup_times)
        workload.check()
        extras = workload.summary(calls)
        if calls:
            # a call completes a fixed number of items, so this is latency_ms_p50 restated
            rate = statistics.median(c.items / c.wall_s for c in timed_calls(workload, calls))
            extras["items_per_s"] = (rate, "1/s")
        flush_files(work)

    failed = len(workload.failures)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {workload.ops} ops, {failed} failed")
    for name, (value, unit) in {**metrics, **extras}.items():
        alias = workload.aliases.get(name)
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({alias})" if alias else ""))
    print(f"  setup_s samples (CPU) = {' '.join(f'{cpu:.4f}' for cpu, _ in setup_times)}")
    print(f"  set-up wall samples = {' '.join(f'{wall:.4f}' for _, wall in setup_times)}")
    print(f"  error_rate = {failed}/{workload.ops}")
    for k, message in sorted(workload.failures.items()):
        print(f"  op {k} failed: {message}")
    for message in bench_failures:
        print(f"  check failed: {message}")
    for message in notes:
        print(f"  trace check failed: {message}")

    result = {
        "correct": failed == 0 and not bench_failures,
        "attempted": workload.ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env,
              "extras": extras, "setup_cpu_wall_s": setup_times, "trace_notes": notes, **result}
    (WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
