"""Repeat benchmark runs and summarise them.

    # ten untraced runs of every workload, one seed each
    python3 bench/report.py run --label spread --seeds 101-110 --out runs.jsonl
    # the same with one BLAS thread
    python3 bench/report.py run --label threads1 --seeds 101-105 \\
        --env OPENBLAS_NUM_THREADS=1 --out runs.jsonl
    # medians, quartiles and spread per workload and metric; other labels
    # are compared with the reference label
    python3 bench/report.py table runs.jsonl --reference spread

Each run is a separate ``bench/run.py`` process, started only after the
previous one has exited.  ``run`` appends one JSON record per run to
``--out``; ``table`` prints Markdown.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from stats import quartile_spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 300


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def cmd_run(args):
    spec = benchmark_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    extra_env = dict(item.split("=", 1) for item in args.env)
    env = {**os.environ, **extra_env}
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
                t0 = time.perf_counter()
                proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                      timeout=RUN_TIMEOUT_S)
                wall = time.perf_counter() - t0
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                record = {"label": args.label, "workload": workload, "seed": seed,
                          "trace": args.trace, "env": extra_env, "returncode": proc.returncode,
                          "wall_s": wall, "result": result}
                out.write(json.dumps(record) + "\n")
                out.flush()
                status = "ok" if result and result["correct"] else f"FAILED ({proc.returncode})"
                print(f"{args.label} {workload} seed={seed}: {status} in {wall:.1f} s", flush=True)
                if proc.returncode != 0:
                    print(proc.stderr[-2000:], file=sys.stderr)


def cmd_table(args):
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    groups = defaultdict(lambda: defaultdict(list))
    runs = defaultdict(lambda: [0, 0])
    for path in args.files:
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            key = (rec["label"], rec["workload"])
            runs[key][0] += 1
            if not rec["result"] or not rec["result"]["correct"]:
                continue
            runs[key][1] += 1
            for name, metric in rec["result"]["metrics"].items():
                groups[key][name].append(metric["value"])
    print("| label | workload | metric | runs | median | q1 | q3 | spread | bound/3 | vs reference |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for (label, workload), metrics in sorted(groups.items()):
        for name, values in metrics.items():
            median = statistics.median(values)
            q1 = q3 = spread = float("nan")
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = quartile_spread(values)
            bound = bounds.get(name)
            third = f"{bound / 3:.3f}" if bound is not None else ""
            ref = groups.get((args.reference, workload), {}).get(name)
            vs = ""
            if ref and label != args.reference:
                vs = f"{100.0 * (median / statistics.median(ref) - 1.0):+.1f}%"
            total, ok = runs[(label, workload)]
            print(f"| {label} | {workload} | {name} | {ok}/{total} | {median:.4g} | {q1:.4g} "
                  f"| {q3:.4g} | {spread:.3f} | {third} | {vs} |")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads over a range of seeds")
    run.add_argument("--label", required=True)
    run.add_argument("--seeds", required=True, help="e.g. 101-110 or 7,9")
    run.add_argument("--workloads", nargs="*")
    run.add_argument("--seconds", type=int, default=None)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--env", nargs="*", default=[], help="NAME=VALUE added to the environment")
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_run)
    table = sub.add_parser("table", help="summarise run records as Markdown")
    table.add_argument("files", nargs="+")
    table.add_argument("--reference", default="spread")
    table.set_defaults(func=cmd_table)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
