"""Span tracing for the traced benchmark run, installed from outside the package.

``Tracer.install`` replaces the public functions of the detectbert layers
with wrappers that record a span (name, start, end, parent) around each
call, in every detectbert module that holds a reference to them, and
wraps the backward rule of every node a traced primitive records so its
vector-Jacobian product gets a span of its own.  ``uninstall`` puts the
original objects back, so an untraced run executes the package exactly
as shipped.  Spans are kept in memory in flat arrays and written out
once, at the end of the run.

Self time is a span's duration minus the part of it that its child
spans cover.  ``layer_metrics`` turns the spans into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from array import array
from collections import defaultdict
from typing import NamedTuple

# Differentiable primitives timed per group; "movement" gathers the
# shape-only operations (slices, concatenations, transpose, scale, add).
PRIMITIVE_GROUPS = {
    "matmul": "matmul",
    "softmax_rows": "softmax_rows",
    "layer_norm": "layer_norm",
    "segment_means": "segment_means",
    "iterative_pinv": "iterative_pinv",
    "slice_rows": "movement",
    "slice_cols": "movement",
    "concat_rows": "movement",
    "concat_cols": "movement",
    "transpose": "movement",
    "scale": "movement",
    "add": "movement",
}
GROUPS = ("iterative_pinv", "matmul", "softmax_rows", "layer_norm", "segment_means", "movement")
LAYERS = ("cli", "data", "model", "attention", "numerics", "training", "baselines")
ATTENTION_PARTS = ("qkv_proj", "landmarks", "kernels", "joins", "head_split_merge", "out_proj")

# (module, attribute, span name) of every plain function that gets a span.
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("data", "load_manifest", "data.load_manifest"),
    ("data", "read_bag", "data.read_bag"),
    ("data", "gen_synthetic", "data.gen_synthetic"),
    ("model", "forward", "model.forward"),
    ("model", "predict", "model.predict"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("attention", "multi_head_nystrom", "attention.multi_head_nystrom"),
    ("attention", "nystrom_attention", "attention.nystrom_attention"),
    ("numerics", "_toposort", "numerics.toposort"),
    ("training", "train", "training.train"),
    ("training", "evaluate", "training.evaluate"),
    ("baselines", "baseline_forward", "baselines.baseline_forward"),
]
# (module, class, method, span name) of methods that get a span.
METHODS = [
    ("numerics", "Tensor", "backward", "numerics.backward"),
    ("training", "Adam", "step", "training.adam_step"),
    ("training", "Lookahead", "after_inner_step", "training.lookahead"),
]
# Functions whose result node also gets its backward rule timed.
NODE_FUNCTIONS = [("numerics", name, f"numerics.{name}") for name in PRIMITIVE_GROUPS] + [
    ("training", "bce_loss", "training.bce_loss"),
]

BENCH_OP = "bench.op"
BENCH_SETUP = "bench.setup"


class Spans(NamedTuple):
    """Recorded spans in start order; ``parent`` is an index, -1 at the top."""

    names: list  # span name of each span
    start: list  # perf_counter_ns at entry
    end: list  # perf_counter_ns at exit
    parent: list
    payload: list  # bytes read, for data.read_bag spans; 0 elsewhere


class Tracer:
    """In-memory span recorder that can patch itself into the detectbert package.

    Recording appends one event per span entry (the span's name id) and one
    per exit (-1) to flat arrays, each with its time; ``spans`` rebuilds the
    span tree once, after the run.  A training step records about 390
    spans, and at a few microseconds each they already cost about 10% of
    the step, so recording does as little as it can.
    """

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.events = array("i")
        self.times = array("q")
        self.payload: dict[int, int] = {}  # entry event index -> bytes read
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str):
        self.events.append(self.name_id(name))
        self.times.append(time.perf_counter_ns())

    def finish(self):
        self.times.append(time.perf_counter_ns())
        self.events.append(-1)

    def spans(self) -> Spans:
        """The recorded spans; raises RuntimeError if one was never finished."""
        out = Spans([], [], [], [], [])
        stack: list[int] = []
        for k, (event, t) in enumerate(zip(self.events, self.times)):
            if event < 0:
                out.end[stack.pop()] = t
                continue
            out.parent.append(stack[-1] if stack else -1)
            stack.append(len(out.start))
            out.names.append(self.names[event])
            out.start.append(t)
            out.end.append(t)
            out.payload.append(self.payload.get(k, 0))
        if stack:
            raise RuntimeError(f"{len(stack)} spans were never finished")
        return out

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name: str, time_backward: bool = False):
        nid = self.name_id(name)
        bwd_id = self.name_id(name + ".bwd") if time_backward else -1
        event, stamp, clock = self.events.append, self.times.append, time.perf_counter_ns

        def traced(*args, **kwargs):
            event(nid)
            stamp(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                stamp(clock())
                event(-1)
            if time_backward and out._vjp is not None:
                vjp = out._vjp

                def timed_vjp(g):
                    event(bwd_id)
                    stamp(clock())
                    try:
                        return vjp(g)
                    finally:
                        stamp(clock())
                        event(-1)

                out._vjp = timed_vjp
            return out

        if name == "data.read_bag":
            events, payload = self.events, self.payload

            def traced_read(*args, **kwargs):
                k = len(events)  # the entry event traced() appends next
                bag = traced(*args, **kwargs)
                payload[k] = bag.embeddings.size * 4 + 16
                return bag

            return traced_read
        return traced

    def install(self, package):
        """Patch every traced function and method of ``package`` (detectbert)."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for module_name in LAYERS:
            importlib.import_module(f"{package.__name__}.{module_name}")
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        for module_name, attr, name, backward in (
            [(m, a, n, False) for m, a, n in FUNCTIONS]
            + [(m, a, n, True) for m, a, n in NODE_FUNCTIONS]
        ):
            original = getattr(getattr(package, module_name), attr)
            wrapped = self._wrap(original, name, time_backward=backward)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(getattr(package, module_name), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def save(self, path, recorded: Spans):
        """Write ``recorded`` to an uncompressed .npz (names, start, end, parent)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            span_name=np.array([self.name_ids[name] for name in recorded.names], dtype=np.int32),
            start_ns=np.array(recorded.start, dtype=np.int64),
            end_ns=np.array(recorded.end, dtype=np.int64),
            parent=np.array(recorded.parent, dtype=np.int64),
        )


def self_times(start, end, parent) -> list[int]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval, so overlapping or
    overhanging children are never subtracted twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0
        reach = s
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            cs, ce = max(start[c], reach), min(end[c], e)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(e - s - covered)
    return out


def _attention_part(name: str, parent_name: str, prev_sibling: str | None, after_heads: bool):
    """Which attention-layer part a numerics span belongs to, or None."""
    if parent_name == "attention.multi_head_nystrom":
        if name == "numerics.matmul":
            return "out_proj" if after_heads else "qkv_proj"
        if name in ("numerics.slice_cols", "numerics.concat_cols"):
            return "head_split_merge"
    elif parent_name == "attention.nystrom_attention":
        if name == "numerics.segment_means":
            return "landmarks"
        if name in ("numerics.transpose", "numerics.scale", "numerics.softmax_rows"):
            return "kernels"
        if name == "numerics.matmul":
            # _scores evaluates transpose(k) as the argument of its matmul
            return "kernels" if prev_sibling == "numerics.transpose" else "joins"
    return None


def layer_metrics(recorded: Spans, items: int) -> tuple[dict, dict]:
    """Per-layer metrics from the recorded spans.

    Time sums over the workload's timed calls (spans under ``bench.op``)
    are reported in ms per item; ``<layer>.<function>_ms`` is the mean
    inclusive duration of one call of that function, wherever it ran.
    Returns (metrics, checks) where checks holds the layer self-time sum
    and the traced calls' wall time, from which the run checks the sum
    against the untraced wall time, and whether every forward pass
    recorded the same primitive counts.
    """
    names, start, end, parent = recorded.names, recorded.start, recorded.end, recorded.parent
    n = len(names)
    selfs = self_times(start, end, parent)

    op_root = [-1] * n  # index of the enclosing bench.op span
    fwd_owner = [-1] * n  # index of the enclosing model.forward span
    prev_sibling: list[str | None] = [None] * n
    after_heads = [False] * n
    last_child: dict[int, int] = {}
    heads_seen: set[int] = set()
    for i in range(n):
        p = parent[i]
        if names[i] == BENCH_OP:
            op_root[i] = i
        elif p >= 0:
            op_root[i] = op_root[p]
        if names[i] == "model.forward":
            fwd_owner[i] = i
        elif p >= 0:
            fwd_owner[i] = fwd_owner[p]
        if p >= 0:
            if p in last_child:
                prev_sibling[i] = names[last_child[p]]
            last_child[p] = i
            if names[i] == "attention.nystrom_attention":
                heads_seen.add(p)
            after_heads[i] = p in heads_seen

    per_item = defaultdict(float)  # ns summed over timed calls
    calls = defaultdict(int)
    call_ns = defaultdict(int)
    fwd_counts = defaultdict(lambda: [0, 0, 0])  # forward -> [nodes, pinv, matmul]
    read_bytes = read_ns = 0
    op_wall = 0
    for i in range(n):
        name = names[i]
        dur = end[i] - start[i]
        calls[name] += 1
        call_ns[name] += dur
        if name == "data.read_bag":
            read_bytes += recorded.payload[i]
            read_ns += dur
        prim = name[len("numerics."):] if name.startswith("numerics.") else ""
        if prim in PRIMITIVE_GROUPS and fwd_owner[i] >= 0:
            counts = fwd_counts[fwd_owner[i]]
            counts[0] += 1
            counts[1] += prim == "iterative_pinv"
            counts[2] += prim == "matmul"
        if op_root[i] < 0:
            continue
        if name == BENCH_OP:
            op_wall += dur
            continue
        layer = name.split(".", 1)[0]
        per_item[f"{layer}.self_ms"] += selfs[i]
        base_prim = name[len("numerics."):].removesuffix(".bwd") if layer == "numerics" else ""
        if base_prim in PRIMITIVE_GROUPS:
            direction = "bwd" if name.endswith(".bwd") else "fwd"
            per_item[f"numerics.{PRIMITIVE_GROUPS[base_prim]}.{direction}_ms"] += dur
        elif name == "numerics.backward":
            per_item["numerics.backward_ms"] += selfs[i]
        elif name == "numerics.toposort":
            per_item["numerics.toposort_ms"] += dur
        p = parent[i]
        part = _attention_part(name, names[p] if p >= 0 else "", prev_sibling[i], after_heads[i])
        if part is not None:
            per_item[f"attention.{part}_ms"] += dur

    ms_per_item = 1e-6 / items
    metrics = {}
    forwards = list(fwd_counts.values())
    for k, key in enumerate(("nodes_per_bag", "pinv_calls_per_bag", "matmul_calls_per_bag")):
        metrics[f"numerics.{key}"] = (forwards[0][k], "count") if forwards else (0, "count")
    for key in ("numerics.backward_ms", "numerics.toposort_ms"):
        metrics[key] = (per_item[key] * ms_per_item, "ms")
    for group in GROUPS:
        for direction in ("fwd", "bwd"):
            key = f"numerics.{group}.{direction}_ms"
            metrics[key] = (per_item[key] * ms_per_item, "ms")
    for part in ATTENTION_PARTS + ("self",):
        key = f"attention.{part}_ms"
        metrics[key] = (per_item[key] * ms_per_item, "ms")

    def mean_ms(name):
        return call_ns[name] / calls[name] * 1e-6 if calls[name] else 0.0

    for fn in ("forward", "predict", "save_checkpoint", "load_checkpoint"):
        metrics[f"model.{fn}_ms"] = (mean_ms(f"model.{fn}"), "ms")
    train_ns = sum(
        end[i] - start[i] for i in range(n) if names[i] == "training.train"
    )
    validation_ns = sum(
        end[i] - start[i]
        for i in range(n)
        if names[i] == "training.evaluate" and parent[i] >= 0 and names[parent[i]] == "training.train"
    )
    steps = calls["training.adam_step"]
    metrics["training.step_ms"] = ((train_ns - validation_ns) / steps * 1e-6 if steps else 0.0, "ms")
    metrics["training.bce_loss_ms"] = (mean_ms("training.bce_loss"), "ms")
    metrics["training.adam_step_ms"] = (mean_ms("training.adam_step"), "ms")
    metrics["training.lookahead_ms"] = (mean_ms("training.lookahead"), "ms")
    trainings = calls["training.train"]
    metrics["training.validation_ms"] = (validation_ns / trainings * 1e-6 if trainings else 0.0, "ms")
    metrics["data.load_manifest_ms"] = (mean_ms("data.load_manifest"), "ms")
    metrics["data.read_bag_ms"] = (mean_ms("data.read_bag"), "ms")
    metrics["data.read_bag_mb_per_s"] = (
        read_bytes / 1e6 / (read_ns * 1e-9) if read_ns else 0.0, "MB/s"
    )
    metrics["data.gen_synthetic_s"] = (mean_ms("data.gen_synthetic") / 1000.0, "s")
    metrics["baselines.baseline_forward_ms"] = (mean_ms("baselines.baseline_forward"), "ms")
    for layer in LAYERS:
        key = f"{layer}.self_ms"
        if key not in metrics:
            metrics[key] = (per_item[key] * ms_per_item, "ms")

    layer_sum = sum(per_item[f"{layer}.self_ms"] for layer in LAYERS)
    checks = {
        "layer_sum_ns": layer_sum,
        "op_wall_ns": op_wall,
        "forward_counts_equal": all(c == forwards[0] for c in forwards),
        "forwards": len(forwards),
    }
    return metrics, checks


def tracing_overhead(package, units, seconds: float, min_pairs: int = 20) -> float:
    """Traced over untraced wall time of the same work, the median over pairs.

    Each pair runs one of the zero-argument ``units`` three times: once to
    warm up, then untraced and traced in alternating order, with a tracer
    of its own.  The two timed calls do the same work within milliseconds
    of each other, so the machine's drift in speed, which over a workload's
    multi-second calls is larger than the overhead, cancels out.  Runs at
    least ``min_pairs`` pairs and for at least ``seconds``.
    """
    tracer = Tracer()
    ratios = []
    stop = time.perf_counter() + seconds
    while len(ratios) < min_pairs or time.perf_counter() < stop:
        unit = units[len(ratios) % len(units)]
        unit()
        walls = [0.0, 0.0]  # untraced, traced
        for traced in (0, 1) if len(ratios) % 2 == 0 else (1, 0):
            if traced:
                tracer.install(package)
            try:
                t0 = time.perf_counter()
                unit()
                walls[traced] = time.perf_counter() - t0
            finally:
                tracer.uninstall()
        ratios.append(walls[1] / walls[0])
    return statistics.median(ratios)


def untraced_layer_sum_pct(layer_sum_ns: float, traced_wall_ns: float, traced_over_untraced: float) -> float:
    """Layer self-time sum as a percentage of the untraced wall time of the same calls.

    ``traced_over_untraced`` is the tracing overhead factor
    (``tracing_overhead``).  The self-times cover the traced wall time by
    construction, so the result is 100% plus the tracing overhead, less
    the little time the benchmark's own span holds.
    """
    return 100.0 * layer_sum_ns * traced_over_untraced / traced_wall_ns


def layer_sum_problem(layer_sum_pct: float, max_gap_pct: float) -> str | None:
    """Why the layer self-times fail to add up to the untraced wall time, or None.

    ``layer_sum_pct`` is the traced layer self-time sum per item as a
    percentage of the untraced wall time per item (ROADMAP item 1 allows
    a gap of ``max_gap_pct`` points either way).
    """
    if abs(layer_sum_pct - 100.0) <= max_gap_pct:
        return None
    return (f"layer self-times sum to {layer_sum_pct:.1f}% of the untraced wall time, "
            f"more than {max_gap_pct:g} points from 100%")
