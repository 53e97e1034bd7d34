"""The benchmark's workloads: train, infer-large and score-corpus.

Each workload is a closed loop with one caller: the next call starts only
after the previous one returned.  A workload builds its inputs from the
seed in ``setup`` (which the runner repeats and times), makes one timed
operation per ``op`` call, and validates every operation's outputs in
``check``.  Every call goes through the package's public functions, or
through ``cli.main`` exactly as the ``detectbert`` command would run it.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

from spans import BENCH_OP
from stats import min_samples, percentile

# Synthetic-corpus settings, passed to `detectbert gen-synth` as flags.
SYNTH_COMMON = {
    "witness_rate": 0.05,
    "signal_shift": 10.0,
    "correlation_strength": 0.2,
    "positive_fraction": 0.4,
}


def synth_flags(seed: int, **settings) -> list[str]:
    flags = []
    for key, value in {**SYNTH_COMMON, **settings}.items():
        flags += ["--" + key.replace("_", "-"), str(value)]
    return flags + ["--seed", str(seed)]


# Distinct bags the tracing-overhead probe cycles through.
UNIT_BAGS = 16


def synth_bags(det, workload, count: int) -> list:
    """The first ``count`` bags of the workload's corpus, generated in memory as gen-synth writes them."""
    config = det.data.SynthConfig(
        num_bags=workload.BAGS, d=workload.DIM, seed=workload.seed, **workload.SIZES, **SYNTH_COMMON
    )
    return [det.data.synth_bag(config, i)[0] for i in range(count)]


@dataclass
class Call:
    """One timed call: its wall time and the items it completed (0 if it failed)."""

    label: str
    wall_s: float
    items: int


class Workload:
    name = ""
    # the call whose latency is reported as latency_ms_p50
    latency_call = ""
    min_ops = 1
    # workload-specific names printed next to the generic metric names
    aliases: dict[str, str] = {}

    def __init__(self, det, seed: int, work: Path):
        self.det = det
        self.seed = seed
        self.work = work
        self.tracer = None
        self.ops = 0
        self.failures: dict[int, str] = {}
        self.outputs: list = []  # (op index, what check() validates)

    def fail(self, op: int, message: str):
        self.failures.setdefault(op, message.strip().splitlines()[-1] if message.strip() else "failed")

    def timed(self, fn, *args):
        """Run ``fn(*args)``, returning (result, wall seconds); a span when traced."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(BENCH_OP)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.finish()
        return result, wall

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run one `detectbert` command in-process; returns (exit code, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.det.cli.main([str(a) for a in argv])
        return rc, err.getvalue()

    def cli_or_raise(self, argv):
        rc, err = self.cli(argv)
        if rc != 0:
            raise RuntimeError(f"detectbert {argv[0]} exited {rc}: {err.strip()}")

    def setup(self, dest: Path):
        raise NotImplementedError

    def op(self) -> list[Call]:
        raise NotImplementedError

    def check(self):
        """Validate every operation made so far, recording failures by op index."""

    def unit_calls(self) -> list:
        """Zero-argument calls that each do one item's work, for the tracing-overhead probe.

        They look the package's functions up at call time, so they run
        traced while the tracer is installed.
        """
        raise NotImplementedError

    def summary(self, calls: list[Call]) -> dict:
        """Workload-specific figures printed alongside the metrics: {name: (value, unit)}."""
        return {}


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


class Train(Workload):
    """`detectbert train` on the acceptance-6 corpus shape, 2 epochs."""

    name = "train"
    latency_call = "train"
    aliases = {"items_per_s": "train_bags_per_s"}
    BAGS = 500
    DIM = 32
    SIZES = {"bag_size_min": 20, "bag_size_max": 200}
    EPOCHS = 2
    HEADS, LANDMARKS, PINV_ITERS = 4, 32, 6
    FLAGS = ["--epochs", EPOCHS, "--heads", HEADS, "--landmarks", LANDMARKS, "--pinv-iters", PINV_ITERS]

    def setup(self, dest):
        self.cli_or_raise(
            ["gen-synth", "--out", dest, "--bags", self.BAGS, "--dim", self.DIM]
            + synth_flags(self.seed, **self.SIZES)
        )
        self.manifest = dest / "manifest.csv"

    def op(self):
        k = self.ops
        self.ops += 1
        out = self.work / f"train-{k}"
        argv = ["train", "--manifest", self.manifest, "--out", out, *self.FLAGS, "--seed", self.seed]
        (rc, err), wall = self.timed(self.cli, argv)
        if rc != 0:
            self.fail(k, err)
            return [Call("train", wall, 0)]
        self.outputs.append((k, out))
        train_bags = sum(row[2] == "train" for row in _csv_rows(out / "split.csv"))
        return [Call("train", wall, train_bags * self.EPOCHS)]

    def check(self):
        model = self.det.model
        first = None
        for k, out in self.outputs:
            history = _csv_rows(out / "history.csv")
            if len(history) != self.EPOCHS or not all(math.isfinite(float(r[1])) for r in history):
                self.fail(k, f"history.csv has {len(history)} epochs or a non-finite loss")
                continue
            ckpt = out / "checkpoint.dbck"
            model.save_checkpoint(model.load_checkpoint(ckpt), out / "reloaded.dbck")
            if (out / "reloaded.dbck").read_bytes() != ckpt.read_bytes():
                self.fail(k, "checkpoint does not reload bit-exactly")
                continue
            files = [(out / name).read_bytes() for name in ("history.csv", "checkpoint.dbck")]
            if first is None:
                first = files
                self.loss_final = float(history[-1][1])
            elif files != first:
                self.fail(k, "rerun with the same flags and seed changed the outputs")

    def summary(self, calls):
        return {"train_loss_final": (getattr(self, "loss_final", float("nan")), "loss")}

    def unit_calls(self):
        """Forward, loss and backward of one training step, on the corpus's first bags."""
        det = self.det
        config = det.model.ModelConfig(
            d=self.DIM, heads=self.HEADS, landmarks=self.LANDMARKS, pinv_iters=self.PINV_ITERS
        )
        params = det.model.init_params(config, self.seed)

        def step(bag):
            params.zero_grads()
            det.training.bce_loss(det.model.forward(bag, params), bag.label).backward()

        return [lambda bag=bag: step(bag) for bag in synth_bags(det, self, UNIT_BAGS)]


class InferLarge(Workload):
    """`model.predict` on one n=1000, d=256 bag at the acceptance-9 model shape."""

    name = "infer-large"
    latency_call = "predict"
    min_ops = min_samples(90)  # so that p90 has ten samples beyond it
    aliases = {"latency_ms_p50": "infer_latency_ms_p50"}

    def setup(self, dest):
        det = self.det
        self.cli_or_raise(
            ["gen-synth", "--out", dest, "--bags", 1, "--dim", 256]
            + synth_flags(self.seed, bag_size_min=1000, bag_size_max=1000)
        )
        manifest = det.data.load_manifest(dest / "manifest.csv")
        self.bag = det.data.load_bags(manifest, [0])[0]
        config = det.model.ModelConfig(d=256, num_blocks=2, heads=8, landmarks=64, pinv_iters=24)
        det.model.save_checkpoint(det.model.init_params(config, self.seed), dest / "model.dbck")
        self.params = det.model.load_checkpoint(dest / "model.dbck")
        self.reference = det.model.predict(self.bag, self.params)["score"]  # warm-up

    def op(self):
        k = self.ops
        self.ops += 1
        result, wall = self.timed(self.det.model.predict, self.bag, self.params)
        self.outputs.append((k, result["score"]))
        return [Call("predict", wall, 1)]

    def check(self):
        for k, score in self.outputs:
            if not 0.0 < score < 1.0:
                self.fail(k, f"score {score!r} outside (0, 1)")
            elif score != self.reference:
                self.fail(k, f"score {score!r} differs from the warm-up call's {self.reference!r}")

    def unit_calls(self):
        return [lambda: self.det.model.predict(self.bag, self.params)]

    def summary(self, calls):
        latencies = [c.wall_s * 1000.0 for c in calls if c.label == "predict" and c.items]
        if len(latencies) < self.min_ops:
            return {}
        return {
            "infer_latency_ms_p90": (percentile(latencies, 90), "ms"),
            "latency_samples": (len(latencies), "count"),
        }


class ScoreCorpus(Workload):
    """`detectbert evaluate` over ~300 short bags, attention and baseline checkpoints."""

    name = "score-corpus"
    latency_call = "evaluate"
    aliases = {"items_per_s": "score_apps_per_s"}
    BAGS = 300
    DIM = 64
    SIZES = {"bag_size_min": 5, "bag_size_max": 120}
    BASELINE = "elementwise_average"

    def setup(self, dest):
        det = self.det
        self.cli_or_raise(
            ["gen-synth", "--out", dest, "--bags", self.BAGS, "--dim", self.DIM]
            + synth_flags(self.seed, **self.SIZES)
        )
        self.manifest = dest / "manifest.csv"
        config = det.model.ModelConfig(d=self.DIM, heads=8, landmarks=64, pinv_iters=24)
        self.params = det.model.init_params(config, self.seed)
        self.baseline = det.baselines.init_baseline(self.BASELINE, self.DIM, self.seed)
        self.checkpoints = {"evaluate": dest / "attention.dbck", "evaluate-baseline": dest / "baseline.dbck"}
        det.model.save_checkpoint(self.params, self.checkpoints["evaluate"])
        det.model.save_checkpoint(self.baseline, self.checkpoints["evaluate-baseline"])

    def op(self):
        k = self.ops
        self.ops += 1
        calls, scores = [], {}
        for label, ckpt in self.checkpoints.items():
            out = self.work / f"{label}-{k}"
            argv = ["evaluate", "--manifest", self.manifest, "--checkpoint", ckpt, "--out", out]
            (rc, err), wall = self.timed(self.cli, argv)
            if rc != 0:
                self.fail(k, err)
                calls.append(Call(label, wall, 0))
                continue
            scores[label] = (out / "scores.csv").read_bytes()
            apps = len(_csv_rows(out / "scores.csv")) if label == "evaluate" else 0
            calls.append(Call(label, wall, apps))
        if k not in self.failures:
            self.outputs.append((k, scores))
        return calls

    def expected_scores(self) -> dict:
        """scores.csv as in-memory scoring of the regenerated bags would write it."""
        det = self.det
        bags = synth_bags(det, self, self.BAGS)
        scorers = {
            "evaluate": lambda bag: det.model.predict(bag, self.params)["score"],
            "evaluate-baseline": lambda bag: det.model.logistic(
                det.baselines.baseline_forward(bag, self.baseline, self.baseline.eval_seed).item()
            ),
        }
        expected = {}
        for label, score_of in scorers.items():
            lines = ["app_id,score,label,prediction"]
            for bag in sorted(bags, key=lambda b: b.app_id):
                score = score_of(bag)
                lines.append(f"{bag.app_id},{score:.6f},{bag.label},{int(score >= 0.5)}")
            expected[label] = ("\n".join(lines) + "\n").encode()
        return expected

    def check(self):
        if not self.outputs:
            return
        expected = self.expected_scores()
        for k, scores in self.outputs:
            for label, want in expected.items():
                if scores.get(label) != want:
                    self.fail(k, f"{label} scores.csv differs from in-memory scoring")

    def unit_calls(self):
        """Scoring of one bag, on the corpus's first bags."""
        bags = synth_bags(self.det, self, UNIT_BAGS)
        return [lambda bag=bag: self.det.model.predict(bag, self.params) for bag in bags]

    def summary(self, calls):
        walls = [c.wall_s for c in calls if c.label == "evaluate-baseline"]
        return {"baseline_apps_per_s": (self.BAGS * len(walls) / sum(walls), "1/s")} if walls else {}


WORKLOADS = {cls.name: cls for cls in (Train, InferLarge, ScoreCorpus)}
