"""Loss, optimizers, split protocols, the epoch loop, and metrics.

The inner optimizer is Adam with bias correction, wrapped by Lookahead
(every k inner steps the slow weights move a fraction alpha toward the
fast weights, which are then reset onto them).  Training is one bag per
step by default; model selection keeps the epoch with the best validation
F1, earlier epochs winning ties.  Bag embeddings are inputs, never
parameters: no gradient ever reaches them.
"""

from __future__ import annotations

import copy
import math
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import Bag, logistic, predict
from .numerics import Tensor, make_node
from .seeding import derive_rng, derive_seed


class TrainingDivergedError(RuntimeError):
    """Raised when the loss or a gradient becomes non-finite during an epoch."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 20
    lookahead_k: int = 5
    lookahead_alpha: float = 0.5
    batch_size: int = 1
    seed: int = 0
    threshold: float = 0.5

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lookahead_k < 1:
            raise ValueError("lookahead_k must be >= 1")
        if not 0.0 <= self.lookahead_alpha <= 1.0:
            raise ValueError("lookahead_alpha must be in [0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")


def bce_loss(logit: Tensor, label: int) -> Tensor:
    """Binary cross-entropy on a logit, in the stable log-sum-exp form.

    loss = softplus(logit) - label * logit; the gradient with respect to
    the logit is logistic(logit) - label.
    """
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    x = logit.item()
    # softplus(x) = max(x, 0) + log1p(exp(-|x|)) avoids overflow both ways
    loss = max(x, 0.0) + math.log1p(math.exp(-abs(x))) - label * x
    grad = logistic(x) - label
    return make_node(
        np.array([[loss]]), (logit,), lambda g: (np.array([[g[0, 0] * grad]]),)
    )


class Adam:
    """Adaptive-moment inner optimizer with bias correction."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, named_params, lr: float):
        """One update from the gradients currently stored on the tensors."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in named_params:
            g = p.grad
            if g is None:
                g = np.zeros_like(p.value)
            if p.value.shape != g.shape:
                raise ValueError(f"gradient shape mismatch for {name!r}")
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(p.value)
                self.m[name] = m
                self.v[name] = np.zeros_like(p.value)
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class Lookahead:
    """Slow/fast weight wrapper around an inner optimizer.

    After every ``k`` inner steps: slow += alpha * (fast - slow), then the
    fast weights are reset onto the slow ones.  alpha=1 with k=1 reproduces
    the inner trajectory; alpha=0 leaves the slow weights untouched.
    """

    def __init__(self, named_params, k: int, alpha: float):
        if k < 1:
            raise ValueError("lookahead k must be >= 1")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("lookahead alpha must be in [0, 1]")
        self.k = k
        self.alpha = alpha
        self.counter = 0
        self.slow = {name: p.value.copy() for name, p in named_params}

    def after_inner_step(self, named_params):
        self.counter += 1
        if self.counter < self.k:
            return
        self.counter = 0
        for name, p in named_params:
            slow = self.slow[name]
            slow += self.alpha * (p.value - slow)
            p.value[...] = slow


# The derived rates every report lists, in report order.
RATES = ("accuracy", "precision", "recall", "f1")


@dataclass
class Metrics:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0

    def as_dict(self) -> dict:
        """The rates, then the confusion counts."""
        return {**{k: getattr(self, k) for k in RATES}, **asdict(self)}


def compute_metrics(predictions, labels) -> Metrics:
    """Confusion counts and derived rates; zero-denominator rates are 0."""
    if len(predictions) != len(labels):
        raise ValueError(
            f"predictions ({len(predictions)}) and labels ({len(labels)}) differ in length"
        )
    if not predictions:
        raise ValueError("cannot compute metrics on empty inputs")
    tp = fp = tn = fn = 0
    for pred, lab in zip(predictions, labels):
        if pred not in (0, 1) or lab not in (0, 1):
            raise ValueError("predictions and labels must be 0 or 1")
        if pred == 1 and lab == 1:
            tp += 1
        elif pred == 1 and lab == 0:
            fp += 1
        elif pred == 0 and lab == 0:
            tn += 1
        else:
            fn += 1
    return Metrics(tp=tp, fp=fp, tn=tn, fn=fn)


# ---------------------------------------------------------------------------
# split protocols


@dataclass
class SplitPlan:
    train: list[int]
    validation: list[int]
    test: list[int]
    excluded: int = 0
    train_fraction: float | None = None
    test_fraction: float | None = None


def split_shuffled(manifest, seed: int, repetition: int = 0) -> SplitPlan:
    """Deterministic 80/10/10 shuffle split keyed by (seed, repetition).

    Validation and test each get floor(n/10) records; the remainder goes
    to training.
    """
    n = len(manifest)
    if n == 0:
        raise ValueError("cannot split an empty manifest")
    perm = derive_rng(seed, "split-shuffled", repetition).permutation(n)
    tenth = n // 10
    test = sorted(int(i) for i in perm[:tenth])
    val = sorted(int(i) for i in perm[tenth:2 * tenth])
    train = sorted(int(i) for i in perm[2 * tenth:])
    return SplitPlan(train=train, validation=val, test=test)


def split_temporal(manifest) -> SplitPlan:
    """Train on apps dated 2019, test on 2020; everything else is excluded.

    Validation is a deterministic 10% carve-out of the 2019 pool (every
    tenth record in app-id order) so that model selection never sees 2020
    data.  The realized 2019/2020 proportions are recorded on the plan.
    """
    by_year = {2019: [], 2020: []}
    excluded = 0
    for i, rec in enumerate(manifest):
        if rec.date.year in by_year:
            by_year[rec.date.year].append(i)
        else:
            excluded += 1
    pool_2019, pool_2020 = by_year[2019], by_year[2020]
    if not pool_2019:
        raise ValueError("temporal split needs at least one app dated 2019")
    if not pool_2020:
        raise ValueError("temporal split needs at least one app dated 2020")
    ordered = sorted(pool_2019, key=lambda i: manifest[i].app_id)
    val = [idx for pos, idx in enumerate(ordered) if pos % 10 == 9]
    train = [idx for pos, idx in enumerate(ordered) if pos % 10 != 9]
    included = len(pool_2019) + len(pool_2020)
    return SplitPlan(
        train=sorted(train),
        validation=sorted(val),
        test=sorted(pool_2020),
        excluded=excluded,
        train_fraction=len(pool_2019) / included,
        test_fraction=len(pool_2020) / included,
    )


# ---------------------------------------------------------------------------
# the epoch loop


@dataclass
class TrainResult:
    params: object
    best_epoch: int
    best_f1: float
    history: list[dict] = field(default_factory=list)


def train(
    config: TrainConfig, train_bags: Sequence[Bag], val_bags: Sequence[Bag], params
) -> TrainResult:
    """Run the epoch loop from ``params`` and return the best-validation-F1 parameters.

    ``params`` is the attention head's or a baseline's freshly initialized
    parameters (anything with ``logit``, ``named_parameters`` and
    ``zero_grads``); it is updated in place.  Each bag is taken from its
    sequence when it is used (a training bag when the epoch order reaches
    it, a validation bag when it is scored), so file-backed sequences
    (:func:`data.load_bags`) hold one bag at a time.  Fully deterministic
    given the config seed: per-epoch bag order and baseline instance redraws
    derive from it by name.
    """
    if not train_bags:
        raise ValueError("training split is empty")
    named = params.named_parameters()
    adam = Adam()
    lookahead = Lookahead(named, config.lookahead_k, config.lookahead_alpha)

    best_params, best_f1, best_epoch = None, -1.0, -1
    history = []
    for epoch in range(config.epochs):
        order = derive_rng(config.seed, "epoch-order", epoch).permutation(len(train_bags))
        epoch_seed = derive_seed(config.seed, "baseline-epoch", epoch)
        loss_sum = 0.0
        pending = 0
        params.zero_grads()
        for step_idx, bag_idx in enumerate(order):
            bag = train_bags[int(bag_idx)]
            loss = bce_loss(params.logit(bag, epoch_seed), bag.label)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, bag {bag.app_id!r}"
                )
            loss_sum += value
            loss.backward()
            for name, p in named:
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise TrainingDivergedError(
                        f"non-finite gradient of {name!r} at epoch {epoch}, bag {bag.app_id!r}"
                    )
            pending += 1
            if pending == config.batch_size or step_idx == len(order) - 1:
                if pending > 1:
                    for _, p in named:
                        if p.grad is not None:
                            p.grad /= pending
                adam.step(named, config.learning_rate)
                lookahead.after_inner_step(named)
                params.zero_grads()
                pending = 0
        record = {"epoch": epoch, "train_loss": loss_sum / len(train_bags)}
        if val_bags:
            val_metrics, _ = evaluate(params, val_bags, config.threshold)
            record.update({f"val_{k}": v for k, v in val_metrics.as_dict().items()})
            f1 = val_metrics.f1
        else:
            f1 = 0.0
        history.append(record)
        if f1 > best_f1:
            best_f1 = f1
            best_epoch = epoch
            best_params = copy.deepcopy(params)
    best_params.zero_grads()
    return TrainResult(params=best_params, best_epoch=best_epoch, best_f1=best_f1, history=history)


def evaluate(params, bags: Sequence[Bag], threshold: float = 0.5):
    """Score every bag with :func:`predict`, taking each from ``bags`` as it is scored.

    The bags are scored in forked worker processes, one per usable CPU (no
    more than there are bags), each reading and scoring one bag at a time
    and sending back only its record.  Records come back in bag order, and
    a failure is raised as the first failing bag's, as a serial loop would
    raise it; a worker that dies raises ``BrokenProcessPool`` (a
    ``RuntimeError``).  With one worker, or where ``os.sched_getaffinity``
    (and with it ``fork``) is missing, the bags are scored in this process.
    Workers inherit the parent's BLAS configuration, so the scores are the
    same bits at any worker count.

    Returns (Metrics, per-app records ordered by app id).
    """
    if not bags:
        raise ValueError("evaluation split is empty")
    args = (params, bags, threshold)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(bags))
    if workers > 1:
        # imported here: they cost about 2 MB that predict-only callers need not pay
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker, initargs=args,
        ) as pool:
            per_app = list(pool.map(_score_in_worker, range(len(bags))))
    else:
        per_app = [score_app(*args, i) for i in range(len(bags))]
    per_app.sort(key=lambda r: r["app_id"])
    metrics = compute_metrics(
        [r["prediction"] for r in per_app], [r["label"] for r in per_app]
    )
    return metrics, per_app


def score_app(params, bags: Sequence[Bag], threshold: float, i: int) -> dict:
    """The per-app record of ``bags[i]``: what :func:`evaluate` computes for each index."""
    bag = bags[i]
    out = predict(bag, params, threshold)
    return {
        "app_id": bag.app_id,
        "score": out["score"],
        "label": bag.label,
        "prediction": out["label"],
    }


# (params, bags, threshold) of the evaluate call a pool worker serves; set
# only in the workers, which inherit it through fork without pickling.
_worker_args = None


def _init_worker(*args):
    global _worker_args
    _worker_args = args


def _score_in_worker(i: int) -> dict:
    return score_app(*_worker_args, i)


# ---------------------------------------------------------------------------
# reports


def format_per_app(per_app) -> str:
    lines = ["app_id,score,label,prediction"]
    for r in per_app:
        lines.append(f"{r['app_id']},{r['score']:.6f},{r['label']},{r['prediction']}")
    return "\n".join(lines) + "\n"


def format_metrics_block(metrics: Metrics) -> str:
    """One ``key=value`` line per rate (two decimals), then per confusion count."""
    return "".join(
        f"{k}={v:.2f}\n" if k in RATES else f"{k}={v}\n" for k, v in metrics.as_dict().items()
    )


def mean_metric_values(metric_list) -> dict:
    """Mean of each rate across repetitions."""
    return {k: float(np.mean([getattr(m, k) for m in metric_list])) for k in RATES}
