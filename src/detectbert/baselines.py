"""Aggregation baselines: one vector per bag, then a fully connected head.

Three ways to compress a bag into a single embedding: pick one instance at
random, sum the instances elementwise, or average them.  Each feeds the
same d -> 1 linear head, and the baselines share the training loop, loss,
optimizer and metrics with the attention model so comparisons differ only
in the aggregation step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .model import Bag, init_tensors
from .numerics import Tensor
from .seeding import derive_rng


def select_index(app_id: str, n: int, seed: int) -> int:
    """Uniform instance choice, a pure function of (app_id, seed)."""
    return int(derive_rng(seed, "baseline-select", app_id).integers(n))


def _random_selection(bag: Bag, seed: int) -> np.ndarray:
    return bag.embeddings[select_index(bag.app_id, bag.size, seed)].reshape(1, -1).copy()


# checkpoint kind -> aggregation of a bag to a 1 x d vector, given the selection seed
AGGREGATORS = {
    "random_selection": _random_selection,
    "elementwise_addition": lambda bag, seed: bag.embeddings.sum(axis=0, keepdims=True),
    "elementwise_average": lambda bag, seed: bag.embeddings.mean(axis=0, keepdims=True),
}
BASELINE_KINDS = tuple(AGGREGATORS)


@dataclass
class BaselineParams:
    kind: str
    head_weights: Tensor
    head_bias: Tensor
    eval_seed: int

    def __post_init__(self):
        if self.kind not in AGGREGATORS:
            raise ValueError(
                f"unknown baseline kind {self.kind!r}; expected one of {BASELINE_KINDS}"
            )

    @property
    def d(self) -> int:
        return self.head_weights.rows

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name, _ in param_shapes(self.d)]

    def logit(self, bag: Bag, epoch_seed: int | None = None) -> Tensor:
        """The bag's logit; without an epoch seed (evaluation) selection uses ``eval_seed``."""
        return baseline_forward(bag, self, self.eval_seed if epoch_seed is None else epoch_seed)

    def checkpoint_meta(self) -> dict:
        """The checkpoint header's key=value metadata, in file order."""
        return {"kind": self.kind, "d": self.d, "eval_seed": self.eval_seed}


def param_shapes(d: int) -> list[tuple[str, tuple[int, int]]]:
    """The linear head's (name, (rows, cols)) pairs, in checkpoint order."""
    return [("head_weights", (d, 1)), ("head_bias", (1, 1))]


def init_baseline(kind: str, d: int, seed: int) -> BaselineParams:
    return BaselineParams(kind, **init_tensors(param_shapes(d), seed), eval_seed=seed)


def baseline_from_meta(meta: dict):
    """The baseline's parameter table as checkpoint metadata declares it, and a builder."""
    kind, eval_seed = meta["kind"], int(meta.get("eval_seed", 0))
    return param_shapes(int(meta["d"])), lambda t: BaselineParams(kind, **t, eval_seed=eval_seed)


def aggregate(bag: Bag, params: BaselineParams, epoch_seed: int) -> np.ndarray:
    """Compress the bag to a 1 x d vector according to ``params.kind``.

    Random selection is deterministic given (bag.app_id, epoch_seed);
    training callers mix the epoch index into the seed to redraw each
    epoch, evaluation passes the fixed ``eval_seed``.
    """
    return AGGREGATORS[params.kind](bag, epoch_seed)


def baseline_forward(bag: Bag, params: BaselineParams, epoch_seed: int) -> Tensor:
    """Logit of the aggregated bag under the linear head, as a 1x1 tensor."""
    if bag.dim != params.d:
        raise nm.ShapeError(f"baseline_forward: bag width {bag.dim} != head width {params.d}")
    agg = Tensor(aggregate(bag, params, epoch_seed))
    return nm.add(nm.matmul(agg, params.head_weights), params.head_bias)
