"""The correlated-MIL classification head.

A learnable category vector is prepended to a bag's instance embeddings,
the stacked sequence runs through pre-norm residual Nystrom-attention
blocks, and the category row is read out through a final layer norm and a
fully connected layer into one malware logit.  Instance embeddings come
from a frozen upstream encoder and are treated strictly as inputs: no
gradient is ever computed for them.
"""

from __future__ import annotations

import datetime as dt
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .attention import AttentionParams, multi_head_nystrom
from .numerics import DEFAULT_PINV_ITERS, ShapeError, Tensor, no_grad
from .seeding import derive_rng

CHECKPOINT_MAGIC = b"DBCK"
CHECKPOINT_VERSION = 1
PROJECTION_STD = 0.02


class CheckpointError(ValueError):
    """Base class for checkpoint load failures."""


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointUnknownTensorError(CheckpointError):
    pass


@dataclass
class Bag:
    """One app: id, binary label, date, and an n x d matrix of instance embeddings."""

    app_id: str
    label: int
    date: dt.date | None
    embeddings: np.ndarray

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        if emb.ndim != 2 or emb.shape[0] < 1:
            raise ValueError(
                f"Bag {self.app_id!r}: embeddings must be a non-empty 2-D matrix, "
                f"got shape {emb.shape}"
            )
        if not np.isfinite(emb).all():
            raise ValueError(f"Bag {self.app_id!r}: embeddings contain non-finite values")
        if self.label not in (0, 1):
            raise ValueError(f"Bag {self.app_id!r}: label must be 0 or 1, got {self.label}")
        self.embeddings = emb

    @property
    def size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass
class ModelConfig:
    """Architecture settings; width defaults to the upstream embedding size."""

    d: int = 768
    num_blocks: int = 2
    heads: int = 8
    landmarks: int = 64
    pinv_iters: int = DEFAULT_PINV_ITERS
    ln_eps: float = 1e-5

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"width must be positive, got {self.d}")
        if self.num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if self.d % self.heads != 0:
            raise ValueError(f"width {self.d} not divisible by heads={self.heads}")
        if self.landmarks < 1:
            raise ValueError(f"landmarks must be >= 1, got {self.landmarks}")
        if self.pinv_iters < 1:
            raise ValueError(f"pinv_iters must be >= 1, got {self.pinv_iters}")
        if not self.ln_eps > 0:
            raise ValueError(f"ln_eps must be positive, got {self.ln_eps}")


@dataclass
class BlockParams:
    ln_gamma: Tensor
    ln_beta: Tensor
    attention: AttentionParams


@dataclass
class ModelParams:
    config: ModelConfig
    category_vector: Tensor
    blocks: list[BlockParams]
    final_ln_gamma: Tensor
    final_ln_beta: Tensor
    head_weights: Tensor
    head_bias: Tensor

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("category_vector", self.category_vector)]
        for i, blk in enumerate(self.blocks):
            out.append((f"block{i}.ln_gamma", blk.ln_gamma))
            out.append((f"block{i}.ln_beta", blk.ln_beta))
            out.append((f"block{i}.w_q", blk.attention.w_q))
            out.append((f"block{i}.w_k", blk.attention.w_k))
            out.append((f"block{i}.w_v", blk.attention.w_v))
            out.append((f"block{i}.w_o", blk.attention.w_o))
        out.append(("final_ln_gamma", self.final_ln_gamma))
        out.append(("final_ln_beta", self.final_ln_beta))
        out.append(("head_weights", self.head_weights))
        out.append(("head_bias", self.head_bias))
        return out

    def zero_grads(self):
        for _, p in self.named_parameters():
            p.zero_grad()

    def logit(self, bag: Bag, epoch_seed: int | None = None) -> Tensor:
        """The bag's logit; the attention head draws nothing at random, so the seed is unused."""
        return forward(bag, self)

    def checkpoint_meta(self) -> dict:
        """The checkpoint header's key=value metadata, in file order."""
        cfg = self.config
        return {
            "kind": "detectbert",
            "d": cfg.d,
            "num_blocks": cfg.num_blocks,
            "heads": cfg.heads,
            "landmarks": cfg.landmarks,
            "pinv_iters": cfg.pinv_iters,
            # constant, but written so that checkpoints stay readable by older readers
            "head_hidden": 0,
            "category_scale": "1.0",
            "ln_eps": repr(cfg.ln_eps),
        }


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Draw fresh parameters, fully deterministic given the seed.

    The category vector is standard normal, projection and head weights
    are normal with standard deviation 0.02, layer-norm gains start at one
    and every bias at zero.  Each tensor has its own named random stream,
    so two models with the same seed match bitwise parameter by parameter.
    """

    def normal(name, rows, cols, std):
        rng = derive_rng(seed, "init", name)
        return Tensor(std * rng.standard_normal((rows, cols)), requires_grad=True)

    def const(value, rows, cols):
        return Tensor(np.full((rows, cols), float(value)), requires_grad=True)

    d = config.d
    blocks = []
    for i in range(config.num_blocks):
        attn = AttentionParams(
            w_q=normal(f"block{i}.w_q", d, d, PROJECTION_STD),
            w_k=normal(f"block{i}.w_k", d, d, PROJECTION_STD),
            w_v=normal(f"block{i}.w_v", d, d, PROJECTION_STD),
            w_o=normal(f"block{i}.w_o", d, d, PROJECTION_STD),
            heads=config.heads,
            landmarks=config.landmarks,
            pinv_iters=config.pinv_iters,
        )
        blocks.append(
            BlockParams(ln_gamma=const(1.0, 1, d), ln_beta=const(0.0, 1, d), attention=attn)
        )

    return ModelParams(
        config=config,
        category_vector=normal("category_vector", 1, d, 1.0),
        blocks=blocks,
        final_ln_gamma=const(1.0, 1, d),
        final_ln_beta=const(0.0, 1, d),
        head_weights=normal("head_weights", d, 1, PROJECTION_STD),
        head_bias=const(0.0, 1, 1),
    )


def forward(bag: Bag, params: ModelParams) -> Tensor:
    """App-level malware logit for one bag, as a 1x1 tensor.

    The category vector is row 0 of the sequence; no positional signal is
    added (instances carry no meaningful order).  Each block applies
    pre-norm multi-head Nystrom attention with a residual connection, and
    the final logit reads the category row only.
    """
    cfg = params.config
    if bag.dim != cfg.d:
        raise ShapeError(f"forward: bag width {bag.dim} != model width {cfg.d}")
    x = nm.concat_rows([params.category_vector, Tensor(bag.embeddings)])
    for blk in params.blocks:
        normed = nm.layer_norm(x, blk.ln_gamma, blk.ln_beta, cfg.ln_eps)
        x = nm.add(multi_head_nystrom(normed, blk.attention), x)
    category = nm.slice_rows(x, 0, 1)
    z = nm.layer_norm(category, params.final_ln_gamma, params.final_ln_beta, cfg.ln_eps)
    return nm.add(nm.matmul(z, params.head_weights), params.head_bias)


def logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def predict(bag: Bag, params, threshold: float = 0.5) -> dict:
    """Probability score and hard label; ties at the threshold count as malware.

    ``params`` is the attention head's or a baseline's (anything with ``logit``).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    with no_grad():
        logit = params.logit(bag).item()
    score = logistic(logit)
    return {"score": score, "label": 1 if score >= threshold else 0}


# ---------------------------------------------------------------------------
# checkpoints


def _meta_lines(pairs: dict) -> bytes:
    return "".join(f"{k}={v}\n" for k, v in pairs.items()).encode()


def _write_tensor(buf, name: str, value: np.ndarray):
    encoded = name.encode()
    buf.write(struct.pack("<I", len(encoded)))
    buf.write(encoded)
    buf.write(struct.pack("<II", value.shape[0], value.shape[1]))
    buf.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def save_checkpoint(params, path):
    """Write attention-head or baseline parameters to ``path``; the round-trip is bit-exact."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    meta_bytes = _meta_lines(params.checkpoint_meta())
    buf.write(struct.pack("<I", len(meta_bytes)))
    buf.write(meta_bytes)
    for name, tensor in params.named_parameters():
        _write_tensor(buf, name, tensor.value)
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def _read_exact(f, count: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise CheckpointTruncatedError(f"checkpoint ends inside {what}")
    return data


def _parse_meta(meta_bytes: bytes) -> dict:
    meta = {}
    for line in meta_bytes.decode().splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckpointError(f"malformed metadata line: {line!r}")
        meta[key] = value
    return meta


def _params_from_meta(meta: dict) -> ModelParams:
    """Freshly initialized attention-head parameters shaped as ``meta`` declares."""
    if int(meta.get("head_hidden", 0)) != 0 or float(meta.get("category_scale", 1.0)) != 1.0:
        raise CheckpointError(
            "checkpoint declares a hidden head layer or a scaled category vector, "
            "which this version does not support"
        )
    cfg = ModelConfig(
        d=int(meta["d"]),
        num_blocks=int(meta["num_blocks"]),
        heads=int(meta["heads"]),
        landmarks=int(meta["landmarks"]),
        pinv_iters=int(meta["pinv_iters"]),
        ln_eps=float(meta.get("ln_eps", 1e-5)),
    )
    return init_params(cfg, seed=0)


def load_checkpoint(path):
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises distinct errors for a wrong magic, an unsupported version, a
    truncated file, and a tensor name the declared configuration does not
    expect; missing or invalid metadata and non-finite tensor values raise
    :class:`CheckpointError`.
    """
    from .baselines import BASELINE_KINDS, baseline_from_meta

    loaders = {"detectbert": _params_from_meta, **dict.fromkeys(BASELINE_KINDS, baseline_from_meta)}
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointMagicError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )
        (meta_len,) = struct.unpack("<I", _read_exact(f, 4, "metadata length"))
        meta = _parse_meta(_read_exact(f, meta_len, "metadata"))

        kind = meta.get("kind", "detectbert")
        if kind not in loaders:
            raise CheckpointError(f"unknown model kind {kind!r} in checkpoint")
        try:
            params = loaders[kind](meta)
        except KeyError as exc:
            raise CheckpointError(f"checkpoint metadata lacks the key {exc}") from None
        except ValueError as exc:
            raise CheckpointError(f"checkpoint metadata: {exc}") from None
        expected = dict(params.named_parameters())

        seen = set()
        while True:
            head = f.read(4)
            if not head:
                break
            if len(head) != 4:
                raise CheckpointTruncatedError("checkpoint ends inside a tensor header")
            (name_len,) = struct.unpack("<I", head)
            name = _read_exact(f, name_len, "tensor name").decode()
            if name not in expected:
                raise CheckpointUnknownTensorError(f"unknown tensor {name!r} in checkpoint")
            rows, cols = struct.unpack("<II", _read_exact(f, 8, f"shape of {name!r}"))
            raw = _read_exact(f, rows * cols * 8, f"values of {name!r}")
            value = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).astype(np.float64)
            if expected[name].shape != (rows, cols):
                raise CheckpointError(
                    f"tensor {name!r} has shape ({rows}, {cols}), "
                    f"expected {expected[name].shape}"
                )
            if not np.isfinite(value).all():
                raise CheckpointError(f"tensor {name!r} holds non-finite values")
            expected[name].value = value
            seen.add(name)
        missing = set(expected) - seen
        if missing:
            raise CheckpointError(f"checkpoint is missing tensors: {sorted(missing)}")
    return params
