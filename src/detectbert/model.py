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
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .attention import multi_head_nystrom
from .numerics import DEFAULT_PINV_ITERS, ShapeError, Tensor, no_grad
from .seeding import derive_rng

# the attention head's checkpoint kind, which is also its ``--model`` flag
KIND = "detectbert"
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


def all_finite(a: np.ndarray) -> bool:
    """Whether a non-empty float array holds no NaN or infinity, with no array-sized temporary.

    A NaN makes both extremes NaN, and an infinity is one of them.
    """
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


@dataclass
class Bag:
    """One app: id, binary label, date, and an n x d matrix of instance embeddings."""

    app_id: str
    label: int
    date: dt.date | None
    embeddings: np.ndarray

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        if emb.ndim != 2 or emb.size == 0:
            raise ValueError(
                f"Bag {self.app_id!r}: embeddings must be a non-empty 2-D matrix, "
                f"got shape {emb.shape}"
            )
        if not all_finite(emb):
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


@dataclass
class ModelParams:
    """The attention head: its config and its tensors, keyed and ordered as :func:`param_shapes`."""

    config: ModelConfig
    tensors: dict[str, Tensor]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())

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
            "kind": KIND,
            "d": cfg.d,
            "num_blocks": cfg.num_blocks,
            "heads": cfg.heads,
            "landmarks": cfg.landmarks,
            "pinv_iters": cfg.pinv_iters,
            # constant, but written so that checkpoints stay readable by older readers
            "head_hidden": 0,
            "category_scale": "1.0",
            "ln_eps": repr(nm.LN_EPS),
        }


ATTENTION_WEIGHTS = ("w_q", "w_k", "w_v", "w_o")


def param_shapes(config: ModelConfig):
    """Yield every head parameter's (name, (rows, cols)), in checkpoint order.

    This is the one declaration of the head's parameters: initialization,
    checkpoints and the loader's size checks all follow it.  It is lazy so
    that the loader can stop as soon as a header declares more than the
    file holds.
    """
    d = config.d
    yield "category_vector", (1, d)
    for i in range(config.num_blocks):
        yield f"block{i}.ln_gamma", (1, d)
        yield f"block{i}.ln_beta", (1, d)
        for w in ATTENTION_WEIGHTS:
            yield f"block{i}.{w}", (d, d)
    yield "final_ln_gamma", (1, d)
    yield "final_ln_beta", (1, d)
    yield "head_weights", (d, 1)
    yield "head_bias", (1, 1)


def init_tensors(shapes, seed: int) -> dict[str, Tensor]:
    """Fresh trainable tensors for ``(name, shape)`` pairs, fully deterministic given the seed.

    Layer-norm gains start at one, layer-norm biases and the head bias at
    zero, the category vector is standard normal and every other tensor
    is normal with standard deviation ``PROJECTION_STD``.  Each tensor has
    its own named random stream, so two models with the same seed match
    bitwise parameter by parameter.
    """
    tensors = {}
    for name, shape in shapes:
        if name.endswith("ln_gamma"):
            value = np.ones(shape)
        elif name.endswith("ln_beta") or name == "head_bias":
            value = np.zeros(shape)
        else:
            std = 1.0 if name == "category_vector" else PROJECTION_STD
            value = std * derive_rng(seed, "init", name).standard_normal(shape)
        tensors[name] = Tensor(value, requires_grad=True)
    return tensors


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Draw fresh head parameters (see :func:`init_tensors`)."""
    return ModelParams(config, init_tensors(param_shapes(config), seed))


def forward(bag: Bag, params: ModelParams) -> Tensor:
    """App-level malware logit for one bag, as a 1x1 tensor.

    The category vector is row 0 of the sequence, and no positional signal
    is added.  The score is invariant to the order of the bag's instances
    only in the exact regime (n + 1 <= landmarks): past it, the Nystrom
    landmarks are means of contiguous row segments, so they depend on the
    order.  Each block is one :func:`multi_head_nystrom` node: pre-norm
    multi-head Nystrom attention with its residual connection.  The first
    block reads the category row and the bag's rows where they are, with no
    stacked copy.  The final logit reads the category row only, so the last
    block computes only that row (its keys, values and landmarks still use
    every row).  Without a graph, a block holds one sequence-sized array,
    its output, and the last block none beyond its input.
    """
    cfg = params.config
    if bag.dim != cfg.d:
        raise ShapeError(f"forward: bag width {bag.dim} != model width {cfg.d}")
    t = params.tensors
    x = [t["category_vector"], Tensor(bag.embeddings)]
    for i in range(cfg.num_blocks):
        x = multi_head_nystrom(
            x,
            t[f"block{i}.ln_gamma"],
            t[f"block{i}.ln_beta"],
            tuple(t[f"block{i}.{w}"] for w in ATTENTION_WEIGHTS),
            cfg.heads,
            cfg.landmarks,
            cfg.pinv_iters,
            1 if i == cfg.num_blocks - 1 else None,
        )
    z = nm.layer_norm(x, t["final_ln_gamma"], t["final_ln_beta"])
    return nm.add(nm.matmul(z, t["head_weights"]), t["head_bias"])


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


def _write_tensor(f, name: str, value: np.ndarray):
    encoded = name.encode()
    f.write(struct.pack("<I", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<II", value.shape[0], value.shape[1]))
    f.write(np.ascontiguousarray(value, dtype="<f8"))


def save_checkpoint(params, path):
    """Write attention-head or baseline parameters to ``path``; the round-trip is bit-exact.

    Each record goes straight to the file, so saving holds no copy of it.
    """
    meta_bytes = _meta_lines(params.checkpoint_meta())
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(meta_bytes)))
        f.write(meta_bytes)
        for name, tensor in params.named_parameters():
            _write_tensor(f, name, tensor.value)


def _read_exact(f, count: int, what: str, end: int) -> bytes:
    """The next ``count`` bytes of ``f``; a count past ``end`` (the file size) reads nothing."""
    data = f.read(count) if count <= end - f.tell() else b""
    if len(data) != count:
        raise CheckpointTruncatedError(f"checkpoint ends inside {what}")
    return data


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError:
        raise CheckpointError(f"checkpoint {what} is not valid UTF-8") from None


def _parse_meta(meta_bytes: bytes) -> dict:
    meta = {}
    for line in _decode(meta_bytes, "metadata").splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckpointError(f"malformed metadata line: {line!r}")
        meta[key] = value
    return meta


def _params_from_meta(meta: dict):
    """The head's parameter table as ``meta`` declares it, and a builder from loaded tensors."""
    if (
        int(meta.get("head_hidden", 0)) != 0
        or float(meta.get("category_scale", 1.0)) != 1.0
        or float(meta.get("ln_eps", nm.LN_EPS)) != nm.LN_EPS
    ):
        raise CheckpointError(
            "checkpoint declares a hidden head layer, a scaled category vector or a "
            f"layer-norm eps other than {nm.LN_EPS!r}, which this version does not support"
        )
    cfg = ModelConfig(
        d=int(meta["d"]),
        num_blocks=int(meta["num_blocks"]),
        heads=int(meta["heads"]),
        landmarks=int(meta["landmarks"]),
        pinv_iters=int(meta["pinv_iters"]),
    )
    return param_shapes(cfg), lambda tensors: ModelParams(cfg, tensors)


def load_checkpoint(path):
    """Read a checkpoint written by :func:`save_checkpoint`.

    Every size the file declares (the metadata length, the tensors the
    metadata implies, each record's name and shape) is checked against the
    file before anything of that size is read or allocated.  Raises
    distinct errors for a wrong magic, an unsupported version, a truncated
    file, and a tensor name the declared configuration does not expect;
    missing or invalid metadata, a repeated tensor, a wrong tensor shape
    and non-finite tensor values raise :class:`CheckpointError`.
    """
    from .baselines import BASELINE_KINDS, baseline_from_meta

    loaders = {KIND: _params_from_meta, **dict.fromkeys(BASELINE_KINDS, baseline_from_meta)}
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size
        magic = _read_exact(f, 4, "magic", end)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointMagicError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version", end))
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )
        (meta_len,) = struct.unpack("<I", _read_exact(f, 4, "metadata length", end))
        meta = _parse_meta(_read_exact(f, meta_len, "metadata", end))

        kind = meta.get("kind", KIND)
        if kind not in loaders:
            raise CheckpointError(f"unknown model kind {kind!r} in checkpoint")
        try:
            shapes, build = loaders[kind](meta)
        except KeyError as exc:
            raise CheckpointError(f"checkpoint metadata lacks the key {exc}") from None
        except ValueError as exc:
            raise CheckpointError(f"checkpoint metadata: {exc}") from None

        # Stop at the first record that no longer fits, so a header declaring
        # a huge model costs no more than the file it came in.
        declared = {}
        payload, available = 0, end - f.tell()
        for name, shape in shapes:
            payload += 4 + len(name.encode()) + 8 + 8 * shape[0] * shape[1]
            if payload > available:
                raise CheckpointTruncatedError(
                    f"checkpoint is missing data: its metadata declares more tensor bytes "
                    f"than the {available} it holds"
                )
            declared[name] = shape

        tensors = {}
        while f.tell() < end:
            (name_len,) = struct.unpack("<I", _read_exact(f, 4, "a tensor header", end))
            name = _decode(_read_exact(f, name_len, "tensor name", end), "tensor name")
            if name not in declared:
                raise CheckpointUnknownTensorError(f"unknown tensor {name!r} in checkpoint")
            if name in tensors:
                raise CheckpointError(f"tensor {name!r} appears twice in checkpoint")
            shape = struct.unpack("<II", _read_exact(f, 8, f"shape of {name!r}", end))
            if shape != declared[name]:
                raise CheckpointError(
                    f"tensor {name!r} has shape {shape}, expected {declared[name]}"
                )
            raw = _read_exact(f, 8 * shape[0] * shape[1], f"values of {name!r}", end)
            value = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
            if not np.isfinite(value).all():
                raise CheckpointError(f"tensor {name!r} holds non-finite values")
            tensors[name] = Tensor(value, requires_grad=True)
        missing = declared.keys() - tensors.keys()
        if missing:
            raise CheckpointError(f"checkpoint is missing tensors: {sorted(missing)}")
    return build({name: tensors[name] for name in declared})
