"""Exact softmax attention and its multi-head Nystrom approximation.

``exact_attention`` is the quadratic-cost reference; ``nystrom_attention``
replaces the full score matrix with landmark kernels joined through an
iterative pseudo-inverse, which is linear in sequence length for a fixed
landmark count.  With as many landmarks as rows the two coincide up to
the pseudo-inverse tolerance, which is the basis of the oracle tests.
"""

from __future__ import annotations

import math

from . import numerics as nm
from .numerics import DEFAULT_PINV_ITERS, ShapeError, Tensor


def _scores(q: Tensor, k: Tensor) -> Tensor:
    return nm.softmax_rows(nm.scale(nm.matmul(q, nm.transpose(k)), 1.0 / math.sqrt(q.cols)))


def exact_attention(q, k, v) -> Tensor:
    """softmax(q k^T / sqrt(d)) v, the quadratic-cost reference path."""
    q, k, v = nm.as_tensor(q), nm.as_tensor(k), nm.as_tensor(v)
    if q.cols != k.cols:
        raise ShapeError(f"exact_attention: q cols {q.cols} != k cols {k.cols}")
    if k.rows != v.rows:
        raise ShapeError(f"exact_attention: k rows {k.rows} != v rows {v.rows}")
    return nm.matmul(_scores(q, k), v)


def nystrom_attention(q, k, v, m: int, iters: int = DEFAULT_PINV_ITERS) -> Tensor:
    """Landmark-based approximation of :func:`exact_attention`.

    Landmarks are contiguous-segment means of q and k.  The three softmax
    kernels (queries vs key landmarks, landmark vs landmark, landmarks vs
    keys) are joined through ``iterative_pinv`` of the middle kernel.
    """
    q, k, v = nm.as_tensor(q), nm.as_tensor(k), nm.as_tensor(v)
    if q.cols != k.cols:
        raise ShapeError(f"nystrom_attention: q cols {q.cols} != k cols {k.cols}")
    if k.rows != v.rows:
        raise ShapeError(f"nystrom_attention: k rows {k.rows} != v rows {v.rows}")
    if not 1 <= m <= k.rows:
        raise ValueError(f"nystrom_attention: m={m} out of range [1, {k.rows}]")
    q_land = nm.segment_means(q, min(m, q.rows))
    k_land = nm.segment_means(k, m)
    kernel_qk = _scores(q, k_land)
    kernel_ll = _scores(q_land, k_land)
    kernel_lk = _scores(q_land, k)
    joined = nm.matmul(kernel_qk, nm.iterative_pinv(kernel_ll, iters))
    return nm.matmul(joined, nm.matmul(kernel_lk, v))


def multi_head_nystrom(
    x, weights, heads: int, landmarks: int, iters: int = DEFAULT_PINV_ITERS
) -> Tensor:
    """Project, split into heads, run Nystrom attention per head, merge.

    ``weights`` are the d x d projections ``(w_q, w_k, w_v, w_o)`` for an
    input of width d, and ``heads`` must divide d.  Output shape equals
    input shape.  The landmark count is clamped to the sequence length so
    short inputs fall into the exact regime.
    """
    x = nm.as_tensor(x)
    d = x.cols
    for w in weights:
        if w.shape != (d, d):
            raise ShapeError(f"multi_head_nystrom: weight shape {w.shape} != input width {d}")
    if heads < 1 or d % heads != 0:
        raise ValueError(f"multi_head_nystrom: width {d} not divisible by heads={heads}")
    w_q, w_k, w_v, w_o = weights
    q = nm.matmul(x, w_q)
    k = nm.matmul(x, w_k)
    v = nm.matmul(x, w_v)
    m = min(landmarks, x.rows)
    head_dim = d // heads
    outs = []
    for h in range(heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        outs.append(
            nystrom_attention(
                nm.slice_cols(q, lo, hi),
                nm.slice_cols(k, lo, hi),
                nm.slice_cols(v, lo, hi),
                m,
                iters,
            )
        )
    return nm.matmul(nm.concat_cols(outs), w_o)
