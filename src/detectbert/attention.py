"""Exact softmax attention and its multi-head Nystrom approximation.

``exact_attention`` is the quadratic-cost reference; ``nystrom_attention``
replaces the full score matrix with landmark kernels joined through an
iterative pseudo-inverse, which is linear in sequence length for a fixed
landmark count.  With as many landmarks as rows the two coincide up to
the pseudo-inverse tolerance, which is the basis of the oracle tests.
Both work on one head's 2-D tensors.  ``multi_head_nystrom``, the layer
the model runs, is one fused node over all heads that the tests check
against the per-head composition of these two.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics as nm
from .numerics import DEFAULT_PINV_ITERS, ShapeError, Tensor, mT


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
    x, weights, heads: int, landmarks: int, iters: int = DEFAULT_PINV_ITERS, rows: int | None = None
) -> Tensor:
    """Multi-head Nystrom self-attention of ``x``, as one differentiable node.

    ``weights`` are the d x d projections ``(w_q, w_k, w_v, w_o)`` for an
    input of width d, and ``heads`` must divide d.  Q, K and V are split
    into ``(heads, rows, d / heads)`` arrays and every head runs in the same
    array operations; the node's backward rule is hand-written.

    The landmark count is clamped to the sequence length.  When it reaches
    the sequence length (the exact regime) every landmark is a single row,
    the Nystrom product is exact softmax attention, and the node computes
    that directly, with no pseudo-inverse.  Otherwise it runs
    :func:`nystrom_attention`'s math, with one pseudo-inverse loop for all
    heads.  ``rows`` limits the output to the first ``rows`` query rows
    (default: all); keys, values and both landmark sets still use every
    row.  The tests check the node against the per-head composition of
    :func:`nystrom_attention` / :func:`exact_attention`.
    """
    x = nm.as_tensor(x)
    n, d = x.shape
    for w in weights:
        if w.shape != (d, d):
            raise ShapeError(f"multi_head_nystrom: weight shape {w.shape} != input width {d}")
    if heads < 1 or d % heads != 0:
        raise ValueError(f"multi_head_nystrom: width {d} not divisible by heads={heads}")
    if landmarks < 1:
        raise ValueError(f"multi_head_nystrom: landmarks must be >= 1, got {landmarks}")
    r = n if rows is None else rows
    if not 1 <= r <= n:
        raise ValueError(f"multi_head_nystrom: rows={r} out of range [1, {n}]")
    parents = (x, *weights)
    record = nm.recording(parents)
    xv = x.value
    w_q, w_k, w_v, w_o = (w.value for w in weights)
    m = min(landmarks, n)
    if m == n:
        out, heads_vjp = _exact_heads(xv, w_q, w_k, w_v, heads, r, record)
    else:
        out, heads_vjp = _nystrom_heads(xv, w_q, w_k, w_v, heads, m, r, iters, record)
    merged = _merge_heads(out)
    del out

    def vjp(g):
        gq, gk, gv = (_merge_heads(t) for t in heads_vjp(_split_heads(g @ w_o.T, heads)))
        gx = gq @ w_q.T
        gx += gk @ w_k.T
        gx += gv @ w_v.T
        return gx, xv.T @ gq, xv.T @ gk, xv.T @ gv, merged.T @ g

    return nm.make_node(merged @ w_o, parents, vjp)


def _split_heads(a, heads: int):
    """An n x d array as a ``(heads, n, d / heads)`` view; head h holds the h-th block of columns."""
    return a.reshape(a.shape[0], heads, -1).transpose(1, 0, 2)


def _merge_heads(a):
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def _kernel(q, k, c: float):
    """softmax(c * q k^T) per head, scaled and normalized in place."""
    s = q @ mT(k)
    s *= c
    return nm.softmax_last(s, out=s)


def _kernel_vjp(kernel, g, c: float):
    """Gradient of ``q k^T`` from the gradient ``g`` of ``_kernel(q, k, c)``."""
    gs = nm.softmax_vjp(kernel, g)
    gs *= c
    return gs


def _exact_heads(xv, w_q, w_k, w_v, heads, r, record):
    """Exact attention of the first ``r`` query rows, per head, and the heads' vjp."""
    q, k, v = (_split_heads(xv @ w, heads) for w in (w_q, w_k, w_v))
    c = 1.0 / math.sqrt(q.shape[-1])
    q_r = q[:, :r]
    kernel = _kernel(q_r, k, c)
    if not record:
        return kernel @ v, None

    def vjp(g):
        gs = _kernel_vjp(kernel, g @ mT(v), c)
        gq = np.zeros(q.shape)
        gq[:, :r] = gs @ k
        return gq, mT(gs) @ q_r, mT(kernel) @ g

    return kernel @ v, vjp


def _nystrom_heads(xv, w_q, w_k, w_v, heads, m, r, iters, record):
    """Nystrom attention of the first ``r`` query rows, per head, and the heads' vjp.

    Joined as A (Z (C V)), so the r x m product A Z is never formed.
    Unless recording, each intermediate is dropped once it is used.
    """
    n = xv.shape[0]
    bounds = np.array(nm.segment_bounds(n, m))
    q = _split_heads(xv @ w_q, heads)
    k = _split_heads(xv @ w_k, heads)
    c = 1.0 / math.sqrt(q.shape[-1])
    q_land = nm.segment_mean_rows(q, bounds)
    k_land = nm.segment_mean_rows(k, bounds)
    kernel_ll = _kernel(q_land, k_land, c)
    trail = [] if record else None
    z = nm.pinv_iterate(kernel_ll, iters, trail)
    kernel_lk = _kernel(q_land, k, c)
    if not record:
        del k
    v = _split_heads(xv @ w_v, heads)
    cv = kernel_lk @ v
    if not record:
        del kernel_lk, v
    zcv = z @ cv
    q_r = q[:, :r]
    kernel_qk = _kernel(q_r, k_land, c)
    if not record:
        del q, q_r
        return kernel_qk @ zcv, None

    def vjp(g):
        g_zcv = mT(kernel_qk) @ g
        gs = _kernel_vjp(kernel_qk, g @ mT(zcv), c)
        gq_r = gs @ k_land
        gk_land = mT(gs) @ q_r
        g_cv = mT(z) @ g_zcv
        gs = _kernel_vjp(kernel_ll, nm.pinv_vjp(kernel_ll, trail, g_zcv @ mT(cv)), c)
        gq_land = gs @ k_land
        gk_land += mT(gs) @ q_land
        gv = mT(kernel_lk) @ g_cv
        gs = _kernel_vjp(kernel_lk, g_cv @ mT(v), c)
        gq_land += gs @ k
        gk = mT(gs) @ q_land
        gk += nm.segment_mean_rows_vjp(gk_land, bounds)
        gq = nm.segment_mean_rows_vjp(gq_land, bounds)
        gq[:, :r] += gq_r
        return gq, gk, gv

    return kernel_qk @ zcv, vjp
