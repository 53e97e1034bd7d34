"""Exact softmax attention and its multi-head Nystrom approximation.

``exact_attention`` is the quadratic-cost reference; ``nystrom_attention``
replaces the full score matrix with landmark kernels joined through an
iterative pseudo-inverse, which is linear in sequence length for a fixed
landmark count.  With as many landmarks as rows the two coincide up to
the pseudo-inverse tolerance, which is the basis of the oracle tests.
Both work on one head's 2-D tensors.  ``multi_head_nystrom``, the layer
the model runs, is one function: a fused node over all heads, in blocks
of ``BLOCK_ROWS`` rows, with one hand-written backward rule, that the
tests check against the per-head composition of these two.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics as nm
from .numerics import DEFAULT_PINV_ITERS, ShapeError, Tensor, mT

# Rows per block of the Nystrom node's key, value and query loops.
BLOCK_ROWS = 256


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
    input of width d, and ``heads`` must divide d.  Every head runs in the
    same ``(heads, rows, d / heads)`` array operations, with one
    pseudo-inverse loop for all heads, and the backward rule is
    hand-written.  ``rows`` limits the output to the first ``rows`` query
    rows (default: all); keys, values and both landmark sets still use
    every row.  The landmark count is clamped to the sequence length.

    The node runs :func:`nystrom_attention`'s math joined as A (Z (C V)),
    so the rows x m product A Z is never formed, over blocks of
    ``BLOCK_ROWS`` rows.  The landmarks are projected from segment means of
    ``x``; C V is summed over key blocks with a running row max and row
    sum; each query block is projected, attended and projected by ``w_o``
    straight into its rows of the node's one ``(rows, d)`` result, made
    after the key loop, so no other array of the sequence's length is held
    beyond ``x``.  At as many landmarks as rows (the exact regime) the
    product is exact softmax attention: K and V, held whole, take the
    places of the key landmarks and Z (C V), which they equal there.  A
    recorded call runs the same arithmetic and also keeps every block and
    the whole heads output for its backward rule, which works on the blocks
    joined, so it gives the bits of a call with no graph.  The tests check
    the node against the per-head composition of :func:`nystrom_attention`
    / :func:`exact_attention`.
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
    c = 1.0 / math.sqrt(d // heads)
    if m == n:  # every landmark is one row, so the key landmarks are K and Z (C V) is V
        k_land = _split_heads(xv @ w_k, heads)
        zcv = _split_heads(xv @ w_v, heads)
    else:
        bounds = np.array(nm.segment_bounds(n, m))
        x_land = nm.segment_mean_rows(xv, bounds)
        q_land = _split_heads(x_land @ w_q, heads)
        k_land = _split_heads(x_land @ w_k, heads)
        del x_land
        kernel_ll = _kernel(q_land, k_land, c)
        trail = [] if record else None
        z = nm.pinv_iterate(kernel_ll, iters, trail)
        top = np.full(q_land.shape[:-1] + (1,), -np.inf)  # running max of each row of C's scores
        total = np.zeros(top.shape)
        cv = np.zeros(q_land.shape)
        key_blocks = []
        for start in range(0, n, BLOCK_ROWS):
            xb = xv[start:start + BLOCK_ROWS]
            kb = _split_heads(xb @ w_k, heads)
            vb = _split_heads(xb @ w_v, heads)
            eb = q_land @ mT(kb)
            eb *= c
            new_top = np.maximum(top, eb.max(axis=-1, keepdims=True))
            eb -= new_top
            np.exp(eb, out=eb)
            shrink = np.exp(top - new_top)
            total *= shrink
            total += eb.sum(axis=-1, keepdims=True)
            cv *= shrink
            cv += eb @ vb
            top = new_top
            if record:
                key_blocks.append((kb, vb, eb, new_top))
            del kb, vb, eb  # before the next block's are made
        cv /= total
        zcv = z @ cv
    result = np.empty((r, d))
    merged = np.empty((r, d)) if record else None  # the heads output, for the vjp's merged.T @ g
    query_blocks = []
    for start in range(0, r, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, r)
        qb = _split_heads(xv[start:stop] @ w_q, heads)
        kernel_qk = _kernel(qb, k_land, c)
        if record:
            query_blocks.append((qb, kernel_qk))
        del qb
        # the block's heads output, made once its queries are dropped
        block = merged[start:stop] if record else np.empty((stop - start, d))
        np.matmul(kernel_qk, zcv, out=_split_heads(block, heads))
        np.matmul(block, w_o, out=result[start:stop])
        del kernel_qk, block  # before the next block's are made
    if not record:
        return Tensor(result)
    q_r, kernel_qk = (_joined(parts, 1) for parts in zip(*query_blocks))
    if m < n:
        kbs, vbs, ebs, tops = zip(*key_blocks)
        for eb, t in zip(ebs, tops):
            eb *= np.exp(t - top)  # each block's exponentials, taken against the final row max
        k, v, kernel_lk = _joined(kbs, 1), _joined(vbs, 1), _joined(ebs, -1)
        kernel_lk /= total

    def vjp(g):
        gh = _split_heads(g @ w_o.T, heads)
        g_zcv = mT(kernel_qk) @ gh
        gs = _kernel_vjp(kernel_qk, gh @ mT(zcv), c)
        gq_r = gs @ k_land
        gk_land = mT(gs) @ q_r
        if m == n:  # the gradients of Q (zero past row r), K and V
            gq, gk, gv = np.pad(gq_r, ((0, 0), (0, n - r), (0, 0))), gk_land, g_zcv
        else:
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
        gq, gk, gv = (_merge_heads(t) for t in (gq, gk, gv))
        gx = gq @ w_q.T
        gx += gk @ w_k.T
        gx += gv @ w_v.T
        return gx, xv.T @ gq, xv.T @ gk, xv.T @ gv, merged.T @ g

    return nm.make_node(result, parents, vjp)


def _split_heads(a, heads: int):
    """An n x d array as a ``(heads, n, d / heads)`` view; head h holds the h-th block of columns."""
    return a.reshape(a.shape[0], heads, -1).transpose(1, 0, 2)


def _merge_heads(a):
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def _joined(parts, axis: int):
    """``parts`` concatenated along ``axis``; a single part is returned as it is, not copied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


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
