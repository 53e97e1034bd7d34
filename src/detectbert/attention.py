"""Exact softmax attention and its multi-head Nystrom approximation.

``exact_attention`` is the quadratic-cost reference; ``nystrom_attention``
replaces the full score matrix with landmark kernels joined through an
iterative pseudo-inverse, which is linear in sequence length for a fixed
landmark count.  With as many landmarks as rows the two coincide up to
the pseudo-inverse tolerance, which is the basis of the oracle tests.
Both work on one head's 2-D tensors.  ``multi_head_nystrom``, the block
the model runs, is one function: a fused node for the whole pre-norm
residual block (layer norm, all heads of attention and the residual sum),
in blocks of ``BLOCK_ROWS`` rows, with one hand-written backward rule
over the whole arrays a recorded call fills block by block.  The tests
check it against the composition of ``layer_norm``, the per-head use of
these two and ``add``.
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
    x, gamma, beta, weights, heads: int, landmarks: int, iters: int = DEFAULT_PINV_ITERS,
    rows: int | None = None,
) -> Tensor:
    """One pre-norm residual block, ``x + MHA(layer_norm(x))``, as one differentiable node.

    ``x`` is one n x d tensor or a list of them, stacked by rows as
    :func:`~detectbert.numerics.concat_rows` would stack them; the node
    reads the parts where they are.  ``gamma`` and ``beta`` are the layer
    norm's 1 x d gain and shift, ``weights`` the d x d projections
    ``(w_q, w_k, w_v, w_o)``, and ``heads`` must divide d.  Every head runs
    in the same ``(heads, rows, d / heads)`` array operations, with one
    pseudo-inverse loop for all heads, and the backward rule is
    hand-written.  ``rows`` limits the output to the first ``rows`` rows
    (default: all); keys, values and both landmark sets still use every
    row.  The landmark count is clamped to the sequence length.

    The attention is :func:`nystrom_attention`'s math joined as A (Z (C V)),
    so the rows x m product A Z is never formed, over blocks of
    ``BLOCK_ROWS`` rows.  The landmarks are projected from segment means of
    the normed rows, taken over blocks of whole segments; C V is summed over
    key blocks with a running row max and row sum, and only then is Z
    formed, so its pseudo-inverse buffers and a key block are never held
    together; each query block is projected, attended, projected by ``w_o``
    and added to its rows of ``x``.  At as many landmarks as rows (the
    exact regime) the product is exact softmax attention: K and V, held
    whole, take the places of the key landmarks and Z (C V), which they
    equal there.

    Each row's layer-norm mean and scale are taken first.  Without a graph,
    at ``rows`` = n the node makes one (n, d) array: the normed rows, which
    the three loops read, and which each query block overwrites with its
    output rows once read.  With fewer output rows (the model's last block)
    the Nystrom regime makes none: each loop normalizes the rows it reads.
    A recorded call keeps what its backward rule reads in whole arrays that
    it allocates once and fills block by block with ``out=`` products: the
    standardized rows (the vjp remakes the normed rows from them, with the
    forward's steps), K and V (n, d), the key-side exponentials
    (heads, m, n), Q (rows, d), the query kernel (heads, rows, m), the heads
    output and the pseudo-inverse's vjp; each block's values have the bits
    of a call with no graph.  The vjp sums x's gradient as
    ``Tensor.backward`` summed the residual's and the layer norm's.  The
    tests check the node against the composition of
    ``layer_norm``, the per-head :func:`nystrom_attention` /
    :func:`exact_attention` and ``add``.
    """
    parts = [nm.as_tensor(p) for p in (x if isinstance(x, (list, tuple)) else [x])]
    gamma, beta = nm.as_tensor(gamma), nm.as_tensor(beta)
    weights = [nm.as_tensor(w) for w in weights]
    d = parts[0].cols
    for p in parts:
        if p.rows < 1 or p.cols != d:
            raise ShapeError(f"multi_head_nystrom: a row part of shape {p.shape}, not (>= 1, {d})")
    if gamma.shape != (1, d) or beta.shape != (1, d):
        raise ShapeError(
            f"multi_head_nystrom: gamma {gamma.shape} / beta {beta.shape} must be (1, {d})"
        )
    if len(weights) != 4:
        raise ValueError(f"multi_head_nystrom: expected 4 weights (w_q, w_k, w_v, w_o), "
                         f"got {len(weights)}")
    for w in weights:
        if w.shape != (d, d):
            raise ShapeError(f"multi_head_nystrom: weight shape {w.shape} != input width {d}")
    if heads < 1 or d % heads != 0:
        raise ValueError(f"multi_head_nystrom: width {d} not divisible by heads={heads}")
    if landmarks < 1:
        raise ValueError(f"multi_head_nystrom: landmarks must be >= 1, got {landmarks}")
    if iters < 1:
        raise ValueError(f"multi_head_nystrom: iters must be >= 1, got {iters}")
    n = sum(p.rows for p in parts)
    r = n if rows is None else rows
    if not 1 <= r <= n:
        raise ValueError(f"multi_head_nystrom: rows={r} out of range [1, {n}]")
    parents = (*parts, gamma, beta, *weights)
    record = nm.recording(parents)
    xs = [p.value for p in parts]
    gain, shift = gamma.value, beta.value
    w_q, w_k, w_v, w_o = (w.value for w in weights)
    m = min(landmarks, n)
    c = 1.0 / math.sqrt(d // heads)
    mean, inv = (np.concatenate(s) for s in zip(*(nm.layer_norm_stats(a) for a in xs)))

    def norm_into(out, start, xhat=None):
        """Rows ``start:start + len(out)``, normed into ``out`` and standardized into ``xhat``."""
        for a, lo in _row_pieces(xs, start, start + len(out)):
            at, to = slice(lo - start, lo - start + len(a)), slice(lo, lo + len(a))
            h = None if xhat is None else xhat[at]
            nm.layer_norm_rows(a, mean[to], inv[to], gain, shift, out[at], h)
        return out

    xhat = np.empty((n, d)) if record else None
    # the normed rows, whole, unless only the Nystrom regime's first rows are output
    xv = norm_into(np.empty((n, d)), 0, xhat) if record or r == n or m == n else None

    def normed(start, stop):
        stop = min(stop, n)
        return xv[start:stop] if xv is not None else norm_into(np.empty((stop - start, d)), start)

    if m == n:  # every landmark is one row, so the key landmarks are K and Z (C V) is V
        k_land = _split_heads(xv @ w_k, heads)
        zcv = _split_heads(xv @ w_v, heads)
    else:
        bounds = np.array(nm.segment_bounds(n, m))
        per = max(1, BLOCK_ROWS // -(-n // m))  # whole segments per landmark block
        x_land = np.empty((m, d))
        for i in range(0, m, per):
            j = min(i + per, m)
            lo, hi = bounds[i], bounds[j]
            x_land[i:j] = nm.segment_mean_rows(normed(lo, hi), bounds[i:j + 1] - lo)
        q_land = _split_heads(x_land @ w_q, heads)
        k_land = _split_heads(x_land @ w_k, heads)
        del x_land
        top = np.full(q_land.shape[:-1] + (1,), -np.inf)  # running max of each row of C's scores
        total = np.zeros(top.shape)
        cv = np.zeros(q_land.shape)
        # a recorded call fills K, V and the key-side exponentials block by block
        k, v, kernel_lk = (np.empty(s) if record else None for s in ((n, d), (n, d), (heads, m, n)))
        tops = []  # each key block's row max, against which its exponentials were taken
        for start in range(0, n, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n)
            xb = normed(start, stop)
            kb = _split_heads(np.matmul(xb, w_k, out=k[start:stop] if record else None), heads)
            vb = _split_heads(np.matmul(xb, w_v, out=v[start:stop] if record else None), heads)
            del xb
            eb = np.matmul(q_land, mT(kb), out=kernel_lk[..., start:stop] if record else None)
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
            tops.append(top)
            del kb, vb, eb  # before the next block's are made
        cv /= total
        kernel_ll = _kernel(q_land, k_land, c)
        z, pinv_vjp = nm.pinv_iterate(kernel_ll, iters, record)
        zcv = z @ cv
    # without a graph, each query block's output rows replace its normed rows once read
    result = xv if xv is not None and r == n and not record else np.empty((r, d))
    # a recorded call fills Q, the query kernel and the heads output (for the vjp's
    # merged.T @ g) block by block
    q_r, kernel_qk, merged = (
        np.empty(s) if record else None for s in ((r, d), (heads, r, m), (r, d))
    )
    for start in range(0, r, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, r)
        qb = np.matmul(normed(start, stop), w_q, out=q_r[start:stop] if record else None)
        out = kernel_qk[:, start:stop] if record else None
        kq = _kernel(_split_heads(qb, heads), k_land, c, out=out)
        del qb
        # the block's heads output, made once its queries are dropped
        block = merged[start:stop] if record else np.empty((stop - start, d))
        np.matmul(kq, zcv, out=_split_heads(block, heads))
        np.matmul(block, w_o, out=result[start:stop])
        del kq, block  # before the next block's are made
        for a, lo in _row_pieces(xs, start, stop):
            result[lo:lo + len(a)] += a
    if not record:
        return Tensor(result)
    if m < n:
        for start, t in zip(range(0, n, BLOCK_ROWS), tops):
            # each block's exponentials, taken against the final row max
            kernel_lk[..., start:start + BLOCK_ROWS] *= np.exp(t - top)
        kernel_lk /= total

    def vjp(g):
        gh = _split_heads(g @ w_o.T, heads)
        g_zcv = mT(kernel_qk) @ gh
        gs = _kernel_vjp(kernel_qk, gh @ mT(zcv), c)
        gq_r = gs @ k_land
        gk_land = mT(gs) @ _split_heads(q_r, heads)
        if m == n:  # the gradients of Q (zero past row r), K and V
            gq, gk, gv = np.pad(gq_r, ((0, 0), (0, n - r), (0, 0))), gk_land, g_zcv
        else:
            g_cv = mT(z) @ g_zcv
            gs = _kernel_vjp(kernel_ll, pinv_vjp(g_zcv @ mT(cv)), c)
            gq_land = gs @ k_land
            gk_land += mT(gs) @ q_land
            gv = mT(kernel_lk) @ g_cv
            gs = _kernel_vjp(kernel_lk, g_cv @ mT(_split_heads(v, heads)), c)
            gq_land += gs @ _split_heads(k, heads)
            gk = mT(gs) @ q_land
            gk += nm.segment_mean_rows_vjp(gk_land, bounds)
            gq = nm.segment_mean_rows_vjp(gq_land, bounds)
            gq[:, :r] += gq_r
        gq, gk, gv = (_merge_heads(t) for t in (gq, gk, gv))
        g_norm = gq @ w_q.T
        g_norm += gk @ w_k.T
        g_norm += gv @ w_v.T
        gx, g_gamma, g_beta = nm.layer_norm_vjp(g_norm, xhat, inv, gain)
        # plus the residual's gradient, which is g zero-padded past row r; adding
        # the padding turns a -0.0 into 0.0, as Tensor.backward's sum does
        gx[:r] += g
        gx[r:] += 0.0
        # the normed rows, remade from xhat by layer_norm_rows' own steps
        xn = xhat * gain
        xn += shift
        return (
            *(gx[lo:lo + len(a)] for a, lo in _row_pieces(xs, 0, n)),
            g_gamma, g_beta, xn.T @ gq, xn.T @ gk, xn.T @ gv, merged.T @ g,
        )

    return nm.make_node(result, parents, vjp)


def _split_heads(a, heads: int):
    """An n x d array as a ``(heads, n, d / heads)`` view; head h holds the h-th block of columns."""
    return a.reshape(a.shape[0], heads, -1).transpose(1, 0, 2)


def _merge_heads(a):
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def _row_pieces(xs, start: int, stop: int):
    """(rows, first row) of each array's share of rows ``start:stop`` of ``xs`` stacked."""
    lo = 0
    for a in xs:
        hi = lo + len(a)
        if max(lo, start) < min(hi, stop):
            yield a[max(lo, start) - lo:min(hi, stop) - lo], max(lo, start)
        lo = hi


def _kernel(q, k, c: float, out=None):
    """softmax(c * q k^T) per head, scaled and normalized in place (in ``out``, if given)."""
    s = np.matmul(q, mT(k), out=out)
    s *= c
    return nm.softmax_last(s, out=s)


def _kernel_vjp(kernel, g, c: float):
    """Gradient of ``q k^T`` from the gradient ``g`` of ``_kernel(q, k, c)``."""
    gs = nm.softmax_vjp(kernel, g)
    gs *= c
    return gs
