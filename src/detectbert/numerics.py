"""Dense 2-D float64 matrices with reverse-mode differentiation.

Everything downstream (attention, the model, the training loop) is built
from the handful of primitives defined here.  Each primitive computes its
forward value with numpy and records a vector-Jacobian product so that
``Tensor.backward`` can propagate gradients through arbitrary compositions.
Gradient rules are hand-written and checked against central finite
differences in the test suite.

All computation is 64-bit.  Values are strictly 2-D: row vectors are
``1 x d``, column vectors ``d x 1`` and scalars ``1 x 1``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


DEFAULT_PINV_ITERS = 24
"""Default iteration count for :func:`iterative_pinv`.

Chosen so that Nystrom attention with as many landmarks as rows matches
exact attention to better than 1e-5 relative Frobenius error (the worst
case measured over thousands of random kernels is ~1e-6 at 24 iterations,
while 6 iterations leave errors around 1e-2).
"""


class _GradMode(threading.local):
    """Whether graph recording is on, per thread: one thread leaving
    ``no_grad`` must not turn recording back on for another still inside it."""

    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Disable graph recording in this thread inside the block (inference / finite differences)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    """A 2-D float64 array plus an optional gradient and autodiff record."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, value, requires_grad: bool = False):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError(f"Tensor must be 2-D, got shape {arr.shape}")
        self.value = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    def item(self) -> float:
        if self.value.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.value[0, 0])

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate this tensor's gradient (upstream ones) into every reachable leaf."""
        order = _toposort(self)
        grads = {id(self): np.ones_like(self.value)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._vjp is None:
                node.grad = g if node.grad is None else node.grad + g
            if node._vjp is None:
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _toposort(root: Tensor):
    seen = set()
    order = []
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    order.reverse()
    return order


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def recording(parents) -> bool:
    """Whether a node over ``parents`` is recorded: grad is enabled and some parent needs it."""
    return _grad_mode.enabled and any(p.requires_grad for p in parents)


def make_node(value: np.ndarray, parents, vjp) -> Tensor:
    """Create a graph node for a custom differentiable operation.

    ``vjp(grad_out)`` must return one gradient array (or None) per parent.
    When grad recording is disabled or no parent needs gradients, the node
    is a plain constant.
    """
    out = Tensor(value)
    if recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.cols != b.rows:
        raise ShapeError(f"matmul: {a.shape} x {b.shape} (inner dimensions differ)")
    av, bv = a.value, b.value

    def vjp(g):
        return g @ bv.T, av.T @ g

    return make_node(av @ bv, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return make_node(a.value + b.value, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    av, bv = a.value, b.value
    return make_node(av * bv, (a, b), lambda g: (g * bv, g * av))


def scale(a: Tensor, c: float) -> Tensor:
    a = as_tensor(a)
    return make_node(a.value * c, (a,), lambda g: (g * c,))


def transpose(a: Tensor) -> Tensor:
    a = as_tensor(a)
    return make_node(a.value.T.copy(), (a,), lambda g: (g.T,))


def sum_all(a: Tensor) -> Tensor:
    """Sum of all entries, as a 1x1 tensor."""
    a = as_tensor(a)
    shape = a.shape
    return make_node(
        np.array([[a.value.sum()]]),
        (a,),
        lambda g: (np.full(shape, g[0, 0]),),
    )


def concat_rows(parts) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    cols = parts[0].cols
    for p in parts:
        if p.cols != cols:
            raise ShapeError(f"concat_rows: column counts differ ({p.cols} vs {cols})")
    sizes = [p.rows for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return make_node(np.concatenate([p.value for p in parts], axis=0), parts, vjp)


def concat_cols(parts) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    rows = parts[0].rows
    for p in parts:
        if p.rows != rows:
            raise ShapeError(f"concat_cols: row counts differ ({p.rows} vs {rows})")
    sizes = [p.cols for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return make_node(np.concatenate([p.value for p in parts], axis=1), parts, vjp)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    if not (0 <= start < stop <= a.rows):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {a.shape}")
    shape = a.shape

    def vjp(g):
        out = np.zeros(shape)
        out[start:stop] = g
        return (out,)

    return make_node(a.value[start:stop].copy(), (a,), vjp)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    if not (0 <= start < stop <= a.cols):
        raise ShapeError(f"slice_cols: [{start}:{stop}] out of range for {a.shape}")
    shape = a.shape

    def vjp(g):
        out = np.zeros(shape)
        out[:, start:stop] = g
        return (out,)

    return make_node(a.value[:, start:stop].copy(), (a,), vjp)


def softmax_rows(m: Tensor) -> Tensor:
    """Row-wise softmax with per-row max subtraction for stability."""
    m = as_tensor(m)
    y = softmax_last(m.value)
    return make_node(y, (m,), lambda g: (softmax_vjp(y, g),))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize each row (biased variance, eps inside the square root),
    then scale by ``gamma`` and shift by ``beta`` (both 1 x cols)."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if gamma.shape != (1, x.cols) or beta.shape != (1, x.cols):
        raise ShapeError(
            f"layer_norm: gamma {gamma.shape} / beta {beta.shape} "
            f"must be (1, {x.cols})"
        )
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")
    xv = x.value
    xhat = xv - xv.mean(axis=1, keepdims=True)
    out = xhat * xhat
    inv = 1.0 / np.sqrt(out.mean(axis=1, keepdims=True) + eps)
    xhat *= inv
    gv = gamma.value
    # the squares' buffer becomes the output: two full-size arrays in all
    np.multiply(xhat, gv, out=out)
    out += beta.value

    def vjp(g):
        dgamma = np.sum(g * xhat, axis=0, keepdims=True)
        dbeta = np.sum(g, axis=0, keepdims=True)
        dxhat = g * gv
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = np.mean(dxhat * xhat, axis=1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgamma, dbeta

    return make_node(out, (x, gamma, beta), vjp)


def segment_bounds(rows: int, m: int):
    """Boundaries of ``m`` contiguous segments whose sizes differ by at most 1."""
    return [(i * rows) // m for i in range(m + 1)]


def segment_means(x: Tensor, m: int) -> Tensor:
    """Mean of each of ``m`` contiguous row segments; ``m == rows`` is the identity."""
    x = as_tensor(x)
    n = x.rows
    if not 1 <= m <= n:
        raise ValueError(f"segment_means: m={m} out of range [1, {n}]")
    bounds = np.array(segment_bounds(n, m))
    return make_node(
        segment_mean_rows(x.value, bounds), (x,), lambda g: (segment_mean_rows_vjp(g, bounds),)
    )


def iterative_pinv(a: Tensor, iters: int = DEFAULT_PINV_ITERS) -> Tensor:
    """Moore-Penrose pseudo-inverse by a cubically convergent polynomial iteration.

    See :func:`pinv_iterate`; the backward rule (:func:`pinv_vjp`)
    differentiates the unrolled iteration, including the norm-based
    initialization.
    """
    a = as_tensor(a)
    if a.cols != a.rows:
        raise ShapeError(f"iterative_pinv: input must be square, got {a.shape}")
    av = a.value
    # one loop for inference and training; only a recorded call keeps the trail
    trail = [] if recording((a,)) else None
    z = pinv_iterate(av, iters, trail)
    return make_node(z, (a,), lambda g: (pinv_vjp(av, trail, g),))


# ---------------------------------------------------------------------------
# array math shared by the primitives above and the fused attention node;
# every function here works on the last two axes and broadcasts over the rest


def mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (numpy 2's ``a.mT``, which numpy 1.24 lacks)."""
    return a.swapaxes(-1, -2)


def softmax_last(s: np.ndarray, out=None) -> np.ndarray:
    """Softmax over the last axis with max subtraction; ``out=s`` works in place."""
    y = np.subtract(s, s.max(axis=-1, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def softmax_vjp(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the pre-softmax scores, given the softmax ``y`` and its gradient ``g``."""
    return y * (g - np.sum(g * y, axis=-1, keepdims=True))


def segment_mean_rows(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Means of the row segments ``[bounds[i], bounds[i + 1])`` along axis -2."""
    out = np.add.reduceat(x, bounds[:-1], axis=-2)
    out /= np.diff(bounds)[:, None]
    return out


def segment_mean_rows_vjp(g: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    sizes = np.diff(bounds)
    return np.repeat(g / sizes[:, None], sizes, axis=-2)


def pinv_iterate(a: np.ndarray, iters: int, trail: list | None = None) -> np.ndarray:
    """Pseudo-inverses of a stack of square matrices ``(..., m, m)``.

    Z0 = a^T / (||a||_1 * ||a||_inf), then
    Z <- 1/4 * Z (13 I - aZ (15 I - aZ (7 I - aZ))), ``iters`` times.

    A ``trail`` list receives each step's intermediates for :func:`pinv_vjp`.
    """
    if iters < 1:
        raise ValueError(f"iterative_pinv: iters must be >= 1, got {iters}")
    absa = np.abs(a)
    s = absa.sum(axis=-2).max(axis=-1) * absa.sum(axis=-1).max(axis=-1)
    if np.any(s == 0.0):
        raise ValueError("iterative_pinv: zero matrix has no scaled initialization")
    del absa
    n = a.shape[-1]
    eye7 = 7.0 * np.eye(n)
    eye15 = eye7 + 8.0 * np.eye(n)
    eye13 = eye7 + 6.0 * np.eye(n)
    z = mT(a) / s[..., None, None]
    for _ in range(iters):
        y = a @ z
        t1 = eye7 - y
        t3 = y @ t1
        np.subtract(eye15, t3, out=t3)
        p = y @ t3
        np.subtract(eye13, p, out=p)
        if trail is not None:
            trail.append((z, y, t1, t3, p))
        del y, t1, t3  # unless the trail holds them
        z = z @ p
        z *= 0.25
    return z


def pinv_vjp(a: np.ndarray, trail: list, g: np.ndarray) -> np.ndarray:
    """Gradient of :func:`pinv_iterate`'s input, given its output's gradient ``g``."""
    gz = g
    ga = np.zeros(a.shape)
    for z_t, y, t1, t3, p in reversed(trail):
        gp = 0.25 * (mT(z_t) @ gz)
        gz_t = 0.25 * (gz @ mT(p))
        # p = 13I - y @ t3, t3 = 15I - y @ t1, t1 = 7I - y
        gt4 = -gp
        gy = gt4 @ mT(t3)
        gt2 = -(mT(y) @ gt4)
        gy += gt2 @ mT(t1)
        gy -= mT(y) @ gt2
        ga += gy @ mT(z_t)
        gz = gz_t + mT(a) @ gy
    # z0 = a^T / (s1 * s2) with s1, s2 the max abs column / row sums
    absa = np.abs(a)
    colsums, rowsums = absa.sum(axis=-2), absa.sum(axis=-1)
    j1, i1 = colsums.argmax(axis=-1), rowsums.argmax(axis=-1)
    s1, s2 = colsums.max(axis=-1), rowsums.max(axis=-1)
    s = s1 * s2
    ga += mT(gz) / s[..., None, None]
    gs = -np.sum(gz * mT(a), axis=(-2, -1)) / (s * s)
    n = a.shape[-1]
    a3, ga3 = a.reshape(-1, n, n), ga.reshape(-1, n, n)
    b = np.arange(a3.shape[0])
    j1, i1 = j1.reshape(-1), i1.reshape(-1)
    ga3[b, :, j1] += (gs * s2).reshape(-1, 1) * np.sign(a3[b, :, j1])
    ga3[b, i1, :] += (gs * s1).reshape(-1, 1) * np.sign(a3[b, i1, :])
    return ga
