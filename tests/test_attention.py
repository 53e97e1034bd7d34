"""Exact attention oracle and Nystrom approximation tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detectbert import attention
from detectbert import numerics as nm
from detectbert.attention import (
    BLOCK_ROWS,
    exact_attention,
    multi_head_nystrom,
    nystrom_attention,
)
from detectbert.numerics import ShapeError, Tensor
from detectbert.verify import gradcheck


def rel_frob(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestExactAttention:
    def test_single_query_single_key(self):
        q = Tensor([[1.0, -2.0]])
        k = Tensor([[0.3, 0.4]])
        v = Tensor([[5.0, 6.0]])
        np.testing.assert_allclose(exact_attention(q, k, v).value, [[5.0, 6.0]], atol=1e-15)

    def test_zero_queries_give_column_means(self):
        rng = np.random.default_rng(0)
        k = rng.standard_normal((7, 4))
        v = rng.standard_normal((7, 4))
        out = exact_attention(Tensor(np.zeros((3, 4))), Tensor(k), Tensor(v)).value
        expected = np.broadcast_to(v.mean(axis=0), (3, 4))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_hand_composed_pipeline(self):
        rng = np.random.default_rng(1)
        q, k, v = (rng.standard_normal((6, 8)) for _ in range(3))
        composed = nm.matmul(
            nm.softmax_rows(nm.scale(nm.matmul(Tensor(q), nm.transpose(Tensor(k))), 8 ** -0.5)),
            Tensor(v),
        ).value
        got = exact_attention(Tensor(q), Tensor(k), Tensor(v)).value
        assert np.abs(got - composed).max() < 1e-12

    def test_permutation_equivariance_in_q(self):
        rng = np.random.default_rng(2)
        q, k, v = (rng.standard_normal((6, 5)) for _ in range(3))
        perm = rng.permutation(6)
        base = exact_attention(Tensor(q), Tensor(k), Tensor(v)).value
        permuted = exact_attention(Tensor(q[perm]), Tensor(k), Tensor(v)).value
        assert np.abs(permuted - base[perm]).max() < 1e-12

    def test_joint_kv_permutation_invariance(self):
        rng = np.random.default_rng(3)
        q, k, v = (rng.standard_normal((6, 5)) for _ in range(3))
        perm = rng.permutation(6)
        base = exact_attention(Tensor(q), Tensor(k), Tensor(v)).value
        permuted = exact_attention(Tensor(q), Tensor(k[perm]), Tensor(v[perm])).value
        assert np.abs(permuted - base).max() < 1e-12

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            exact_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))))
        with pytest.raises(ShapeError):
            exact_attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))


class TestNystromAttention:
    def test_single_token(self):
        q = Tensor([[2.0, 1.0]])
        v = Tensor([[4.0, -1.0]])
        out = nystrom_attention(q, q, v, m=1).value
        np.testing.assert_allclose(out, [[4.0, -1.0]], atol=1e-12)

    def test_full_landmarks_match_exact(self):
        rng = np.random.default_rng(4)
        q, k, v = (rng.standard_normal((12, 8)) for _ in range(3))
        exact = exact_attention(Tensor(q), Tensor(k), Tensor(v)).value
        approx = nystrom_attention(Tensor(q), Tensor(k), Tensor(v), m=12).value
        assert rel_frob(approx, exact) < 1e-5

    def test_full_landmarks_match_exact_many_sizes(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 33))
            d = int(rng.integers(1, 17))
            q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
            exact = exact_attention(Tensor(q), Tensor(k), Tensor(v)).value
            approx = nystrom_attention(Tensor(q), Tensor(k), Tensor(v), m=n).value
            assert rel_frob(approx, exact) < 1e-5

    def test_zero_queries_any_landmark_count(self):
        rng = np.random.default_rng(6)
        k = rng.standard_normal((10, 4))
        v = rng.standard_normal((10, 4))
        for m in (1, 3, 7, 10):
            out = nystrom_attention(Tensor(np.zeros((10, 4))), Tensor(k), Tensor(v), m).value
            expected = np.broadcast_to(v.mean(axis=0), (10, 4))
            np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_landmark_range_validated(self):
        q = Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            nystrom_attention(q, q, q, m=0)
        with pytest.raises(ValueError):
            nystrom_attention(q, q, q, m=5)


def identity_weights(d):
    return tuple(Tensor(np.eye(d)) for _ in range(4))


def plain_norm(d):
    """A layer norm's gamma = 1 and beta = 0."""
    return Tensor(np.ones((1, d))), Tensor(np.zeros((1, d)))


def random_norm(rng, d):
    """A layer norm's gamma and beta, away from 1 and 0, both recorded."""
    return (
        Tensor(1.0 + 0.3 * rng.standard_normal((1, d)), requires_grad=True),
        Tensor(0.3 * rng.standard_normal((1, d)), requires_grad=True),
    )


class TestMultiHeadNystrom:
    def test_identity_projections_single_head(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((9, 6))
        via_mha = multi_head_nystrom(
            Tensor(x), *plain_norm(6), identity_weights(6), heads=1, landmarks=4
        ).value
        normed = nm.layer_norm(Tensor(x), *plain_norm(6))
        direct = x + nystrom_attention(normed, normed, normed, m=4).value
        np.testing.assert_allclose(via_mha, direct, atol=1e-12)

    def test_zero_values_give_zero_output(self):
        # the attention's output is zero, so the block returns its residual input
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 4))
        w_q, w_k, _, w_o = identity_weights(4)
        weights = (w_q, w_k, Tensor(np.zeros((4, 4))), w_o)
        out = multi_head_nystrom(Tensor(x), *plain_norm(4), weights, heads=2, landmarks=64).value
        np.testing.assert_allclose(out - x, 0.0, atol=1e-12)

    def test_two_heads_decouple_into_single_head_runs(self):
        """Block-diagonal projections split the width into independent
        halves; each half of the attention output must match its own
        single-head run on that half of the normed input."""
        rng = np.random.default_rng(9)
        h = 3
        d = 2 * h
        x = rng.standard_normal((8, d))
        blocks = {name: rng.standard_normal((2, h, h)) for name in ("q", "k", "v")}

        def blockdiag(pair):
            out = np.zeros((d, d))
            out[:h, :h] = pair[0]
            out[h:, h:] = pair[1]
            return out

        two_head = tuple(Tensor(blockdiag(blocks[n])) for n in "qkv") + (Tensor(np.eye(d)),)
        norm = plain_norm(d)
        combined = multi_head_nystrom(Tensor(x), *norm, two_head, heads=2, landmarks=4).value
        normed = nm.layer_norm(Tensor(x), *norm).value
        for half in range(2):
            cols = slice(half * h, (half + 1) * h)
            q, k, v = (Tensor(normed[:, cols] @ blocks[n][half]) for n in "qkv")
            sub = nystrom_attention(q, k, v, m=4).value
            np.testing.assert_allclose(combined[:, cols] - x[:, cols], sub, atol=1e-10)

    def test_output_shape_equals_input_shape(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((11, 8))
        weights = identity_weights(8)
        out = multi_head_nystrom(Tensor(x), *plain_norm(8), weights, heads=4, landmarks=3)
        assert out.shape == (11, 8)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            multi_head_nystrom(
                Tensor(np.zeros((3, 5))), *plain_norm(5), identity_weights(4), heads=1, landmarks=64
            )
        with pytest.raises(ShapeError):
            multi_head_nystrom(
                Tensor(np.zeros((3, 4))), *plain_norm(5), identity_weights(4), heads=1, landmarks=64
            )
        for second in (np.zeros((3, 5)), np.zeros((0, 4))):  # a part of another width, or empty
            with pytest.raises(ShapeError):
                multi_head_nystrom(
                    [Tensor(np.zeros((1, 4))), Tensor(second)],
                    *plain_norm(4), identity_weights(4), heads=1, landmarks=64,
                )

    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError):
            multi_head_nystrom(
                Tensor(np.zeros((3, 6))), *plain_norm(6), identity_weights(6), heads=4, landmarks=64
            )

    @pytest.mark.parametrize("n", [5, 40], ids=["exact", "nystrom"])
    def test_iters_validated_in_both_regimes(self, n):
        x = Tensor(np.random.default_rng(12).standard_normal((n, 4)))
        with pytest.raises(ValueError, match="^multi_head_nystrom: iters must be >= 1, got 0$"):
            multi_head_nystrom(x, *plain_norm(4), identity_weights(4), heads=2, landmarks=16,
                               iters=0)

    def test_weight_count_validated(self):
        with pytest.raises(ValueError, match="^multi_head_nystrom: expected 4 weights"):
            multi_head_nystrom(Tensor(np.zeros((3, 4))), *plain_norm(4), identity_weights(4)[:3],
                               heads=2, landmarks=2)

    def test_numpy_weights_act_as_tensors(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((9, 4))
        weights = [rng.standard_normal((4, 4)) for _ in range(4)]
        plain = multi_head_nystrom(x, *plain_norm(4), weights, heads=2, landmarks=3).value
        wrapped = [Tensor(w) for w in weights]
        assert (plain == multi_head_nystrom(x, *plain_norm(4), wrapped, 2, 3).value).all()

    def test_rows_validated(self):
        x = [Tensor(np.zeros((1, 4))), Tensor(np.zeros((2, 4)))]
        for rows in (0, 4):
            with pytest.raises(ValueError):
                multi_head_nystrom(
                    x, *plain_norm(4), identity_weights(4), heads=2, landmarks=2, rows=rows
                )

    def test_gradcheck_through_full_layer(self):
        # landmarks == n: the exact branch
        self.check_layer_gradient(landmarks=5, rows=None, iters=24)

    @pytest.mark.parametrize("rows", [None, 1], ids=["all-rows", "row0"])
    def test_gradcheck_through_full_layer_nystrom_regime(self, rows):
        self.check_layer_gradient(landmarks=2, rows=rows, iters=6)

    @staticmethod
    def check_layer_gradient(landmarks, rows, iters):
        rng = np.random.default_rng(11)
        d, n = 4, 5
        parts = [Tensor(rng.standard_normal((k, d)), requires_grad=True) for k in (1, n - 1)]
        norm = random_norm(rng, d)
        weights = [
            Tensor(0.5 * rng.standard_normal((d, d)), requires_grad=True) for _ in range(4)
        ]
        loss_w = rng.standard_normal((rows or n, d))

        def build():
            out = multi_head_nystrom(
                parts, *norm, weights, heads=2, landmarks=landmarks, iters=iters, rows=rows
            )
            return nm.sum_all(nm.mul(out, Tensor(loss_w)))

        err = gradcheck(build, parts + list(norm) + weights, step=1e-5)
        assert err < 1e-4, f"max relative gradient error {err:.3e}"


def composed_multi_head(x, weights, heads, attend, rows=None):
    """The per-head 2-D composition of multi-head attention; ``attend(q, k, v)`` runs one head."""
    w_q, w_k, w_v, w_o = weights
    q, k, v = nm.matmul(x, w_q), nm.matmul(x, w_k), nm.matmul(x, w_v)
    width = x.cols // heads
    outs = []
    for h in range(heads):
        lo, hi = h * width, (h + 1) * width
        outs.append(attend(*(nm.slice_cols(t, lo, hi) for t in (q, k, v))))
    out = nm.matmul(nm.concat_cols(outs), w_o)
    return out if rows is None else nm.slice_rows(out, 0, rows)


def composed_block(parts, gamma, beta, weights, heads, attend, rows=None):
    """The composition that the fused node replaces, the reference it is checked against:
    the parts stacked, layer norm, multi-head attention and the residual sum."""
    x = nm.concat_rows(parts)
    out = composed_multi_head(nm.layer_norm(x, gamma, beta), weights, heads, attend, rows)
    return nm.add(x if rows is None else nm.slice_rows(x, 0, rows), out)


# Layer norm makes every row of width 1 equal to beta, and every row of width 2
# about (-1, 1) times gamma, so gradients through it are rounding noise there,
# which no relative bound can compare: the node tests use widths of 3 and up.
NORMED_WIDTH = 3


def value_and_grads(build, leaves, loss_w):
    for t in leaves:
        t.zero_grad()
    out = build()
    nm.sum_all(nm.mul(out, Tensor(loss_w))).backward()
    return [out.value] + [t.grad for t in leaves]


def leaf_names(parts):
    weights = ["gamma", "beta", "w_q", "w_k", "w_v", "w_o"]
    return ["value"] + [f"x{i}" for i in range(len(parts))] + weights


def split_rows(rng, x, count):
    """``x`` cut into ``count`` row parts (fewer if it has fewer rows), all recorded."""
    cuts = sorted(rng.choice(np.arange(1, len(x)), size=min(count, len(x)) - 1, replace=False))
    return [Tensor(a, requires_grad=True) for a in np.split(x, cuts)]


@st.composite
def small_block_cases(draw):
    """(block rows, n, heads, d, landmarks, rows, iters, parts, data seed) for tiny blocks.

    n is drawn anywhere in 1-40, or next to the landmark count, or next to a
    multiple of the block size, so it lands on m, m +- 1 and the block edges.
    The input is cut into 1-3 row parts.  The width is at least 3 (see
    ``NORMED_WIDTH``).
    """
    block = draw(st.integers(1, 8))
    heads = draw(st.sampled_from([1, 2, 4]))
    d = draw(st.sampled_from([w for w in range(NORMED_WIDTH, 13) if w % heads == 0]))
    landmarks = draw(st.integers(1, 12))
    near = draw(st.sampled_from(["anywhere", "landmarks", "block edge"]))
    if near == "anywhere":
        n = draw(st.integers(1, 40))
    elif near == "landmarks":
        n = landmarks + draw(st.integers(-1, 1))
    else:
        n = block * draw(st.integers(1, 40 // block)) + draw(st.integers(-1, 1))
    n = min(max(n, 1), 40)
    rows = draw(st.sampled_from([1, None]))
    iters = draw(st.sampled_from([1, 6]))
    parts = draw(st.integers(1, 3))
    return block, n, heads, d, landmarks, rows, iters, parts, draw(st.integers(0, 2**32 - 1))


class TestFusedNode:
    """The fused node against :func:`composed_block`."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=small_block_cases())
    def test_small_blocks_match_composed_path(self, case):
        block, n, heads, d, landmarks, rows, iters, count, seed = case
        rng = np.random.default_rng(seed)
        parts = split_rows(rng, rng.standard_normal((n, d)), count)
        norm = random_norm(rng, d)
        weights = [Tensor(0.5 * rng.standard_normal((d, d)), requires_grad=True) for _ in range(4)]
        leaves = parts + list(norm) + weights
        loss_w = rng.standard_normal((rows or n, d))
        m = min(landmarks, n)

        def attend(q, k, v):
            return exact_attention(q, k, v) if m == n else nystrom_attention(q, k, v, m, iters)

        def node():
            return multi_head_nystrom(parts, *norm, weights, heads, landmarks, iters, rows)

        # patched in the body: a function-scoped monkeypatch fails hypothesis's health check
        with mock.patch.object(attention, "BLOCK_ROWS", block), \
                mock.patch.object(nm, "STATS_ROWS", block):
            fused = value_and_grads(node, leaves, loss_w)
            # without a graph: the normed rows whole at rows=None or m = n, else block by block
            with nm.no_grad():
                plain = node().value
        composed = value_and_grads(
            lambda: composed_block(parts, *norm, weights, heads, attend, rows), leaves, loss_w
        )
        for name, got, want in zip(leaf_names(parts), fused, composed):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name
        assert np.array_equal(plain, fused[0])

    @pytest.mark.parametrize("case", range(44))
    def test_matches_composed_path(self, case):
        rng = np.random.default_rng(100 + case)
        heads = int(rng.choice([1, 2, 4]))
        d = heads * int(rng.integers(1, 5))
        while d < NORMED_WIDTH:
            d += heads
        # the sequence length lands below, at and above the landmark count
        landmarks = int(rng.integers(1, 9))
        n = landmarks if case % 4 == 1 else max(1, landmarks + int(rng.integers(-3, 6)))
        if case < 4:
            n, heads, d = (1, 2, 4, 6)[case], 1, 3
        rows = 1 if case % 3 == 0 else None
        iters = int(rng.choice([1, 6, 24]))
        if case in (40, 41):  # keys span three row blocks, and so do the queries at rows=None
            n, heads, d, landmarks, iters = 2 * BLOCK_ROWS + 3, 2, 8, 8, 6
            rows = (None, 1)[case - 40]
        if case >= 42:  # the exact regime with two query blocks at rows=None
            n, heads, d, iters = BLOCK_ROWS + 7, 2, 8, 6
            landmarks, rows = n + 2, (None, 1)[case - 42]
        # the model's layout, a category row and then the bag, on odd cases
        parts = split_rows(rng, rng.standard_normal((n, d)), 1 + case % 2)
        norm = random_norm(rng, d)
        weights = [Tensor(0.5 * rng.standard_normal((d, d)), requires_grad=True) for _ in range(4)]
        leaves = parts + list(norm) + weights
        loss_w = rng.standard_normal((rows or n, d))
        m = min(landmarks, n)

        def attend(q, k, v):
            return exact_attention(q, k, v) if m == n else nystrom_attention(q, k, v, m, iters)

        fused = value_and_grads(
            lambda: multi_head_nystrom(parts, *norm, weights, heads, landmarks, iters, rows),
            leaves, loss_w,
        )
        composed = value_and_grads(
            lambda: composed_block(parts, *norm, weights, heads, attend, rows), leaves, loss_w
        )
        for name, got, want in zip(leaf_names(parts), fused, composed):
            # a single key leaves q and k without gradient: both paths give exact zeros
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name

    def test_exact_regime_matches_nystrom_at_full_landmarks(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 5, 12, 33):
            heads = 2
            x = [Tensor(rng.standard_normal((n, 8)))]
            norm = random_norm(rng, 8)
            weights = [Tensor(0.5 * rng.standard_normal((8, 8))) for _ in range(4)]
            fused = multi_head_nystrom(x, *norm, weights, heads, landmarks=n).value
            nystrom = composed_block(
                x, *norm, weights, heads, lambda q, k, v: nystrom_attention(q, k, v, n, 24)
            ).value
            assert rel_frob(fused, nystrom) < 1e-5

    def test_no_grad_call_gives_the_recorded_bits(self):
        rng = np.random.default_rng(13)
        spans = 3 * BLOCK_ROWS + 5  # three full row blocks and a partial one
        cases = (
            (6, 8, 8, 6, 1),
            (40, 8, 5, 6, 1),
            (spans, 8, 16, 24, 1),
            (spans, 8, 16, 24, None),
            # two query blocks, each projected by w_o on its own
            (spans, 64, 16, 6, BLOCK_ROWS + 9),
            # the exact regime's two query blocks
            (BLOCK_ROWS + 7, 8, BLOCK_ROWS + 9, 6, None),
        )
        for n, d, landmarks, iters, rows in cases:
            parts = split_rows(rng, rng.standard_normal((n, d)), 2)
            norm = random_norm(rng, d)
            weights = [
                Tensor(0.5 * rng.standard_normal((d, d)), requires_grad=True) for _ in range(4)
            ]
            recorded = multi_head_nystrom(parts, *norm, weights, 4, landmarks, iters, rows=rows)
            assert recorded.requires_grad
            with nm.no_grad():
                plain = multi_head_nystrom(parts, *norm, weights, 4, landmarks, iters, rows=rows)
            assert np.array_equal(recorded.value, plain.value)

    def test_last_block_holds_no_copy_of_its_input(self, allocates_under):
        """Without a graph, a Nystrom-regime call for one output row normalizes the row
        blocks as it reads them: at n = 1000, d = 256 it holds less than 1.5 arrays of
        x's size (a call for every row holds 2.36: its normed rows, which become its
        output, and the same row blocks)."""
        n, d = 1000, 256
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((n, d)))
        norm = random_norm(rng, d)
        weights = [Tensor(0.02 * rng.standard_normal((d, d))) for _ in range(4)]
        with nm.no_grad():
            multi_head_nystrom(x, *norm, weights, 8, 64, 24, rows=1)  # one-time allocations
            with allocates_under(1.5 * n * d * 8):
                multi_head_nystrom(x, *norm, weights, 8, 64, 24, rows=1)


class TestApproximationQuality:
    def test_error_shrinks_with_more_landmarks(self):
        """Mean self-attention error at 64 landmarks is below the mean at 8
        (n=128), and full landmarks agree with the exact oracle."""
        n, d = 128, 16
        errors = {8: [], 64: [], 128: []}
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            x = rng.standard_normal((n, d))
            exact = exact_attention(Tensor(x), Tensor(x), Tensor(x)).value
            for m in errors:
                approx = nystrom_attention(Tensor(x), Tensor(x), Tensor(x), m).value
                errors[m].append(rel_frob(approx, exact))
        mean8 = np.mean(errors[8])
        mean64 = np.mean(errors[64])
        mean_full = np.mean(errors[128])
        assert mean64 < mean8
        assert mean_full < 1e-5
