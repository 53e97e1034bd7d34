"""Unit and gradient tests for the dense-matrix primitives."""

import contextlib
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detectbert import numerics as nm
from detectbert.numerics import ShapeError, Tensor
from detectbert.verify import gradcheck


def naive_matmul(a, b):
    """Triple-loop reference product (independent of numpy's matmul)."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def weighted_loss(out, weights):
    return nm.sum_all(nm.mul(out, Tensor(weights)))


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = nm.matmul(Tensor(np.eye(2)), Tensor(m))
        np.testing.assert_array_equal(out.value, m)

    def test_hand_arithmetic(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[0.0], [1.0]])
        np.testing.assert_array_equal(nm.matmul(a, b).value, [[2.0], [4.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((5, 7))
        b = rng.standard_normal((7, 3))
        got = nm.matmul(Tensor(a), Tensor(b)).value
        assert np.abs(got - naive_matmul(a, b)).max() < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            nm.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmaxRows:
    def test_uniform_on_zero_row(self):
        out = nm.softmax_rows(Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(out.value, 0.25, atol=1e-15)

    def test_large_entries_do_not_overflow(self):
        out = nm.softmax_rows(Tensor([[1000.0, 0.0]])).value
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, 0], 1.0, atol=1e-12)

    def test_analytic_row(self):
        row = np.log([[1.0, 2.0, 3.0]])
        out = nm.softmax_rows(Tensor(row)).value
        np.testing.assert_allclose(out, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_rows_sum_to_one(self, rows):
        out = nm.softmax_rows(Tensor(np.array(rows, dtype=np.float64))).value
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_many_random_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        m = rng.uniform(-1e4, 1e4, size=(1000, 9))
        out = nm.softmax_rows(Tensor(m)).value
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestLayerNorm:
    def test_constant_row_collapses_to_beta(self):
        x = Tensor(np.full((2, 5), 3.7))
        out = nm.layer_norm(x, Tensor(np.ones((1, 5))), Tensor(np.zeros((1, 5))))
        np.testing.assert_allclose(out.value, 0.0, atol=1e-12)

    def test_two_point_standardization(self):
        out = nm.layer_norm(
            Tensor([[1.0, 3.0]]), Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2)))
        )
        np.testing.assert_allclose(out.value, [[-1.0, 1.0]], atol=1e-4)

    def test_zero_gamma_yields_beta(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 6)))
        beta = rng.standard_normal((1, 6))
        out = nm.layer_norm(x, Tensor(np.zeros((1, 6))), Tensor(beta))
        np.testing.assert_allclose(out.value, np.broadcast_to(beta, (4, 6)), atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            nm.layer_norm(
                Tensor(np.zeros((2, 5))), Tensor(np.ones((1, 4))), Tensor(np.zeros((1, 4)))
            )


class TestSegmentMeans:
    def test_equal_split(self):
        x = np.arange(8.0).reshape(4, 2)
        out = nm.segment_means(Tensor(x), 2).value
        np.testing.assert_array_equal(out, [[1.0, 2.0], [5.0, 6.0]])

    def test_m_equals_rows_is_bitwise_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((9, 4))
        out = nm.segment_means(Tensor(x), 9).value
        assert (out == x).all()

    def test_full_pooling(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((7, 3))
        out = nm.segment_means(Tensor(x), 1).value
        np.testing.assert_allclose(out, x.mean(axis=0, keepdims=True), atol=1e-15)

    def test_segment_sizes_differ_by_at_most_one(self):
        for n in range(1, 40):
            for m in range(1, n + 1):
                b = nm.segment_bounds(n, m)
                sizes = [b[i + 1] - b[i] for i in range(m)]
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1
                assert min(sizes) >= 1

    def test_out_of_range(self):
        x = Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            nm.segment_means(x, 0)
        with pytest.raises(ValueError):
            nm.segment_means(x, 4)


def softmax_np(m):
    z = m - m.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class TestIterativePinv:
    def test_identity_fixed_point(self):
        out = nm.iterative_pinv(Tensor(np.eye(5)), 6).value
        np.testing.assert_allclose(out, np.eye(5), atol=1e-10)

    def test_diagonal_against_direct_inverse(self):
        out = nm.iterative_pinv(Tensor(np.diag([2.0, 4.0])), 6).value
        np.testing.assert_allclose(out, np.diag([0.5, 0.25]), atol=1e-6)

    def test_moore_penrose_property_on_softmax_matrix(self):
        """Z A Z ~= Z at the default iteration count (6 iterations only
        reach ~1e-4 on a quarter of random 4x4 softmax kernels)."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = softmax_np(rng.standard_normal((4, 4)))
            z = nm.iterative_pinv(Tensor(a)).value
            err = np.linalg.norm(z @ a @ z - z) / np.linalg.norm(z)
            assert err < 1e-4

    def test_error_decreases_over_iterations(self):
        """||Z - pinv(A)|| falls monotonically over iterations 1..6 on
        well-conditioned softmax matrices, until it reaches the float64
        rounding floor (where it may only jitter below 1e-12)."""
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 25:
            n = int(rng.integers(2, 9))
            a = softmax_np(rng.standard_normal((n, n)))
            if np.linalg.cond(a) > 200:
                continue
            checked += 1
            oracle = np.linalg.pinv(a)
            errs = [
                np.linalg.norm(nm.iterative_pinv(Tensor(a), it).value - oracle)
                for it in range(1, 7)
            ]
            floor = 1e-13
            for e1, e2 in zip(errs, errs[1:]):
                if e1 < floor:
                    assert e2 < 1e-12, errs
                else:
                    assert e2 < e1, errs

    def test_default_iterations_reach_oracle_tolerance(self):
        rng = np.random.default_rng(13)
        a = softmax_np(rng.standard_normal((6, 6)))
        z = nm.iterative_pinv(Tensor(a)).value
        assert np.linalg.norm(z - np.linalg.pinv(a)) < 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            nm.iterative_pinv(Tensor(np.zeros((2, 3))), 6)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            nm.iterative_pinv(Tensor(np.zeros((3, 3))), 6)

    def test_pinv_iterate_names_itself(self):
        a = softmax_np(np.random.default_rng(5).standard_normal((3, 3)))
        with pytest.raises(ValueError, match="^pinv_iterate: iters must be >= 1, got 0$"):
            nm.pinv_iterate(a, 0)
        with pytest.raises(ValueError, match="^pinv_iterate: zero matrix"):
            nm.pinv_iterate(np.zeros((3, 3)), 6)

    @pytest.mark.parametrize("n", [5, 32, 33, 64, 65])
    def test_no_grad_matches_recorded_bitwise(self, n):
        """Inference and training compute the pseudo-inverse by the same loop."""
        a = softmax_np(np.random.default_rng(n).standard_normal((n, n)))
        recorded = nm.iterative_pinv(Tensor(a, requires_grad=True))
        assert recorded._vjp is not None
        with nm.no_grad():
            plain = nm.iterative_pinv(Tensor(a, requires_grad=True))
        assert plain._vjp is None
        np.testing.assert_array_equal(plain.value, recorded.value)


def reference_pinv_forward(a, iters):
    """The pseudo-inverse iteration with every k I - B subtracted from ``k * np.eye(m)``;
    returns Z and each step's (z, y, t1, t3, p), with t1 = 7I - y kept."""
    eye = np.eye(a.shape[-1])
    absa = np.abs(a)
    s = absa.sum(axis=-2).max(axis=-1) * absa.sum(axis=-1).max(axis=-1)
    z = nm.mT(a) / s[..., None, None]
    trail = []
    for _ in range(iters):
        y = a @ z
        t1 = 7.0 * eye - y
        t3 = 15.0 * eye - y @ t1
        p = 13.0 * eye - y @ t3
        trail.append((z, y, t1, t3, p))
        z = 0.25 * (z @ p)
    return z, trail


def reference_pinv_vjp(a, trail, g):
    """The pseudo-inverse's vjp over a five-array trail, the products written out."""
    gz = g
    ga = np.zeros(a.shape)
    for z_t, y, t1, t3, p in reversed(trail):
        gp = 0.25 * (nm.mT(z_t) @ gz)
        gz_t = 0.25 * (gz @ nm.mT(p))
        gt4 = -gp
        gy = gt4 @ nm.mT(t3)
        gt2 = -(nm.mT(y) @ gt4)
        gy += gt2 @ nm.mT(t1)
        gy -= nm.mT(y) @ gt2
        ga += gy @ nm.mT(z_t)
        gz = gz_t + nm.mT(a) @ gy
    absa = np.abs(a)
    colsums, rowsums = absa.sum(axis=-2), absa.sum(axis=-1)
    j1, i1 = colsums.argmax(axis=-1), rowsums.argmax(axis=-1)
    s1, s2 = colsums.max(axis=-1), rowsums.max(axis=-1)
    s = s1 * s2
    ga += nm.mT(gz) / s[..., None, None]
    gs = -np.sum(gz * nm.mT(a), axis=(-2, -1)) / (s * s)
    for h in range(a.shape[0]):
        ga[h, :, j1[h]] += gs[h] * s2[h] * np.sign(a[h, :, j1[h]])
        ga[h, i1[h], :] += gs[h] * s1[h] * np.sign(a[h, i1[h], :])
    return ga


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def softmax_kernels(rng, heads, m):
    return softmax_np(rng.standard_normal((heads * m, m))).reshape(heads, m, m)


def check_against_reference(a, iters, g):
    """The recorded call's Z and vjp, and the no-record call's Z, have the reference's bits."""
    z, vjp = nm.pinv_iterate(a, iters, record=True)
    ref_z, trail = reference_pinv_forward(a, iters)
    assert same_bits(z, ref_z)
    assert same_bits(vjp(g), reference_pinv_vjp(a, trail, g))
    plain, none = nm.pinv_iterate(a, iters)
    assert none is None and same_bits(plain, z)


class TestPinvTrail:
    """pinv_iterate adds k on a diagonal where the reference subtracts from k I;
    its results keep the reference's bits."""

    @pytest.mark.parametrize("iters", [6, 24])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vjp_equals_the_five_array_trail_vjp(self, iters, seed):
        """The recorded steps keep (y, t3, p, next Z); recomputing t1 = 7I - y in
        the vjp gives the gradient of a trail that stored t1, bit for bit."""
        rng = np.random.default_rng(seed)
        heads, m = int(rng.integers(1, 5)), int(rng.integers(2, 20))
        a = softmax_kernels(rng, heads, m)
        check_against_reference(a, iters, rng.standard_normal(a.shape))

    @pytest.mark.parametrize("heads, m, iters", [(4, 32, 6), (3, 17, 24), (8, 64, 24), (2, 1, 5)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_trail_gives_the_trailed_bits(self, heads, m, iters, seed):
        """Without a record the loop reuses its step buffers, but never Z0's,
        whose transposed layout would change the products' bits."""
        rng = np.random.default_rng(seed)
        a = softmax_kernels(rng, heads, m)
        recorded, vjp = nm.pinv_iterate(a, iters, record=True)
        plain, none = nm.pinv_iterate(a, iters)
        assert none is None and vjp is not None
        assert same_bits(plain, recorded)

    @pytest.mark.parametrize("kind", ["saturated", "one-hot", "one-landmark"])
    @pytest.mark.parametrize("iters", [1, 6, 24])
    def test_exact_zeros_keep_the_reference_bits(self, kind, iters):
        """Kernels with exact zeros make zero entries in aZ, t3 and p, whose sign
        differs off the diagonal (-0.0 for 0.0 - 0.0); no result sees it."""
        rng = np.random.default_rng(iters)
        if kind == "saturated":  # softmax of +-800 scores: rows of exact 0s and 1 / k
            a = softmax_np(800.0 * np.sign(rng.standard_normal((3 * 6, 6)))).reshape(3, 6, 6)
        elif kind == "one-hot":  # with a repeated column, so singular
            a = np.eye(5)[rng.integers(0, 5, size=(2, 5))]
        else:
            a = softmax_kernels(rng, 4, 1)
        assert kind == "one-landmark" or (a == 0.0).any()
        check_against_reference(a, iters, rng.standard_normal(a.shape))

    def test_recorded_state_does_not_grow_with_iterations(self):
        """A recorded call keeps its steps in one array: it holds as many allocations
        of a's size or more after 24 iterations as after 6."""

        def held(iters):
            a = softmax_kernels(np.random.default_rng(3), 4, 32)
            tracemalloc.start()
            try:
                kept = nm.pinv_iterate(a, iters, record=True)
                traces = tracemalloc.take_snapshot().traces
            finally:
                tracemalloc.stop()
            assert kept[1] is not None
            return sum(t.size >= a.nbytes for t in traces)

        assert held(6) == held(24)

    def test_no_record_call_holds_six_arrays(self, allocates_under):
        """Z0, one aZ, t3 and p and two Z buffers in turn, and no identities."""
        a = softmax_kernels(np.random.default_rng(4), 8, 64)
        nm.pinv_iterate(a, 24)
        with allocates_under(6.5 * a.nbytes):
            nm.pinv_iterate(a, 24)


class TestBackwardRules:
    """Central finite differences (step 1e-5) vs analytic gradients for
    every primitive, on random small inputs."""

    TOL = 1e-6

    def check(self, build, tensors):
        err = gradcheck(build, tensors, step=1e-5)
        assert err < self.TOL, f"max relative gradient error {err:.3e}"

    def test_matmul(self):
        rng = np.random.default_rng(20)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        w = rng.standard_normal((3, 2))
        self.check(lambda: weighted_loss(nm.matmul(a, b), w), [a, b])

    def test_add_mul_scale(self):
        rng = np.random.default_rng(21)
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        s = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        w = rng.standard_normal((3, 3))

        def build():
            out = nm.add(a, b)
            out = nm.add(out, nm.scale(nm.mul(a, b), -1.0))
            out = nm.mul(out, s)
            out = nm.scale(out, 1.7)
            return weighted_loss(out, w)

        self.check(build, [a, b, s])

    def test_transpose_concat_slice(self):
        rng = np.random.default_rng(22)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = rng.standard_normal((2, 2))

        def build():
            stacked = nm.concat_rows([a, b])
            wide = nm.concat_cols([nm.transpose(stacked), Tensor(np.ones((3, 1)))])
            part = nm.slice_cols(nm.slice_rows(wide, 0, 2), 1, 3)
            return weighted_loss(part, w)

        self.check(build, [a, b])

    def test_softmax_rows(self):
        rng = np.random.default_rng(24)
        a = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        w = rng.standard_normal((3, 5))
        self.check(lambda: weighted_loss(nm.softmax_rows(a), w), [a])

    def test_layer_norm(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        gamma = Tensor(rng.standard_normal((1, 6)), requires_grad=True)
        beta = Tensor(rng.standard_normal((1, 6)), requires_grad=True)
        w = rng.standard_normal((4, 6))
        self.check(lambda: weighted_loss(nm.layer_norm(x, gamma, beta), w), [x, gamma, beta])

    def test_segment_means(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        w = rng.standard_normal((3, 3))
        self.check(lambda: weighted_loss(nm.segment_means(x, 3), w), [x])

    def test_iterative_pinv(self):
        # generic input: row-stochastic matrices tie the inf-norm argmax,
        # where the norm is not differentiable (covered by the next test)
        rng = np.random.default_rng(27)
        a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        w = rng.standard_normal((4, 4))
        self.check(lambda: weighted_loss(nm.iterative_pinv(a, 6), w), [a])

    def test_iterative_pinv_of_softmax(self):
        """The production composition: gradients through pinv of a softmax
        kernel reach the pre-softmax logits exactly (the tied inf-norm term
        cancels because softmax rows always sum to one)."""
        rng = np.random.default_rng(28)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        w = rng.standard_normal((4, 4))
        self.check(
            lambda: weighted_loss(nm.iterative_pinv(nm.softmax_rows(x), 6), w), [x]
        )

    def test_iterative_pinv_deep_unroll(self):
        rng = np.random.default_rng(29)
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        w = rng.standard_normal((3, 3))
        self.check(lambda: weighted_loss(nm.iterative_pinv(a, 24), w), [a])

    def test_sum_all(self):
        rng = np.random.default_rng(29)
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        self.check(lambda: nm.sum_all(nm.mul(a, a)), [a])


class TestTensorBasics:
    def test_values_stay_finite_and_64bit(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.value.dtype == np.float64

    def test_scalar_and_vector_coercion(self):
        assert Tensor(3.0).shape == (1, 1)
        assert Tensor([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_higher_rank_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2)))

    def test_no_grad_blocks_recording(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with nm.no_grad():
            out = nm.matmul(a, a)
        assert out._vjp is None and not out.requires_grad

    @pytest.mark.parametrize("this_thread_enters", [False, True])
    def test_no_grad_holds_per_thread(self, this_thread_enters):
        """While one thread is inside no_grad, another thread records: both when
        it never entered no_grad and when it entered first and has left it."""
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        entered, left = threading.Event(), threading.Event()
        recorded = {}

        def inside():
            with nm.no_grad():
                entered.set()
                left.wait(10)
                recorded["inside"] = nm.matmul(a, a).requires_grad

        thread = threading.Thread(target=inside)
        with nm.no_grad() if this_thread_enters else contextlib.nullcontext():
            thread.start()
            entered.wait(10)
        recorded["outside"] = nm.matmul(a, a).requires_grad
        left.set()
        thread.join(10)
        assert recorded == {"outside": True, "inside": False}

    def test_grad_accumulates_across_uses(self):
        a = Tensor(np.ones((1, 1)), requires_grad=True)
        out = nm.add(nm.mul(a, a), a)  # a^2 + a, d/da = 2a + 1 = 3
        out.backward()
        assert a.grad[0, 0] == pytest.approx(3.0)

    def test_leaves_of_one_add_own_their_gradients(self):
        a = Tensor(np.ones((1, 2)), requires_grad=True)
        b = Tensor(np.ones((1, 2)), requires_grad=True)
        nm.add(a, b).backward()
        assert a.grad is not b.grad
        grads = a.grad, b.grad
        nm.add(a, b).backward()  # a second backward adds into the same arrays
        assert a.grad is grads[0] and b.grad is grads[1]
        np.testing.assert_array_equal(a.grad, [[2.0, 2.0]])
        np.testing.assert_array_equal(b.grad, [[2.0, 2.0]])
