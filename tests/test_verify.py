"""Oracle machinery: attention error, gradcheck, entropy gap."""

import math

import numpy as np
import pytest

from detectbert import numerics as nm
from detectbert.numerics import Tensor, make_node
from detectbert.verify import (
    JointDistribution,
    attention_error,
    entropy_gap,
    entropy_gap_bruteforce,
    gradcheck,
    product_joint,
    run_gradcheck_suite,
)


class TestAttentionError:
    def test_full_landmarks_are_equivalent(self):
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((10, 6)) for _ in range(3))
        assert attention_error(q, k, v, m=10) < 1e-5

    def test_single_token_error_is_zero(self):
        rng = np.random.default_rng(1)
        q, k, v = (rng.standard_normal((1, 4)) for _ in range(3))
        assert attention_error(q, k, v, m=1) < 1e-12

    def test_zero_queries_any_landmark_count(self):
        rng = np.random.default_rng(2)
        k, v = (rng.standard_normal((9, 5)) for _ in range(2))
        q = np.zeros((9, 5))
        for m in (1, 2, 5, 9):
            assert attention_error(q, k, v, m) < 1e-6


class TestGradcheck:
    def test_linear_function_is_exact(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((4, 1)), requires_grad=True)
        x = Tensor(rng.standard_normal((1, 4)))
        err = gradcheck(lambda: nm.matmul(x, w), [w])
        assert err < 1e-9

    def test_corrupted_backward_rule_is_caught(self):
        """Negative control: an op whose gradient rule is wrong by 10%
        must produce a large gradcheck error."""
        rng = np.random.default_rng(4)
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

        def corrupted_square(t):
            val = t.value * t.value
            return make_node(val, (t,), lambda g: (1.1 * g * 2.0 * t.value,))

        err = gradcheck(lambda: nm.sum_all(corrupted_square(a)), [a])
        assert err > 1e-2

    def test_suite_reaches_the_nystrom_branch_of_the_model(self):
        """The model check at n + 1 > landmarks runs the pinv backward in every block."""
        results = {r.name: r for r in run_gradcheck_suite(seed=0)}
        check = results["gradcheck/full_model_nystrom"]
        assert check.passed and check.value < 1e-4
        assert results["gradcheck/full_model"].passed

    def test_rejects_nonpositive_step(self):
        a = Tensor(np.ones((1, 1)), requires_grad=True)
        with pytest.raises(ValueError):
            gradcheck(lambda: a, [a], step=0.0)


class TestEntropyGap:
    def test_product_joint_has_zero_gap(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            marginals = []
            for _ in range(int(rng.integers(1, 4))):
                m = rng.random(int(rng.integers(2, 5)))
                marginals.append(m / m.sum())
            joint = product_joint(marginals)
            assert abs(entropy_gap(joint)["gap"]) < 1e-12

    def test_perfectly_correlated_pair(self):
        joint = JointDistribution(np.array([[0.5, 0.0], [0.0, 0.5]]))
        out = entropy_gap(joint)
        assert out["h_joint"] == pytest.approx(math.log(2), abs=1e-12)
        assert out["sum_marginals"] == pytest.approx(2 * math.log(2), abs=1e-12)
        assert out["gap"] == pytest.approx(math.log(2), abs=1e-12)

    def test_random_joints_have_nonnegative_gap(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            table = rng.random((4, 4))
            joint = JointDistribution(table / table.sum())
            assert entropy_gap(joint)["gap"] >= -1e-9

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            shape = tuple(int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 4))))
            table = rng.random(shape)
            joint = JointDistribution(table / table.sum())
            assert entropy_gap(joint)["gap"] == pytest.approx(
                entropy_gap_bruteforce(joint), abs=1e-12
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            JointDistribution(np.array([[0.5, -0.1], [0.3, 0.3]]))
        with pytest.raises(ValueError):
            JointDistribution(np.array([[0.5, 0.4]]))  # sums to 0.9

    def test_zero_cells_use_zero_log_zero_convention(self):
        joint = JointDistribution(np.array([[1.0, 0.0], [0.0, 0.0]]))
        out = entropy_gap(joint)
        assert out["h_joint"] == 0.0
        assert out["gap"] == pytest.approx(0.0, abs=1e-15)
