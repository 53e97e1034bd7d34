"""Loss, optimizers, splits, metrics, and the epoch loop."""

import copy
import datetime as dt
import math
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from detectbert.baselines import aggregate, init_baseline
from detectbert.data import BagFormatError, ManifestRecord, SynthConfig, synth_bag
from detectbert.model import Bag, ModelConfig, init_params, logistic, predict
from detectbert.numerics import Tensor
from detectbert.seeding import derive_rng, derive_seed
from detectbert.training import (
    Adam,
    Lookahead,
    Metrics,
    TrainConfig,
    TrainingDivergedError,
    bce_loss,
    compute_metrics,
    evaluate,
    split_shuffled,
    split_temporal,
    train,
)


def record(app_id, label=0, year=2019, path="x.dbmb"):
    return ManifestRecord(
        app_id=app_id, label=label, date=dt.date(year, 1, 1), path=path
    )


def manifest_of(n, years=None):
    years = years or [2019] * n
    return [record(f"app-{i:04d}", year=years[i]) for i in range(n)]


def make_bags(rng, count, d=6, n_range=(2, 8)):
    bags = []
    for i in range(count):
        n = int(rng.integers(*n_range))
        bags.append(
            Bag(
                app_id=f"bag-{i:04d}",
                label=int(rng.integers(0, 2)),
                date=dt.date(2019, 1, 1),
                embeddings=rng.standard_normal((n, d)),
            )
        )
    return bags


class TestBceLoss:
    def test_analytic_values(self):
        assert bce_loss(Tensor(0.0), 1).item() == pytest.approx(math.log(2), abs=1e-12)
        assert bce_loss(Tensor(1.0), 0).item() == pytest.approx(
            math.log1p(math.e), abs=1e-12
        )

    def test_large_logit_is_stable(self):
        loss = bce_loss(Tensor(50.0), 1).item()
        assert 0 <= loss < 1e-20

    def test_gradient_is_logistic_minus_label(self):
        for x, label in [(0.3, 1), (-2.0, 0), (5.0, 1)]:
            t = Tensor(x, requires_grad=True)
            bce_loss(t, label).backward()
            assert t.grad[0, 0] == pytest.approx(logistic(x) - label, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        for x, label in [(0.7, 1), (-1.3, 0)]:
            h = 1e-6
            numeric = (
                bce_loss(Tensor(x + h), label).item()
                - bce_loss(Tensor(x - h), label).item()
            ) / (2 * h)
            assert numeric == pytest.approx(logistic(x) - label, abs=1e-8)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        theta = np.array([1.0, -2.0])
        Adam().step(theta, np.array([0.5, -3.0]), lr=0.01)
        np.testing.assert_allclose(theta, [1.0 - 0.01, -2.0 + 0.01], atol=1e-8)

    def test_zero_gradient_leaves_params(self):
        theta = np.array([1.0])
        Adam().step(theta, np.zeros(1), lr=0.1)
        assert theta[0] == 1.0

    def test_two_steps_match_hand_unrolled_recurrence(self):
        g, lr, b1, b2, eps = 0.7, 0.05, 0.9, 0.999, 1e-8
        theta_vec = np.array([2.0])
        adam = Adam(b1, b2, eps)
        for _ in range(2):
            adam.step(theta_vec, np.array([g]), lr)
        # hand recurrence
        theta, m, v = 2.0, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            theta -= lr * mhat / (math.sqrt(vhat) + eps)
        assert abs(theta_vec[0] - theta) < 1e-12

    def test_second_step_allocates_nothing(self, allocates_under):
        """A step computes in place: a million-parameter step allocates no
        parameter-sized temporary once the first step made the moments."""
        rng = np.random.default_rng(5)
        theta, adam = rng.standard_normal(10**6), Adam()
        adam.step(theta, rng.standard_normal(theta.size), lr=1e-3)
        grad = rng.standard_normal(theta.size)
        with allocates_under(theta.nbytes // 8):
            adam.step(theta, grad, lr=1e-3)


class TestLookahead:
    def run_quadratic(self, k, alpha, steps=100, lr=0.05):
        """Adam on f(theta) = theta^2 / 2, optionally wrapped by Lookahead."""
        theta = np.array([1.0])
        adam = Adam()
        look = Lookahead(theta, k=k, alpha=alpha) if alpha is not None else None
        trajectory = []
        for _ in range(steps):
            adam.step(theta, theta.copy(), lr)
            if look is not None:
                look.after_inner_step(theta)
            trajectory.append(theta[0])
        return np.array(trajectory), (look.slow[0] if look else None)

    def test_alpha_one_k_one_equals_inner(self):
        wrapped, _ = self.run_quadratic(k=1, alpha=1.0)
        plain, _ = self.run_quadratic(k=1, alpha=None)
        assert np.abs(wrapped - plain).max() < 1e-12

    def test_alpha_zero_freezes_slow_weights(self):
        _, slow = self.run_quadratic(k=5, alpha=0.0, steps=50)
        assert slow == 1.0

    def test_k2_alpha_half_matches_hand_computation(self):
        traj, _ = self.run_quadratic(k=2, alpha=0.5, steps=4, lr=0.1)
        # hand computation of the same four steps
        b1, b2, eps = 0.9, 0.999, 1e-8
        theta, slow, m, v, t = 1.0, 1.0, 0.0, 0.0, 0
        expected = []
        for step in range(1, 5):
            g = theta
            t += 1
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= 0.1 * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
            if step % 2 == 0:
                slow = slow + 0.5 * (theta - slow)
                theta = slow
            expected.append(theta)
        assert np.abs(traj - np.array(expected)).max() < 1e-12


class TestMetrics:
    def test_all_correct(self):
        m = compute_metrics([1, 0, 1], [1, 0, 1])
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_counts(self):
        preds = [1] * 3 + [1] + [0] * 2 + [0] * 4
        labels = [1] * 3 + [0] + [1] * 2 + [0] * 4
        m = compute_metrics(preds, labels)
        assert (m.tp, m.fp, m.fn, m.tn) == (3, 1, 2, 4)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.6)
        assert m.f1 == pytest.approx(2 / 3, abs=1e-4)
        assert m.accuracy == pytest.approx(0.7)

    def test_zero_denominators(self):
        m = compute_metrics([0, 0], [0, 0])
        assert (m.precision, m.recall, m.f1, m.accuracy) == (0.0, 0.0, 0.0, 1.0)

    def test_against_bruteforce_oracle(self):
        """Formula path vs naive counting over 1000 random pairs."""
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            preds = rng.integers(0, 2, n).tolist()
            labels = rng.integers(0, 2, n).tolist()
            m = compute_metrics(preds, labels)
            tp = sum(1 for p, l in zip(preds, labels) if p == 1 and l == 1)
            fp = sum(1 for p, l in zip(preds, labels) if p == 1 and l == 0)
            fn = sum(1 for p, l in zip(preds, labels) if p == 0 and l == 1)
            tn = sum(1 for p, l in zip(preds, labels) if p == 0 and l == 0)
            assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)
            p_ = tp / (tp + fp) if tp + fp else 0.0
            r_ = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * p_ * r_ / (p_ + r_) if p_ + r_ else 0.0
            assert m.f1 == pytest.approx(f1, abs=1e-12)

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            compute_metrics([1], [1, 0])
        with pytest.raises(ValueError):
            compute_metrics([], [])


class TestSplitShuffled:
    def test_ten_apps_split_8_1_1(self):
        plan = split_shuffled(manifest_of(10), seed=0)
        assert (len(plan.train), len(plan.validation), len(plan.test)) == (8, 1, 1)

    def test_deterministic(self):
        a = split_shuffled(manifest_of(57), seed=4, repetition=3)
        b = split_shuffled(manifest_of(57), seed=4, repetition=3)
        assert a == b

    def test_ten_repetitions_are_distinct(self):
        plans = [split_shuffled(manifest_of(30), seed=1, repetition=r) for r in range(10)]
        seen = {tuple(p.test) for p in plans}
        assert len(seen) == 10

    def test_disjoint_and_exhaustive(self):
        for n in (3, 10, 37, 100, 999):
            plan = split_shuffled(manifest_of(n), seed=2)
            combined = sorted(plan.train + plan.validation + plan.test)
            assert combined == list(range(n))
            assert len(plan.train) >= math.floor(0.8 * n)

    def test_empty_manifest(self):
        with pytest.raises(ValueError):
            split_shuffled([], seed=0)


class TestSplitTemporal:
    def test_realized_proportions(self):
        years = [2019] * 9 + [2020]
        plan = split_temporal(manifest_of(10, years))
        assert plan.train_fraction == pytest.approx(0.9)
        assert plan.test_fraction == pytest.approx(0.1)
        assert len(plan.test) == 1
        assert len(plan.train) + len(plan.validation) == 9

    def test_out_of_window_apps_are_excluded_and_counted(self):
        years = [2018, 2019, 2019, 2020]
        plan = split_temporal(manifest_of(4, years))
        assert plan.excluded == 1
        assert len(plan.train) + len(plan.validation) == 2

    def test_validation_is_carved_from_2019_only(self):
        years = [2019] * 40 + [2020] * 5
        plan = split_temporal(manifest_of(45, years))
        assert len(plan.validation) == 4  # floor(40 / 10)
        for idx in plan.validation + plan.train:
            assert idx < 40
        for idx in plan.test:
            assert idx >= 40

    def test_missing_year_errors(self):
        with pytest.raises(ValueError):
            split_temporal(manifest_of(5, [2019] * 5))
        with pytest.raises(ValueError):
            split_temporal(manifest_of(5, [2020] * 5))


class TestTrainLoop:
    def test_zero_learning_rate_changes_nothing(self):
        rng = np.random.default_rng(1)
        bags = make_bags(rng, 6, d=4)
        config = TrainConfig(learning_rate=0.0, epochs=2, seed=3)
        result = train(config, bags, bags[:2], init_baseline("elementwise_average", 4, seed=3))
        fresh = init_baseline("elementwise_average", 4, seed=3)
        assert (result.params.head_weights.value == fresh.head_weights.value).all()
        assert (result.params.head_bias.value == fresh.head_bias.value).all()

    def test_single_step_matches_hand_composed_pipeline(self):
        """One epoch over one bag equals loss -> grad -> Adam applied by hand."""
        rng = np.random.default_rng(2)
        bag = make_bags(rng, 1, d=5)[0]
        config = TrainConfig(epochs=1, seed=11, learning_rate=1e-2)
        result = train(config, [bag], [], init_baseline("elementwise_average", 5, seed=11))

        params = init_baseline("elementwise_average", 5, seed=11)
        agg = aggregate(bag, params, derive_seed(11, "baseline-epoch", 0))
        logit = (agg @ params.head_weights.value + params.head_bias.value).item()
        g = logistic(logit) - bag.label
        grads = {"head_weights": agg.T * g, "head_bias": np.array([[g]])}
        adam = Adam()
        b1, b2, eps = adam.beta1, adam.beta2, adam.eps
        expected = {}
        for name, p in params.named_parameters():
            m = (1 - b1) * grads[name]
            v = (1 - b2) * grads[name] ** 2
            expected[name] = p.value - 1e-2 * (m / (1 - b1)) / (
                np.sqrt(v / (1 - b2)) + eps
            )
        # lookahead does not sync after a single step with k=5
        assert np.abs(result.params.head_weights.value - expected["head_weights"]).max() < 1e-12
        assert np.abs(result.params.head_bias.value - expected["head_bias"]).max() < 1e-12

    def test_fixed_seed_reproduces_history(self):
        rng = np.random.default_rng(3)
        bags = make_bags(rng, 8, d=4)
        config = TrainConfig(epochs=3, seed=5, learning_rate=1e-3)
        cfg = ModelConfig(d=4, heads=2, landmarks=4)
        a = train(config, bags[:6], bags[6:], init_params(cfg, config.seed))
        b = train(config, bags[:6], bags[6:], init_params(cfg, config.seed))
        assert a.history == b.history
        for (_, pa), (_, pb) in zip(
            a.params.named_parameters(), b.params.named_parameters()
        ):
            assert (pa.value == pb.value).all()

    def test_divergence_names_epoch_and_bag(self):
        huge = np.full((2, 3), 1e308)
        bag = Bag("overflow-app", 1, dt.date(2019, 1, 1), huge)
        config = TrainConfig(epochs=1, seed=0)
        with pytest.raises(TrainingDivergedError, match=r"epoch 0.*overflow-app"):
            train(config, [bag], [], init_baseline("elementwise_addition", 3, seed=0))

    def test_non_finite_gradient_names_epoch_bag_and_parameter(self):
        """A finite loss whose gradient overflows: an all-zero model and bag put
        zero variance into the final layer norm, whose 1/sqrt(eps) then
        multiplies the 1e307 head weights on the way back."""
        cfg = ModelConfig(d=4, heads=2, landmarks=4)
        params = init_params(cfg, seed=0)
        for name, p in params.named_parameters():
            p.value[...] = 1.0 if name.endswith("ln_gamma") else 0.0
        params.tensors["head_weights"].value[:, 0] = [1e307, -1e307, 1e307, -1e307]
        bag = Bag("flat-app", 1, dt.date(2019, 1, 1), np.zeros((3, 4)))
        config = TrainConfig(epochs=1, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrainingDivergedError, match=r"gradient of 'category_vector' at epoch 0, bag 'flat-app'"
        ):
            train(config, [bag], [], params)

    def test_best_epoch_selection_prefers_earlier_tie(self):
        rng = np.random.default_rng(4)
        bags = make_bags(rng, 5, d=4)
        config = TrainConfig(epochs=3, seed=9, learning_rate=0.0)
        result = train(config, bags, bags, init_baseline("elementwise_average", 4, seed=9))
        # lr=0 makes every epoch identical, so the tie resolves to epoch 0
        assert result.best_epoch == 0


def reference_train(config, train_bags, val_bags, params):
    """The epoch loop as a loop over the tensors: Adam's moments and Lookahead's
    slow weights held per tensor name, and a deep copy of the parameters at
    each new best validation F1.  Returns (best params, best epoch)."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    named = params.named_parameters()
    m = {name: np.zeros_like(p.value) for name, p in named}
    v = {name: np.zeros_like(p.value) for name, p in named}
    slow = {name: p.value.copy() for name, p in named}
    t = counter = 0
    best, best_f1, best_epoch = None, -1.0, -1
    for epoch in range(config.epochs):
        order = derive_rng(config.seed, "epoch-order", epoch).permutation(len(train_bags))
        epoch_seed = derive_seed(config.seed, "baseline-epoch", epoch)
        pending = 0
        for step_idx, bag_idx in enumerate(order):
            bag = train_bags[int(bag_idx)]
            bce_loss(params.logit(bag, epoch_seed), bag.label).backward()
            pending += 1
            if pending < config.batch_size and step_idx < len(order) - 1:
                continue
            t += 1
            for name, p in named:
                g = np.zeros_like(p.value) if p.grad is None else p.grad / pending
                m[name] *= b1
                m[name] += (1.0 - b1) * g
                v[name] *= b2
                v[name] += (1.0 - b2) * (g * g)
                p.value -= config.learning_rate * (m[name] / (1.0 - b1 ** t)) / (
                    np.sqrt(v[name] / (1.0 - b2 ** t)) + eps
                )
                p.zero_grad()
            counter += 1
            if counter == config.lookahead_k:
                counter = 0
                for name, p in named:
                    slow[name] += config.lookahead_alpha * (p.value - slow[name])
                    p.value[...] = slow[name]
            pending = 0
        f1 = evaluate(params, val_bags, config.threshold)[0].f1
        if f1 > best_f1:
            best, best_f1, best_epoch = copy.deepcopy(params), f1, epoch
    return best, best_epoch


class TestVectorTraining:
    """train on one parameter vector gives the bits of a loop over the tensors."""

    @pytest.mark.parametrize("model", ["attention", "random_selection"])
    def test_bits_equal_a_per_tensor_loop(self, usable_cpus, model):
        usable_cpus(1)
        bags = make_bags(np.random.default_rng(7), 14, d=8)
        config = TrainConfig(learning_rate=1e-2, epochs=2, batch_size=3, lookahead_k=2,
                             lookahead_alpha=0.5, seed=4)

        def fresh():
            if model == "attention":
                return init_params(ModelConfig(d=8, heads=2, landmarks=4, pinv_iters=6), seed=4)
            return init_baseline(model, 8, seed=4)

        result = train(config, bags[:10], bags[10:], fresh())
        expected, expected_epoch = reference_train(config, bags[:10], bags[10:], fresh())
        assert result.best_epoch == expected_epoch
        for (name, p), (_, q) in zip(result.params.named_parameters(),
                                     expected.named_parameters()):
            assert (p.value == q.value).all(), name

    def test_returns_the_callers_params_without_gradients(self):
        bags = make_bags(np.random.default_rng(8), 6, d=4)
        params = init_params(ModelConfig(d=4, heads=2, landmarks=4), seed=1)
        result = train(TrainConfig(epochs=2, seed=1), bags[:4], bags[4:], params)
        assert result.params is params
        assert all(p.grad is None for _, p in params.named_parameters())

    def test_without_validation_keeps_the_last_epoch(self):
        bags = make_bags(np.random.default_rng(9), 5, d=4)
        one = train(TrainConfig(epochs=1, seed=2, learning_rate=1e-2), bags, [],
                    init_baseline("elementwise_average", 4, seed=2))
        three = train(TrainConfig(epochs=3, seed=2, learning_rate=1e-2), bags, [],
                      init_baseline("elementwise_average", 4, seed=2))
        assert (three.best_epoch, three.best_f1) == (2, None)
        assert (one.params.head_weights.value != three.params.head_weights.value).any()


class TestTrainMemory:
    def test_a_step_holds_one_graph(self, allocates_under):
        """Over long bags (Nystrom regime, several row blocks) the recorded graph
        dominates training memory; train holds one at a time, so its peak is
        close to one forward and backward of its largest bag, not two."""
        rng = np.random.default_rng(11)
        bags = make_bags(rng, 3, d=32, n_range=(600, 720))
        largest = max(bags, key=lambda b: b.embeddings.shape[0])
        config = ModelConfig(d=32, heads=4, landmarks=16, pinv_iters=6)
        params = init_params(config, seed=3)
        bce_loss(params.logit(largest), largest.label).backward()  # allocates the grads
        with allocates_under() as one:
            bce_loss(params.logit(largest), largest.label).backward()
        with allocates_under(1.25 * one.peak):
            train(TrainConfig(epochs=2, seed=3), bags, [], init_params(config, seed=3))


    def test_a_long_bag_step_holds_under_30_bag_units(self, allocates_under):
        """One forward and backward over a multi-block bag (d = 64, n = 1100, 8 heads,
        16 landmarks) peaks under 30 bag-sized arrays: each recorded node keeps its
        standardized rows and remakes the normed rows in its vjp (31.18 units when
        it kept both)."""
        n, d = 1100, 64
        bag = make_bags(np.random.default_rng(11), 1, d=d, n_range=(n, n + 1))[0]
        params = init_params(ModelConfig(d=d, heads=8, landmarks=16, pinv_iters=6), seed=3)
        bce_loss(params.logit(bag), bag.label).backward()  # allocates the grads
        with allocates_under(30 * n * d * 8):
            bce_loss(params.logit(bag), bag.label).backward()


class TestEvaluate:
    def test_constant_zero_logit_predicts_all_malware(self):
        rng = np.random.default_rng(5)
        bags = make_bags(rng, 10, d=4)
        params = init_baseline("elementwise_average", 4, seed=0)
        params.head_weights.value[:] = 0.0
        metrics, per_app = evaluate(params, bags)
        assert all(r["prediction"] == 1 for r in per_app)
        assert metrics.recall == 1.0

    def test_deterministic_and_sorted_by_app_id(self):
        rng = np.random.default_rng(6)
        bags = make_bags(rng, 7, d=4)
        params = init_baseline("random_selection", 4, seed=1)
        m1, p1 = evaluate(params, bags)
        m2, p2 = evaluate(params, list(reversed(bags)))
        assert p1 == p2
        assert m1 == m2
        assert [r["app_id"] for r in p1] == sorted(r["app_id"] for r in p1)

    def test_empty_split_rejected(self):
        params = init_baseline("elementwise_average", 4, seed=0)
        with pytest.raises(ValueError):
            evaluate(params, [])


class BadBags(list):
    """Bags whose indices in ``bad`` fail to read, naming the index."""

    def __init__(self, bags, bad):
        super().__init__(bags)
        self.bad = bad

    def __getitem__(self, i):
        if i in self.bad:
            raise BagFormatError(f"bag {i} is corrupt")
        return super().__getitem__(i)


class ExitsOn:
    """Scores as ``inner`` does, but the process that scores ``app_id`` exits at once."""

    def __init__(self, inner, app_id):
        self.inner, self.app_id = inner, app_id

    def logit(self, bag, epoch_seed=None):
        if bag.app_id == self.app_id:
            os._exit(3)
        return self.inner.logit(bag)


class TestEvaluateWorkers:
    """evaluate scores in forked workers; its records and errors are a serial loop's."""

    @pytest.mark.parametrize("model", ["attention", "elementwise_average"])
    def test_records_equal_a_predict_loop_bitwise(self, usable_cpus, model):
        # the score-corpus benchmark's shape: d=64, 5-120 instances, half in the exact regime
        config = SynthConfig(num_bags=24, d=64, bag_size_min=5, bag_size_max=120,
                             witness_rate=0.05, positive_fraction=0.4, seed=1)
        bags = [synth_bag(config, i)[0] for i in range(24)]
        if model == "attention":
            params = init_params(ModelConfig(d=64, heads=8, landmarks=64, pinv_iters=24), seed=1)
        else:
            params = init_baseline(model, 64, seed=1)
        loop = []
        for bag in bags:
            out = predict(bag, params)
            loop.append({"app_id": bag.app_id, "score": out["score"], "label": bag.label,
                         "prediction": out["label"]})
        loop.sort(key=lambda r: r["app_id"])
        for cpus in (2, 3):
            usable_cpus(cpus)
            _, per_app = evaluate(params, bags)
            assert per_app == loop  # scores are finite and nonzero, so == compares bits
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_failing_bag_is_raised(self, usable_cpus, cpus):
        usable_cpus(cpus)
        bags = BadBags(make_bags(np.random.default_rng(8), 12, d=4), bad={3, 7})
        with pytest.raises(BagFormatError, match="^bag 3 is corrupt$"):
            evaluate(init_baseline("elementwise_average", 4, seed=0), bags)
        assert multiprocessing.active_children() == []

    def test_a_daemonic_caller_scores_inline(self, usable_cpus):
        bags = make_bags(np.random.default_rng(10), 4, d=4)
        params = init_baseline("elementwise_average", 4, seed=0)
        usable_cpus(1)
        _, serial = evaluate(params, bags)
        usable_cpus(2)
        # a Pool worker is daemonic, and a daemonic process may not start children
        with multiprocessing.get_context("fork").Pool(1) as pool:
            _, per_app = pool.apply(evaluate, (params, bags))
        assert per_app == serial
        assert multiprocessing.active_children() == []

    def test_a_killed_worker_raises_a_runtime_error_and_leaves_no_child(self, usable_cpus):
        usable_cpus(2)
        bags = make_bags(np.random.default_rng(9), 12, d=4)
        params = ExitsOn(init_baseline("elementwise_average", 4, seed=0), bags[5].app_id)
        with pytest.raises(BrokenProcessPool) as caught:
            evaluate(params, bags)
        assert isinstance(caught.value, RuntimeError)  # the CLI's one `error:` line
        assert multiprocessing.active_children() == []
