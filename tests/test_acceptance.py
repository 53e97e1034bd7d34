"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The synthetic-separation experiment (criterion 6)
trains four models and takes several minutes; everything else is fast.
"""

import datetime as dt
import time

import numpy as np

from detectbert.attention import exact_attention, nystrom_attention
from detectbert.baselines import init_baseline
from detectbert.cli import main as cli_main
from detectbert.data import (
    SynthConfig,
    gen_synthetic,
    load_manifest,
    read_bag,
    save_manifest,
    synth_bag,
    write_bag,
)
from detectbert.model import (
    Bag,
    ModelConfig,
    forward,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from detectbert.numerics import Tensor
from detectbert.training import (
    Adam,
    Lookahead,
    TrainConfig,
    bce_loss,
    bind_flat,
    evaluate,
    train,
)
from detectbert.verify import (
    gradcheck,
    entropy_gap,
    product_joint,
    random_joint,
    scaled_model_params,
)


def report(number, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_1_nystrom_exact_equivalence(self):
        """200 random (n <= 32, d <= 16) cases with m = n agree with the
        exact-attention oracle to relative Frobenius error < 1e-5."""
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(1, 33))
            d = int(rng.integers(1, 17))
            q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
            exact = exact_attention(Tensor(q), Tensor(k), Tensor(v)).value
            approx = nystrom_attention(Tensor(q), Tensor(k), Tensor(v), m=n).value
            worst = max(worst, np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        elapsed = time.perf_counter() - t0
        report(
            1,
            worst < 1e-5 and elapsed < 10.0,
            f"worst relative error {worst:.3e} (< 1e-5), {elapsed:.1f}s (< 10s)",
        )

    def test_2_gradient_correctness(self):
        """Full 2-block model (d=8, heads=2, n=5, m=n) passes central-
        difference gradcheck with max relative error < 1e-4."""
        t0 = time.perf_counter()
        cfg = ModelConfig(d=8, num_blocks=2, heads=2, landmarks=16)
        params = scaled_model_params(cfg, seed=77)
        rng = np.random.default_rng(78)
        bag = Bag("acc-2", 1, dt.date(2019, 1, 1), rng.standard_normal((5, 8)))
        tensors = [p for _, p in params.named_parameters()]
        err = gradcheck(lambda: forward(bag, params), tensors, step=1e-5)
        elapsed = time.perf_counter() - t0
        report(
            2,
            err < 1e-4 and elapsed < 60.0,
            f"max relative gradient error {err:.3e} (< 1e-4), {elapsed:.1f}s (< 60s)",
        )

    def test_3_entropy_inequality(self):
        """1000 random joints (up to 3 variables, support <= 4) have
        nonnegative marginal-minus-joint entropy gap; product joints have
        zero gap."""
        rng = np.random.default_rng(3)
        t0 = time.perf_counter()
        min_gap = np.inf
        for _ in range(1000):
            min_gap = min(min_gap, entropy_gap(random_joint(rng))["gap"])
        worst_product = 0.0
        for _ in range(200):
            marginals = []
            for _ in range(int(rng.integers(1, 4))):
                m = rng.random(int(rng.integers(2, 5)))
                marginals.append(m / m.sum())
            worst_product = max(
                worst_product, abs(entropy_gap(product_joint(marginals))["gap"])
            )
        elapsed = time.perf_counter() - t0
        report(
            3,
            min_gap >= -1e-9 and worst_product < 1e-12 and elapsed < 5.0,
            f"min gap {min_gap:.3e} (>= -1e-9), product |gap| {worst_product:.3e} "
            f"(< 1e-12), {elapsed:.1f}s (< 5s)",
        )

    def test_4_permutation_invariance_exact_regime(self):
        """With landmarks = sequence length, permuting a bag's instances
        moves the logit by less than 1e-9 (100 random bags)."""
        cfg = ModelConfig(d=8, heads=2, landmarks=4096)
        params = init_params(cfg, seed=4)
        rng = np.random.default_rng(44)
        worst = 0.0
        for i in range(100):
            n = int(rng.integers(2, 24))
            bag = Bag(f"acc4-{i}", 1, dt.date(2019, 1, 1), rng.standard_normal((n, 8)))
            base = forward(bag, params).item()
            perm = rng.permutation(n)
            shuffled = Bag(bag.app_id, bag.label, bag.date, bag.embeddings[perm])
            worst = max(worst, abs(forward(shuffled, params).item() - base))
        report(4, worst < 1e-9, f"max |logit delta| {worst:.3e} (< 1e-9)")

    def test_5_optimizer_identities(self):
        """Lookahead(alpha=1, k=1) follows the inner optimizer exactly over
        100 steps; alpha=0 freezes the slow weights."""
        rng = np.random.default_rng(5)
        cfg = ModelConfig(d=4, heads=2, landmarks=4)
        bag = Bag("acc-5", 1, dt.date(2019, 1, 1), rng.standard_normal((3, 4)))

        def run_steps(use_lookahead, alpha):
            params = init_params(cfg, seed=55)
            theta, grad, _ = bind_flat(params.named_parameters())
            adam = Adam()
            look = Lookahead(theta, k=1, alpha=alpha) if use_lookahead else None
            snapshots = []
            for _ in range(100):
                grad[...] = 0.0
                bce_loss(forward(bag, params), bag.label).backward()
                adam.step(theta, grad, 1e-3)
                if look is not None:
                    look.after_inner_step(theta)
                snapshots.append(theta.copy())
            return snapshots, look

        plain, _ = run_steps(False, None)
        wrapped, _ = run_steps(True, 1.0)
        worst = max(
            np.abs(a - b).max() for a, b in zip(plain, wrapped)
        )

        params = init_params(cfg, seed=55)
        theta, grad, _ = bind_flat(params.named_parameters())
        initial = theta.copy()
        adam = Adam()
        look = Lookahead(theta, k=5, alpha=0.0)
        for _ in range(100):
            grad[...] = 0.0
            bce_loss(forward(bag, params), bag.label).backward()
            adam.step(theta, grad, 1e-3)
            look.after_inner_step(theta)
        frozen = bool((look.slow == initial).all())

        report(
            5,
            worst <= 1e-12 and frozen,
            f"alpha=1,k=1 trajectory delta {worst:.3e} (<= 1e-12), "
            f"alpha=0 slow weights frozen: {frozen}",
        )

    def test_6_synthetic_mil_separation(self):
        """On the seed-42 generator (d=32, 2000/250/500 bags, sizes 20-200,
        witness rate 0.05, positive fraction 0.4) the attention head beats
        the element-wise-average baseline by >= 0.05 F1, reaches F1 >= 0.90,
        and the random <= average <= attention ordering holds."""
        t0 = time.perf_counter()
        scfg = SynthConfig(
            num_bags=2750, d=32, bag_size_min=20, bag_size_max=200,
            witness_rate=0.05, positive_fraction=0.4, seed=42,
        )
        bags = [synth_bag(scfg, i)[0] for i in range(2750)]
        train_bags, val_bags, test_bags = bags[:2000], bags[2000:2250], bags[2250:]

        tc = TrainConfig(epochs=20, learning_rate=1e-4, lookahead_k=5,
                         lookahead_alpha=0.5, seed=7)
        mc = ModelConfig(d=32, heads=4, landmarks=32, pinv_iters=6)
        f1 = {}
        models = {
            "random_selection": init_baseline("random_selection", mc.d, tc.seed),
            "elementwise_average": init_baseline("elementwise_average", mc.d, tc.seed),
            "detectbert": init_params(mc, tc.seed),
        }
        for kind, params in models.items():
            result = train(tc, train_bags, val_bags, params)
            metrics, _ = evaluate(result.params, test_bags)
            f1[kind] = metrics.f1
        elapsed = time.perf_counter() - t0

        ok = (
            f1["detectbert"] >= 0.90
            and f1["detectbert"] - f1["elementwise_average"] >= 0.05
            and f1["random_selection"] <= f1["elementwise_average"] <= f1["detectbert"]
            # frozen regression bands from the first full run of this suite
            # (random 0.41, average 0.77, detectbert 0.99)
            and f1["detectbert"] >= 0.95
            and 0.65 <= f1["elementwise_average"] <= 0.90
            and f1["random_selection"] <= 0.60
            and elapsed < 900.0
        )
        report(
            6,
            ok,
            "F1 random {random_selection:.3f} <= average {elementwise_average:.3f} "
            "<= attention {detectbert:.3f}".format(**f1)
            + f", gap {f1['detectbert'] - f1['elementwise_average']:.3f} (>= 0.05), "
            f"{elapsed:.0f}s (< 900s)",
        )

    def test_7_temporal_protocol_mechanics(self, tmp_path):
        """protocol-temporal on a 90% 2019 / 10% 2020 manifest trains only
        on 2019 apps, tests only on 2020 apps, and reports the realized
        0.90/0.10 proportions."""
        t0 = time.perf_counter()
        data_dir = tmp_path / "data"
        gen_synthetic(
            SynthConfig(num_bags=200, d=16, bag_size_min=5, bag_size_max=15, seed=13),
            data_dir,
        )
        manifest = load_manifest(data_dir / "manifest.csv")
        for pos, rec in enumerate(manifest):
            year = 2019 if pos < 180 else 2020
            rec.date = dt.date(year, rec.date.month, rec.date.day)
        save_manifest(manifest, data_dir / "manifest.csv")

        out = tmp_path / "temporal"
        code = cli_main([
            "protocol-temporal", "--manifest", str(data_dir / "manifest.csv"),
            "--out", str(out), "--epochs", "2", "--heads", "2",
            "--landmarks", "8", "--seed", "3",
        ])
        reloaded = load_manifest(data_dir / "manifest.csv")
        dates = {rec.app_id: rec.date for rec in reloaded}
        roles_ok = True
        for line in (out / "split.csv").read_text().splitlines()[1:]:
            _, app_id, role = line.split(",")
            year = dates[app_id].year
            roles_ok = roles_ok and (
                (role in ("train", "validation") and year == 2019)
                or (role == "test" and year == 2020)
            )
        rep = (out / "report.txt").read_text()
        elapsed = time.perf_counter() - t0
        ok = (
            code == 0
            and roles_ok
            and "train_fraction=0.90" in rep
            and "test_fraction=0.10" in rep
            and elapsed < 300.0
        )
        report(
            7,
            ok,
            f"exit {code}, split roles respect years: {roles_ok}, "
            f"proportions 0.90/0.10 reported, {elapsed:.0f}s (< 300s)",
        )

    def test_8_serialization_roundtrips(self, tmp_path):
        """Bag files round-trip exactly at 32-bit precision and checkpoints
        bit-exactly, across 100 random instances each."""
        rng = np.random.default_rng(8)
        bags_ok = True
        for i in range(100):
            n, d = int(rng.integers(1, 20)), int(rng.integers(1, 12))
            bag = Bag(f"s{i}", 0, dt.date(2019, 1, 1), rng.standard_normal((n, d)))
            path = tmp_path / "bag.dbmb"
            write_bag(bag, path)
            back = read_bag(path)
            expected = bag.embeddings.astype(np.float32).astype(np.float64)
            bags_ok = bags_ok and (back.embeddings == expected).all()

        ckpt_ok = True
        for i in range(100):
            path = tmp_path / "model.dbck"
            if i % 2 == 0:
                params = init_params(
                    ModelConfig(d=4, num_blocks=1, heads=2, landmarks=3), seed=i
                )
            else:
                params = init_baseline("elementwise_average", d=6, seed=i)
            save_checkpoint(params, path)
            loaded = load_checkpoint(path)
            for (_, a), (_, b) in zip(
                params.named_parameters(), loaded.named_parameters()
            ):
                ckpt_ok = ckpt_ok and (a.value == b.value).all()
        report(8, bags_ok and ckpt_ok,
               f"bag 32-bit roundtrip: {bags_ok}, checkpoint bit-exact: {ckpt_ok}")

    def test_9_performance_smoke(self):
        """Single-bag inference (n=1000, d=256, 2 blocks, 64 landmarks)
        completes in under 200 ms."""
        cfg = ModelConfig(d=256, num_blocks=2, heads=8, landmarks=64)
        params = init_params(cfg, seed=9)
        rng = np.random.default_rng(99)
        bag = Bag("perf", 1, dt.date(2020, 1, 1), rng.standard_normal((1000, 256)))
        predict(bag, params)  # warm-up
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            predict(bag, params)
            best = min(best, time.perf_counter() - t0)
        report(9, best < 0.200, f"single-bag inference {best * 1000:.0f} ms (< 200 ms)")
