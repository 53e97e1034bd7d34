"""Model head: forward pass, prediction, initialization, checkpoints."""

import datetime as dt
import struct

import numpy as np
import pytest

from detectbert.baselines import init_baseline
from detectbert.model import (
    Bag,
    CheckpointError,
    CheckpointMagicError,
    CheckpointTruncatedError,
    CheckpointUnknownTensorError,
    CheckpointVersionError,
    ModelConfig,
    ModelParams,
    forward,
    init_params,
    load_checkpoint,
    logistic,
    param_shapes,
    predict,
    save_checkpoint,
)
from detectbert.attention import BLOCK_ROWS
from detectbert.numerics import ShapeError, Tensor, no_grad
from detectbert.verify import gradcheck, scaled_model_params


def make_bag(rng, n=5, d=8, label=1, app_id="app-1"):
    return Bag(
        app_id=app_id,
        label=label,
        date=dt.date(2019, 6, 1),
        embeddings=rng.standard_normal((n, d)),
    )


def zero_params(d=4, num_blocks=2, heads=2):
    cfg = ModelConfig(d=d, num_blocks=num_blocks, heads=heads, landmarks=8)
    tensors = {name: Tensor(np.zeros(shape)) for name, shape in param_shapes(cfg)}
    return ModelParams(config=cfg, tensors=tensors)


class TestInitParams:
    def test_same_seed_is_bitwise_identical(self):
        cfg = ModelConfig(d=8, heads=2, landmarks=4)
        a = init_params(cfg, seed=123)
        b = init_params(cfg, seed=123)
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            assert (pa.value == pb.value).all(), name_a

    def test_different_seeds_differ(self):
        cfg = ModelConfig(d=8, heads=2)
        a = init_params(cfg, seed=1)
        b = init_params(cfg, seed=2)
        assert not np.array_equal(
            a.tensors["category_vector"].value, b.tensors["category_vector"].value
        )

    def test_two_blocks_by_default(self):
        params = init_params(ModelConfig(d=8, heads=2), seed=0)
        names = [name for name, _ in params.named_parameters()]
        assert [n for n in names if n.endswith(".w_q")] == ["block0.w_q", "block1.w_q"]

    def test_gamma_one_beta_zero_bias_zero(self):
        params = init_params(ModelConfig(d=8, heads=2), seed=5)
        t = params.tensors
        assert (t["block0.ln_gamma"].value == 1.0).all()
        assert (t["block0.ln_beta"].value == 0.0).all()
        assert t["head_bias"].value[0, 0] == 0.0

    def test_invalid_width_head_combo(self):
        with pytest.raises(ValueError):
            ModelConfig(d=6, heads=4)


class TestForward:
    def test_zero_params_zero_bag_gives_zero_logit(self):
        params = zero_params(d=4)
        bag = Bag("z", 0, dt.date(2019, 1, 1), np.zeros((3, 4)))
        assert forward(bag, params).item() == 0.0

    def test_single_instance_bag(self):
        rng = np.random.default_rng(0)
        params = init_params(ModelConfig(d=8, heads=2, landmarks=4), seed=0)
        bag = make_bag(rng, n=1, d=8)
        logit = forward(bag, params).item()
        assert np.isfinite(logit)

    def test_permutation_invariance_with_full_landmarks(self):
        rng = np.random.default_rng(1)
        cfg = ModelConfig(d=8, heads=2, landmarks=512)
        params = init_params(cfg, seed=7)
        for _ in range(10):
            bag = make_bag(rng, n=int(rng.integers(2, 12)), d=8)
            base = forward(bag, params).item()
            perm = rng.permutation(bag.size)
            shuffled = Bag(bag.app_id, bag.label, bag.date, bag.embeddings[perm])
            assert abs(forward(shuffled, params).item() - base) < 1e-9

    def test_doubled_bag_stays_finite_and_deterministic(self):
        rng = np.random.default_rng(2)
        params = init_params(ModelConfig(d=8, heads=2, landmarks=4), seed=3)
        bag = make_bag(rng, n=6, d=8)
        doubled = Bag(
            bag.app_id, bag.label, bag.date, np.vstack([bag.embeddings, bag.embeddings])
        )
        one = forward(doubled, params).item()
        two = forward(doubled, params).item()
        assert np.isfinite(one)
        assert one == two

    def test_width_mismatch_raises(self):
        rng = np.random.default_rng(3)
        params = init_params(ModelConfig(d=8, heads=2), seed=0)
        with pytest.raises(ShapeError):
            forward(make_bag(rng, n=4, d=16), params)

    def test_embeddings_receive_no_gradient(self):
        """The frozen-extractor contract: backprop never touches the bag."""
        rng = np.random.default_rng(4)
        params = init_params(ModelConfig(d=8, heads=2, landmarks=4), seed=1)
        bag = make_bag(rng, n=4, d=8)
        before = bag.embeddings.copy()
        logit = forward(bag, params)
        logit.backward()
        assert (bag.embeddings == before).all()
        assert params.tensors["category_vector"].grad is not None

    def test_gradcheck_small_model(self):
        # n + 1 <= landmarks: every block takes the exact branch
        self.check_model_gradient(d=4, n=3, landmarks=16, pinv_iters=24)

    def test_gradcheck_small_model_nystrom_regime(self):
        # n + 1 > landmarks: the gradient runs through the pinv backward in every block
        self.check_model_gradient(d=8, n=9, landmarks=4, pinv_iters=6)

    @pytest.mark.parametrize("num_blocks", [1, 2, 3])
    def test_no_grad_logit_is_the_recorded_bits(self, num_blocks):
        """Each block's node takes another path without a graph (the normed rows
        overwritten by the output, or normalized block by block in the last block);
        the logit keeps the recorded forward's bits on both sides of the landmark
        count and of the row-block edges."""
        landmarks = 16
        cfg = ModelConfig(d=16, num_blocks=num_blocks, heads=4, landmarks=landmarks, pinv_iters=6)
        params = scaled_model_params(cfg, seed=num_blocks)
        sizes = [1, landmarks - 2, landmarks - 1, landmarks, landmarks + 1]
        sizes += [k * BLOCK_ROWS + e for k in (1, 2) for e in (-2, -1, 0)]
        for n in sizes:  # the sequence is n + 1 rows, with the category row
            bag = make_bag(np.random.default_rng(n), n=n, d=16)
            recorded = forward(bag, params)
            assert recorded.requires_grad
            with no_grad():
                plain = forward(bag, params)
            assert plain.value.tobytes() == recorded.value.tobytes(), n

    @staticmethod
    def check_model_gradient(d, n, landmarks, pinv_iters):
        rng = np.random.default_rng(5)
        cfg = ModelConfig(d=d, num_blocks=2, heads=2, landmarks=landmarks, pinv_iters=pinv_iters)
        params = scaled_model_params(cfg, seed=12)
        bag = make_bag(rng, n=n, d=d)
        tensors = [p for _, p in params.named_parameters()]
        err = gradcheck(lambda: forward(bag, params), tensors, step=1e-5)
        assert err < 1e-4, f"max relative gradient error {err:.3e}"


class TestPredict:
    def test_midpoint_ties_go_to_malware(self):
        params = zero_params(d=4)
        bag = Bag("z", 0, dt.date(2019, 1, 1), np.zeros((3, 4)))
        out = predict(bag, params)
        assert out["score"] == pytest.approx(0.5)
        assert out["label"] == 1

    def test_saturated_logits(self):
        params = zero_params(d=4)
        params.tensors["head_bias"] = Tensor(np.array([[20.0]]))
        bag = Bag("z", 0, dt.date(2019, 1, 1), np.zeros((3, 4)))
        out = predict(bag, params)
        assert out["score"] > 0.999
        assert out["label"] == 1
        params.tensors["head_bias"] = Tensor(np.array([[-20.0]]))
        assert predict(bag, params)["label"] == 0

    def test_threshold_validation(self):
        params = zero_params(d=4)
        bag = Bag("z", 0, dt.date(2019, 1, 1), np.zeros((3, 4)))
        with pytest.raises(ValueError):
            predict(bag, params, threshold=0.0)

    @pytest.mark.parametrize("n", [1, 4, 40])
    def test_score_is_logistic_of_recorded_logit(self, n):
        """predict (no graph) and the training forward (recorded) give the same bits."""
        from detectbert.baselines import init_baseline

        rng = np.random.default_rng(n)
        bag = make_bag(rng, n=n, d=8)
        head = init_params(ModelConfig(d=8, heads=2, landmarks=5), seed=n)
        baseline = init_baseline("random_selection", d=8, seed=n)
        for params in (head, baseline):
            recorded = params.logit(bag)
            assert recorded.requires_grad
            assert predict(bag, params)["score"] == logistic(recorded.item())

    def test_long_bag_holds_a_few_copies_of_itself(self, allocates_under):
        """At the infer-large shape, predict's transient is one sequence-sized array (the
        first block's normed rows, which become its output) and a few row blocks: under
        2.75 bag-sized arrays (4.33 when the stacked sequence, each block's normed copy
        and the residual sums were arrays of their own)."""
        n, d = 1000, 256
        bag = make_bag(np.random.default_rng(9), n=n, d=d)
        params = init_params(ModelConfig(d=d, heads=8, landmarks=64, pinv_iters=24), seed=9)
        predict(bag, params)  # one-time allocations happen here
        with allocates_under(2.75 * n * d * 8):
            predict(bag, params)


class TestCheckpoints:
    def test_roundtrip_is_bitwise(self, tmp_path):
        params = init_params(ModelConfig(d=8, heads=2, landmarks=5, pinv_iters=9), seed=21)
        path = tmp_path / "model.dbck"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        for (name, orig), (_, back) in zip(
            params.named_parameters(), loaded.named_parameters()
        ):
            assert (orig.value == back.value).all(), name

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "model.dbck"
        save_checkpoint(init_params(ModelConfig(d=4, heads=2), seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.dbck"
        save_checkpoint(init_params(ModelConfig(d=4, heads=2), seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.dbck"
        save_checkpoint(init_params(ModelConfig(d=4, heads=2), seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 17])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_unknown_tensor_name(self, tmp_path):
        path = tmp_path / "model.dbck"
        save_checkpoint(init_params(ModelConfig(d=4, heads=2), seed=0), path)
        extra = struct.pack("<I", 6) + b"rogue!" + struct.pack("<II", 1, 1) + bytes(8)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(CheckpointUnknownTensorError):
            load_checkpoint(path)

    def test_repeated_tensor_record_rejected(self, tmp_path):
        path = tmp_path / "baseline.dbck"
        save_checkpoint(init_baseline("elementwise_average", 4, 0), path)
        again = struct.pack("<I", 9) + b"head_bias" + struct.pack("<IId", 1, 1, 123.0)
        path.write_bytes(path.read_bytes() + again)
        with pytest.raises(CheckpointError, match="'head_bias' appears twice"):
            load_checkpoint(path)

    def test_missing_tensor(self, tmp_path):
        path = tmp_path / "model.dbck"
        params = init_params(ModelConfig(d=4, heads=2), seed=0)
        save_checkpoint(params, path)
        raw = path.read_bytes()
        # drop the final tensor record (head_bias: 4 + 9 + 8 + 8 bytes)
        path.write_bytes(raw[: len(raw) - (4 + len(b"head_bias") + 8 + 8)])
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(path)

    def test_width_mismatch_surfaces_at_forward(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "model.dbck"
        save_checkpoint(init_params(ModelConfig(d=8, heads=2), seed=0), path)
        loaded = load_checkpoint(path)
        with pytest.raises(ShapeError):
            forward(make_bag(rng, n=3, d=16), loaded)

    @pytest.mark.parametrize(
        "old, new, error",
        [
            (b"head_hidden=0", b"head_hidden=5", CheckpointError),
            (b"category_scale=1.0", b"category_scale=2.0", CheckpointError),
            (b"heads=2", b"heads=0", ValueError),
            (b"kind=detectbert", b"kind=detectbertx", CheckpointError),
            (b"heads=2\n", b"", CheckpointError),
            (b"d=4\n", b"", CheckpointError),
            (b"pinv_iters=24", b"pinv_iters=0", CheckpointError),
            (b"landmarks=64", b"landmarks=0", CheckpointError),
            (b"ln_eps=1e-05", b"ln_eps=0.0", CheckpointError),
            (b"ln_eps=1e-05", b"ln_eps=nan", CheckpointError),
            (b"d=4\n", b"d=1024\n", CheckpointTruncatedError),
            (b"d=4\nnum_blocks=2\nheads=2\n", b"d=1\nnum_blocks=10000\nheads=1\n",
             CheckpointTruncatedError),
            (b"kind=detectbert", b"kind=detectber\xff", CheckpointError),
            # a tensor name rather than the metadata
            (b"category_vector", b"category_vecto\xff", CheckpointError),
        ],
    )
    def test_unsupported_metadata_rejected(self, tmp_path, allocates_under, old, new, error):
        path = tmp_path / "model.dbck"
        save_checkpoint(init_params(ModelConfig(d=4, heads=2), seed=0), path)
        raw = path.read_bytes()
        meta_len = int.from_bytes(raw[8:12], "little")
        assert raw.count(old) == 1
        at = raw.index(old)
        if at < 12 + meta_len:
            meta_len += len(new) - len(old)
        raw = raw[:at] + new + raw[at + len(old):]
        path.write_bytes(raw[:8] + meta_len.to_bytes(4, "little") + raw[12:])
        with allocates_under(1 << 20), pytest.raises(error):
            load_checkpoint(path)

    def test_header_only_checkpoint_allocates_no_model(self, tmp_path, allocates_under):
        path = tmp_path / "model.dbck"
        save_checkpoint(ModelParams(ModelConfig(d=1024), tensors={}), path)
        with allocates_under(1 << 20), pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [(4000, 4000), (2**31, 2**31 - 1)])
    def test_record_shape_checked_before_its_values(self, tmp_path, allocates_under, shape):
        path = tmp_path / "model.dbck"
        save_checkpoint(init_params(ModelConfig(d=4, heads=2), seed=0), path)
        raw = path.read_bytes()
        # the first record is category_vector; its shape follows the name
        at = 12 + int.from_bytes(raw[8:12], "little") + 4 + len(b"category_vector")
        path.write_bytes(raw[:at] + struct.pack("<II", *shape) + raw[at + 8:])
        with allocates_under(1 << 20), pytest.raises(CheckpointError, match="has shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["detectbert", "elementwise_average"])
    def test_records_follow_the_shape_table(self, tmp_path, kind):
        from detectbert import baselines

        if kind == "detectbert":
            cfg = ModelConfig(d=4, num_blocks=3, heads=2)
            params, table = init_params(cfg, seed=0), list(param_shapes(cfg))
        else:
            params, table = baselines.init_baseline(kind, d=4, seed=0), baselines.param_shapes(4)
        path = tmp_path / "model.dbck"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        records, at = [], 12 + int.from_bytes(raw[8:12], "little")
        while at < len(raw):
            (name_len,) = struct.unpack_from("<I", raw, at)
            name = raw[at + 4:at + 4 + name_len].decode()
            rows, cols = struct.unpack_from("<II", raw, at + 4 + name_len)
            records.append((name, (rows, cols)))
            at += 4 + name_len + 8 + 8 * rows * cols
        assert records == table

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, bad):
        path = tmp_path / "model.dbck"
        save_checkpoint(init_params(ModelConfig(d=4, heads=2), seed=0), path)
        raw = path.read_bytes()
        # the last 8 bytes are head_bias, the file's final tensor
        path.write_bytes(raw[:-8] + np.array([bad], dtype="<f8").tobytes())
        with pytest.raises(CheckpointError, match="'head_bias' holds non-finite values"):
            load_checkpoint(path)

    def test_baseline_roundtrip(self, tmp_path):
        from detectbert.baselines import init_baseline

        params = init_baseline("elementwise_average", d=12, seed=9)
        path = tmp_path / "baseline.dbck"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.kind == "elementwise_average"
        assert loaded.eval_seed == 9
        assert (loaded.head_weights.value == params.head_weights.value).all()
