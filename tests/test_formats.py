"""Output bytes pinned to fixed values, so format changes cannot slip in unnoticed.

The digests and file contents were taken before the attention head and
the baselines shared the ``logit``/``checkpoint_meta`` interface; any
refactor must reproduce them exactly.
"""

import hashlib

import pytest

from detectbert.baselines import BASELINE_KINDS, init_baseline
from detectbert.cli import main
from detectbert.model import ModelConfig, init_params, save_checkpoint

CHECKPOINT_SHA256 = {
    "detectbert": "5c0bc41e25dce590f87f52fb5a2473a5f8d2b94e6429a284f5951d48d99547c7",
    "random_selection": "bf629aa65555b801f1e1194f0a7a0e5736773613abcab01a54a31ed821b739f5",
    "elementwise_addition": "8089f193f4ec9a778036944653079c48e262f3351dfbc3aaa3e0d98a09b7bbf7",
    "elementwise_average": "0a2c24022bdd5bc200f35eae76d5cb377895cd8ee933f617603cadb89a83a038",
}

TRAIN_RESOLVED = (
    "batch_size=1\nblocks=2\nepochs=20\nheads=8\nlandmarks=64\nlearning_rate=0.0001\n"
    "lookahead_alpha=0.5\nlookahead_k=5\nmodel={model}\npinv_iters=24\nrepetition=0\n"
    "{extra}seed=0\nthreshold=0.5\n"
)


def fixed_params(kind):
    if kind == "detectbert":
        return init_params(ModelConfig(d=8, heads=2, landmarks=4, pinv_iters=6), seed=3)
    return init_baseline(kind, 8, seed=3)


@pytest.mark.parametrize("kind", ("detectbert",) + BASELINE_KINDS)
def test_checkpoint_bytes(kind, tmp_path):
    path = tmp_path / "model.dbck"
    save_checkpoint(fixed_params(kind), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256[kind]


def run(argv):
    assert main([str(a) for a in argv]) == 0


def test_gen_synth_resolved_config(tmp_path):
    run(["gen-synth", "--out", tmp_path])
    assert (tmp_path / "resolved_config.txt").read_text() == (
        "bag_size_max=200\nbag_size_min=20\nbags=100\ncorrelation_strength=0.2\ndim=32\n"
        "positive_fraction=0.4\nseed=0\nsignal_shift=10.0\nwitness_rate=0.05\n"
    )


@pytest.fixture()
def tiny_manifest(tmp_path):
    run(["gen-synth", "--out", tmp_path / "data", "--bags", 10, "--dim", 8,
         "--bag-size-min", 1, "--bag-size-max", 3])
    return tmp_path / "data" / "manifest.csv"


def test_train_resolved_config(tiny_manifest, tmp_path):
    run(["train", "--manifest", tiny_manifest, "--out", tmp_path / "run"])
    assert (tmp_path / "run" / "resolved_config.txt").read_text() == TRAIN_RESOLVED.format(
        model="detectbert", extra=""
    )


def test_protocol_shuffled_resolved_config(tiny_manifest, tmp_path):
    # the baseline keeps ten default-recipe repetitions fast; every other setting is a default
    run(["protocol-shuffled", "--manifest", tiny_manifest, "--out", tmp_path / "shuf",
         "--model", "baseline-average"])
    assert (tmp_path / "shuf" / "resolved_config.txt").read_text() == TRAIN_RESOLVED.format(
        model="baseline-average", extra="repetitions=10\n"
    )
