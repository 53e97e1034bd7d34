"""Hostile bytes in a manifest, a split file, a config file, a bag file or a
checkpoint raise the reader's documented error.

Each example takes a valid file and cuts it, overwrites some of its bytes
or inserts new ones.  The reader must then either accept the result or
raise its own error type: ``ManifestError`` for a manifest, ``ValueError``
for a split file or a config file, ``BagFormatError`` for a bag file and
``CheckpointError`` for a checkpoint (``cli.main`` turns each into one
``error:`` line).  Nothing else may escape, ``csv.Error`` and
``UnicodeDecodeError`` included, and a bag or checkpoint read allocates
less than twice the file's size plus 64 KB, whatever its header declares.
"""

import argparse

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from detectbert.baselines import init_baseline
from detectbert.cli import TRAIN_DEFAULTS, _read_split, _write_split, resolve_settings
from detectbert.data import (
    BagFormatError, ManifestError, SynthConfig, gen_synthetic, load_manifest, read_bag
)
from detectbert.model import (
    CheckpointError, ModelConfig, init_params, load_checkpoint, save_checkpoint
)
from detectbert.training import split_shuffled

# Bytes that mean something to a CSV reader or a UTF-8 decoder.
SPECIAL = [b",", b"\n", b"\r", b'"', b" ", b"\x00", b"\xff", b"\xc3", b"-", b"9", b"1"]

EDIT = st.tuples(
    st.sampled_from(["cut", "overwrite", "insert"]),
    st.integers(min_value=0),
    st.one_of(
        st.binary(min_size=1, max_size=8),
        st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=4).map(b"".join),
    ),
)


def mutate(raw: bytes, edits) -> bytes:
    for kind, at, data in edits:
        at %= len(raw) + 1
        if kind == "cut":
            raw = raw[:at]
        elif kind == "overwrite":
            raw = raw[:at] + data + raw[at + len(data):]
        else:
            raw = raw[:at] + data + raw[at:]
    return raw


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A valid manifest, its records and a valid split file of them."""
    root = tmp_path_factory.mktemp("corpus")
    config = SynthConfig(num_bags=12, d=2, bag_size_min=1, bag_size_max=2, seed=4)
    manifest = gen_synthetic(config, root)
    _write_split(split_shuffled(manifest, seed=1), manifest, root / "split.csv")
    save_checkpoint(init_params(ModelConfig(d=4, num_blocks=1, heads=2), 0), root / "head.dbck")
    save_checkpoint(init_baseline("random_selection", 4, 0), root / "baseline.dbck")
    (root / "run.cfg").write_text(
        "# a training run\nmodel=detectbert\nlearning_rate=0.001\nepochs=3\n\nheads=2\n"
    )
    return root, manifest


def read_within_bound(read, path, error, allocates_under):
    """``read(path)``, or the ``error`` it raised; the read must allocate less
    than twice the file's size plus 64 KB either way."""
    with allocates_under(2 * path.stat().st_size + (64 << 10)):
        try:
            return read(path)
        except error as exc:
            return exc


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(EDIT, min_size=1, max_size=3))
def test_manifest_reader_raises_only_manifest_error(corpus, edits):
    root, _ = corpus
    path = root / "mutated.csv"
    path.write_bytes(mutate((root / "manifest.csv").read_bytes(), edits))
    try:
        records = load_manifest(path)
    except ManifestError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    assert len({rec.app_id for rec in records}) == len(records)
    assert {rec.label for rec in records} <= {0, 1}


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(EDIT, min_size=1, max_size=3))
def test_split_reader_raises_only_value_error(corpus, edits):
    root, manifest = corpus
    path = root / "mutated-split.csv"
    path.write_bytes(mutate((root / "split.csv").read_bytes(), edits))
    try:
        plan = _read_split(path, manifest)
    except ValueError as exc:
        assert type(exc) is ValueError and str(exc).startswith(f"{path}:")
        return
    listed = plan.train + plan.validation + plan.test
    assert len(set(listed)) == len(listed)
    assert all(0 <= i < len(manifest) for i in listed)


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(EDIT, min_size=1, max_size=3))
def test_config_reader_raises_only_value_error(corpus, edits):
    root, _ = corpus
    path = root / "mutated.cfg"
    path.write_bytes(mutate((root / "run.cfg").read_bytes(), edits))
    try:
        settings = resolve_settings(TRAIN_DEFAULTS, argparse.Namespace(config=path))
    except ValueError as exc:
        assert type(exc) is ValueError and str(exc).startswith(f"{path}:")
        return
    assert settings.keys() == TRAIN_DEFAULTS.keys()
    assert all(type(settings[k]) is type(v) for k, v in TRAIN_DEFAULTS.items())


# ``allocates_under`` only builds a context manager, so sharing it across examples is safe
WITH_ALLOCATION_FIXTURE = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@WITH_ALLOCATION_FIXTURE
@given(edits=st.lists(EDIT, min_size=1, max_size=3))
def test_bag_reader_raises_only_bag_format_error(corpus, allocates_under, edits):
    root, manifest = corpus
    path = root / "mutated.dbmb"
    path.write_bytes(mutate(manifest[1].path.read_bytes(), edits))
    got = read_within_bound(read_bag, path, BagFormatError, allocates_under)
    if isinstance(got, BagFormatError):
        assert str(got).startswith(f"{path}: ")
    else:
        assert np.isfinite(got.embeddings).all()


@WITH_ALLOCATION_FIXTURE
@given(source=st.sampled_from(["head.dbck", "baseline.dbck"]),
       edits=st.lists(EDIT, min_size=1, max_size=3))
def test_checkpoint_reader_raises_only_checkpoint_error(corpus, allocates_under, source, edits):
    root, _ = corpus
    path = root / "mutated.dbck"
    path.write_bytes(mutate((root / source).read_bytes(), edits))
    got = read_within_bound(load_checkpoint, path, CheckpointError, allocates_under)
    if not isinstance(got, CheckpointError):
        assert all(np.isfinite(t.value).all() for _, t in got.named_parameters())
