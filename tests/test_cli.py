"""End-to-end command-line tests (in-process, tiny datasets)."""

import argparse
import csv
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import detectbert
from detectbert.cli import TRAIN_DEFAULTS, _field_defaults, build_parser, main, resolve_settings
from detectbert.baselines import init_baseline
from detectbert.data import (
    BAG_MAGIC, BAG_VERSION, SynthConfig, load_bags, load_manifest, save_manifest,
)
from detectbert.model import ModelConfig, init_params, load_checkpoint, save_checkpoint
from detectbert.training import score_app, split_shuffled


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run(["gen-synth", "--out", out, "--bags", "40", "--dim", "8",
                "--bag-size-min", "2", "--bag-size-max", "6", "--seed", "11"]) == 0
    return out


FAST = ["--epochs", "1", "--heads", "2", "--landmarks", "4", "--seed", "5"]


def run_pinned(args, blas_threads: int) -> subprocess.CompletedProcess:
    """Run ``python *args`` on this checkout's package with BLAS pinned to ``blas_threads``."""
    src = str(Path(detectbert.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *map(str, args)], env=env, check=True,
                          capture_output=True, text=True, timeout=300)


# Prints whether evaluate's records, scored in two forked workers by the CLI's
# map, equal a plain loop of predict in this process bit for bit.
EVALUATE_VS_PREDICT = """
import os, sys
from detectbert import cli, data, model, training
os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any host
manifest = data.load_manifest(sys.argv[1])
bags = data.load_bags(manifest, range(len(manifest)))
params = model.load_checkpoint(sys.argv[2])
_, per_app = training.evaluate(params, bags, map=cli.fork_map)
loop = sorted((bag.app_id, model.predict(bag, params)["score"].hex()) for bag in bags)
print([(r["app_id"], r["score"].hex()) for r in per_app] == loop)
"""

# Runs the `train` command given in argv at two usable CPUs and prints whether
# the process imported the modules that start worker processes.
TRAIN_IMPORTS = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from detectbert import cli
assert cli.main(sys.argv[1:]) == 0
print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
"""


class TestReproducibility:
    def test_train_rerun_is_byte_identical_at_a_fixed_blas_thread_count(self, tmp_path):
        """The README's contract: the same flags, seed, numpy/BLAS build and BLAS
        thread count give the same bytes.  A wide product's last bits can
        change with the thread count, so both runs pin it."""
        data = tmp_path / "data"
        assert run(["gen-synth", "--out", data, "--bags", "30", "--dim", "128",
                    "--bag-size-min", "10", "--bag-size-max", "60", "--seed", "7"]) == 0
        outputs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            run_pinned(["-m", "detectbert", "train", "--manifest", data / "manifest.csv",
                        "--out", out, "--epochs", "1", "--heads", "8", "--landmarks", "16",
                        "--pinv-iters", "6", "--seed", "7"], blas_threads=2)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert "checkpoint.dbck" in outputs[0]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("blas_threads", [1, 2])
    def test_workers_score_the_bits_of_a_serial_predict(self, tmp_path, blas_threads):
        """Forked workers inherit the BLAS thread count, so their scores are the
        parent's bits.  At this shape (64 landmarks, 32-wide heads, 300-400
        instances) OpenBLAS 0.3.31 gives other last bits at one and at two threads."""
        data = tmp_path / "data"
        assert run(["gen-synth", "--out", data, "--bags", "6", "--dim", "128",
                    "--bag-size-min", "300", "--bag-size-max", "400", "--seed", "7"]) == 0
        config = ModelConfig(d=128, heads=4, landmarks=64, pinv_iters=24)
        save_checkpoint(init_params(config, seed=7), tmp_path / "model.dbck")
        done = run_pinned(["-c", EVALUATE_VS_PREDICT, data / "manifest.csv", tmp_path / "model.dbck"],
                          blas_threads)
        assert done.stdout == "True\n"


class TestProcesses:
    def test_train_imports_no_worker_pool(self, dataset, tmp_path):
        """A train command validates every epoch in its own process, so it never
        imports concurrent.futures or multiprocessing."""
        done = run_pinned(["-c", TRAIN_IMPORTS, "train", "--manifest", dataset / "manifest.csv",
                           "--out", tmp_path / "run", "--epochs", "2", "--heads", "2",
                           "--landmarks", "4", "--seed", "5"], blas_threads=1)
        assert done.stdout.splitlines()[-1] == "[]"


class TestGenSynth:
    def test_creates_bags_and_manifest(self, dataset):
        assert (dataset / "manifest.csv").exists()
        assert len(list((dataset / "bags").iterdir())) == 40
        assert (dataset / "resolved_config.txt").exists()

    def test_missing_out_dir_is_created(self, tmp_path):
        nested = tmp_path / "a" / "b" / "c"
        assert run(["gen-synth", "--out", nested, "--bags", "3", "--dim", "4",
                    "--bag-size-min", "1", "--bag-size-max", "2"]) == 0
        assert (nested / "manifest.csv").exists()

    def test_invalid_witness_rate_fails(self, tmp_path, capsys):
        code = run(["gen-synth", "--out", tmp_path / "x", "--bags", "3",
                    "--witness-rate", "0"])
        assert code == 1
        assert "witness_rate" in capsys.readouterr().err

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["gen-synth", "--out", out, "--bags", "6", "--dim", "4",
                 "--bag-size-min", "1", "--bag-size-max", "3", "--seed", "2"])
        assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
        for f in (a / "bags").iterdir():
            assert f.read_bytes() == (b / "bags" / f.name).read_bytes()


class TestDefaults:
    def test_training_defaults_match_published_recipe(self):
        args = build_parser().parse_args(
            ["train", "--manifest", "m.csv", "--out", "o"]
        )
        settings = resolve_settings(TRAIN_DEFAULTS, args)
        assert settings["epochs"] == 20
        assert settings["learning_rate"] == 1e-4
        assert settings["lookahead_k"] == 5
        assert settings["lookahead_alpha"] == 0.5
        assert settings["blocks"] == 2
        assert settings["batch_size"] == 1
        assert settings["threshold"] == 0.5

    def test_shuffled_protocol_defaults_to_ten_repetitions(self):
        from detectbert.cli import resolve_settings as rs

        args = build_parser().parse_args(
            ["protocol-shuffled", "--manifest", "m.csv", "--out", "o"]
        )
        settings = rs({**TRAIN_DEFAULTS, "repetitions": 10}, args)
        assert settings["repetitions"] == 10

    def test_config_file_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=7\nlearning_rate=0.01\n")
        args = build_parser().parse_args(
            ["train", "--manifest", "m.csv", "--out", "o",
             "--config", str(cfg), "--epochs", "3"]
        )
        settings = resolve_settings(TRAIN_DEFAULTS, args)
        assert settings["epochs"] == 3  # flag wins
        assert settings["learning_rate"] == 0.01  # file beats default

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_speed=9\n")
        args = build_parser().parse_args(
            ["train", "--manifest", "m.csv", "--out", "o", "--config", str(cfg)]
        )
        with pytest.raises(ValueError, match="warp_speed"):
            resolve_settings(TRAIN_DEFAULTS, args)


class TestTrainEvaluate:
    def test_train_writes_outputs(self, dataset, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--manifest", dataset / "manifest.csv", "--out", out] + FAST) == 0
        for name in ("checkpoint.dbck", "history.csv", "split.csv", "resolved_config.txt"):
            assert (out / name).exists(), name

    def test_baseline_average_flag(self, dataset, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--manifest", dataset / "manifest.csv", "--out", out,
                    "--model", "baseline-average"] + FAST) == 0
        params = load_checkpoint(out / "checkpoint.dbck")
        assert params.kind == "elementwise_average"

    def test_baseline_ignores_the_heads_setting(self, tmp_path):
        # d=4 is not divisible by the default heads=8, which only the head uses
        data, out = tmp_path / "data", tmp_path / "run"
        assert run(["gen-synth", "--out", data, "--bags", "20", "--dim", "4",
                    "--bag-size-min", "2", "--bag-size-max", "6", "--seed", "2"]) == 0
        assert run(["train", "--manifest", data / "manifest.csv", "--out", out,
                    "--model", "baseline-average", "--epochs", "1", "--seed", "5"]) == 0
        assert load_checkpoint(out / "checkpoint.dbck").kind == "elementwise_average"

    def test_same_flags_same_seed_identical_outputs(self, dataset, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run(["train", "--manifest", dataset / "manifest.csv", "--out", out] + FAST)
            outs.append(out)
        for f in ("checkpoint.dbck", "history.csv", "split.csv", "resolved_config.txt"):
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f

    def test_evaluate_writes_scores_and_metrics(self, dataset, tmp_path):
        run_dir = tmp_path / "run"
        run(["train", "--manifest", dataset / "manifest.csv", "--out", run_dir] + FAST)
        eval_dir = tmp_path / "eval"
        assert run(["evaluate", "--manifest", dataset / "manifest.csv",
                    "--checkpoint", run_dir / "checkpoint.dbck", "--out", eval_dir,
                    "--split-file", run_dir / "split.csv", "--subset", "test"]) == 0
        scores = (eval_dir / "scores.csv").read_text().splitlines()
        assert scores[0] == "app_id,score,label,prediction"
        assert len(scores) == 1 + 4  # 40 apps -> floor(40/10) test records
        metrics = (eval_dir / "metrics.txt").read_text()
        # two-decimal metric lines plus raw counts
        assert any(line.startswith("f1=") and len(line.split("=")[1].split(".")[1]) == 2
                   for line in metrics.splitlines())
        assert "tp=" in metrics

    def test_app_ids_with_commas_and_quotes_survive_train_and_evaluate(self, dataset, tmp_path):
        path = dataset / "manifest.csv"
        manifest = load_manifest(path)
        for i, rec in enumerate(manifest):
            rec.app_id = f'app,{i} "q"'
        save_manifest(manifest, path)
        run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
        assert run(["train", "--manifest", path, "--out", run_dir,
                    "--model", "baseline-average"] + FAST) == 0
        assert run(["evaluate", "--manifest", path, "--checkpoint", run_dir / "checkpoint.dbck",
                    "--out", eval_dir, "--split-file", run_dir / "split.csv"]) == 0

        def rows(name):
            with open(name, newline="", encoding="utf-8") as f:
                return list(csv.reader(f))[1:]

        split, scores = rows(run_dir / "split.csv"), rows(eval_dir / "scores.csv")
        assert [(int(i), app_id) for i, app_id, _ in split] == \
            [(int(i), manifest[int(i)].app_id) for i, _, _ in split]
        assert sorted(int(i) for i, _, _ in split) == list(range(len(manifest)))
        assert all(len(row) == 4 for row in scores)
        assert [row[0] for row in scores] == \
            sorted(app_id for _, app_id, role in split if role == "test")

    def test_missing_checkpoint_fails(self, dataset, tmp_path, capsys):
        code = run(["evaluate", "--manifest", dataset / "manifest.csv",
                    "--checkpoint", tmp_path / "nope.dbck", "--out", tmp_path / "e"])
        assert code == 1
        assert "error" in capsys.readouterr().err


    def test_without_validation_split_keeps_the_last_epoch(self, tmp_path, capsys):
        # under 10 apps, split_shuffled gives empty validation and test splits
        data = tmp_path / "data"
        assert run(["gen-synth", "--out", data, "--bags", "9", "--dim", "8",
                    "--bag-size-min", "2", "--bag-size-max", "6", "--seed", "11"]) == 0
        capsys.readouterr()
        checkpoints = []
        for epochs in ("1", "5"):
            out = tmp_path / f"run{epochs}"
            assert run(["train", "--manifest", data / "manifest.csv", "--out", out]
                       + FAST[2:] + ["--epochs", epochs, "--learning-rate", "0.01"]) == 0
            last = int(epochs) - 1
            assert f"best epoch {last} (no validation split)" in capsys.readouterr().out
            checkpoints.append((out / "checkpoint.dbck").read_bytes())
        assert checkpoints[0] != checkpoints[1]

def single_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def split_with_line(dataset, tmp_path, edit):
    """Train a baseline, then rewrite line 4 of its split file with ``edit``."""
    run_dir = tmp_path / "run"
    run(["train", "--manifest", dataset / "manifest.csv", "--out", run_dir,
         "--model", "baseline-average"] + FAST)
    split = run_dir / "split.csv"
    lines = split.read_text().splitlines()
    lines[3] = edit(lines[3])
    split.write_text("\n".join(lines) + "\n")
    return run_dir, split


class TestRejectedInputs:
    def test_zero_heads_is_an_error_not_a_traceback(self, dataset, tmp_path, capsys):
        code = run(["train", "--manifest", dataset / "manifest.csv", "--out", tmp_path / "r",
                    "--epochs", "1", "--heads", "0"])
        assert code == 1
        assert "heads must be >= 1" in single_error_line(capsys)

    def test_evaluate_threshold_outside_unit_interval(self, dataset, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run(["train", "--manifest", dataset / "manifest.csv", "--out", run_dir,
             "--model", "baseline-average"] + FAST)
        capsys.readouterr()
        for threshold in ("1.5", "0", "1"):
            code = run(["evaluate", "--manifest", dataset / "manifest.csv",
                        "--checkpoint", run_dir / "checkpoint.dbck",
                        "--out", tmp_path / "e", "--threshold", threshold])
            assert code == 1
            assert "threshold must be in (0, 1)" in single_error_line(capsys)
        assert not (tmp_path / "e" / "scores.csv").exists()

    def _train_with_hostile_bag(self, dataset, tmp_path, capsys, app_id):
        bag = dataset / "bags" / f"{app_id}.dbmb"
        bag.write_bytes(BAG_MAGIC + struct.pack("<III", BAG_VERSION, 2**31, 2**31 - 1))
        capsys.readouterr()
        code = run(["train", "--manifest", dataset / "manifest.csv", "--out", tmp_path / "r"]
                   + FAST)
        assert code == 1
        line = single_error_line(capsys)
        assert f"{bag}: expected" in line and "payload bytes" in line

    def test_bag_header_larger_than_file_is_one_error_line(self, dataset, tmp_path, capsys):
        # a bag that the split of `train --seed 5` trains on, so train is sure to read it
        manifest = load_manifest(dataset / "manifest.csv")
        app_id = manifest[split_shuffled(manifest, 5).train[-1]].app_id
        self._train_with_hostile_bag(dataset, tmp_path, capsys, app_id)

    def test_hostile_header_of_the_width_bag_is_one_error_line(self, dataset, tmp_path, capsys):
        # record 0's header gives the model its width
        self._train_with_hostile_bag(dataset, tmp_path, capsys, "synth-000000")

    def test_manifest_field_over_the_csv_limit_is_one_error_line(self, dataset, tmp_path, capsys):
        manifest = dataset / "manifest.csv"
        with open(manifest, "a") as f:
            f.write("x" * 200_000 + ",0,2019-01-01,bags/x.dbmb\n")
        ckpt = tmp_path / "baseline.dbck"
        save_checkpoint(init_baseline("elementwise_average", 8, 0), ckpt)
        code = run(["evaluate", "--manifest", manifest, "--checkpoint", ckpt,
                    "--out", tmp_path / "e"])
        assert code == 1
        assert f"{manifest}:42: field larger than field limit" in single_error_line(capsys)
        assert not (tmp_path / "e" / "scores.csv").exists()

    def test_bad_config_value_names_file_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate=0.01\nepochs=abc\n")
        code = run(["train", "--manifest", tmp_path / "m.csv", "--out", tmp_path / "r",
                    "--config", cfg])
        assert code == 1
        assert f"{cfg}:2: epochs='abc' is not a valid int" in single_error_line(capsys)

    def test_config_file_model_is_checked_as_the_flag_is(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=bogus\n")
        code = run(["train", "--manifest", dataset / "manifest.csv", "--out", tmp_path / "r",
                    "--config", cfg] + FAST)
        assert code == 1
        line = single_error_line(capsys)
        assert "'bogus'" in line and "baseline-average" in line and "detectbert" in line

    @pytest.mark.parametrize("count", ["0", "-2"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_no_repetitions_is_an_error(self, dataset, tmp_path, capsys, source, count):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"repetitions={count}\n")
        given = ["--repetitions", count] if source == "flag" else ["--config", cfg]
        code = run(["protocol-shuffled", "--manifest", dataset / "manifest.csv",
                    "--out", tmp_path / "p", "--model", "baseline-average"] + FAST + given)
        assert code == 1
        assert f"repetitions must be >= 1, got {count}" in single_error_line(capsys)
        assert not (tmp_path / "p" / "report.txt").exists()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate_is_an_error(self, dataset, tmp_path, capsys, rate):
        code = run(["train", "--manifest", dataset / "manifest.csv", "--out", tmp_path / "r",
                    "--learning-rate", rate] + FAST)
        assert code == 1
        assert "learning_rate must be finite and >= 0" in single_error_line(capsys)
        assert not (tmp_path / "r" / "history.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--manifest", "{data}/manifest.csv", "--learning-rate", "nan"],
             "learning_rate must be finite"),
            (["train", "--manifest", "{data}/manifest.csv", "--epochs", "0",
              "--model", "baseline-average"], "epochs must be >= 1"),
            (["train", "--manifest", "{data}/manifest.csv", "--epochs", "1", "--heads", "3"],
             "width 8 not divisible by heads=3"),
            (["train", "--manifest", "{data}/manifest.csv", "--blocks", "0"],
             "num_blocks must be >= 1"),
            (["train", "--manifest", "{data}/header-only.csv"], "manifest has no records"),
            (["train", "--manifest", "{data}/empty-id.csv"], "empty-id.csv:2: empty app_id"),
            (["train", "--manifest", "{data}/line-break-id.csv"],
             "app_id 'a\\rb' holds a line break"),
            (["gen-synth", "--witness-rate", "2"], "witness_rate must be in (0, 1]"),
            (["gen-synth", "--bags", "0"], "num_bags must be >= 1"),
            (["gen-synth", "--dim", "0"], "d must be >= 1"),
            (["gen-synth", "--bag-size-min", "5", "--bag-size-max", "3"],
             "need 1 <= bag_size_min <= bag_size_max"),
            (["gen-synth", "--correlation-strength", "1.5"],
             "correlation_strength must be in [0, 1]"),
            (["gen-synth", "--positive-fraction", "1.0"], "positive_fraction must be in (0, 1)"),
            (["evaluate", "--manifest", "{data}/missing.csv", "--checkpoint", "{data}/none.dbck"],
             "missing.csv"),
        ],
        ids=["learning-rate", "epochs", "heads", "blocks", "header-only-manifest",
             "empty-app-id", "line-break-app-id", "witness-rate", "bags", "dim", "bag-sizes",
             "correlation-strength", "positive-fraction", "missing-manifest"],
    )
    def test_refused_run_leaves_no_out_directory(self, dataset, tmp_path, capsys, argv, message):
        header = "app_id,label,date,path\n"
        (dataset / "header-only.csv").write_text(header)
        (dataset / "empty-id.csv").write_text(header + ",0,2019-01-01,bags/synth-000000.dbmb\n")
        (dataset / "line-break-id.csv").write_text(
            header + '"a\rb",0,2019-01-01,bags/synth-000000.dbmb\n', newline=""
        )
        out = tmp_path / "X"
        code = run([a.format(data=dataset) for a in argv] + ["--out", out])
        assert code == 1
        assert message in single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["protocol-shuffled", "compare-baselines", "evaluate"])
    def test_empty_scoring_split_is_refused_before_out_exists(self, tmp_path, capsys, command):
        """On fewer than 10 apps the shuffled test split is empty: the command is
        refused before it trains a model or makes ``--out``."""
        data, trained = tmp_path / "six", tmp_path / "trained"
        assert run(["gen-synth", "--out", data, "--bags", "6", "--dim", "8",
                    "--bag-size-min", "2", "--bag-size-max", "6", "--seed", "11"]) == 0
        manifest = data / "manifest.csv"
        if command == "evaluate":  # a split file that lists no test rows
            assert run(["train", "--manifest", manifest, "--out", trained] + FAST) == 0
            argv = ["evaluate", "--checkpoint", trained / "checkpoint.dbck",
                    "--split-file", trained / "split.csv", "--subset", "test"]
        else:
            argv = [command, "--repetitions", "2"] + FAST if command == "protocol-shuffled" \
                else [command] + FAST
        capsys.readouterr()
        out = tmp_path / "X"
        code = run(argv + ["--manifest", manifest, "--out", out])
        assert code == 1
        assert "evaluation split is empty" in single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("train", b"epochs=1\nlearning_rate=0.\xff1\n", "{cfg}:2: not UTF-8 text"),
            ("train", b"epochs=1\n\nheads 2\n", "{cfg}:3: expected key=value"),
            # a form feed does not end a line, as it does for str.splitlines
            ("train", b"# x\nepochs=1\x0cheads=two\n", "{cfg}:2: epochs='1\\x0cheads=two'"),
            ("train", b"bogus=3\n", "{cfg}:1: unknown config key 'bogus'"),
            ("train", b"heads=two\n", "{cfg}:1: heads='two' is not a valid int"),
            ("train", b"learning_rate=inf\n", "learning_rate must be finite"),
            ("gen-synth", b"signal_shift=nan\n", "signal_shift must be finite"),
        ],
        ids=["bad-bytes", "no-equals", "form-feed", "unknown-key", "bad-value", "inf-rate",
             "nan-shift"],
    )
    def test_hostile_config_file_is_one_error_line(
        self, dataset, tmp_path, capsys, command, text, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text)
        out = tmp_path / "X"
        given = ["--manifest", dataset / "manifest.csv"] + FAST if command == "train" else []
        code = run([command, "--out", out, "--config", cfg] + given)
        assert code == 1
        assert message.format(cfg=cfg) in single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("shift", ["nan", "inf"])
    def test_non_finite_signal_shift_is_refused_before_out_exists(self, tmp_path, capsys, shift):
        out = tmp_path / "X"
        code = run(["gen-synth", "--out", out, "--bags", "2", "--signal-shift", shift])
        assert code == 1
        assert "signal_shift must be finite" in single_error_line(capsys)
        assert not out.exists()

    def test_unknown_split_role_names_file_and_line(self, dataset, tmp_path, capsys):
        run_dir, split = split_with_line(
            dataset, tmp_path, lambda line: line.rsplit(",", 1)[0] + ",testing"
        )
        capsys.readouterr()
        code = run(["evaluate", "--manifest", dataset / "manifest.csv",
                    "--checkpoint", run_dir / "checkpoint.dbck", "--out", tmp_path / "e",
                    "--split-file", split])
        assert code == 1
        line = single_error_line(capsys)
        assert f"{split}:4:" in line and "'testing'" in line


class TestSplitFileChecks:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda line: "99," + line.split(",", 1)[1], "index 99 is outside the manifest's"),
            (lambda line: "-1," + line.split(",", 1)[1], "index -1 is outside the manifest's"),
            (lambda line: "x," + line.split(",", 1)[1], "index 'x' is not an integer"),
            (lambda line: line.split(",", 1)[1], "expected 3 fields"),
            (lambda line: line + ",extra", "expected 3 fields"),
            (lambda line: line.replace(",", ",other-", 1), "differs from the manifest's"),
        ],
        ids=["index-too-large", "index-negative", "index-not-integer", "two-fields",
             "four-fields", "app-id-mismatch"],
    )
    def test_bad_line_names_file_and_line(self, dataset, tmp_path, capsys, edit, message):
        run_dir, split = split_with_line(dataset, tmp_path, edit)
        capsys.readouterr()
        code = run(["evaluate", "--manifest", dataset / "manifest.csv",
                    "--checkpoint", run_dir / "checkpoint.dbck", "--out", tmp_path / "e",
                    "--split-file", split])
        assert code == 1
        line = single_error_line(capsys)
        assert f"{split}:4:" in line and message in line
        assert not (tmp_path / "e" / "scores.csv").exists()

    def test_split_file_without_header_names_line_one(self, dataset, tmp_path, capsys):
        run_dir, split = split_with_line(dataset, tmp_path, lambda line: line)
        split.write_text("0,synth-000000,test\n1,synth-000001,test\n")
        capsys.readouterr()
        code = run(["evaluate", "--manifest", dataset / "manifest.csv",
                    "--checkpoint", run_dir / "checkpoint.dbck", "--out", tmp_path / "e",
                    "--split-file", split])
        assert code == 1
        line = single_error_line(capsys)
        assert f"{split}:1: header must be 'index,app_id,role'" in line
        assert not (tmp_path / "e" / "scores.csv").exists()

    @pytest.mark.parametrize(
        "role_of", [lambda role: role, lambda role: "test"], ids=["same-role", "other-role"]
    )
    def test_index_listed_twice_names_both_lines(self, dataset, tmp_path, capsys, role_of):
        run_dir, split = split_with_line(dataset, tmp_path, lambda line: line)
        idx, app_id, role = split.read_text().splitlines()[3].split(",")
        with open(split, "a") as f:
            f.write(f"{idx},{app_id},{role_of(role)}\n")
        capsys.readouterr()
        code = run(["evaluate", "--manifest", dataset / "manifest.csv",
                    "--checkpoint", run_dir / "checkpoint.dbck", "--out", tmp_path / "e",
                    "--split-file", split])
        assert code == 1
        line = single_error_line(capsys)
        assert f"{split}:42: index {idx} is already listed on line 4" in line
        assert not (tmp_path / "e" / "scores.csv").exists()

    def test_blank_lines_and_padded_cells_are_read_as_in_a_manifest(self, dataset, tmp_path):
        run_dir, split = split_with_line(dataset, tmp_path, lambda line: line)
        argv = ["evaluate", "--manifest", dataset / "manifest.csv",
                "--checkpoint", run_dir / "checkpoint.dbck", "--split-file", split]
        assert run(argv + ["--out", tmp_path / "plain"]) == 0
        lines = split.read_text().splitlines()
        split.write_text("\n\n".join(" , ".join(line.split(",")) for line in lines) + "\n")
        assert run(argv + ["--out", tmp_path / "padded"]) == 0
        for name in ("scores.csv", "metrics.txt"):
            padded, plain = (tmp_path / out / name for out in ("padded", "plain"))
            assert padded.read_bytes() == plain.read_bytes(), name


class TestCheckpointErrors:
    @pytest.mark.parametrize("corrupt", ["missing-key", "non-finite"])
    def test_bad_checkpoint_is_one_error_line(self, dataset, tmp_path, capsys, corrupt):
        run_dir = tmp_path / "run"
        run(["train", "--manifest", dataset / "manifest.csv", "--out", run_dir] + FAST)
        ckpt = run_dir / "checkpoint.dbck"
        raw = ckpt.read_bytes()
        if corrupt == "missing-key":
            meta_len = int.from_bytes(raw[8:12], "little")
            meta = raw[12:12 + meta_len].replace(b"heads=2\n", b"")
            raw = raw[:8] + len(meta).to_bytes(4, "little") + meta + raw[12 + meta_len:]
        else:
            raw = raw[:-8] + np.array([np.nan], dtype="<f8").tobytes()
        ckpt.write_bytes(raw)
        capsys.readouterr()
        code = run(["evaluate", "--manifest", dataset / "manifest.csv",
                    "--checkpoint", ckpt, "--out", tmp_path / "e"])
        assert code == 1
        line = single_error_line(capsys)
        assert ("'heads'" if corrupt == "missing-key" else "non-finite") in line
        assert not (tmp_path / "e" / "scores.csv").exists()


def _split_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


class TestMalformedBagFile:
    """Bags are read when a command first uses them, so a bad file fails mid-run."""

    @pytest.fixture()
    def truncated(self, dataset, tmp_path):
        """A trained baseline's run directory and one of its training bags, cut short."""
        run_dir = tmp_path / "run"
        run(["train", "--manifest", dataset / "manifest.csv", "--out", run_dir,
             "--model", "baseline-average"] + FAST)
        # not index 0, which `train` reads up front for the embedding width
        app_id = next(
            app_id for idx, app_id, role in _split_rows(run_dir / "split.csv")
            if role == "train" and idx != "0"
        )
        bag = dataset / "bags" / f"{app_id}.dbmb"
        bag.write_bytes(bag.read_bytes()[:-4])
        return run_dir, bag

    def test_train_is_one_error_line_and_no_checkpoint(self, dataset, truncated, tmp_path,
                                                       capsys):
        _, bag = truncated
        capsys.readouterr()
        out = tmp_path / "r"
        code = run(["train", "--manifest", dataset / "manifest.csv", "--out", out] + FAST)
        assert code == 1
        line = single_error_line(capsys)
        assert f"{bag}: expected" in line and "payload bytes" in line
        assert not (out / "checkpoint.dbck").exists()

    def test_evaluate_names_the_first_of_two_bad_bags(self, dataset, tmp_path, capsys,
                                                      usable_cpus):
        """The same error line as a serial loop, whichever worker reads which bag first."""
        save_checkpoint(init_baseline("elementwise_average", 8, seed=0), tmp_path / "model.dbck")
        manifest = load_manifest(dataset / "manifest.csv")
        for i in (30, 11):
            bag = Path(manifest[i].path)
            bag.write_bytes(bag.read_bytes()[:-4])
        lines = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            assert run(["evaluate", "--manifest", dataset / "manifest.csv",
                        "--checkpoint", tmp_path / "model.dbck", "--out", tmp_path / "e"]) == 1
            lines.append(single_error_line(capsys))
        assert lines[0] == lines[1]
        assert f"{manifest[11].path}: expected" in lines[0]

    def test_evaluate_is_one_error_line_and_no_scores(self, dataset, truncated, tmp_path,
                                                      capsys):
        run_dir, bag = truncated
        capsys.readouterr()
        out = tmp_path / "e"
        code = run(["evaluate", "--manifest", dataset / "manifest.csv",
                    "--checkpoint", run_dir / "checkpoint.dbck", "--out", out])
        assert code == 1
        line = single_error_line(capsys)
        assert f"{bag}: expected" in line and "payload bytes" in line
        assert not (out / "scores.csv").exists()


class TestMemory:
    """Peak memory is set by the largest bag and the model, not by the number of bags."""

    CORPUS = ["--dim", "16", "--bag-size-min", "60", "--bag-size-max", "120", "--seed", "3"]
    MODEL = ModelConfig(d=16, heads=2, landmarks=8, pinv_iters=6)
    # Bytes.  150 more bags of this shape hold about 1.7 MB of embeddings; their
    # manifest records, split entries and score rows take about 1 KB each.
    MARGIN = 500_000

    @pytest.fixture(scope="class")
    def corpora(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("corpora")
        for bags in (50, 200):
            assert run(["gen-synth", "--out", root / str(bags), "--bags", bags] + self.CORPUS) == 0
        save_checkpoint(init_params(self.MODEL, seed=3), root / "model.dbck")
        return root

    @staticmethod
    def traced_peak(argv) -> int:
        tracemalloc.start()
        try:
            assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_peak_does_not_grow_with_the_corpus(self, corpora, tmp_path, command):
        m = self.MODEL

        def argv(bags, out):
            manifest = ["--manifest", corpora / str(bags) / "manifest.csv", "--out", tmp_path / out]
            if command == "evaluate":
                return ["evaluate", *manifest, "--checkpoint", corpora / "model.dbck"]
            return ["train", *manifest, "--epochs", 1, "--heads", m.heads,
                    "--landmarks", m.landmarks, "--pinv-iters", m.pinv_iters, "--seed", 3]

        run(argv(50, "warm-up"))  # one-time allocations (caches, lazy imports) happen here
        small = self.traced_peak(argv(50, "small"))
        large = self.traced_peak(argv(200, "large"))
        assert large < small + self.MARGIN, f"traced peak {small} B at 50 bags, {large} B at 200"

    def test_worker_scoring_does_not_grow_with_the_corpus(self, corpora):
        """The evaluate command scores in forked workers, which the test above does
        not trace; this runs a worker's scoring, every index through score_app,
        in-process."""
        params = load_checkpoint(corpora / "model.dbck")

        def traced_peak(bags) -> int:
            manifest = load_manifest(corpora / str(bags) / "manifest.csv")
            files = load_bags(manifest, range(len(manifest)))
            tracemalloc.start()
            try:
                for i in range(len(files)):
                    score_app(params, files, 0.5, i)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        traced_peak(50)  # warm-up
        small, large = traced_peak(50), traced_peak(200)
        assert large < small + self.MARGIN, f"traced peak {small} B at 50 bags, {large} B at 200"


def flag_table(parser) -> dict:
    """{subcommand: {(option, dest, type name, default)}} for every flag of every subcommand."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {
            (a.option_strings[0], a.dest, getattr(a.type, "__name__", None), a.default)
            for a in sub._actions
            if a.option_strings and a.dest != "help"
        }
        for name, sub in subparsers.choices.items()
    }


# Every flag as it was declared when each was written out by hand.
TRAIN_FLAGS = {
    ("--config", "config", None, None),
    ("--seed", "seed", "int", None),
    ("--manifest", "manifest", None, None),
    ("--out", "out", None, None),
    ("--model", "model", None, None),
    ("--repetition", "repetition", "int", None),
    ("--epochs", "epochs", "int", None),
    ("--learning-rate", "learning_rate", "float", None),
    ("--lookahead-k", "lookahead_k", "int", None),
    ("--lookahead-alpha", "lookahead_alpha", "float", None),
    ("--batch-size", "batch_size", "int", None),
    ("--threshold", "threshold", "float", None),
    ("--blocks", "blocks", "int", None),
    ("--heads", "heads", "int", None),
    ("--landmarks", "landmarks", "int", None),
    ("--pinv-iters", "pinv_iters", "int", None),
}
FLAGS = {
    "gen-synth": {
        ("--config", "config", None, None),
        ("--seed", "seed", "int", None),
        ("--out", "out", None, None),
        ("--bags", "bags", "int", None),
        ("--dim", "dim", "int", None),
        ("--bag-size-min", "bag_size_min", "int", None),
        ("--bag-size-max", "bag_size_max", "int", None),
        ("--witness-rate", "witness_rate", "float", None),
        ("--signal-shift", "signal_shift", "float", None),
        ("--correlation-strength", "correlation_strength", "float", None),
        ("--positive-fraction", "positive_fraction", "float", None),
    },
    "train": TRAIN_FLAGS,
    "evaluate": {
        ("--manifest", "manifest", None, None),
        ("--checkpoint", "checkpoint", None, None),
        ("--out", "out", None, None),
        ("--split-file", "split_file", None, None),
        ("--subset", "subset", None, "test"),
        ("--threshold", "threshold", "float", None),
    },
    "protocol-shuffled": TRAIN_FLAGS | {("--repetitions", "repetitions", "int", None)},
    "protocol-temporal": TRAIN_FLAGS,
    "compare-baselines": TRAIN_FLAGS,
    "verify": {
        ("--gradcheck", "gradcheck", None, False),
        ("--attn", "attn", None, False),
        ("--entropy", "entropy", None, False),
        ("--m", "m", "int", None),
        ("--seed", "seed", "int", 0),
    },
}
HAND_WRITTEN = {"config", "seed", "manifest", "out", "model", "repetition", "repetitions",
                "checkpoint", "split_file", "subset"}
# A valid non-default value for every flag generated from a config field.
NON_DEFAULT = {
    "gen-synth": {"bags": 7, "dim": 8, "bag_size_min": 2, "bag_size_max": 4,
                  "witness_rate": 0.5, "signal_shift": 3.5, "correlation_strength": 0.75,
                  "positive_fraction": 0.25},
    "train": {"epochs": 2, "learning_rate": 0.003, "lookahead_k": 2, "lookahead_alpha": 0.25,
              "batch_size": 3, "threshold": 0.375, "blocks": 1, "heads": 4, "landmarks": 3,
              "pinv_iters": 5},
    "evaluate": {"threshold": 0.625},
}


class TestGeneratedFlags:
    def test_flags_unchanged(self):
        assert flag_table(build_parser()) == FLAGS

    def test_non_default_values_reach_resolved_config(self, tmp_path):
        table = flag_table(build_parser())
        defaults = {**_field_defaults(SynthConfig), **TRAIN_DEFAULTS}
        data, run_dir, eval_dir = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
        outs = {"gen-synth": data, "train": run_dir, "evaluate": eval_dir}
        argv = {
            "gen-synth": ["gen-synth", "--out", data],
            "train": ["train", "--manifest", data / "manifest.csv", "--out", run_dir],
            "evaluate": ["evaluate", "--manifest", data / "manifest.csv",
                         "--checkpoint", run_dir / "checkpoint.dbck", "--out", eval_dir],
        }
        for command, values in NON_DEFAULT.items():
            generated = {dest for _, dest, _, _ in table[command]} - HAND_WRITTEN
            assert set(values) == generated, command
            flags = []
            for dest, value in values.items():
                assert value != defaults[dest], dest
                flags += ["--" + dest.replace("_", "-"), value]
            assert run(argv[command] + flags) == 0
            resolved = (outs[command] / "resolved_config.txt").read_text().splitlines()
            for dest, value in values.items():
                assert f"{dest}={value}" in resolved, (command, dest)


class TestProtocols:
    def test_shuffled_reports_means(self, dataset, tmp_path, capsys):
        out = tmp_path / "shuf"
        assert run(["protocol-shuffled", "--manifest", dataset / "manifest.csv",
                    "--out", out, "--repetitions", "2",
                    "--model", "baseline-average"] + FAST) == 0
        report = (out / "report.txt").read_text()
        assert "[repetition 0]" in report and "[repetition 1]" in report
        assert "[mean over repetitions]" in report
        assert (out / "rep0_scores.csv").exists()
        assert (out / "rep1_scores.csv").exists()

    def test_temporal_reports_proportions(self, dataset, tmp_path):
        out = tmp_path / "temp"
        assert run(["protocol-temporal", "--manifest", dataset / "manifest.csv",
                    "--out", out, "--model", "baseline-average"] + FAST) == 0
        report = (out / "report.txt").read_text()
        assert "train_fraction=0.50" in report
        assert "test_fraction=0.50" in report

    def test_temporal_refuses_single_year_manifest(self, tmp_path, capsys):
        data = tmp_path / "data"
        run(["gen-synth", "--out", data, "--bags", "9", "--dim", "4",
             "--bag-size-min", "1", "--bag-size-max", "2", "--seed", "3"])
        manifest = data / "manifest.csv"
        lines = manifest.read_text().splitlines()
        fixed = [lines[0]] + [
            ",".join(
                c if i != 2 else c.replace("2020-", "2019-")
                for i, c in enumerate(line.split(","))
            )
            for line in lines[1:]
        ]
        manifest.write_text("\n".join(fixed) + "\n")
        code = run(["protocol-temporal", "--manifest", manifest,
                    "--out", tmp_path / "t", "--model", "baseline-average"] + FAST)
        assert code == 1
        assert "2020" in capsys.readouterr().err


class TestCompareBaselines:
    def test_comparison_table(self, dataset, tmp_path):
        out = tmp_path / "cmp"
        assert run(["compare-baselines", "--manifest", dataset / "manifest.csv",
                    "--out", out] + FAST) == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        assert rows[0] == "model,accuracy,precision,recall,f1"
        models = [r.split(",")[0] for r in rows[1:]]
        assert models == ["baseline-random", "baseline-addition",
                          "baseline-average", "detectbert"]


class TestVerify:
    def test_entropy_suite_passes(self, capsys):
        assert run(["verify", "--entropy"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_attention_suite_with_custom_landmarks(self, capsys):
        assert run(["verify", "--attn", "--m", "8", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "m=8" in out

    def test_default_landmarks_are_the_suite_defaults(self, capsys):
        assert run(["verify", "--attn"]) == 0
        out = capsys.readouterr().out
        assert "[gradcheck]" not in out and "[entropy]" not in out
        assert all(f"m={m}" in out for m in (8, 32, 64, 128))
