"""Run a fixed list of detectbert commands and print a digest of every file they write.

Usage::

    PYTHONPATH=src python tools/output_digests.py OUT

``OUT`` must not exist.  The commands run in this process through
``detectbert.cli.main``, from ``gen-synth`` to a few ``predict`` scores at
d = 256, and write under ``OUT``.  Each command's stdout is kept as
``OUT/stdout/NN-<command>.txt``.  The script prints one ``sha256  path``
line per file, with paths relative to ``OUT``; in stdout and in
``resolved_config.txt`` the output directory is replaced by ``<OUT>``
before hashing, so runs in two directories can be compared with ``diff``.
Two checkouts that produce the same lines wrote the same bytes: scores,
metrics, histories, splits and checkpoints.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

from detectbert import cli
from detectbert.model import Bag, ModelConfig, init_params, predict

PLACEHOLDER = "<OUT>"

# Each command's arguments; {out} is the output directory.
COMMANDS = [
    ["gen-synth", "--out", "{out}/data", "--bags", "60", "--dim", "16",
     "--bag-size-min", "2", "--bag-size-max", "80", "--seed", "3"],
    ["train", "--manifest", "{out}/data/manifest.csv", "--out", "{out}/train-small",
     "--epochs", "2", "--heads", "2", "--landmarks", "16", "--seed", "3"],
    ["train", "--manifest", "{out}/data/manifest.csv", "--out", "{out}/train-wide",
     "--epochs", "2", "--heads", "4", "--landmarks", "64", "--batch-size", "3",
     "--lookahead-k", "2", "--seed", "4"],
    ["evaluate", "--manifest", "{out}/data/manifest.csv",
     "--checkpoint", "{out}/train-small/checkpoint.dbck", "--out", "{out}/evaluate-small"],
    ["evaluate", "--manifest", "{out}/data/manifest.csv",
     "--checkpoint", "{out}/train-wide/checkpoint.dbck", "--out", "{out}/evaluate-wide",
     "--split-file", "{out}/train-wide/split.csv", "--subset", "test"],
    ["compare-baselines", "--manifest", "{out}/data/manifest.csv", "--out", "{out}/compare",
     "--epochs", "1", "--heads", "2", "--landmarks", "16", "--seed", "3"],
    ["protocol-shuffled", "--manifest", "{out}/data/manifest.csv", "--out", "{out}/shuffled",
     "--repetitions", "2", "--epochs", "1", "--heads", "2", "--landmarks", "16", "--seed", "3"],
    ["protocol-temporal", "--manifest", "{out}/data/manifest.csv", "--out", "{out}/temporal",
     "--epochs", "1", "--heads", "2", "--landmarks", "16", "--seed", "3"],
    ["gen-synth", "--out", "{out}/long", "--bags", "10", "--dim", "64",
     "--bag-size-min", "200", "--bag-size-max", "700", "--seed", "5"],
    ["train", "--manifest", "{out}/long/manifest.csv", "--out", "{out}/train-long",
     "--epochs", "1", "--heads", "4", "--landmarks", "16", "--pinv-iters", "24", "--seed", "5"],
    ["evaluate", "--manifest", "{out}/long/manifest.csv",
     "--checkpoint", "{out}/train-long/checkpoint.dbck", "--out", "{out}/evaluate-long"],
]

# (rows, seed) of the bags scored at d = 256 with the acceptance-9 model shape.
API_BAGS = [(40, 1), (300, 2), (1000, 3)]


def run_commands(out: Path):
    (out / "stdout").mkdir(parents=True)
    for i, template in enumerate(COMMANDS):
        argv = [a.format(out=out) for a in template]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"detectbert {' '.join(argv)} exited {code}")
        text = captured.getvalue().replace(str(out), PLACEHOLDER)
        (out / "stdout" / f"{i:02d}-{argv[0]}.txt").write_text(text)


def write_api_scores(out: Path):
    d = 256
    params = init_params(ModelConfig(d=d, heads=8, landmarks=64, pinv_iters=24), seed=9)
    lines = []
    for n, seed in API_BAGS:
        emb = np.random.default_rng(seed).standard_normal((n, d))
        score = predict(Bag(f"api-{n}", 1, dt.date(2019, 1, 1), emb), params)["score"]
        lines.append(f"{n},{score.hex()}")
    (out / "api_scores.txt").write_text("\n".join(lines) + "\n")


def digests(out: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "resolved_config.txt":
            data = data.replace(str(out).encode(), PLACEHOLDER.encode())
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {path.relative_to(out).as_posix()}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: output_digests.py OUT", file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    if out.exists():
        print(f"error: {out} exists", file=sys.stderr)
        return 1
    run_commands(out)
    write_api_scores(out)
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
