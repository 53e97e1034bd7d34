"""Command-line entry point.

Subcommands: gen-synth, train, evaluate, protocol-shuffled,
protocol-temporal, compare-baselines, verify.  Settings resolve in three
layers: subcommand defaults, then an optional key=value config file, then
explicit flags.  Every run writes its fully resolved configuration next
to its outputs, and machine-readable outputs carry no timestamps, so a
rerun with identical flags and seed reproduces them byte for byte.
Commands read each bag from its file when they use it, so memory is set by
the largest bag and the model, not by the number of bags.
"""

from __future__ import annotations

import argparse
import io
import sys
from dataclasses import fields
from pathlib import Path

from .data import (
    SynthConfig, bag_width, dataset_stats, gen_synthetic, load_bags, load_manifest, read_rows,
    read_text,
)
from .baselines import init_baseline
from .model import KIND, ModelConfig, init_params, load_checkpoint, save_checkpoint
from .training import (
    RATES,
    SplitPlan,
    TrainConfig,
    evaluate,
    format_metrics_block,
    format_per_app,
    mean_metric_values,
    split_shuffled,
    split_temporal,
    train,
)
from .verify import run_attention_suite, run_entropy_suite, run_gradcheck_suite


def _baseline(kind):
    return lambda settings, d: init_baseline(kind, d, settings["seed"])


def _head(settings, d):
    return init_params(_from_settings(ModelConfig, settings, d=d), settings["seed"])


# --model flag -> fresh parameters from (settings, embedding width), in compare-baselines order
MODELS = {
    "baseline-random": _baseline("random_selection"),
    "baseline-addition": _baseline("elementwise_addition"),
    "baseline-average": _baseline("elementwise_average"),
    KIND: _head,
}
# The roles of a split, in split-file order, and the split file's header.
ROLES = ("train", "validation", "test")
SPLIT_HEADER = ("index", "app_id", "role")

# Setting names (flags, config-file keys) that differ from their dataclass field.
SETTING_NAMES = {"num_bags": "bags", "d": "dim", "num_blocks": "blocks"}
# The ModelConfig fields a training command exposes; d comes from the data.
MODEL_SETTINGS = ("num_blocks", "heads", "landmarks", "pinv_iters")


def _setting(f) -> str:
    return SETTING_NAMES.get(f.name, f.name)


def _field_defaults(cls, names=None) -> dict:
    return {_setting(f): f.default for f in fields(cls) if names is None or f.name in names}


def _add_setting_flags(parser, cls, names=None):
    """One ``--flag`` per ``cls`` field (or per field in ``names``), typed by its default.

    ``--seed`` is declared by hand, so the seed field gets no flag here.
    """
    for f in fields(cls):
        if f.name != "seed" and (names is None or f.name in names):
            flag = "--" + _setting(f).replace("_", "-")
            parser.add_argument(flag, dest=_setting(f), type=type(f.default), default=None)


def _from_settings(cls, settings: dict, **fixed):
    """Build ``cls`` from every field that has a setting, plus ``fixed`` values."""
    kwargs = {f.name: settings[_setting(f)] for f in fields(cls) if _setting(f) in settings}
    return cls(**{**kwargs, **fixed})


TRAIN_DEFAULTS = {
    "model": KIND,
    "repetition": 0,
    **_field_defaults(TrainConfig),
    **_field_defaults(ModelConfig, MODEL_SETTINGS),
}


def _parse_config_file(path):
    """Yield (line number, key, value) for each ``key=value`` line of a UTF-8 config file.

    Lines end at ``\n``, ``\r\n`` or ``\r``, as a CSV reader's do (``str.splitlines``
    would also end one at a form feed).  Any failure raises ``ValueError``
    naming ``path:line``.
    """
    lines = io.StringIO(read_text(path, ValueError), newline=None)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        yield lineno, key.strip(), value.strip()


def resolve_settings(defaults: dict, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicitly passed flags."""
    resolved = dict(defaults)
    given = {k: v for k, v in vars(args).items() if k in defaults and v is not None}
    config_path = getattr(args, "config", None)
    if config_path:
        for lineno, key, raw in _parse_config_file(config_path):
            if key not in defaults:
                raise ValueError(f"{config_path}:{lineno}: unknown config key {key!r}")
            kind = type(defaults[key])
            try:
                resolved[key] = kind(raw)
            except ValueError:
                raise ValueError(
                    f"{config_path}:{lineno}: {key}={raw!r} is not a valid {kind.__name__}"
                ) from None
    resolved.update(given)
    return resolved


def _train_settings(args, **defaults) -> dict:
    """The training settings (see :func:`resolve_settings`), with a config file's model checked."""
    settings = resolve_settings({**TRAIN_DEFAULTS, **defaults}, args)
    if settings["model"] not in MODELS:
        raise ValueError(f"model {settings['model']!r} is not one of {', '.join(sorted(MODELS))}")
    return settings


def write_resolved_config(settings: dict, out_dir: Path):
    lines = [f"{k}={settings[k]}" for k in sorted(settings)]
    (out_dir / "resolved_config.txt").write_text("\n".join(lines) + "\n")


def _require_scored(indices):
    """Refuse a command whose scoring split is empty, before it trains or writes anything."""
    if not indices:
        raise ValueError("evaluation split is empty")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _training_run(args, every_model: bool = False, **defaults):
    """A training command's settings, manifest and trainer, all checked before it writes anything.

    ``TrainConfig`` is built here, and so is the head's ``ModelConfig``, at
    the width of the manifest's first bag, when the run trains the head
    (its ``--model``, or ``every_model``).  ``fit(plan, model)`` trains
    ``model``, a ``--model`` flag, on the plan's train split and returns the
    TrainResult.  The split's bags stay in their files until training reads
    them (see :func:`data.load_bags`), so a malformed bag file stops the run
    when it is reached, after ``--out`` exists.
    """
    settings = _train_settings(args, **defaults)
    tc = _from_settings(TrainConfig, settings)
    manifest = load_manifest(args.manifest)
    if not manifest:
        raise ValueError(f"{args.manifest}: manifest has no records")
    width = bag_width(manifest[0].path)
    if every_model or settings["model"] == KIND:
        _from_settings(ModelConfig, settings, d=width)

    def fit(plan, model):
        params = MODELS[model](settings, width)
        return train(
            tc, load_bags(manifest, plan.train), load_bags(manifest, plan.validation), params
        )

    return settings, manifest, fit


def _write_history(history, path: Path):
    keys = list(history[0].keys())
    lines = [",".join(keys)]
    for rec in history:
        lines.append(",".join(_fmt_cell(rec.get(k)) for k in keys))
    path.write_text("\n".join(lines) + "\n")


def _fmt_cell(v):
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _write_split(plan, manifest, path: Path):
    lines = [",".join(SPLIT_HEADER)]
    for role in ROLES:
        for idx in getattr(plan, role):
            lines.append(f"{idx},{manifest[idx].app_id},{role}")
    path.write_text("\n".join(lines) + "\n")


def _read_split(path, manifest) -> SplitPlan:
    """The split a split file lists; each line names a manifest record not listed before."""
    roles = {role: [] for role in ROLES}
    listed_on = {}
    for lineno, (idx, app_id, role) in read_rows(path, SPLIT_HEADER, ValueError):
        where = f"{path}:{lineno}"
        if role not in roles:
            raise ValueError(f"{where}: unknown role {role!r}; expected one of {sorted(roles)}")
        try:
            i = int(idx)
        except ValueError:
            raise ValueError(f"{where}: index {idx!r} is not an integer") from None
        if not 0 <= i < len(manifest):
            raise ValueError(f"{where}: index {i} is outside the manifest's [0, {len(manifest)})")
        if manifest[i].app_id != app_id:
            raise ValueError(
                f"{where}: app_id {app_id!r} differs from the manifest's {manifest[i].app_id!r} "
                f"at index {i}"
            )
        if i in listed_on:
            raise ValueError(f"{where}: index {i} is already listed on line {listed_on[i]}")
        listed_on[i] = lineno
        roles[role].append(i)
    return SplitPlan(**roles)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synth(args) -> int:
    settings = resolve_settings(_field_defaults(SynthConfig), args)
    config = _from_settings(SynthConfig, settings)
    out = _out_dir(args)
    manifest = gen_synthetic(config, out)
    write_resolved_config(settings, out)
    stats = dataset_stats(manifest)
    print(f"wrote {stats['num_apps']} bags to {out}")
    print(f"benign={stats['benign']} malware={stats['malware']} by_year={stats['by_year']}")
    return 0


def cmd_train(args) -> int:
    settings, manifest, fit = _training_run(args)
    plan = split_shuffled(manifest, settings["seed"], settings["repetition"])
    out = _out_dir(args)
    result = fit(plan, settings["model"])
    save_checkpoint(result.params, out / "checkpoint.dbck")
    _write_history(result.history, out / "history.csv")
    _write_split(plan, manifest, out / "split.csv")
    write_resolved_config(settings, out)
    basis = "no validation split" if result.best_f1 is None else f"validation F1 {result.best_f1:.2f}"
    print(f"best epoch {result.best_epoch} ({basis})")
    print(f"checkpoint written to {out / 'checkpoint.dbck'}")
    return 0


def cmd_evaluate(args) -> int:
    manifest = load_manifest(args.manifest)
    params = load_checkpoint(args.checkpoint)
    if args.split_file:
        indices = getattr(_read_split(args.split_file, manifest), args.subset)
    else:
        indices = range(len(manifest))
    _require_scored(indices)
    given = {} if args.threshold is None else {"threshold": args.threshold}
    threshold = TrainConfig(**given).threshold
    out = _out_dir(args)
    metrics, per_app = evaluate(params, load_bags(manifest, indices), threshold)
    (out / "scores.csv").write_text(format_per_app(per_app))
    (out / "metrics.txt").write_text(format_metrics_block(metrics))
    write_resolved_config(
        {
            "checkpoint": args.checkpoint,
            "manifest": args.manifest,
            "subset": args.subset if args.split_file else "all",
            "threshold": threshold,
        },
        out,
    )
    print(format_metrics_block(metrics), end="")
    return 0


def _run_one_protocol_rep(fit, manifest, plan, settings, model):
    result = fit(plan, model)
    return evaluate(result.params, load_bags(manifest, plan.test), settings["threshold"])


def cmd_protocol_shuffled(args) -> int:
    settings, manifest, fit = _training_run(args, repetitions=10)
    if settings["repetitions"] < 1:
        raise ValueError(f"repetitions must be >= 1, got {settings['repetitions']}")
    reps = range(settings["repetitions"])
    plans = [split_shuffled(manifest, settings["seed"], rep) for rep in reps]
    for plan in plans:
        _require_scored(plan.test)
    out = _out_dir(args)
    all_metrics = []
    report = []
    for rep, plan in enumerate(plans):
        metrics, per_app = _run_one_protocol_rep(fit, manifest, plan, settings, settings["model"])
        (out / f"rep{rep}_scores.csv").write_text(format_per_app(per_app))
        report.append(f"[repetition {rep}]\n" + format_metrics_block(metrics))
        all_metrics.append(metrics)
    mean_block = "[mean over repetitions]\n" + "".join(
        f"{k}={v:.2f}\n" for k, v in mean_metric_values(all_metrics).items()
    )
    report.append(mean_block)
    (out / "report.txt").write_text("\n".join(report))
    write_resolved_config(settings, out)
    print(mean_block, end="")
    return 0


def cmd_protocol_temporal(args) -> int:
    settings, manifest, fit = _training_run(args)
    plan = split_temporal(manifest)
    out = _out_dir(args)
    metrics, per_app = _run_one_protocol_rep(fit, manifest, plan, settings, settings["model"])
    (out / "scores.csv").write_text(format_per_app(per_app))
    proportions = (
        f"train_fraction={plan.train_fraction:.2f}\n"
        f"test_fraction={plan.test_fraction:.2f}\n"
        f"excluded={plan.excluded}\n"
    )
    (out / "report.txt").write_text(proportions + format_metrics_block(metrics))
    _write_split(plan, manifest, out / "split.csv")
    write_resolved_config(settings, out)
    print(proportions + format_metrics_block(metrics), end="")
    return 0


def cmd_compare_baselines(args) -> int:
    settings, manifest, fit = _training_run(args, every_model=True)
    plan = split_shuffled(manifest, settings["seed"], settings["repetition"])
    _require_scored(plan.test)
    out = _out_dir(args)
    lines = [",".join(("model",) + RATES)]
    report = []
    for flag in MODELS:
        metrics, _ = _run_one_protocol_rep(fit, manifest, plan, settings, flag)
        lines.append(",".join([flag] + [f"{getattr(metrics, k):.2f}" for k in RATES]))
        report.append(f"[{flag}]\n" + format_metrics_block(metrics))
    (out / "comparison.csv").write_text("\n".join(lines) + "\n")
    (out / "report.txt").write_text("\n".join(report))
    write_resolved_config(settings, out)
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    landmarks = {"landmarks": tuple(args.m)} if args.m else {}
    suites = {
        "gradcheck": lambda: run_gradcheck_suite(args.seed),
        "attn": lambda: run_attention_suite(args.seed, **landmarks),
        "entropy": lambda: run_entropy_suite(args.seed),
    }
    # no suite flag means every suite
    chosen = [name for name in suites if getattr(args, name)] or list(suites)
    all_passed = True
    for name in chosen:
        print(f"[{name}]")
        for result in suites[name]():
            print(result.line())
            all_passed = all_passed and result.passed
    print("verify:", "PASS" if all_passed else "FAIL")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detectbert",
        description="Bag-of-embeddings malware scoring: data generation, "
        "training, evaluation, and verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value settings file (flags win)")
        p.add_argument("--seed", type=int, default=None)

    gen = sub.add_parser("gen-synth", help="generate a synthetic bag dataset")
    add_common(gen)
    gen.add_argument("--out", required=True)
    _add_setting_flags(gen, SynthConfig)
    gen.set_defaults(func=cmd_gen_synth)

    def add_train_flags(p):
        add_common(p)
        p.add_argument("--manifest", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--model", choices=sorted(MODELS), default=None)
        p.add_argument("--repetition", type=int, default=None)
        _add_setting_flags(p, TrainConfig)
        _add_setting_flags(p, ModelConfig, MODEL_SETTINGS)

    tr = sub.add_parser("train", help="train one model on a shuffled split")
    add_train_flags(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="score bags with a saved checkpoint")
    ev.add_argument("--manifest", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--split-file", dest="split_file", default=None)
    ev.add_argument("--subset", choices=ROLES, default="test")
    _add_setting_flags(ev, TrainConfig, ("threshold",))
    ev.set_defaults(func=cmd_evaluate)

    ps = sub.add_parser(
        "protocol-shuffled", help="repeated 80/10/10 splits, mean metrics reported"
    )
    add_train_flags(ps)
    ps.add_argument("--repetitions", type=int, default=None)
    ps.set_defaults(func=cmd_protocol_shuffled)

    pt = sub.add_parser(
        "protocol-temporal", help="train on 2019 apps, test on 2020 apps"
    )
    add_train_flags(pt)
    pt.set_defaults(func=cmd_protocol_temporal)

    cb = sub.add_parser(
        "compare-baselines", help="train the three baselines and the full model"
    )
    add_train_flags(cb)
    cb.set_defaults(func=cmd_compare_baselines)

    vf = sub.add_parser("verify", help="run the numerical verification suites")
    vf.add_argument("--gradcheck", action="store_true")
    vf.add_argument("--attn", action="store_true")
    vf.add_argument("--entropy", action="store_true")
    vf.add_argument("--m", type=int, nargs="+", default=None,
                    help="landmark counts for the attention error curve")
    vf.add_argument("--seed", type=int, default=0)
    vf.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
