"""Command-line interface: synth, select-features, train, kfold, eval.

Configuration can come from an INI-style file ([section] key = value) with
CLI flags taking precedence; ``SETTINGS`` lists both, and a key set by
neither keeps the default of its config dataclass field.  Every model and
report embeds a fingerprint of the resolved configuration and data content
(the sha256 of the dataset file's bytes), so the same data under another path
gives the same fingerprint.
``train`` owns the split: it records each split's patients and the data's
sha256 in ``splits.json``, and ``eval --split`` scores those patients of that
same data, so eval takes no split settings.
Eval does not compare fingerprints and runs no input checks of its own: the
library names an input a member cannot read (a selection index past the
dataset's EHR width, an EHR width other than the model's, raw note text
without a TF-IDF model) as a data error before any report is written.
Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure, 5 I/O.
"""

import argparse
import configparser
import hashlib
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import (SPLIT_FRACTIONS as SPLIT_DEFAULT, SynthConfig, generate_synthetic,
                   load_dataset, save_dataset, split_by_patient, synth_vocab)
from .errors import ConfigError, DataError, NumericError
from .evaluation import auc, check_classes, evaluate, save_report
from .features import (FOREST_TREES, FeatureSelection, forest_selection, notes_tfidf,
                       prepare_bundles)
from .model import (DTYPES, ENCODERS, MODALITY_ORDER, ModelConfig,
                    ReadmissionModel, load_model, save_model)
from .training import (FOLDS, NOISE_KINDS, Ensemble, LossConfig, NoiseSchedule,
                       TrainConfig, kfold_train, train, write_history_csv)

# (INI section, key, train/kfold flag or None for a file-only key).  A flag
# stores its value under the key's name; PT_SEED stands in for an unset seed.
SETTINGS = (
    ("model", "d_model", "--d-model"),
    ("model", "n_heads", "--heads"),
    ("model", "ehr_layers", "--ehr-layers"),
    ("model", "cxr_layers", "--cxr-layers"),
    ("model", "notes_layers", "--notes-layers"),
    ("model", "d_ff", "--d-ff"),
    ("model", "dropout", "--dropout"),
    ("model", "k_ehr", None),
    ("model", "modalities", "--modalities"),
    ("model", "encoder", "--encoder"),
    ("model", "dtype", "--dtype"),
    ("model", "max_days", None),
    ("model", "max_images", None),
    ("model", "max_notes", None),
    ("train", "epochs", "--epochs"),
    ("train", "lr_max", "--lr-max"),
    ("train", "lr_min", "--lr-min"),
    ("train", "batch_size", "--batch-size"),
    ("train", "grad_clip", "--grad-clip"),
    ("train", "weight_decay", "--weight-decay"),
    ("train", "seed", "--seed"),
    ("loss", "alpha", "--alpha"),
    ("loss", "gamma", "--gamma"),
    ("loss", "smooth", "--smooth"),
    ("noise", "kind", "--noise"),
    ("noise", "r_initial", "--noise-initial"),
    ("noise", "r_final", "--noise-final"),
    ("noise", "warmup", "--noise-warmup"),
    ("noise", "amplitude", "--noise-amplitude"),
    ("noise", "period", "--noise-period"),
    ("noise", "intercept", "--noise-intercept"),
    ("data", "split_fractions", "--split-fractions"),
    ("data", "split_seed", "--split-seed"),
)
# kfold never splits, so it takes no [data] keys and no split flags.
KFOLD_SECTIONS = ("model", "train", "loss", "noise")


def _parse_modalities(text):
    mods = tuple(m.strip() for m in text.split(",") if m.strip())
    if not mods:
        raise ValueError("at least one modality is required")
    return mods


# Text-to-value conversion per key: the type of the dataclass field of that
# name, except for the comma lists and the [data] keys.
_CASTS = {f.name: f.type for cls in (ModelConfig, TrainConfig, LossConfig, NoiseSchedule)
          for f in fields(cls)}
_CASTS.update(modalities=_parse_modalities, split_seed=int,
              split_fractions=lambda text: tuple(float(p) for p in text.split(",") if p))
_CHOICES = {"encoder": ENCODERS, "dtype": DTYPES, "kind": NOISE_KINDS}
_HELP = {"modalities": "comma list from " + ",".join(MODALITY_ORDER)}


def fingerprint(obj):
    """Stable short hash of a JSON-serializable configuration."""
    blob = json.dumps(obj, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _default_seed(value, default=0):
    """``value``, else the integer in PT_SEED, else ``default``."""
    if value is not None:
        return value
    env = os.environ.get("PT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"PT_SEED must be an integer, got {env!r}") from exc
    return default


def load_config_file(path, sections=None):
    """Read an INI config file into {(section, key): text}, rejecting unknown
    sections and keys; ``sections``, if given, are the known sections."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        items = {section: dict(parser[section]) for section in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"{path}: not a valid config file: {exc}") from exc
    known = {(section, key) for section, key, _ in SETTINGS
             if sections is None or section in sections}
    out = {}
    for section, values in items.items():
        if section not in {s for s, _ in known}:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        for key, value in values.items():
            if (section, key) not in known:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            out[(section, key)] = value
    return out


def resolve_settings(args, file_cfg):
    """{section: {key: value}} from the flags, else the config file, else
    PT_SEED for the seed.  Keys that none of them sets are left out, so the
    dataclass defaults apply."""
    out = {section: {} for section, _, _ in SETTINGS}
    for section, key, flag in SETTINGS:
        value = getattr(args, key, None) if flag else None
        if value is None:
            value = file_cfg.get((section, key))
        if key == "seed":
            value = _default_seed(value, default=None)
        if isinstance(value, str):
            try:
                value = _CASTS[key](value)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key} = {value!r}: {exc}") from exc
        if value is not None:
            out[section][key] = value
    return out


def _split_spec(settings):
    """Split fractions and seed from resolved settings."""
    data = settings["data"]
    return data.get("split_fractions", SPLIT_DEFAULT), _default_seed(data.get("split_seed"))


def _run_configs(settings):
    """ModelConfig and TrainConfig from resolved settings; the model is
    seeded with the training seed."""
    train_cfg = TrainConfig(loss=LossConfig(**settings["loss"]),
                            noise=NoiseSchedule(**settings["noise"]), **settings["train"])
    return ModelConfig(seed=train_cfg.seed, **settings["model"]), train_cfg


def _sha256(path):
    """The hex sha256 of the bytes of the file at ``path``."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run_fingerprint(model_cfg, train_cfg, data_sha256, **extra):
    """Fingerprint of a run's model, train, loss and noise configuration, the
    sha256 of its data file's bytes and the command's own ``extra`` values."""
    return fingerprint({
        "model": model_cfg.to_json(),
        "train": {k: v for k, v in vars(train_cfg).items() if k not in ("loss", "noise")},
        "loss": vars(train_cfg.loss),
        "noise": vars(train_cfg.noise),
        "data": data_sha256,
        **extra,
    })


def _set_k_ehr(settings, model_cfg, k, source):
    """Give the model the ``k`` EHR columns the run feeds it; a configured
    ``[model] k_ehr`` that differs is rejected, not replaced."""
    configured = settings["model"].get("k_ehr")
    if configured is not None and configured != k:
        raise ConfigError(f"model.k_ehr = {configured}, but {source} gives {k} EHR features")
    model_cfg.k_ehr = k


def _selection(path, settings, model_cfg):
    """The selection file at ``path``, or None for no path.  It gives the
    model its ``k_ehr`` EHR columns when ``ehr`` is active, and only then."""
    if path is None:
        return None
    selection = _read_json(path, "selection", FeatureSelection.from_json)
    if "ehr" in model_cfg.modalities:
        _set_k_ehr(settings, model_cfg, selection.k, f"selection {path}")
    return selection


def _require_file(path, kind):
    if not Path(path).is_file():
        raise DataError(f"{kind} file does not exist: {path}")
    return Path(path)


def _load_data(path):
    """The dataset at ``path``; a missing file or no records is a DataError."""
    return load_dataset(_require_file(path, "dataset"))


def _jobs(jobs):
    """``--jobs``, which must be at least 1."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _ehr_width(k, name, ds, path):
    """``k`` EHR columns, else min(ModelConfig.k_ehr, the width of ``ds``); a
    ``k`` above that width is a ConfigError naming setting ``name``, and a
    ``ds`` with no EHR columns a DataError naming ``path``."""
    if not ds.d:
        raise DataError(f"{path} has no EHR columns")
    if k is None:
        return min(ModelConfig.k_ehr, ds.d)
    if k > ds.d:
        raise ConfigError(f"{name} = {k}, but {path} has {ds.d} EHR features")
    return k


def _read_json(path, kind, parse):
    """``parse`` of the JSON ``kind`` file at ``path``; a missing file, or one
    that ``parse`` cannot read, is a DataError naming it."""
    path = _require_file(path, kind)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a valid {kind} file: {exc!r}") from exc


def _split_patients(splits, split):
    """The patient IDs that the object of a splits.json lists for ``split``."""
    patients = splits[f"{split}_patients"]
    if not (isinstance(patients, list) and all(isinstance(p, str) for p in patients)):
        raise TypeError(f"{split}_patients must be a list of strings")
    return set(patients)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    try:                # SynthConfig checks the count and the range
        admissions = tuple(int(x) for x in args.admissions.split(","))
    except ValueError:
        raise ConfigError(f"--admissions must be two integers 'lo,hi', "
                          f"got {args.admissions!r}") from None
    cfg = SynthConfig(
        n_patients=args.patients,
        admissions_per_patient=admissions,
        d_ehr=args.d_ehr,
        n_informative_ehr=args.informative_ehr,
        vocab=synth_vocab(args.vocab_size),
        n_informative_tokens=args.informative_tokens,
        positive_rate=args.positive_rate,
        seed=_default_seed(args.seed),
    )
    ds, meta = generate_synthetic(cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out)
    with open(f"{out}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
    print(f"wrote {out}: {ds.n_admissions} admissions, "
          f"{ds.n_patients} patients, {ds.n_positive} positives")
    return 0


def cmd_select_features(args):
    jobs = _jobs(args.jobs)
    ds = _load_data(args.data)
    fracs, split_seed = _split_spec(resolve_settings(args, {}))
    train_ds, _, _ = split_by_patient(ds, fracs, seed=split_seed)
    top_k = _ehr_width(args.top_k, "--top-k", ds, args.data)
    sel = forest_selection(train_ds.records, top_k, args.trees, _default_seed(args.seed), jobs)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(sel.to_json(), fh, sort_keys=True)
    every = (", so every column is kept and the selection only reorders them; "
             "--top-k keeps fewer" if sel.k == ds.d else "")
    print(f"wrote {out}: top {sel.k} of {ds.d} features{every}")
    return 0


def cmd_train(args):
    data_path = Path(args.data)
    ds = _load_data(data_path)
    file_cfg = load_config_file(args.config) if args.config else {}
    if not (args.selection or args.no_select):      # the parser rejects both
        raise ConfigError("either --selection FILE or --no-select is required")

    settings = resolve_settings(args, file_cfg)
    model_cfg, train_cfg = _run_configs(settings)
    selection = _selection(args.selection, settings, model_cfg)
    if args.no_select and "ehr" in model_cfg.modalities:
        _set_k_ehr(settings, model_cfg, _ehr_width(ds.d, "--no-select", ds, data_path),
                   f"--no-select on {data_path}")
    fracs, split_seed = _split_spec(settings)

    train_ds, val_ds, test_ds = split_by_patient(ds, fracs, seed=split_seed)
    tfidf = notes_tfidf(train_ds.records, model_cfg.modalities)
    caps = model_cfg.caps()
    tb, tl = prepare_bundles(train_ds.records, model_cfg.modalities, selection, tfidf, **caps)
    vb, vl = prepare_bundles(val_ds.records, model_cfg.modalities, selection, tfidf, **caps)

    data_sha256 = _sha256(data_path)
    fp = _run_fingerprint(model_cfg, train_cfg, data_sha256,
                          split={"fractions": list(fracs), "seed": split_seed})

    model = ReadmissionModel(model_cfg)
    result = train(model, tb, tl, vb, vl, train_cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(out_dir / "model.json", result.model, selection=selection,
               tfidf=tfidf, fingerprint=fp)
    write_history_csv(result.history, out_dir / "history.csv")
    with open(out_dir / "splits.json", "w", encoding="utf-8") as fh:
        json.dump({
            "data_sha256": data_sha256,
            "train_patients": sorted({r.patient_id for r in train_ds.records}),
            "val_patients": sorted({r.patient_id for r in val_ds.records}),
            "test_patients": sorted({r.patient_id for r in test_ds.records}),
        }, fh, sort_keys=True)
    val_classes = {r.label for r in val_ds.records}
    if len(val_classes) == 2:
        report = evaluate(
            Ensemble([result.model], [], [(selection, tfidf)]).predict_records,
            val_ds.records,
            params=result.model.count_parameters(),
            seconds_per_epoch=result.seconds_per_epoch,
            fingerprint=fp,
        )
        save_report(report, out_dir)
    else:
        print("warning: validation split has a single class; skipping report.json",
              file=sys.stderr)
    print(f"best val AUC {result.best_val_auc:.4f} at epoch {result.best_epoch}; "
          f"{result.model.count_parameters()} parameters; "
          f"{result.seconds_per_epoch:.2f}s/epoch")
    return 0


def cmd_kfold(args):
    jobs = _jobs(args.jobs)
    data_path = Path(args.data)
    ds = _load_data(data_path)
    holdout = None
    if args.holdout:
        holdout = _load_data(args.holdout)
        check_classes([r.label for r in holdout.records], args.holdout)
    file_cfg = load_config_file(args.config, KFOLD_SECTIONS) if args.config else {}

    settings = resolve_settings(args, file_cfg)
    model_cfg, train_cfg = _run_configs(settings)
    if holdout is not None and "ehr" in model_cfg.modalities and holdout.d != ds.d:
        raise DataError(f"holdout {args.holdout} has {holdout.d} EHR columns, "
                        f"but {data_path} has {ds.d}")

    selection = _selection(args.selection, settings, model_cfg)
    if selection is None and "ehr" in model_cfg.modalities:
        model_cfg.k_ehr = _ehr_width(settings["model"].get("k_ehr"), "model.k_ehr", ds, data_path)

    fp = _run_fingerprint(model_cfg, train_cfg, _sha256(data_path), k=args.k, trees=args.trees)
    started = time.perf_counter()
    ensemble = kfold_train(ds.records, model_cfg, train_cfg, k=args.k,
                           fold_seed=train_cfg.seed, selection=selection,
                           jobs=jobs, trees=args.trees)
    runtime = time.perf_counter() - started

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (member, (sel, tfidf)) in enumerate(zip(ensemble.members, ensemble.pipelines)):
        save_model(out_dir / f"member_{i:02d}.json", member, selection=sel,
                   tfidf=tfidf, fingerprint=fp)

    report = {
        "k": args.k,
        "fold_val_aucs": [None if np.isnan(a) else a for a in ensemble.fold_val_aucs],
        "mean_fold_val_auc": float(np.nanmean(ensemble.fold_val_aucs)),
        "runtime_seconds": runtime,
        "fingerprint": fp,
    }
    if holdout is not None:
        report["ensemble_holdout_auc"] = auc(ensemble.predict_records(holdout.records),
                                             [r.label for r in holdout.records])
    with open(out_dir / "ensemble.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
    print(f"k={args.k} mean fold val AUC {report['mean_fold_val_auc']:.4f} "
          f"({runtime:.1f}s)")
    return 0


def _load_predictor(model_path):
    """An Ensemble of a single model file or of a directory's member files,
    each member with its own pipeline, and member 0's fingerprint."""
    path = Path(model_path)
    if path.is_dir():
        files = sorted(path.glob("member_*.json"))
        if not files:
            raise DataError(f"{path}: no member_*.json files found")
    else:
        files = [_require_file(path, "model")]
    loaded = [load_model(p) for p in files]
    return Ensemble(members=[m for m, _, _, _ in loaded], fold_val_aucs=[],
                    pipelines=[(sel, tfidf) for _, sel, tfidf, _ in loaded]), loaded[0][3]


def cmd_eval(args):
    ensemble, fp = _load_predictor(args.model)
    ds = _load_data(args.data)
    if args.split:
        run_dir = Path(args.model) if Path(args.model).is_dir() else Path(args.model).parent
        splits = run_dir / "splits.json"
        patients, recorded = _read_json(splits, "splits", lambda obj: (
            _split_patients(obj, args.split), obj.get("data_sha256")))
        if recorded != _sha256(args.data):
            raise DataError(f"{splits} records the split of other data than {args.data}: "
                            f"its data_sha256 is {recorded}, not the file's")
        ds.records = [r for r in ds.records if r.patient_id in patients]
    check_classes([r.label for r in ds.records],
                  f"{args.data} ({args.split} split)" if args.split else args.data)
    report = evaluate(ensemble.predict_records, ds.records,
                      params=sum(m.count_parameters() for m in ensemble.members),
                      fingerprint=fp)
    out_dir = Path(args.out)
    save_report(report, out_dir)
    print(f"AUC {report.auc:.4f} on {len(ds.records)} records "
          f"({report.n_pos} pos / {report.n_neg} neg)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="readmit",
        description="Multimodal 30-day readmission prediction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted signal")
    p.add_argument("--out", required=True, help="output JSONL path")
    synth = SynthConfig()
    p.add_argument("--patients", type=int, default=synth.n_patients)
    p.add_argument("--admissions", default=",".join(map(str, synth.admissions_per_patient)),
                   help="min,max admissions per patient")
    p.add_argument("--d-ehr", type=int, default=synth.d_ehr)
    p.add_argument("--informative-ehr", type=int, default=synth.n_informative_ehr)
    p.add_argument("--vocab-size", type=int, default=len(synth.vocab))
    p.add_argument("--informative-tokens", type=int, default=synth.n_informative_tokens)
    p.add_argument("--positive-rate", type=float, default=synth.positive_rate)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("select-features", help="random-forest EHR feature selection")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="selection JSON path")
    p.add_argument("--top-k", type=int, default=None, dest="top_k",
                   help=f"number of features to keep (default: min({ModelConfig.k_ehr}, d))")
    p.add_argument("--trees", type=int, default=FOREST_TREES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="processes growing the forest's trees; slower than 1 at the default "
                        "~500-patient cohort, pays from about 2000 training admissions")
    _add_setting_flags(p, sections=("data",))
    p.set_defaults(func=cmd_select_features)

    p = sub.add_parser("train", help="train a model on a train/val split")
    _add_train_flags(p)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--selection", default=None, help="selection JSON from select-features")
    source.add_argument("--no-select", action="store_true", dest="no_select",
                        help="use all EHR features without a selection file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("kfold", help="train a K-fold ensemble")
    _add_train_flags(p, KFOLD_SECTIONS)
    p.add_argument("--k", type=int, default=FOLDS)
    p.add_argument("--selection", default=None)
    p.add_argument("--trees", type=int, default=FOREST_TREES)
    p.add_argument("--holdout", default=None, help="dataset file for ensemble evaluation")
    p.add_argument("--jobs", type=int, default=1, help="folds trained in parallel")
    p.set_defaults(func=cmd_kfold)

    p = sub.add_parser("eval", help="evaluate a saved model or ensemble directory")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split", choices=("train", "val", "test"), default=None,
                   help="evaluate on the split's patients in the splits.json beside --model")
    p.set_defaults(func=cmd_eval)
    return parser


def _add_train_flags(p, sections=None):
    """Flags shared by train and kfold."""
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="INI config file")
    _add_setting_flags(p, sections)


def _add_setting_flags(p, sections=None):
    """One flag per SETTINGS row that has one, of ``sections`` if given."""
    for section, key, flag in SETTINGS:
        if flag and (sections is None or section in sections):
            cast = _CASTS[key]
            p.add_argument(flag, dest=key, type=cast if cast in (int, float) else None,
                           choices=_CHOICES.get(key), help=_HELP.get(key, f"[{section}] {key}"))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
