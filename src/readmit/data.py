"""Admission records, JSONL ingestion, patient-grouped splits, synthetic data.

The on-disk format is JSONL with one admission per line:

    {"patient_id": str | int, "admission_id": str | int,
     "ehr": [[float, ...], ...],            # days x features
     "cxr": [[float x 1024], ...],          # image feature vectors, may be []
     "notes": [str, ...] | [[float x 1024], ...],   # a list, may be []
     "notes_kind": "text" | "vector",
     "label": 0 | 1}                        # the integer: true and 0.0 are errors

The synthetic generator plants a known logistic signal in a subset of EHR
columns and note tokens so that feature selection and end-to-end training
can be verified against ground truth.
"""

import json
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import ConfigError, DataError

CXR_DIM = 1024
NOTES_DIM = 1024
# (train, val, test) patient fractions when a caller names none.
SPLIT_FRACTIONS = (0.7, 0.15, 0.15)


@dataclass
class AdmissionRecord:
    """One hospital admission with its per-modality features and label."""

    patient_id: str
    admission_id: str
    ehr: np.ndarray                 # (n_days, d)
    cxr: np.ndarray                 # (q, 1024)
    notes: object                   # list[str] or (m, 1024) array
    notes_kind: str                 # "text" | "vector"
    label: int


@dataclass
class Dataset:
    records: list
    ehr_feature_names: list

    @property
    def n_admissions(self):
        return len(self.records)

    @property
    def n_patients(self):
        return len({r.patient_id for r in self.records})

    @property
    def n_positive(self):
        return sum(r.label for r in self.records)

    @property
    def d(self):
        """EHR feature count, or None for an empty dataset."""
        return self.records[0].ehr.shape[1] if self.records else None


def validate_record(rec):
    """Check all AdmissionRecord invariants; returns a list of error strings."""
    errors = []
    ehr = rec.ehr
    if ehr.ndim != 2 or ehr.shape[0] < 1:
        errors.append(f"ehr must be a non-empty 2-D matrix, got shape {ehr.shape}")
    elif not np.isfinite(ehr).all():
        bad = np.argwhere(~np.isfinite(ehr))[0]
        errors.append(f"ehr contains non-finite value at row {bad[0]}, col {bad[1]}")

    cxr = rec.cxr
    if cxr.size:
        if cxr.ndim != 2 or cxr.shape[1] != CXR_DIM:
            errors.append(f"cxr vector dim != {CXR_DIM}")
        elif not np.isfinite(cxr).all():
            row = int(np.argwhere(~np.isfinite(cxr))[0][0])
            errors.append(f"cxr contains non-finite value at row {row}")

    if rec.notes_kind == "text":
        if not all(isinstance(n, str) for n in rec.notes):
            errors.append("notes_kind is 'text' but notes contain non-strings")
    elif rec.notes_kind == "vector":
        notes = np.asarray(rec.notes, dtype=float) if not isinstance(rec.notes, np.ndarray) else rec.notes
        if notes.size:
            if notes.ndim != 2 or notes.shape[1] != NOTES_DIM:
                errors.append(f"notes vector dim != {NOTES_DIM}")
            elif not np.isfinite(notes).all():
                row = int(np.argwhere(~np.isfinite(notes))[0][0])
                errors.append(f"notes contain non-finite value at row {row}")
    else:
        errors.append(f"notes_kind must be 'text' or 'vector', got {rec.notes_kind!r}")

    if isinstance(rec.label, bool) or not isinstance(rec.label, (int, np.integer)) \
            or rec.label not in (0, 1):
        errors.append(f"label out of range (must be the integer 0 or 1, got {rec.label!r})")
    return errors


def record_to_json(rec):
    notes = rec.notes
    if rec.notes_kind == "vector":
        notes = np.asarray(notes, dtype=float).tolist()
    return {
        "patient_id": rec.patient_id,
        "admission_id": rec.admission_id,
        "ehr": rec.ehr.tolist(),
        "cxr": rec.cxr.tolist(),
        "notes": notes,
        "notes_kind": rec.notes_kind,
        "label": int(rec.label),
    }


def record_from_json(obj):
    for key in ("patient_id", "admission_id", "ehr", "cxr", "notes", "notes_kind", "label"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
    for key in ("patient_id", "admission_id"):
        if isinstance(obj[key], bool) or not isinstance(obj[key], (str, int)):
            raise ValueError(f"{key} must be a string or an integer, got {obj[key]!r}")
        if obj[key] == "":
            raise ValueError(f"{key} must not be empty")
        if isinstance(obj[key], str) and obj[key] != obj[key].strip():
            raise ValueError(f"{key} must not start or end with whitespace, got {obj[key]!r}")
    for key in ("cxr", "notes"):
        if not isinstance(obj[key], list):
            raise ValueError(f"{key} must be a list, got {type(obj[key]).__name__}")
    ehr = np.asarray(obj["ehr"], dtype=float)
    cxr_raw = obj["cxr"]
    cxr = np.asarray(cxr_raw, dtype=float) if cxr_raw else np.zeros((0, CXR_DIM))
    notes_kind = obj["notes_kind"]
    notes = obj["notes"]
    if notes_kind == "vector":
        notes = np.asarray(notes, dtype=float) if notes else np.zeros((0, NOTES_DIM))
    return AdmissionRecord(
        patient_id=str(obj["patient_id"]),
        admission_id=str(obj["admission_id"]),
        ehr=ehr,
        cxr=cxr,
        notes=notes,
        notes_kind=notes_kind,
        label=obj["label"],
    )


def _record_of(obj):
    """The record a parsed line gives and its problems; None if it gives none."""
    try:
        rec = record_from_json(obj)
    except (ValueError, TypeError, OverflowError) as exc:
        return None, [str(exc)]
    return rec, validate_record(rec)


def _read_line(line):
    """The record and problems of ``json.loads(line)``, parsed by orjson where
    that gives the same record.

    orjson parses the 1024-wide vectors several times faster, to json's bits.
    It rejects ``NaN``, ``Infinity``, numbers beyond a double, lone surrogate
    escapes and malformed JSON, and it reads an integer beyond 64 bits as a
    float, which no valid ID, label or note text is; inside the arrays such
    an integer becomes the same double either way.  So a line whose orjson
    record is valid is kept, and json reads any other line again, whose
    record and problems are reported, since error messages print its values
    (a value nested too deeply to print is read again too).
    """
    try:
        rec, errs = _record_of(orjson.loads(line))
        if not errs:
            return rec, errs
    except (orjson.JSONDecodeError, RecursionError):
        pass
    return _record_of(json.loads(line))


def load_dataset(path):
    """Parse and validate a JSONL dataset file.

    Malformed JSON aborts immediately with the offending line number;
    per-record invariant violations are collected across the whole file and
    reported together.  A file with no records is a DataError naming it.
    """
    records = []
    problems = []
    d = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec, errs = _read_line(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    # json recurses once per nesting level, so a line nested
                    # too deeply for it is malformed JSON to this reader too
                    raise DataError(f"{path}: line {lineno}: malformed JSON: {exc}") from exc
                if errs:
                    problems.extend(f"line {lineno}: {e}" for e in errs)
                    continue
                if d is None:
                    d = rec.ehr.shape[1]
                elif rec.ehr.shape[1] != d:
                    raise DataError(
                        f"{path}: line {lineno}: inconsistent schema: "
                        f"ehr column count {rec.ehr.shape[1]} != {d}"
                    )
                records.append(rec)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if problems:
        raise DataError(f"{path}: {len(problems)} invalid record(s):\n" + "\n".join(problems))
    if not records:
        raise DataError(f"{path}: dataset is empty")
    names = [f"ehr_{i:03d}" for i in range(d)]
    return Dataset(records=records, ehr_feature_names=names)


def save_dataset(ds, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in ds.records:
            fh.write(json.dumps(record_to_json(rec), sort_keys=True))
            fh.write("\n")


def split_by_patient(ds, fractions=SPLIT_FRACTIONS, seed=0):
    """Split into (train, val, test) keeping every patient in exactly one split.

    Split sizes approximate the fractions by patient count (cumulative
    rounding); an empty split steals one patient from the largest one, so
    all three are non-empty whenever there are at least three patients.
    """
    if len(fractions) != 3:
        raise ConfigError(f"expected 3 split fractions, got {len(fractions)}")
    if any(f <= 0 for f in fractions):
        raise ConfigError(f"split fractions must be positive: {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {sum(fractions)}")

    patients = sorted({r.patient_id for r in ds.records})
    n = len(patients)
    if n < 3:
        raise DataError(f"need at least 3 patients to split, got {n}")

    rng = np.random.default_rng(seed)
    shuffled = [patients[i] for i in rng.permutation(n)]
    c1 = int(round(fractions[0] * n))
    c2 = int(round((fractions[0] + fractions[1]) * n))
    sizes = [c1, c2 - c1, n - c2]
    while min(sizes) < 1:
        sizes[sizes.index(max(sizes))] -= 1
        sizes[sizes.index(min(sizes))] += 1

    assignment = {}
    start = 0
    for split_idx, size in enumerate(sizes):
        for pid in shuffled[start:start + size]:
            assignment[pid] = split_idx
        start += size

    buckets = ([], [], [])
    for rec in ds.records:
        buckets[assignment[rec.patient_id]].append(rec)
    return tuple(
        Dataset(records=b, ehr_feature_names=list(ds.ehr_feature_names)) for b in buckets
    )


# ---------------------------------------------------------------------------
# synthetic data with plantable signal


def synth_vocab(size):
    """The generator's note vocabulary: ``term000``, ``term001``, ..."""
    return [f"term{i:03d}" for i in range(size)]


@dataclass
class SynthConfig:
    """Knobs for the synthetic generator.

    Labels are drawn from a known logistic ground truth over the mean of the
    informative EHR columns and the informative-token frequency pooled over
    an admission's notes; the bias is calibrated so the empirical positive
    rate lands near ``positive_rate``.
    """

    n_patients: int = 500
    admissions_per_patient: tuple = (1, 2)
    d_ehr: int = 50
    n_informative_ehr: int = 5
    vocab: list = field(default_factory=lambda: synth_vocab(200))
    n_informative_tokens: int = 5
    positive_rate: float = 0.17
    seed: int = 0
    w_ehr: float = 3.5
    w_notes: float = 14.0
    day_range: tuple = (1, 10)
    image_range: tuple = (0, 4)
    note_range: tuple = (1, 6)
    tokens_per_note: tuple = (5, 15)

    def validate(self):
        for name in ("d_ehr", "n_informative_ehr", "n_informative_tokens"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.vocab:
            raise ConfigError("vocab must hold at least one token")
        if self.n_informative_ehr > self.d_ehr:
            raise ConfigError(
                f"n_informative_ehr ({self.n_informative_ehr}) exceeds d_ehr ({self.d_ehr})"
            )
        if not 0.0 < self.positive_rate < 1.0:
            raise ConfigError(f"positive_rate must be in (0, 1), got {self.positive_rate}")
        if len(self.vocab) < self.n_informative_tokens:
            raise ConfigError(
                f"vocab size {len(self.vocab)} smaller than "
                f"n_informative_tokens {self.n_informative_tokens}"
            )
        if self.n_patients < 1:
            raise ConfigError("n_patients must be >= 1")
        for name, least in (("admissions_per_patient", 1), ("day_range", 1),
                            ("image_range", 0), ("note_range", 0), ("tokens_per_note", 0)):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(isinstance(v, (int, np.integer)) for v in pair)):
                raise ConfigError(f"{name} must be two integers lo,hi, got {pair!r}")
            if not least <= pair[0] <= pair[1]:
                raise ConfigError(f"{name} must satisfy {least} <= lo <= hi, got {pair!r}")


def _token_frequency(notes, informative):
    tokens = " ".join(notes).split()
    return sum(map(informative.__contains__, tokens)) / len(tokens) if tokens else 0.0


def synth_logit(rec, meta):
    """Ground-truth logit for a record, recomputed from the generator metadata.

    This is the Bayes-optimal score for synthetic data: the label was drawn
    from sigmoid of exactly this quantity.
    """
    z = meta["bias"]
    cols = meta["informative_ehr_columns"]
    if cols:
        z += meta["w_ehr"] * float(rec.ehr[:, cols].mean())
    tokens = set(meta["informative_tokens"])
    if tokens:
        z += meta["w_notes"] * _token_frequency(rec.notes, tokens)
    return z


def _calibrate_bias(raw, draws, rate):
    """Bias such that the realized positive count equals round(rate * n).

    label_i = 1 iff draws_i < sigmoid(raw_i + b), i.e. iff b > logit(draws_i)
    - raw_i, so placing b between the k-th and (k+1)-th smallest of those
    thresholds yields exactly k positives.  Both classes are always kept.
    """
    u = np.clip(draws, 1e-12, 1.0 - 1e-12)
    cuts = np.sort(np.log(u / (1.0 - u)) - raw)
    n = cuts.size
    k = int(np.clip(round(rate * n), 1, n - 1))
    return 0.5 * (cuts[k - 1] + cuts[k])


def generate_synthetic(cfg):
    """Build a synthetic Dataset; returns (dataset, generator metadata).

    The metadata records everything needed to reconstruct the ground-truth
    logit: informative column indices, informative tokens, weights and bias.
    Each label is drawn from the sigmoid of ``synth_logit`` under it.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d_ehr

    if cfg.n_informative_ehr:
        cols = sorted(int(c) for c in rng.choice(d, size=cfg.n_informative_ehr, replace=False))
    else:
        cols = []
    if cfg.n_informative_tokens:
        picks = rng.choice(len(cfg.vocab), size=cfg.n_informative_tokens, replace=False)
        informative_tokens = sorted(cfg.vocab[i] for i in picks)
    else:
        informative_tokens = []
    inf_set = set(informative_tokens)
    background = [t for t in cfg.vocab if t not in inf_set] or list(cfg.vocab)
    truth = {
        "informative_ehr_columns": cols,
        "informative_tokens": informative_tokens,
        "w_ehr": cfg.w_ehr if cols else 0.0,
        "w_notes": cfg.w_notes if informative_tokens else 0.0,
        "bias": 0.0,
    }

    records = []
    raw_logits = []
    label_draws = []
    a_lo, a_hi = cfg.admissions_per_patient
    for p in range(cfg.n_patients):
        pid = f"P{p:05d}"
        n_adm = int(rng.integers(a_lo, a_hi + 1))
        for a in range(n_adm):
            n_days = int(rng.integers(cfg.day_range[0], cfg.day_range[1] + 1))
            q = int(rng.integers(cfg.image_range[0], cfg.image_range[1] + 1))
            m = int(rng.integers(cfg.note_range[0], cfg.note_range[1] + 1))

            ehr = rng.normal(size=(n_days, d))
            if cols:
                ehr[:, cols] += rng.normal()

            notes = []
            if informative_tokens:
                z_t = rng.normal()
                p_inf = 1.0 / (1.0 + np.exp(-(1.2 * z_t - 0.8)))
            else:
                p_inf = 0.0
            for _ in range(m):
                count = int(rng.integers(cfg.tokens_per_note[0], cfg.tokens_per_note[1] + 1))
                words = []
                for _ in range(count):
                    if informative_tokens and rng.random() < p_inf:
                        words.append(informative_tokens[int(rng.integers(len(informative_tokens)))])
                    else:
                        words.append(background[int(rng.integers(len(background)))])
                notes.append(" ".join(words))

            cxr = rng.normal(size=(q, CXR_DIM)) if q else np.zeros((0, CXR_DIM))
            records.append(AdmissionRecord(
                patient_id=pid,
                admission_id=f"{pid}-A{a:02d}",
                ehr=ehr,
                cxr=cxr,
                notes=notes,
                notes_kind="text",
                label=0,
            ))
            raw_logits.append(synth_logit(records[-1], truth))
            label_draws.append(rng.random())

    raw_logits = np.asarray(raw_logits)
    label_draws = np.asarray(label_draws)
    bias = _calibrate_bias(raw_logits, label_draws, cfg.positive_rate)
    probs = 1.0 / (1.0 + np.exp(-(raw_logits + bias)))
    for rec, p, u in zip(records, probs, label_draws):
        rec.label = int(u < p)

    ds = Dataset(
        records=records,
        ehr_feature_names=[f"ehr_{i:03d}" for i in range(d)],
    )
    meta = {
        **truth,
        "bias": float(bias),
        "positive_rate_target": cfg.positive_rate,
        "positive_rate_empirical": float(np.mean([r.label for r in records])),
        "seed": cfg.seed,
    }
    return ds, meta
