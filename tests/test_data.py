"""Dataset ingestion, patient-grouped splitting, synthetic generation."""

import json
import re
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readmit import data
from readmit.data import (AdmissionRecord, SynthConfig, generate_synthetic,
                          load_dataset, record_to_json, save_dataset,
                          split_by_patient, synth_logit, validate_record)
from readmit.errors import ConfigError, DataError
from readmit.evaluation import auc


def make_record(pid="P1", aid="A1", n=2, d=3, q=1, label=0, notes=None):
    rng = np.random.default_rng(0)
    return AdmissionRecord(
        patient_id=pid,
        admission_id=aid,
        ehr=rng.normal(size=(n, d)),
        cxr=rng.normal(size=(q, 1024)) if q else np.zeros((0, 1024)),
        notes=notes if notes is not None else ["chest pain resolved", "followup scheduled"],
        notes_kind="text",
        label=label,
    )


# ---------------------------------------------------------------------------
# validation


def test_validate_record_ok():
    assert validate_record(make_record()) == []


def test_validate_label_out_of_range():
    rec = make_record()
    rec.label = 2
    errs = validate_record(rec)
    assert any("label out of range" in e for e in errs)


def test_load_rejects_patient_id_and_label_types(tmp_path):
    """A null patient_id is no patient, and a label is the integer 0 or 1:
    each bad line is named, and integer patient IDs still read as strings."""
    good = record_to_json(make_record(pid="P1"))
    lines = [dict(good, patient_id=None), dict(good, label=True), dict(good, label=0.0),
             dict(good, patient_id=7), dict(good, label=1)]
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(DataError) as info:
        load_dataset(path)
    assert str(info.value).splitlines() == [
        f"{path}: 3 invalid record(s):",
        "line 1: patient_id must be a string or an integer, got None",
        "line 2: label out of range (must be the integer 0 or 1, got True)",
        "line 3: label out of range (must be the integer 0 or 1, got 0.0)",
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines[3:]))
    assert [r.patient_id for r in load_dataset(path).records] == ["7", "P1"]


def test_validate_cxr_dim():
    rec = make_record()
    rec.cxr = np.zeros((2, 1023))
    errs = validate_record(rec)
    assert any("cxr vector dim != 1024" in e for e in errs)


def test_validate_nan_ehr_names_position():
    rec = make_record()
    rec.ehr[1, 2] = np.nan
    errs = validate_record(rec)
    assert any("row 1" in e and "col 2" in e for e in errs)


# ---------------------------------------------------------------------------
# load / save


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["no-bytes", "blank-lines"])
def test_load_empty_file_is_a_data_error_naming_the_path(tmp_path, text):
    path = tmp_path / "empty.jsonl"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: dataset is empty$"):
        load_dataset(path)


def test_load_single_record(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(record_to_json(make_record())) + "\n")
    ds = load_dataset(path)
    assert ds.n_admissions == 1 and ds.n_patients == 1


def test_load_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record_to_json(make_record())) + "\n{oops\n")
    with pytest.raises(DataError, match="line 2"):
        load_dataset(path)


def test_load_file_that_is_not_utf8_is_a_data_error_naming_it(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(json.dumps(record_to_json(make_record())).encode() + b"\n\xff\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        load_dataset(path)


def test_load_nan_record_reports_line_and_field(tmp_path):
    rec = make_record()
    rec.ehr[0, 0] = np.inf
    obj = record_to_json(rec)
    obj["ehr"][0][0] = None  # json for non-finite
    path = tmp_path / "nan.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(DataError, match="line 1.*ehr"):
        load_dataset(path)


def test_load_inconsistent_d_is_schema_error(tmp_path):
    path = tmp_path / "mixed.jsonl"
    lines = [json.dumps(record_to_json(make_record(d=3))),
             json.dumps(record_to_json(make_record(pid="P2", aid="A2", d=4)))]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="line 2.*4 != 3"):
        load_dataset(path)


def test_save_load_roundtrip(tmp_path):
    cfg = SynthConfig(n_patients=5, seed=3)
    ds, _ = generate_synthetic(cfg)
    path = tmp_path / "ds.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.n_admissions == ds.n_admissions
    np.testing.assert_array_equal(back.records[0].ehr, ds.records[0].ehr)
    assert back.records[0].notes == ds.records[0].notes


def _record_line(**changes):
    """A valid record's JSON line with fields replaced by raw JSON text."""
    obj = record_to_json(make_record(d=2))
    for key in changes:
        obj[key] = f"<{key}>"
    line = json.dumps(obj)
    for key, raw in changes.items():
        line = line.replace(json.dumps(f"<{key}>"), raw)
    return line


@pytest.mark.parametrize("changes, problem", [
    ({"notes": "0"}, "notes must be a list, got int"),
    ({"notes": "null"}, "notes must be a list, got NoneType"),
    ({"notes": '"abc"'}, "notes must be a list, got str"),
    ({"notes": '{"x": 1}'}, "notes must be a list, got dict"),
    ({"notes": "0", "notes_kind": '"vector"'}, "notes must be a list, got int"),
    ({"cxr": "0"}, "cxr must be a list, got int"),
    ({"cxr": '""'}, "cxr must be a list, got str"),
    ({"cxr": "{}"}, "cxr must be a list, got dict"),
    ({"cxr": "null"}, "cxr must be a list, got NoneType"),
    ({"admission_id": "[1, 2]"}, "admission_id must be a string or an integer, got [1, 2]"),
    ({"admission_id": "false"}, "admission_id must be a string or an integer, got False"),
    ({"ehr": "[[1, 1" + "0" * 400 + "]]"}, "int too large to convert to float"),
], ids=["notes-0", "notes-null", "notes-string", "notes-object", "vector-notes-0",
        "cxr-0", "cxr-empty-string", "cxr-object", "cxr-null", "admission-id-list",
        "admission-id-bool", "ehr-int-beyond-double"])
def test_load_rejects_container_and_id_types(tmp_path, changes, problem):
    """notes and cxr are lists and admission_id a string or an integer; any
    other value is a problem named by its line, never an empty modality."""
    path = tmp_path / "bad.jsonl"
    path.write_text(_record_line() + "\n" + _record_line(**changes) + "\n")
    with pytest.raises(DataError) as info:
        load_dataset(path)
    assert str(info.value).splitlines() == [f"{path}: 1 invalid record(s):",
                                            f"line 2: {problem}"]


@pytest.mark.parametrize("field", ["patient_id", "label", "ehr", "notes"])
def test_load_names_a_line_nested_too_deeply_for_json(tmp_path, field):
    """json recurses once per nesting level; a line nested deeper than it can
    read is malformed JSON on its line, not a RecursionError."""
    path = tmp_path / "deep.jsonl"
    path.write_text(_record_line() + "\n"
                    + _record_line(**{field: "[" * 5000 + "]" * 5000}) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 2: malformed JSON: "
                                        "maximum recursion depth exceeded"):
        load_dataset(path)


def test_load_reads_empty_modalities_and_integer_admission_ids(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text(_record_line(cxr="[]", notes="[]", admission_id="12") + "\n"
                    + _record_line(cxr="[]", notes="[]", notes_kind='"vector"') + "\n")
    first, second = load_dataset(path).records
    assert first.admission_id == "12" and first.notes == [] and first.cxr.shape == (0, 1024)
    assert second.notes.shape == (0, 1024)


def _reject(line):
    raise orjson.JSONDecodeError("rejected", line, 0)


def _load_with_json(path):
    """load_dataset with orjson rejecting every line, so json.loads reads
    each one: the reference reader."""
    with mock.patch.object(data.orjson, "loads", _reject):
        return load_dataset(path)


def _outcome(load, path):
    try:
        return load(path).records
    except Exception as exc:  # both readers must fail alike, whatever the failure
        return (type(exc), str(exc))


_BIG_INTS = [str(2**64), str(2**64 + 1), str(2**70 + 1), str(-2**63 - 1), str(10**20),
             "1" + "0" * 400, "-0", "7"]
_NUMBER_LITERALS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400"] + _BIG_INTS
_OTHER_LITERALS = ['"\\ud800"', '"\\ud83d\\ude00"', "null", "true", "0.0", "1.5", '""',
                   '"abc"', "{}", '{"x": 1}', "[]", "[1, 2]", '["a", 1]', "[[1]]"]
_FIELDS = ["patient_id", "admission_id", "ehr", "cxr", "notes", "notes_kind", "label"]


@st.composite
def record_lines(draw):
    """A small valid record line, mutated at one place or not at all."""
    n_days, q, m = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vector = draw(st.booleans())
    finite = st.floats(allow_nan=False, allow_infinity=False)
    obj = {
        "patient_id": draw(st.one_of(st.text(max_size=3), st.integers(-9, 2**63 - 1))),
        "admission_id": draw(st.one_of(st.text(max_size=3), st.integers(0, 99))),
        "ehr": [draw(st.lists(finite, min_size=2, max_size=2)) for _ in range(n_days)],
        "cxr": rng.normal(size=(q, 1024)).tolist(),
        "notes": (rng.normal(size=(m, 1024)).tolist() if vector
                  else draw(st.lists(st.text(max_size=5), max_size=m))),
        "notes_kind": "vector" if vector else "text",
        "label": draw(st.sampled_from([0, 1])),
    }
    mutation = draw(st.sampled_from(["none", "field", "ehr", "cxr", "duplicate", "bom",
                                     "truncate"]))
    raw = draw(st.sampled_from(_NUMBER_LITERALS + _OTHER_LITERALS))
    if mutation == "field":
        obj[draw(st.sampled_from(_FIELDS))] = "<raw>"
    elif mutation == "ehr":
        obj["ehr"][draw(st.integers(0, n_days - 1))][draw(st.integers(0, 1))] = "<raw>"
        raw = draw(st.sampled_from(_NUMBER_LITERALS))
    elif mutation == "cxr" and q:
        obj["cxr"][0][draw(st.integers(0, 1023))] = "<raw>"
        raw = draw(st.sampled_from(_NUMBER_LITERALS))
    line = json.dumps(obj).replace('"<raw>"', raw)
    if mutation == "duplicate":
        line = line[:-1] + f', "{draw(st.sampled_from(_FIELDS))}": {raw}}}'
    elif mutation == "bom":
        line = "\ufeff" + line
    elif mutation == "truncate":
        line = line[:draw(st.integers(1, len(line) - 1))]
    return line


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(record_lines(), min_size=1, max_size=3))
def test_load_gives_what_a_json_reader_gives(tmp_path_factory, lines):
    """orjson parses, json decides: every record and every error of
    load_dataset equals that of the same reader built on json.loads, array
    bits, id and label types included."""
    path = tmp_path_factory.mktemp("parity") / "d.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    got, want = _outcome(load_dataset, path), _outcome(_load_with_json, path)
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for key in ("patient_id", "admission_id", "notes_kind", "label"):
            assert getattr(a, key) == getattr(b, key)
            assert type(getattr(a, key)) is type(getattr(b, key))
        arrays = ["ehr", "cxr"] + (["notes"] if b.notes_kind == "vector" else [])
        for key in arrays:
            x, y = getattr(a, key), getattr(b, key)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        if b.notes_kind == "text":
            assert a.notes == b.notes


# ---------------------------------------------------------------------------
# splitting


def synth(n_patients=10, seed=0, **kwargs):
    ds, _ = generate_synthetic(SynthConfig(n_patients=n_patients, seed=seed, **kwargs))
    return ds


def test_split_sizes_and_disjointness():
    ds = synth(10)
    train, val, test = split_by_patient(ds, (0.8, 0.1, 0.1), seed=42)
    pats = [frozenset(r.patient_id for r in part.records) for part in (train, val, test)]
    assert tuple(len(p) for p in pats) == (8, 1, 1)
    assert not (pats[0] & pats[1] or pats[0] & pats[2] or pats[1] & pats[2])


def test_split_deterministic():
    ds = synth(20)
    a = split_by_patient(ds, (0.8, 0.1, 0.1), seed=7)
    b = split_by_patient(ds, (0.8, 0.1, 0.1), seed=7)
    for pa, pb in zip(a, b):
        assert [r.admission_id for r in pa.records] == [r.admission_id for r in pb.records]


def test_split_keeps_patient_together():
    ds = synth(8, admissions_per_patient=(3, 3))
    for part in split_by_patient(ds, (0.6, 0.2, 0.2), seed=1):
        counts = {}
        for r in part.records:
            counts[r.patient_id] = counts.get(r.patient_id, 0) + 1
        assert all(c == 3 for c in counts.values())


def test_split_union_preserves_records():
    ds = synth(12)
    parts = split_by_patient(ds, (0.5, 0.25, 0.25), seed=3)
    ids = sorted(r.admission_id for part in parts for r in part.records)
    assert ids == sorted(r.admission_id for r in ds.records)


def test_split_too_few_patients():
    ds = synth(2)
    with pytest.raises(DataError, match="at least 3"):
        split_by_patient(ds, (0.8, 0.1, 0.1), seed=0)


def test_split_bad_fractions():
    ds = synth(10)
    with pytest.raises(ConfigError):
        split_by_patient(ds, (0.5, 0.2, 0.2), seed=0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 40))
def test_split_properties(seed, n):
    ds = synth(n_patients=n, seed=seed % 5)
    parts = split_by_patient(ds, (0.7, 0.15, 0.15), seed=seed)
    pats = [set(r.patient_id for r in p.records) for p in parts]
    assert all(len(p) >= 1 for p in pats)
    assert not (pats[0] & pats[1] or pats[0] & pats[2] or pats[1] & pats[2])
    total = sum(len(p.records) for p in parts)
    assert total == ds.n_admissions


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_positive_rate_near_target():
    ds, _ = generate_synthetic(SynthConfig(n_patients=500, positive_rate=0.17, seed=0))
    rate = ds.n_positive / ds.n_admissions
    assert 0.14 <= rate <= 0.20


def test_synth_deterministic_bitwise(tmp_path):
    cfg = SynthConfig(n_patients=20, seed=9)
    a, meta_a = generate_synthetic(cfg)
    b, meta_b = generate_synthetic(SynthConfig(n_patients=20, seed=9))
    assert meta_a == meta_b
    for ra, rb in zip(a.records, b.records):
        np.testing.assert_array_equal(ra.ehr, rb.ehr)
        np.testing.assert_array_equal(ra.cxr, rb.cxr)
        assert ra.notes == rb.notes and ra.label == rb.label
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(a, pa)
    save_dataset(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_synth_bayes_ceiling():
    """The generator's own logit must reach AUC >= 0.90: the signal ceiling."""
    ds, meta = generate_synthetic(SynthConfig(n_patients=500, seed=1))
    holdout = ds.records[-200:]
    scores = np.array([synth_logit(r, meta) for r in holdout])
    labels = np.array([r.label for r in holdout])
    assert auc(scores, labels) >= 0.90


@pytest.mark.parametrize("cfg", [
    SynthConfig(),
    SynthConfig(vocab=["a", "b", "c"], n_informative_tokens=3),
], ids=["default", "all-informative-vocab"])
def test_synth_labels_are_drawn_from_synth_logit(monkeypatch, cfg):
    """The raw logits the bias is calibrated on are synth_logit's, bit for
    bit, so the metadata's oracle is the logit every label was drawn from;
    this holds also when every vocabulary token is informative."""
    from readmit import data

    raws = []
    calibrate = data._calibrate_bias
    monkeypatch.setattr(data, "_calibrate_bias",
                        lambda raw, draws, rate: raws.append(raw) or calibrate(raw, draws, rate))
    ds, meta = generate_synthetic(cfg)
    (raw,) = raws
    oracle = np.array([synth_logit(r, {**meta, "bias": 0.0}) for r in ds.records])
    assert raw.tobytes() == oracle.tobytes()


def test_synth_default_dataset_bytes_are_pinned(tmp_path):
    """The default-config dataset and metadata keep the bytes they had
    before the generator drew its labels from synth_logit."""
    import hashlib

    ds, meta = generate_synthetic(SynthConfig())
    path = tmp_path / "d.jsonl"
    save_dataset(ds, path)
    digest = hashlib.sha256(path.read_bytes())
    digest.update(json.dumps(meta, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "89c1c8016f8d537d858783420fb3accc11395f8be7da77346df669d968e8aeef"


def test_synth_no_signal_is_null():
    cfg = SynthConfig(n_patients=400, n_informative_ehr=0, n_informative_tokens=0, seed=2)
    ds, meta = generate_synthetic(cfg)
    labels = np.array([r.label for r in ds.records])
    scores = np.random.default_rng(5).random(len(labels))
    assert 0.45 <= auc(scores, labels) <= 0.55
    assert meta["informative_ehr_columns"] == []
    assert meta["informative_tokens"] == []


def test_synth_vocab_too_small():
    with pytest.raises(ConfigError, match="vocab"):
        generate_synthetic(SynthConfig(vocab=["a", "b"], n_informative_tokens=3))


@pytest.mark.parametrize("field, value", [
    ("admissions_per_patient", (0, 0)), ("admissions_per_patient", (3, 1)),
    ("admissions_per_patient", (2,)), ("day_range", (0, 0)), ("day_range", (1.0, 3)),
    ("image_range", (-1, 2)), ("note_range", (2, 1)), ("tokens_per_note", (-1, 0)),
    ("tokens_per_note", 5),
])
def test_synth_range_fields_are_checked(field, value):
    with pytest.raises(ConfigError, match=field):
        generate_synthetic(SynthConfig(n_patients=3, **{field: value}))


@pytest.mark.parametrize("field, value", [
    ("d_ehr", -1), ("n_informative_ehr", -1), ("n_informative_tokens", -2), ("vocab", []),
])
def test_synth_counts_and_vocabulary_are_checked(field, value):
    cfg = SynthConfig(n_patients=3, n_informative_ehr=0, n_informative_tokens=0)
    setattr(cfg, field, value)
    with pytest.raises(ConfigError, match=f"^{field} must"):
        generate_synthetic(cfg)


def test_synth_allows_empty_images_notes_and_notes_without_tokens():
    ds, _ = generate_synthetic(SynthConfig(n_patients=4, image_range=(0, 0),
                                           note_range=(0, 1), tokens_per_note=(0, 0)))
    assert all(r.cxr.shape[0] == 0 and set(r.notes) <= {""} for r in ds.records)


def test_vector_notes_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    rec = AdmissionRecord(
        patient_id="P9", admission_id="A9",
        ehr=rng.normal(size=(2, 4)),
        cxr=np.zeros((0, 1024)),
        notes=rng.normal(size=(2, 1024)).round(6),
        notes_kind="vector",
        label=0,
    )
    assert validate_record(rec) == []
    path = tmp_path / "vec.jsonl"
    path.write_text(json.dumps(record_to_json(rec)) + "\n")
    back = load_dataset(path)
    assert back.records[0].notes_kind == "vector"
    np.testing.assert_array_equal(back.records[0].notes, rec.notes)


def test_vector_notes_bad_width_rejected():
    rec = make_record()
    rec.notes = np.zeros((2, 1000))
    rec.notes_kind = "vector"
    errs = validate_record(rec)
    assert any("notes vector dim != 1024" in e for e in errs)


def test_synth_ragged_shapes():
    ds, _ = generate_synthetic(SynthConfig(n_patients=40, seed=4))
    days = {r.ehr.shape[0] for r in ds.records}
    images = {r.cxr.shape[0] for r in ds.records}
    notes = {len(r.notes) for r in ds.records}
    assert days <= set(range(1, 11)) and len(days) > 3
    assert images <= set(range(0, 5))
    assert notes <= set(range(1, 7))
