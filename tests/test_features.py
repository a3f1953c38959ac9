"""TF-IDF, random forest, feature selection, bundle construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readmit.data import SynthConfig, generate_synthetic
from readmit.errors import ConfigError, DataError
from readmit.features import (apply_selection, build_bundle, feature_importances,
                              fit_tfidf, gini, oob_accuracy,
                              patient_mean_features, prepare_bundles,
                              select_top_k, train_random_forest,
                              transform_tfidf)


# ---------------------------------------------------------------------------
# TF-IDF


def test_tfidf_everywhere_term_has_idf_one():
    model = fit_tfidf(["alpha beta", "alpha gamma", "alpha delta"])
    idx = model.vocabulary.index("alpha")
    assert model.idf[idx] == pytest.approx(1.0, abs=1e-12)


def test_tfidf_vocab_size_small_corpus():
    model = fit_tfidf(["one two three"])
    assert len(model.vocabulary) == 3


def test_tfidf_vocab_capped_at_1024():
    corpus = [" ".join(f"tok{i}" for i in range(j * 100, j * 100 + 100)) for j in range(20)]
    model = fit_tfidf(corpus)
    assert len(model.vocabulary) == 1024


def test_tfidf_empty_corpus_errors():
    with pytest.raises(DataError, match="empty vocabulary"):
        fit_tfidf(["", "   ", "\t"])


def test_tfidf_empty_document_is_zero_row():
    model = fit_tfidf(["alpha beta"])
    out = transform_tfidf(model, [""])
    assert out.shape == (1, 1024)
    assert not out.any()


def test_tfidf_single_term_unit_vector():
    model = fit_tfidf(["alpha beta", "alpha"])
    out = transform_tfidf(model, ["beta"])
    assert np.linalg.norm(out[0]) == pytest.approx(1.0)
    assert np.count_nonzero(out[0]) == 1


def test_tfidf_hand_case():
    # both terms in every doc -> idf 1; counts [2, 1]; L2 norm sqrt(5)
    model = fit_tfidf(["a b", "a b"])
    out = transform_tfidf(model, ["a a b"])
    ia = model.vocabulary.index("a")
    ib = model.vocabulary.index("b")
    assert out[0, ia] == pytest.approx(2.0 / np.sqrt(5.0), abs=1e-12)
    assert out[0, ib] == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-12)


def test_tfidf_out_of_vocab_ignored():
    model = fit_tfidf(["alpha beta"])
    out = transform_tfidf(model, ["zzz qqq"])
    assert not out.any()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["ae b", "ce d", "ae ce", "b d e"]),
                min_size=1, max_size=6))
def test_tfidf_batch_equals_rowstack(docs):
    model = fit_tfidf(["ae b ce d e", "ae ce b", "d e b"])
    batch = transform_tfidf(model, docs)
    rows = np.vstack([transform_tfidf(model, [d]) for d in docs])
    np.testing.assert_allclose(batch, rows, atol=1e-15)


# ---------------------------------------------------------------------------
# gini


def test_gini_values():
    assert gini([1, 1, 0, 0]) == pytest.approx(0.5)
    assert gini([1, 1, 1]) == pytest.approx(0.0)
    assert gini([1, 0, 0, 0]) == pytest.approx(0.375)


def test_gini_empty_errors():
    with pytest.raises(ValueError):
        gini([])


# ---------------------------------------------------------------------------
# patient means


def test_patient_mean_features():
    ds, _ = generate_synthetic(SynthConfig(n_patients=3, seed=0))
    X, y = patient_mean_features(ds)
    assert X.shape == (ds.n_admissions, 50)
    np.testing.assert_allclose(X[0], ds.records[0].ehr.mean(axis=0))
    assert list(y) == [r.label for r in ds.records]


def test_patient_mean_single_day_is_identity():
    ds, _ = generate_synthetic(SynthConfig(n_patients=2, seed=1, day_range=(1, 1)))
    X, _ = patient_mean_features(ds)
    np.testing.assert_allclose(X[0], ds.records[0].ehr[0])


def test_patient_mean_hand_case():
    ds, _ = generate_synthetic(SynthConfig(n_patients=1, seed=0, d_ehr=2,
                                           n_informative_ehr=0,
                                           admissions_per_patient=(1, 1)))
    ds.records[0].ehr = np.array([[1.0, 2.0], [3.0, 4.0]])
    X, _ = patient_mean_features(ds)
    np.testing.assert_array_equal(X[0], [2.0, 3.0])


# ---------------------------------------------------------------------------
# random forest


def separable_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    X = rng.normal(size=(n, 6))
    X[:, 2] = y * 4.0 + rng.normal(scale=0.1, size=n)
    return X, y


def test_forest_perfectly_separable_training_accuracy():
    X, y = separable_data()
    forest = train_random_forest(X, y, n_trees=20, seed=0)
    preds = forest.predict_proba(X) >= 0.5
    assert (preds == y.astype(bool)).mean() == 1.0


def test_forest_deterministic():
    X, y = separable_data(seed=3)
    a = train_random_forest(X, y, n_trees=10, seed=5)
    b = train_random_forest(X, y, n_trees=10, seed=5)
    np.testing.assert_array_equal(a.predict_proba(X), b.predict_proba(X))
    np.testing.assert_array_equal(feature_importances(a), feature_importances(b))


def test_forest_degenerate_labels():
    X = np.zeros((5, 2))
    with pytest.raises(DataError, match="degenerate"):
        train_random_forest(X, np.ones(5, dtype=int), n_trees=5, seed=0)


def test_forest_parallel_jobs_deterministic():
    X, y = separable_data(n=120, seed=9)
    seq = train_random_forest(X, y, n_trees=12, seed=4, jobs=1)
    par = train_random_forest(X, y, n_trees=12, seed=4, jobs=3)
    np.testing.assert_array_equal(feature_importances(seq), feature_importances(par))
    np.testing.assert_array_equal(seq.predict_proba(X), par.predict_proba(X))


def _failing_pool(*args, **kwargs):
    raise OSError("process support unavailable")


def test_forest_pool_failure_warns_and_fits_sequentially(monkeypatch):
    import concurrent.futures

    X, y = separable_data(n=60, seed=1)
    seq = train_random_forest(X, y, n_trees=4, seed=2, jobs=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _failing_pool)
    with pytest.warns(RuntimeWarning, match="OSError.*4 trees sequentially"):
        par = train_random_forest(X, y, n_trees=4, seed=2, jobs=2)
    np.testing.assert_array_equal(feature_importances(seq), feature_importances(par))


def test_forest_oob_on_separable_data():
    X, y = separable_data(n=300, seed=1)
    forest = train_random_forest(X, y, n_trees=50, seed=2)
    assert oob_accuracy(forest, X, y) >= 0.9


def test_forest_shuffled_labels_oob_near_majority():
    """Permutation oracle: destroying the signal drops OOB accuracy to chance."""
    X, y = separable_data(n=300, seed=4)
    rng = np.random.default_rng(6)
    y_shuffled = y[rng.permutation(y.size)]
    forest = train_random_forest(X, y_shuffled, n_trees=50, seed=7)
    majority = max(y_shuffled.mean(), 1 - y_shuffled.mean())
    assert abs(oob_accuracy(forest, X, y_shuffled) - majority) <= 0.1


# ---------------------------------------------------------------------------
# importances and selection


def test_importances_sum_to_one_and_zero_for_unused():
    X, y = separable_data(n=150, seed=8)
    X[:, 5] = 7.0  # constant column can never split
    forest = train_random_forest(X, y, n_trees=30, seed=9)
    imp = feature_importances(forest)
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)
    assert imp[5] == 0.0
    assert (imp >= 0).all()


def test_importances_recover_planted_columns():
    ds, meta = generate_synthetic(SynthConfig(n_patients=500, seed=42))
    X, y = patient_mean_features(ds)
    forest = train_random_forest(X, y, n_trees=100, seed=42)
    imp = feature_importances(forest)
    top5 = set(select_top_k(imp, 5).indices)
    planted = set(meta["informative_ehr_columns"])
    assert len(top5 & planted) >= 4


def test_select_top_k_all():
    sel = select_top_k(np.array([0.2, 0.5, 0.3]), 3)
    assert sel.indices == [1, 2, 0]


def test_select_top_k_basic():
    sel = select_top_k(np.array([0.5, 0.3, 0.2]), 2)
    assert sel.indices == [0, 1]


def test_select_top_k_tie_prefers_lower_index():
    sel = select_top_k(np.array([0.4, 0.4, 0.2]), 1)
    assert sel.indices == [0]


def test_select_top_k_out_of_range():
    with pytest.raises(ConfigError):
        select_top_k(np.array([0.4, 0.6]), 3)


def test_select_invariant_to_rescaling():
    rng = np.random.default_rng(11)
    imp = rng.random(20)
    a = select_top_k(imp, 7).indices
    b = select_top_k(imp * 13.7, 7).indices
    assert a == b


def test_apply_selection_identity():
    ehr = np.arange(12.0).reshape(3, 4)
    sel = select_top_k(np.array([0.4, 0.3, 0.2, 0.1]), 4)
    np.testing.assert_array_equal(apply_selection(ehr, sel), ehr)


def test_apply_selection_projects_columns():
    ehr = np.arange(6.0).reshape(2, 3)
    sel = select_top_k(np.array([0.1, 0.8, 0.1]), 1)
    np.testing.assert_array_equal(apply_selection(ehr, sel), ehr[:, [1]])


def test_apply_selection_out_of_range():
    sel = select_top_k(np.array([0.5, 0.5, 0.0, 0.0, 0.0]), 5)
    with pytest.raises(DataError):
        apply_selection(np.zeros((2, 3)), sel)


# ---------------------------------------------------------------------------
# bundles


def test_build_bundle_shapes():
    ds, _ = generate_synthetic(SynthConfig(n_patients=4, seed=5))
    tfidf = fit_tfidf([n for r in ds.records for n in r.notes])
    imp = np.zeros(50)
    imp[:10] = 0.1
    sel = select_top_k(imp, 10)
    b = build_bundle(ds.records[0], ("ehr", "cxr", "notes"), sel, tfidf)
    assert b.ehr.shape[1] == 10
    assert b.cxr.shape[1] == 1024
    assert b.notes.shape == (len(ds.records[0].notes), 1024)


def test_build_bundle_empty_modality_gets_placeholder_row():
    ds, _ = generate_synthetic(SynthConfig(n_patients=10, seed=6, image_range=(0, 0)))
    b = build_bundle(ds.records[0], ("cxr",))
    assert b.cxr.shape == (1, 1024)
    assert not b.cxr.any()


def test_build_bundle_truncates_oldest_first():
    ds, _ = generate_synthetic(SynthConfig(n_patients=1, seed=7, day_range=(8, 8),
                                           admissions_per_patient=(1, 1)))
    rec = ds.records[0]
    b = build_bundle(rec, ("ehr",), max_days=3)
    np.testing.assert_array_equal(b.ehr, rec.ehr[-3:])


def test_build_bundle_inactive_modality_is_none():
    ds, _ = generate_synthetic(SynthConfig(n_patients=1, seed=8))
    b = build_bundle(ds.records[0], ("ehr",))
    assert b.cxr is None and b.notes is None


def test_build_bundle_text_notes_need_tfidf():
    ds, _ = generate_synthetic(SynthConfig(n_patients=1, seed=9))
    with pytest.raises(ConfigError, match="TF-IDF"):
        build_bundle(ds.records[0], ("notes",), tfidf=None)


def test_prepare_bundles_labels_align():
    ds, _ = generate_synthetic(SynthConfig(n_patients=6, seed=10))
    bundles, labels = prepare_bundles(ds.records, ("ehr",))
    assert len(bundles) == len(labels) == ds.n_admissions
    assert list(labels) == [r.label for r in ds.records]
