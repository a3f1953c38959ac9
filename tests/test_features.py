"""TF-IDF, random forest, feature selection, bundle construction."""

import ctypes
import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import readmit
from readmit import features
from readmit.data import SynthConfig, generate_synthetic, split_by_patient
from readmit.errors import ConfigError, DataError
from readmit.features import (apply_selection, build_bundle, feature_importances,
                              fit_tfidf, forest_selection, notes_tfidf,
                              patient_mean_features, prepare_bundles, select_top_k,
                              train_random_forest, transform_tfidf)


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
# patient means


def _reference_tfidf(model, notes):
    """A reference transform_tfidf that builds the term -> column map for
    every call, so for every record."""
    index = {t: i for i, t in enumerate(model.vocabulary)}
    out = np.zeros((len(notes), 1024))
    for row, doc in enumerate(notes):
        for term in features.tokenize(doc):
            if term in index:
                out[row, index[term]] += 1.0
        out[row, :len(model.vocabulary)] *= model.idf
        norm = np.linalg.norm(out[row])
        if norm > 0:
            out[row] /= norm
    return out


def test_prepare_bundles_notes_match_a_per_record_column_map():
    """One column map serves every record of every call: the bundles' note
    rows keep the bytes of a map rebuilt for each record."""
    ds, _ = generate_synthetic(SynthConfig(n_patients=30, seed=12))
    tfidf = fit_tfidf([n for r in ds.records[:40] for n in r.notes])
    for _ in range(2):
        bundles, _ = prepare_bundles(ds.records, ("notes",), tfidf=tfidf)
        for rec, b in zip(ds.records, bundles):
            assert b.notes.tobytes() == _reference_tfidf(tfidf, rec.notes).tobytes()
    assert tfidf.columns is tfidf.columns


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


def _root_impurity(y, seed, tree_index):
    """The Gini impurity of the bootstrap labels of tree ``tree_index`` of
    train_random_forest(X, y, seed=seed)."""
    boot = np.random.default_rng([seed, tree_index]).integers(0, y.size, size=y.size)
    p1 = y[boot].mean()
    return 1.0 - p1 ** 2 - (1.0 - p1) ** 2


def test_forest_perfectly_separable_training_accuracy():
    """Each tree grows until its leaves are pure, so it classifies its
    bootstrap without error, and its importances add up to the whole root
    impurity."""
    X, y = separable_data()
    forest = train_random_forest(X, y, n_trees=20, seed=0)
    for i, tree in enumerate(forest.trees):
        assert tree.sum() == pytest.approx(_root_impurity(y, 0, i), abs=1e-12)


def test_forest_deterministic():
    X, y = separable_data(seed=3)
    a = train_random_forest(X, y, n_trees=10, seed=5)
    b = train_random_forest(X, y, n_trees=10, seed=5)
    np.testing.assert_array_equal(a.trees, b.trees)
    np.testing.assert_array_equal(feature_importances(a), feature_importances(b))


def test_forest_degenerate_labels():
    X = np.zeros((5, 2))
    with pytest.raises(DataError, match="degenerate"):
        train_random_forest(X, np.ones(5, dtype=int), n_trees=5, seed=0)


def test_forest_rejects_input_without_columns():
    with pytest.raises(DataError, match="no feature columns"):
        train_random_forest(np.zeros((5, 0)), np.array([0, 1, 0, 1, 1]), n_trees=2, seed=0)


def test_forest_rejects_nan():
    """Ranks group every NaN into one value, so the forest names NaN input
    instead of ranking it."""
    X, y = separable_data(n=20)
    X[3, 1] = np.nan
    with pytest.raises(DataError, match="NaN"):
        train_random_forest(X, y, n_trees=2, seed=0)


def test_forest_parallel_jobs_deterministic():
    X, y = separable_data(n=120, seed=9)
    seq = train_random_forest(X, y, n_trees=12, seed=4, jobs=1)
    par = train_random_forest(X, y, n_trees=12, seed=4, jobs=3)
    np.testing.assert_array_equal(feature_importances(seq), feature_importances(par))
    assert len(seq.trees) == len(par.trees) == 12
    for a, b in zip(seq.trees, par.trees):
        np.testing.assert_array_equal(a, b)


def _sha(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def _train_short_cohort():
    ds, _ = generate_synthetic(SynthConfig(n_patients=500, seed=1))
    tr, _, _ = split_by_patient(ds, (0.7, 0.15, 0.15), seed=1)
    return patient_mean_features(tr)


# sha256 of the input (X then y), of feature_importances and of the stacked
# per-tree importances.  The first was recorded with the earlier forest that
# re-sorted every candidate feature at every node, the second with the one
# that still stored each tree's node table.  The forest must match both byte
# for byte.
FOREST_PINS = [
    pytest.param(_train_short_cohort, 100, 1,
                 "b147e56f6765c472b7a86547017e930d9198a14cf80524086a8c27846c32025f",
                 "65be4d2f45d28fbd5bb7371f20852373a74285a7095d2c6f70e2447740ef0181",
                 "3d7003209abc55b45b4e4b1d9d3feab48646268f36b6754bf440422cf7b72e55",
                 id="train_short_cohort"),
    pytest.param(separable_data, 20, 0,
                 "f861c4bf46e763cd6d6078338b929a87477604d93bf7c4f0d4d6f23df085faaf",
                 "99ba22c8bd8c025a5f844c73e7e9c5596a9bdb6488cca606e025ff565f8ab4ae",
                 "7e061913a27529282d7824958af081c37a4db26236ac9b6764a0d797d9a4f0b9",
                 id="separable_data"),
]


@pytest.mark.parametrize("make, n_trees, seed, input_sha, imp_sha, trees_sha", FOREST_PINS)
def test_forest_output_pinned(make, n_trees, seed, input_sha, imp_sha, trees_sha):
    X, y = make()
    assert _sha(X, y) == input_sha, "the forest's input changed, not the forest"
    forest = train_random_forest(X, y, n_trees=n_trees, seed=seed)
    assert _sha(feature_importances(forest)) == imp_sha
    assert _sha(np.stack(forest.trees)) == trees_sha


_FIT = """
import numpy as np
from readmit.features import train_random_forest
train_random_forest(np.array({X}), np.array({y}), n_trees=5, seed=0)
"""


@pytest.mark.parametrize("values, labels", [
    ([np.nextafter(1.0, 0.0), 1.0], [0, 1]),
    ([np.nextafter(1.0, 0.0), 1.0, 2.0], [0, 1, 0]),
], ids=["pair", "values_above"])
def test_forest_split_between_adjacent_floats(values, labels):
    """A cut between two adjacent floats must still split the rows: the fit
    returns, and each tree's splits take the whole root impurity, so its
    leaves are pure."""
    X = np.array([[v] for v in values] * 10)
    y = np.array(labels * 10)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(readmit.__file__)))
    code = _FIT.format(X=X.tolist(), y=y.tolist())
    try:
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("the forest fit did not return within 60 s")
    forest = train_random_forest(X, y, n_trees=5, seed=0)
    for i, tree in enumerate(forest.trees):
        assert tree[0] == pytest.approx(_root_impurity(y, 0, i), abs=1e-12)


def _reference_tree(X, y, seed, tree_index):
    """Tree `tree_index` of train_random_forest(X, y, seed=seed) grown by the
    earlier per-node loop, which argsorts each candidate afresh at each node.
    Returns the tree's importances."""
    rng = np.random.default_rng([seed, tree_index])
    m, d = X.shape
    boot = rng.integers(0, m, size=m)
    Xb, yb = X[boot], y[boot]
    importance = np.zeros(d)
    stack = [np.arange(m)]                      # rows of (Xb, yb) at a node
    while stack:
        idx = stack.pop()
        n, pos = idx.size, yb[idx].sum()
        if not 0 < pos < n:
            continue
        best, best_score = None, np.inf
        for f in np.sort(rng.choice(d, size=int(np.ceil(np.sqrt(d))), replace=False)):
            order = idx[np.argsort(Xb[idx, f], kind="stable")]
            sx = Xb[order, f]
            n_left = np.arange(1, n).astype(float)
            pos_left = np.cumsum(yb[order])[:-1].astype(float)
            p1l, p1r = pos_left / n_left, (pos - pos_left) / (n - n_left)
            weighted = (n_left * (1.0 - p1l ** 2 - (1.0 - p1l) ** 2)
                        + (n - n_left) * (1.0 - p1r ** 2 - (1.0 - p1r) ** 2)) / n
            weighted[sx[1:] == sx[:-1]] = np.inf
            i = int(np.argmin(weighted))
            if weighted[i] < best_score - 1e-15:
                best, best_score = (f, sx[i]), weighted[i]
        p1 = pos / n
        gain = 1.0 - (1.0 - p1) ** 2 - p1 ** 2 - best_score
        if best is None or gain <= 1e-15:
            continue
        f, lo = best
        importance[f] += n / m * gain
        go = Xb[idx, f] <= lo
        stack += [idx[go], idx[~go]]
    return importance


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), levels=st.integers(2, 6))
def test_forest_matches_per_node_sort_reference(seed, levels):
    """Few distinct values per column, so ties decide many splits."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(60, 7)).astype(float)
    y = (X[:, 0] + rng.integers(0, 2, size=60) >= levels / 2).astype(int)
    y[:2] = [0, 1]
    forest = train_random_forest(X, y, n_trees=3, seed=seed)
    for i, tree in enumerate(forest.trees):
        np.testing.assert_array_equal(tree, _reference_tree(X, y, seed, i))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16), levels=st.integers(2, 6))
def test_forest_batches_match_per_node_sort_reference(seed, levels):
    """As above, with a row budget of two trees, so five trees take three
    batches."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(60, 7)).astype(float)
    y = (X[:, 0] + rng.integers(0, 2, size=60) >= levels / 2).astype(int)
    y[:2] = [0, 1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "_ROW_BUDGET", 2 * 60)
        forest = train_random_forest(X, y, n_trees=5, seed=seed)
    for i, tree in enumerate(forest.trees):
        np.testing.assert_array_equal(tree, _reference_tree(X, y, seed, i))


def test_forest_tree_importances_do_not_depend_on_the_batch(monkeypatch):
    """Each tree draws from its own stream, so its importances have the same
    bytes grown alone, in one batch with every tree, or in a run that the row
    budget splits into batches of unequal size."""
    rng = np.random.default_rng(21)
    X = np.round(rng.normal(size=(1500, 9)), 2)
    y = (X[:, 0] + X[:, 4] + rng.normal(size=1500) > 0).astype(int)
    n_trees = 25
    per_batch = features._ROW_BUDGET // len(y)
    assert 1 < per_batch < n_trees and n_trees % per_batch
    runs = [train_random_forest(X, y, n_trees=n_trees, seed=3).trees]
    for budget in (1, n_trees * len(y)):           # batches of one; one batch
        monkeypatch.setattr(features, "_ROW_BUDGET", budget)
        runs.append(train_random_forest(X, y, n_trees=n_trees, seed=3).trees)
    for split, alone, together in zip(*runs):
        assert split.tobytes() == alone.tobytes() == together.tobytes()


def test_forest_traced_peak_is_bounded_by_the_row_budget():
    """A round holds a few (k, rows) arrays for at most _ROW_BUDGET rows: on
    the train_short cohort (512 rows, 100 trees) the traced peak is about
    4.6 MB, while one batch of all 100 trees peaks at about 17 MB."""
    X, y = _train_short_cohort()
    tracemalloc.start()
    try:
        train_random_forest(X, y, n_trees=100, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


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


# Each shared object a worker sees, kept alive so that two copies cannot
# share an id.
_kept = []


def _pid_and_shared_id(shared, a):
    _kept.append(shared)
    return os.getpid(), id(shared)


def test_process_map_gives_shared_to_each_worker_once():
    shared = {"rows": np.arange(1000)}
    got = features.process_map(_pid_and_shared_id, range(6), 2, "six calls", shared=shared)
    pairs = set(got)
    assert len(got) == 6 and len(pairs) <= 2
    assert len({pid for pid, _ in pairs}) == len(pairs)       # one id per worker
    try:
        got = features.process_map(_pid_and_shared_id, range(3), 1, "three calls",
                                   shared=shared)
    finally:
        _kept.clear()
    assert got == [(os.getpid(), id(shared))] * 3


def _blas_threads():
    """What each loaded BLAS's thread getter reports in this process."""
    counts = []
    for path, name in features.blas_thread_symbols("get"):
        getter = getattr(ctypes.CDLL(path, mode=os.RTLD_NOLOAD), name)
        getter.argtypes = []
        getter.restype = ctypes.c_int
        counts.append(getter())
    return counts


def _worker_blas_threads(shared, a):
    return _blas_threads()


def _set_blas_threads(counts):
    for (path, name), n in zip(features.blas_thread_symbols("set"), counts, strict=True):
        setter = getattr(ctypes.CDLL(path, mode=os.RTLD_NOLOAD), name)
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(n)


def test_pool_workers_run_one_blas_thread_and_the_parent_keeps_its_count():
    if not features.blas_thread_symbols("set"):
        pytest.skip("no BLAS thread setter among the loaded libraries, so nothing to cap")
    before = _blas_threads()
    try:
        _set_blas_threads([2] * len(before))
        got = features.process_map(_worker_blas_threads, range(2), 2, "two calls")
        parent = _blas_threads()
    finally:
        _set_blas_threads(before)
    assert got == [[1] * len(before)] * 2
    assert parent == [2] * len(before)


def test_pool_without_a_blas_thread_setter_warns_and_still_runs(monkeypatch):
    monkeypatch.setattr(features, "blas_thread_symbols", lambda verb: [])
    with pytest.warns(RuntimeWarning, match="no BLAS thread setter.*3 calls run on 2 workers"):
        got = features.process_map(_pid_and_shared_id, range(3), 2, "3 calls", shared=1)
    _kept.clear()
    assert len(got) == 3


@pytest.mark.parametrize("jobs,n_args,workers", [(8, 3, [3]), (2, 5, [2]), (4, 1, [])])
def test_process_map_starts_at_most_one_worker_per_call(pool_sizes, jobs, n_args, workers):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = features.process_map(lambda shared, a: a * shared, range(n_args), jobs, "calls",
                                   shared=10)
    assert got == [10 * a for a in range(n_args)]
    assert pool_sizes == workers


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_a_config_error(jobs):
    X, y = separable_data(n=20, seed=1)
    with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
        train_random_forest(X, y, n_trees=2, jobs=jobs)
    with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
        features.process_map(_pid_and_shared_id, range(2), jobs, "two calls")


def test_forest_importance_goes_to_the_separating_column():
    X, y = separable_data(n=300, seed=1)
    forest = train_random_forest(X, y, n_trees=50, seed=2)
    assert feature_importances(forest)[2] >= 0.9


def test_forest_shuffled_labels_spread_the_importance():
    """Permutation oracle: with the signal destroyed, the separating column
    falls back to about an even share, 1/6 of the importance."""
    X, y = separable_data(n=300, seed=4)
    rng = np.random.default_rng(6)
    y_shuffled = y[rng.permutation(y.size)]
    imp = feature_importances(train_random_forest(X, y_shuffled, n_trees=50, seed=7))
    np.testing.assert_allclose(imp, 1 / 6, atol=0.06)


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
    with pytest.raises(DataError, match=r"selection indices \[3, 4\] out of range for 3 EHR"):
        apply_selection(np.zeros((2, 3)), sel)


def test_forest_selection_is_the_forest_chain_on_the_records():
    ds, _ = generate_synthetic(SynthConfig(n_patients=30, seed=3))
    records = ds.records[:40]
    X = np.stack([r.ehr.mean(axis=0) for r in records])
    y = np.array([r.label for r in records])
    expected = select_top_k(feature_importances(
        train_random_forest(X, y, n_trees=7, seed=2)), 6)
    got = forest_selection(records, 6, trees=7, seed=2, jobs=2)
    assert got.to_json() == expected.to_json()


def test_notes_tfidf_fits_the_text_notes_of_active_notes_only():
    ds, _ = generate_synthetic(SynthConfig(n_patients=5, seed=4))
    corpus = [n for r in ds.records for n in r.notes]
    assert notes_tfidf(ds.records, ("ehr", "notes")).to_json() == fit_tfidf(corpus).to_json()
    assert notes_tfidf(ds.records, ("ehr",)) is None
    vectors = [replace(r, notes=np.zeros((1, 1024)), notes_kind="vector") for r in ds.records]
    assert notes_tfidf(vectors, ("notes",)) is None
    silent = [replace(r, notes=[]) for r in ds.records]
    with pytest.raises(DataError, match="no note text"):
        notes_tfidf(silent, ("notes",))


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
    with pytest.raises(DataError, match="TF-IDF"):
        build_bundle(ds.records[0], ("notes",), tfidf=None)


def test_bundle_caps_default_to_the_model_caps():
    import inspect

    from readmit.model import ModelConfig

    caps = ModelConfig().caps()
    params = inspect.signature(build_bundle).parameters
    assert {name: params[name].default for name in caps} == caps


def test_prepare_bundles_labels_align():
    ds, _ = generate_synthetic(SynthConfig(n_patients=6, seed=10))
    bundles, labels = prepare_bundles(ds.records, ("ehr",))
    assert len(bundles) == len(labels) == ds.n_admissions
    assert list(labels) == [r.label for r in ds.records]
