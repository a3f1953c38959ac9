"""Feature pipelines: TF-IDF note vectors, random-forest EHR selection, bundles.

TF-IDF uses the smoothed convention idf = ln((1+N)/(1+df)) + 1 with raw term
counts and L2 row normalization; vocabulary is capped at the 1024 terms with
the highest document frequency (ties broken lexicographically) so note
vectors always have width 1024.

The forest is plain CART with Gini impurity: bootstrap per tree, ceil(sqrt(d))
candidate features per node, unlimited depth, min_samples_split=2.  Feature
importances are mean decrease in impurity averaged over trees and normalized
to sum 1.
"""

import re
import warnings
from dataclasses import dataclass

import numpy as np

from .data import CXR_DIM, NOTES_DIM
from .errors import ConfigError, DataError

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text):
    return _TOKEN_RE.findall(text.lower())


@dataclass
class TfidfModel:
    vocabulary: list          # term order defines column index
    idf: np.ndarray
    n_docs_fitted: int

    def to_json(self):
        return {
            "vocabulary": list(self.vocabulary),
            "idf": self.idf.tolist(),
            "n_docs_fitted": self.n_docs_fitted,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            vocabulary=list(obj["vocabulary"]),
            idf=np.asarray(obj["idf"], dtype=float),
            n_docs_fitted=int(obj["n_docs_fitted"]),
        )


def fit_tfidf(corpus, max_dim=NOTES_DIM):
    """Fit vocabulary and idf weights on a corpus of documents."""
    if not corpus:
        raise DataError("cannot fit TF-IDF on an empty corpus")
    if max_dim < 1 or max_dim > NOTES_DIM:
        raise ConfigError(f"max_dim must be in [1, {NOTES_DIM}], got {max_dim}")
    df = {}
    for doc in corpus:
        for term in set(tokenize(doc)):
            df[term] = df.get(term, 0) + 1
    if not df:
        raise DataError("empty vocabulary: no tokens found in corpus")
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:max_dim]
    vocabulary = [term for term, _ in ranked]
    n = len(corpus)
    idf = np.array([np.log((1.0 + n) / (1.0 + df[t])) + 1.0 for t in vocabulary])
    return TfidfModel(vocabulary=vocabulary, idf=idf, n_docs_fitted=n)


def transform_tfidf(model, notes):
    """Vectorize documents to an (m, 1024) matrix of L2-normalized tf-idf rows."""
    index = {t: i for i, t in enumerate(model.vocabulary)}
    out = np.zeros((len(notes), NOTES_DIM))
    for row, doc in enumerate(notes):
        for term in tokenize(doc):
            col = index.get(term)
            if col is not None:
                out[row, col] += 1.0
        out[row, : len(model.vocabulary)] *= model.idf
        norm = np.linalg.norm(out[row])
        if norm > 0:
            out[row] /= norm
    return out


# ---------------------------------------------------------------------------
# random forest


def gini(labels):
    """Binary Gini impurity: 1 - p0^2 - p1^2."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("gini of an empty label set")
    p1 = labels.mean()
    return 1.0 - (1.0 - p1) ** 2 - p1 ** 2


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "p1")

    def __init__(self, feature=-1, threshold=0.0, left=None, right=None, p1=0.0):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.p1 = p1

    @property
    def is_leaf(self):
        return self.feature < 0


@dataclass
class Tree:
    root: _Node
    importance: np.ndarray      # unnormalized MDI contributions
    oob_mask: np.ndarray        # rows never drawn in this tree's bootstrap

    def predict_proba(self, X):
        out = np.empty(X.shape[0])
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.p1
                continue
            left = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[left]))
            stack.append((node.right, idx[~left]))
        return out


@dataclass
class Forest:
    trees: list
    n_features: int
    seed: int

    def predict_proba(self, X):
        return np.mean([t.predict_proba(X) for t in self.trees], axis=0)


def _best_split(X, y, idx, features):
    """Best Gini split at a node; ties go to the lowest feature index, then
    the lowest threshold.  Returns (feature, threshold, gain) or None."""
    n = idx.size
    parent = gini(y[idx])
    if parent <= 0.0:
        return None
    best = None
    best_score = np.inf
    positions = np.arange(1, n)
    for f in features:
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        sx = xs[order]
        sy = y[idx[order]]
        valid = sx[1:] != sx[:-1]
        if not valid.any():
            continue
        pos_left = np.cumsum(sy)[:-1].astype(float)
        n_left = positions.astype(float)
        n_right = n - n_left
        pos_right = y[idx].sum() - pos_left
        p1l = pos_left / n_left
        p1r = pos_right / n_right
        gini_l = 1.0 - p1l ** 2 - (1.0 - p1l) ** 2
        gini_r = 1.0 - p1r ** 2 - (1.0 - p1r) ** 2
        weighted = (n_left * gini_l + n_right * gini_r) / n
        weighted[~valid] = np.inf
        i = int(np.argmin(weighted))
        if weighted[i] < best_score - 1e-15:
            best_score = weighted[i]
            best = (f, 0.5 * (sx[i] + sx[i + 1]), parent - weighted[i])
    if best is None or best[2] <= 1e-15:
        return None
    return best


def _grow_tree(X, y, rng, n_root):
    d = X.shape[1]
    k = int(np.ceil(np.sqrt(d)))
    importance = np.zeros(d)
    all_idx = np.arange(X.shape[0])

    def make(idx):
        node = _Node(p1=float(y[idx].mean()))
        stack = [(node, idx)]
        while stack:
            cur, cur_idx = stack.pop()
            if cur_idx.size < 2 or y[cur_idx].min() == y[cur_idx].max():
                continue
            feats = np.sort(rng.choice(d, size=k, replace=False))
            split = _best_split(X, y, cur_idx, feats)
            if split is None:
                continue
            f, thr, gain = split
            importance[f] += (cur_idx.size / n_root) * gain
            left_mask = X[cur_idx, f] <= thr
            li, ri = cur_idx[left_mask], cur_idx[~left_mask]
            cur.feature, cur.threshold = f, thr
            cur.left = _Node(p1=float(y[li].mean()))
            cur.right = _Node(p1=float(y[ri].mean()))
            stack.append((cur.left, li))
            stack.append((cur.right, ri))
        return node

    return make(all_idx), importance


def _fit_tree(X, y, seed, tree_index):
    rng = np.random.default_rng([seed, tree_index])
    m = X.shape[0]
    boot = rng.integers(0, m, size=m)
    oob = np.ones(m, dtype=bool)
    oob[boot] = False
    Xb, yb = X[boot], y[boot]
    root, imp = _grow_tree(Xb, yb, rng, m)
    return Tree(root=root, importance=imp, oob_mask=oob)


def train_random_forest(X, y, n_trees=100, seed=0, jobs=1):
    """Fit a bootstrap forest; deterministic given (X, y, seed) for any jobs."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[0] < 2:
        raise DataError(f"need at least 2 samples to fit a forest, got {X.shape[0]}")
    if y.min() == y.max():
        raise DataError("degenerate labels: only one class present")
    if jobs > 1:
        trees = _parallel_trees(X, y, n_trees, seed, jobs)
    else:
        trees = [_fit_tree(X, y, seed, i) for i in range(n_trees)]
    return Forest(trees=trees, n_features=X.shape[1], seed=seed)


def _parallel_trees(X, y, n_trees, seed, jobs):
    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_fit_tree, X, y, seed, i) for i in range(n_trees)]
            return [f.result() for f in futures]
    except OSError as exc:
        warnings.warn(f"process pool failed ({exc!r}); fitting {n_trees} trees sequentially",
                      RuntimeWarning, stacklevel=3)
        return [_fit_tree(X, y, seed, i) for i in range(n_trees)]


def oob_accuracy(forest, X, y):
    """Out-of-bag accuracy: each row scored only by trees that never saw it."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    votes = np.zeros(X.shape[0])
    counts = np.zeros(X.shape[0])
    for tree in forest.trees:
        mask = tree.oob_mask
        if mask.any():
            votes[mask] += tree.predict_proba(X[mask])
            counts[mask] += 1
    scored = counts > 0
    preds = (votes[scored] / counts[scored]) >= 0.5
    return float((preds == y[scored].astype(bool)).mean())


def feature_importances(forest):
    """Mean-decrease-in-impurity importances, normalized to sum 1."""
    total = np.mean([t.importance for t in forest.trees], axis=0)
    s = total.sum()
    return total / s if s > 0 else total


@dataclass
class FeatureSelection:
    importances: np.ndarray
    indices: list               # k indices, descending importance

    @property
    def k(self):
        return len(self.indices)

    def to_json(self):
        return {
            "k": self.k,
            "indices": [int(i) for i in self.indices],
            "importances": self.importances.tolist(),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            importances=np.asarray(obj["importances"], dtype=float),
            indices=[int(i) for i in obj["indices"]],
        )


def select_top_k(importances, k):
    """Indices of the k largest importances; ties broken by ascending index."""
    importances = np.asarray(importances, dtype=float)
    d = importances.size
    if not 1 <= k <= d:
        raise ConfigError(f"k must be in [1, {d}], got {k}")
    order = np.lexsort((np.arange(d), -importances))
    return FeatureSelection(importances=importances, indices=[int(i) for i in order[:k]])


def apply_selection(ehr, sel):
    ehr = np.asarray(ehr)
    if any(i < 0 or i >= ehr.shape[1] for i in sel.indices):
        raise DataError(
            f"selection index out of range for {ehr.shape[1]} EHR columns: {sel.indices}"
        )
    return ehr[:, sel.indices]


def patient_mean_features(ds):
    """Per-admission day-averaged EHR rows and labels, in record order."""
    X = np.stack([rec.ehr.mean(axis=0) for rec in ds.records])
    y = np.array([rec.label for rec in ds.records], dtype=int)
    return X, y


# ---------------------------------------------------------------------------
# model-ready bundles


@dataclass
class FeatureBundle:
    """Post-pipeline numeric inputs for one admission (None = inactive modality)."""

    ehr: object = None          # (n, k)
    cxr: object = None          # (q, 1024)
    notes: object = None        # (m, 1024)

    def get(self, modality):
        return getattr(self, modality)


def build_bundle(rec, modalities, selection=None, tfidf=None,
                 max_days=64, max_images=16, max_notes=32):
    """Turn a record into model inputs for the requested modalities.

    Sequences are truncated oldest-first to the configured caps.  An active
    modality with no data contributes a single zero row so the encoders
    always see at least one position.
    """
    bundle = FeatureBundle()
    if "ehr" in modalities:
        mat = apply_selection(rec.ehr, selection) if selection is not None else rec.ehr
        bundle.ehr = _cap(mat, max_days, mat.shape[1])
    if "cxr" in modalities:
        bundle.cxr = _cap(rec.cxr, max_images, CXR_DIM)
    if "notes" in modalities:
        if rec.notes_kind == "vector":
            mat = np.asarray(rec.notes, dtype=float)
        else:
            if tfidf is None:
                raise ConfigError("notes are raw text but no fitted TF-IDF model was given")
            mat = transform_tfidf(tfidf, list(rec.notes))
        bundle.notes = _cap(mat, max_notes, NOTES_DIM)
    return bundle


def _cap(mat, limit, width):
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        return np.zeros((1, width))
    if mat.shape[0] > limit:
        mat = mat[-limit:]
    return mat


def prepare_bundles(records, modalities, selection=None, tfidf=None,
                    max_days=64, max_images=16, max_notes=32):
    """Bundles plus the label vector for a list of records."""
    bundles = [
        build_bundle(r, modalities, selection, tfidf, max_days, max_images, max_notes)
        for r in records
    ]
    labels = np.array([r.label for r in records], dtype=int)
    return bundles, labels
