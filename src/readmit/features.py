"""Feature pipelines: TF-IDF note vectors, random-forest EHR selection, bundles.

TF-IDF uses the smoothed convention idf = ln((1+N)/(1+df)) + 1 with raw term
counts and L2 row normalization; vocabulary is capped at the 1024 terms with
the highest document frequency (ties broken lexicographically) so note
vectors always have width 1024.

The forest is plain CART with Gini impurity: bootstrap per tree, ceil(sqrt(d))
candidate features per node, unlimited depth, min_samples_split=2.  It exists
only to rank EHR columns, so each tree records nothing but its mean decrease
in impurity per feature; importances are those averaged over trees and
normalized to sum 1.

Each tree sorts its bootstrap once per feature (CART presorting).  A split
partitions those sorted row lists, so a node scores all its candidates with
one cumsum and no sort.  Only cuts between distinct values are scored, so the
order of tied rows changes nothing.  Tie rule: in ascending feature order, a
candidate wins only if its weighted Gini is more than 1e-15 below the best so
far; within a feature the lowest cut wins.
"""

import re
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import CXR_DIM, NOTES_DIM, Dataset
from .errors import ConfigError, DataError
from .model import ModelConfig

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


def fit_tfidf(corpus):
    """Fit vocabulary and idf weights on a corpus of documents."""
    if not corpus:
        raise DataError("cannot fit TF-IDF on an empty corpus")
    df = {}
    for doc in corpus:
        for term in set(tokenize(doc)):
            df[term] = df.get(term, 0) + 1
    if not df:
        raise DataError("empty vocabulary: no tokens found in corpus")
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:NOTES_DIM]
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


@dataclass
class Forest:
    trees: list                 # per tree, its unnormalized MDI per feature


def _grow_tree(X, y, ranks, rng):
    """The unnormalized MDI per feature of one tree grown on its bootstrap
    sample (X, y); ranks (d, m) are X's columns as dense integer ranks, which
    a stable radix sort orders fast."""
    m, d = X.shape
    k = int(np.ceil(np.sqrt(d)))
    importance = np.zeros(d)
    # A node holds its rows as a (d, n) block: row f lists them in ascending
    # X[:, f].  Every block row holds the same rows, so a child's mask keeps
    # the same count in each and reshapes to (d, n_child).
    stack = [(np.argsort(ranks, axis=1, kind="stable"), int(y.sum()))]
    n_left = np.arange(1.0, m)
    while stack:
        block, pos = stack.pop()
        n = block.shape[1]
        if not 0 < pos < n:                 # pure: a leaf, and no draw
            continue
        p1 = pos / n
        parent = 1.0 - (1.0 - p1) ** 2 - p1 ** 2
        feats = np.sort(rng.choice(d, size=k, replace=False))
        cand = block[feats]
        xs = X[cand, feats[:, None]]
        pos_left = np.cumsum(y[cand], axis=1)[:, :-1].astype(float)
        nl = n_left[:n - 1]
        p1l = pos_left / nl
        p1r = (pos - pos_left) / (n - nl)
        gini_l = 1.0 - p1l ** 2 - (1.0 - p1l) ** 2
        gini_r = 1.0 - p1r ** 2 - (1.0 - p1r) ** 2
        weighted = (nl * gini_l + (n - nl) * gini_r) / n
        weighted[xs[:, 1:] == xs[:, :-1]] = np.inf
        at = weighted.argmin(axis=1)
        # Ascending feature order; a later feature must win by more than 1e-15.
        best, best_score = None, np.inf
        for j, score in enumerate(weighted[np.arange(k), at].tolist()):
            if score < best_score - 1e-15:
                best, best_score = j, score
        if best is None or parent - best_score <= 1e-15:
            continue
        i = int(at[best])
        importance[feats[best]] += (n / m) * (parent - best_score)
        goes_left = np.zeros(m, dtype=bool)
        goes_left[cand[best, :i + 1]] = True
        mask = goes_left[block]
        lpos = int(pos_left[best, i])
        stack.append((block[mask].reshape(d, i + 1), lpos))
        stack.append((block[~mask].reshape(d, n - i - 1), pos - lpos))
    return importance


def _fit_trees(X, y, seed, indices):
    """The importances of trees ``indices``; tree i draws only from its own
    (seed, i) stream."""
    trees = []
    m = X.shape[0]
    ranks = np.array([np.unique(col, return_inverse=True)[1] for col in X.T],
                     dtype=np.min_scalar_type(m))
    for i in indices:
        rng = np.random.default_rng([seed, i])
        boot = rng.integers(0, m, size=m)
        trees.append(_grow_tree(X[boot], y[boot], ranks[:, boot], rng))
    return trees


def train_random_forest(X, y, n_trees=100, seed=0, jobs=1):
    """Fit a bootstrap forest; deterministic given (X, y, seed) for any jobs.
    Each worker fits one contiguous range of trees, so X and y are sent once."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[0] < 2:
        raise DataError(f"need at least 2 samples to fit a forest, got {X.shape[0]}")
    if y.min() == y.max():
        raise DataError("degenerate labels: only one class present")
    jobs = max(jobs, 1)
    ranges = [range(n_trees * w // jobs, n_trees * (w + 1) // jobs) for w in range(jobs)]
    parts = process_map(partial(_fit_trees, X, y, seed), ranges, jobs, f"{n_trees} trees")
    return Forest(trees=[t for part in parts for t in part])


def process_map(fn, args, jobs, what):
    """``[fn(a) for a in args]``, on ``jobs`` worker processes when jobs > 1.
    If the pool cannot start, warn and run the calls in order; ``what``
    names the calls in the warning."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                return list(pool.map(fn, args))
        except OSError as exc:
            warnings.warn(f"process pool failed ({exc!r}); running {what} sequentially",
                          RuntimeWarning, stacklevel=3)
    return [fn(a) for a in args]


def feature_importances(forest):
    """Mean-decrease-in-impurity importances, normalized to sum 1."""
    total = np.mean(forest.trees, axis=0)
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
    bad = [i for i in sel.indices if not 0 <= i < ehr.shape[1]]
    if bad:
        raise DataError(f"selection indices {bad} out of range for {ehr.shape[1]} EHR columns")
    return ehr[:, sel.indices]


def patient_mean_features(ds):
    """Per-admission day-averaged EHR rows and labels, in record order."""
    X = np.stack([rec.ehr.mean(axis=0) for rec in ds.records])
    y = np.array([rec.label for rec in ds.records], dtype=int)
    return X, y


def forest_selection(records, k, trees, seed, jobs=1):
    """The top ``k`` EHR columns by the importances of a forest fit on the
    day-averaged EHR rows of ``records``."""
    X, y = patient_mean_features(Dataset(records=records, ehr_feature_names=[]))
    forest = train_random_forest(X, y, n_trees=trees, seed=seed, jobs=jobs)
    return select_top_k(feature_importances(forest), k)


def notes_tfidf(records, modalities):
    """The TF-IDF fit on the note text of ``records``; None when notes are
    inactive or every record carries note vectors."""
    if "notes" not in modalities or all(r.notes_kind != "text" for r in records):
        return None
    corpus = [note for r in records if r.notes_kind == "text" for note in r.notes]
    if not corpus:
        raise DataError("notes modality active but no note text in the training records")
    return fit_tfidf(corpus)


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


def build_bundle(rec, modalities, selection=None, tfidf=None, max_days=ModelConfig.max_days,
                 max_images=ModelConfig.max_images, max_notes=ModelConfig.max_notes):
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
                raise DataError("notes are raw text but no fitted TF-IDF model was given")
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


def prepare_bundles(records, modalities, selection=None, tfidf=None, **caps):
    """Bundles plus the label vector for a list of records; ``caps`` are
    ``build_bundle``'s sequence caps, by keyword."""
    bundles = [build_bundle(r, modalities, selection, tfidf, **caps) for r in records]
    labels = np.array([r.label for r in records], dtype=int)
    return bundles, labels
