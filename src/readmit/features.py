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

The trees grow in lockstep, a batch at a time.  Each round takes the next
impure node of every unfinished tree in the batch, in that tree's depth-first
order, and scores all their candidate columns with one set of array ops: a
stable radix sort on a (node, rank) key orders each node's rows by each of
its candidates, then one cumsum that restarts at each node gives every cut's
Gini.  Tree i still draws its bootstrap and each node's candidates from its
own (seed, i) stream in its own node order, so a tree's importances do not
depend on the batch it grows in, nor on --jobs.  A batch holds as many trees
as fit a fixed row budget (_ROW_BUDGET bootstrap rows in all), which bounds
a round's working set whatever the number of trees.  Only cuts between
distinct values are scored, so the order of tied rows changes nothing.  Tie
rule: in ascending feature order, a candidate wins only if its weighted Gini
is more than 1e-15 below the best so far; within a feature the lowest cut
wins.
"""

import ctypes
import os
import re
import warnings
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def columns(self):
        """term -> column index, built once per model."""
        return {t: i for i, t in enumerate(self.vocabulary)}

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
    columns = model.columns
    out = np.zeros((len(notes), NOTES_DIM))
    for row, doc in enumerate(notes):
        for term in tokenize(doc):
            col = columns.get(term)
            if col is not None:
                out[row, col] += 1.0
        out[row, : len(model.vocabulary)] *= model.idf
        norm = np.linalg.norm(out[row])
        if norm > 0:
            out[row] /= norm
    return out


# ---------------------------------------------------------------------------
# random forest


# Trees in a selection forest when the caller names no count.
FOREST_TREES = 100


@dataclass
class Forest:
    trees: list                 # per tree, its unnormalized MDI per feature


# A round scores at most this many rows, summed over its nodes: a batch
# holds _ROW_BUDGET // m trees of m rows.  A round's (k, rows) float64 arrays
# then take at most 1 MB each (k = 8), and a (node, rank) key fits 16 bits.
_ROW_BUDGET = 1 << 14


def _grow_trees(ranks, y, rngs):
    """The unnormalized MDI per feature of each tree that draws from a stream
    of ``rngs``, grown in lockstep; ranks (d, m) are X's columns as dense
    integer ranks.

    A node is (rows, pos): its rows of X, bootstrap repeats included, in any
    order, and its count of positives.  Each round pops the next impure node
    of every unfinished tree and scores them all at once."""
    d, m = ranks.shape
    k = int(np.ceil(np.sqrt(d)))
    n_ranks = int(ranks.max()) + 1
    key_type = np.min_scalar_type(len(rngs) * n_ranks - 1)
    ranks = ranks.astype(key_type).ravel()      # feature f of row r at f * m + r
    importance = np.zeros((len(rngs), d))
    stacks = []
    for rng in rngs:
        boot = rng.integers(0, m, size=m)
        pos = int(y[boot].sum())
        stacks.append([(boot.astype(np.min_scalar_type(m)), pos)] if 0 < pos < m else [])
    y = y.astype(float)
    while True:
        live = [t for t, stack in enumerate(stacks) if stack]
        if not live:
            return list(importance)
        nodes = [stacks[t].pop() for t in live]
        # Each tree draws from its own stream in its own depth-first order, so
        # its draws do not depend on the batch.
        feats = np.array([rngs[t].choice(d, size=k, replace=False) for t in live])
        feats.sort(axis=1)
        sizes = np.array([rows.size for rows, _ in nodes])
        pos = [p for _, p in nodes]
        rows = np.concatenate([rows for rows, _ in nodes])
        starts = np.cumsum(sizes) - sizes
        ends = starts + sizes - 1
        seg = np.repeat(np.arange(len(nodes)), sizes)
        # (k, N) keys node * n_ranks + rank: a stable radix sort turns each
        # node's rows into one run in ascending rank of its candidate.  Row
        # by row, np.take gathers much faster than a 2-D fancy index.
        key = np.empty((k, rows.size), key_type)
        for j, offset in enumerate(feats.T * m):
            np.take(ranks, np.repeat(offset, sizes) + rows, out=key[j])
        key += (seg * n_ranks).astype(key_type)
        order = np.argsort(key, axis=1, kind="stable")
        for j in range(k):
            key[j] = key[j, order[j]]
        sorted_rows = rows[order]
        del order
        weighted = _weighted_gini(y[sorted_rows], pos, sizes, starts, ends)
        # No cut between tied values nor after a node's last row: those
        # score 1e300, above any Gini.  (Adding a mask times 1e300 is much
        # faster than a masked store.)
        weighted[:, :-1] += (key[:, 1:] == key[:, :-1]) * 1e300
        weighted[:, ends] = 1e300
        mins = np.minimum.reduceat(weighted, starts, axis=1)
        # Ascending feature order; a later feature must win by more than 1e-15.
        best = np.full(len(nodes), -1)
        best_score = np.full(len(nodes), np.inf)
        for j, score in enumerate(mins):
            win = score < best_score - 1e-15
            best[win] = j
            best_score[win] = score[win]
        # In Python floats, whose pow need not round as np.square does.
        parent = np.array([1.0 - (1.0 - p / n) ** 2 - (p / n) ** 2
                           for p, n in zip(pos, sizes.tolist())])
        gain = parent - best_score
        split = np.flatnonzero(gain > 1e-15)
        if split.size == 0:
            continue
        importance[np.asarray(live)[split], feats[split, best[split]]] += (
            sizes[split] / m * gain[split])
        # A split cuts its winning feature at that feature's first minimum.
        cols = np.arange(rows.size)
        win_col = best[seg]
        at = np.flatnonzero(weighted[win_col, cols] == best_score[seg])
        cuts = at[np.searchsorted(at, starts[split])] + 1
        rows = sorted_rows[win_col, cols]
        y_before = np.concatenate(([0.0], np.cumsum(y[rows])))
        left_pos = (y_before[cuts] - y_before[starts[split]]).astype(int)
        for b, cut, lpos in zip(split.tolist(), cuts.tolist(), left_pos.tolist()):
            lo, hi, rpos = starts[b], ends[b] + 1, pos[b] - lpos
            if 0 < lpos < cut - lo:
                stacks[live[b]].append((rows[lo:cut], lpos))
            if 0 < rpos < hi - cut:
                stacks[live[b]].append((rows[cut:hi], rpos))


def _weighted_gini(y_sorted, pos, sizes, starts, ends):
    """(k, N) weighted Gini (nl * gini_l + nr * gini_r) / n of the cut after
    each row, for labels y_sorted in runs of ``sizes`` rows holding ``pos``
    positives; the cut after a run's last row is no cut and gets junk.
    Overwrites y_sorted."""
    pos_left = y_sorted                 # one cumsum that restarts at each run
    pos_left[:, starts[1:]] -= pos[:-1]
    np.cumsum(pos_left, axis=1, out=pos_left)
    nl = np.arange(1.0, pos_left.shape[1] + 1) - np.repeat(starts, sizes)
    n = np.repeat(sizes.astype(float), sizes)
    nr = n - nl
    nr[ends] = 1.0                      # not 0, so no 0 / 0
    p1 = pos_left / nl
    weighted = _gini(p1, np.empty_like(p1))
    weighted *= nl
    np.subtract(np.repeat(pos, sizes), pos_left, out=pos_left)
    pos_left /= nr
    right = _gini(pos_left, p1)
    right *= nr
    weighted += right
    weighted /= n
    return weighted


def _gini(p1, out):
    """1 - p1 ** 2 - (1 - p1) ** 2 into ``out``; overwrites p1."""
    np.square(p1, out=out)
    np.subtract(1.0, out, out=out)
    np.subtract(1.0, p1, out=p1)
    np.square(p1, out=p1)
    out -= p1
    return out


def _fit_trees(shared, indices):
    """The importances of trees ``indices`` of the forest on ``shared`` =
    (X, y, seed), in batches of at most _ROW_BUDGET rows; tree i draws only
    from its own (seed, i) stream."""
    X, y, seed = shared
    m = X.shape[0]
    per_batch = max(1, _ROW_BUDGET // m)
    ranks = np.array([np.unique(col, return_inverse=True)[1] for col in X.T])
    trees = []
    for lo in range(0, len(indices), per_batch):
        rngs = [np.random.default_rng([seed, i]) for i in indices[lo:lo + per_batch]]
        trees += _grow_trees(ranks, y, rngs)
    return trees


def train_random_forest(X, y, n_trees=FOREST_TREES, seed=0, jobs=1):
    """Fit a bootstrap forest; deterministic given (X, y, seed) for any jobs.
    Each worker fits one contiguous range of trees and gets X and y once."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[0] < 2:
        raise DataError(f"need at least 2 samples to fit a forest, got {X.shape[0]}")
    if X.shape[1] < 1:
        raise DataError("forest input has no feature columns")
    if y.min() == y.max():
        raise DataError("degenerate labels: only one class present")
    if np.isnan(X).any():
        raise DataError("forest input contains NaN")
    ranges = [range(n_trees * w // jobs, n_trees * (w + 1) // jobs) for w in range(jobs)]
    parts = process_map(_fit_trees, ranges, jobs, f"{n_trees} trees", shared=(X, y, seed))
    return Forest(trees=[t for part in parts for t in part])


def process_map(fn, args, jobs, what, shared=None):
    """``[fn(shared, a) for a in args]``, on min(jobs, len(args)) worker
    processes when that is more than one.

    Each worker gets ``fn`` and ``shared`` once, from the pool's initializer
    (inherited, not pickled, under fork), and each task sends only its
    ``a``.  Each worker caps every loaded BLAS, numpy's included, at one
    thread, so the workers do not oversubscribe the cores; this process
    keeps its own count.  If no thread setter is found, warn and run the
    workers at the BLAS's default count.  If the pool cannot start, warn and run the calls
    in order; ``what`` names the calls in the warnings."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(args))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        setters = blas_thread_symbols("set")
        if not setters:
            warnings.warn(f"no BLAS thread setter among the loaded libraries; {what} run on "
                          f"{workers} workers at the BLAS's default thread count",
                          RuntimeWarning, stacklevel=3)
        try:
            with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                     initargs=(setters, fn, shared)) as pool:
                return list(pool.map(_run_task, args))
        except OSError as exc:
            warnings.warn(f"process pool failed ({exc!r}); running {what} sequentially",
                          RuntimeWarning, stacklevel=3)
    return [fn(shared, a) for a in args]


# A pool worker's (fn, shared), set once by _start_worker in each worker
# process; tasks then carry only their argument.
_worker_task = None


def _start_worker(setters, fn, shared):
    global _worker_task
    for path, name in setters:
        setter = getattr(ctypes.CDLL(path, mode=os.RTLD_NOLOAD), name)
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)
    _worker_task = (fn, shared)


def _run_task(a):
    fn, shared = _worker_task
    return fn(shared, a)


# The thread-count functions of OpenBLAS, under its plain, 64-bit-integer
# and scipy-openblas names, and of BLIS; "{}" is "set" or "get".
_BLAS_THREAD_SYMBOLS = ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
                        "scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_",
                        "bli_thread_{}_num_threads")


def blas_thread_symbols(verb):
    """(path, symbol) of each loaded shared object's BLAS thread-count
    function ``verb`` ("set" or "get").  Finds none where /proc/self/maps
    does not list the loaded objects (outside Linux)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and ".so" in f[5]})
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in (n.format(verb) for n in _BLAS_THREAD_SYMBOLS):
            if hasattr(lib, name):
                # A lookup in an object also finds its dependencies' symbols:
                # keep one entry per function.
                address = ctypes.cast(getattr(lib, name), ctypes.c_void_p).value
                found.setdefault(address, (path, name))
    return list(found.values())


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
        indices = [int(i) for i in obj["indices"]]
        if len(set(indices)) != len(indices):
            raise ValueError(f"repeated selection indices: {indices}")
        return cls(importances=np.asarray(obj["importances"], dtype=float), indices=indices)


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


def has_note_text(records, modalities):
    """Whether notes are active and some of ``records`` carry note text."""
    return "notes" in modalities and any(r.notes_kind == "text" for r in records)


def notes_tfidf(records, modalities):
    """The TF-IDF fit on the note text of ``records``; None when notes are
    inactive or every record carries note vectors."""
    if not has_note_text(records, modalities):
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
