"""Spans around calls into readmit's public functions, recorded from outside.

A traced pass replaces module and class attributes of ``readmit`` with
wrappers that record one span per call: name, start, end, parent span and
the trace id of the pass. Spans stay in memory until the run writes them
out; ``uninstall`` puts every original attribute back. Nothing inside the
package changes, so time spent in unwrapped code (the tensor ops of a
forward pass, for example) counts as self time of the nearest wrapped
caller.
"""

import functools
import gc
import os
import statistics
import sys
import time

from readmit import data, evaluation, features, model, tensor, training

LAYERS = ("data", "features", "model", "tensor", "training", "evaluation")


def _forward_name(args, kwargs):
    is_training = kwargs.get("training", args[2] if len(args) > 2 else False)
    return "model.forward_train" if is_training else "model.forward_eval"


def graph_nodes(root):
    """Tensors reachable from ``root`` through the autodiff graph, root included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


# (owner, attribute, span name or a function of the call's arguments, count
# taken from the call as ``count(args, result)`` or None). The layer is the
# span name up to its first dot.
TARGETS = (
    (data, "generate_synthetic", "data.synth", None),
    (data, "split_by_patient", "data.split", None),
    (data, "save_dataset", "data.save", None),
    (data, "load_dataset", "data.load", lambda a, r: r.n_admissions),
    (features, "patient_mean_features", "features.mean_features", None),
    (features, "train_random_forest", "features.forest", lambda a, r: len(r.trees)),
    (features, "feature_importances", "features.importances", None),
    (features, "select_top_k", "features.select", None),
    (features, "fit_tfidf", "features.tfidf_fit", None),
    (features, "prepare_bundles", "features.bundles", lambda a, r: len(r[0])),
    (model, "collate", "model.collate", None),
    (model.ReadmissionModel, "forward_batch", _forward_name,
     lambda a, r: graph_nodes(r)),
    (model, "save_model", "model.save", None),
    (model, "load_model", "model.load", None),
    (tensor.Tensor, "backward", "tensor.backward", lambda a, r: graph_nodes(a[0])),
    (training, "train", "training.train", None),
    (training, "inject_noise", "training.noise", None),
    (training, "focal_loss", "training.focal_loss", None),
    (training, "clip_gradients", "training.clip", None),
    (training.AdamW, "step", "training.adamw", None),
    (training, "predict_proba", "training.predict", None),
    (training, "kfold_train", "training.kfold_train", None),
    (training.Ensemble, "predict_bundles", "training.ensemble_predict", None),
    (evaluation, "auc", "evaluation.auc", None),
    (evaluation, "evaluate", "evaluation.evaluate", None),
)


class Span:
    __slots__ = ("trace", "id", "parent", "name", "start", "end", "count")

    def __init__(self, trace, span_id, parent, name, start):
        self.trace = trace
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.count = None

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return {"trace": self.trace, "span": self.id, "parent": self.parent,
                "name": self.name, "start": self.start, "end": self.end,
                "count": self.count}


class Tracer:
    """Records spans and garbage-collector pauses of this process only.

    Forked worker processes inherit the wrappers; they call straight
    through, so a traced K-fold run records the parent process alone.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._restore = []
        self._gc_started = None
        self.trace_id = None
        self.gc_collections = 0
        self.gc_pause_s = 0.0

    # -- recording ---------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(self.trace_id, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def begin_trace(self, trace_id):
        """Start a new trace; returns the index of its first span."""
        self.trace_id = trace_id
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        return len(self.spans)

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid or tracer.trace_id is None:
                return fn(*args, **kwargs)
            span = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                counting = tracer.open("trace.count")
                span.count = count(args, result)
                tracer.close(counting)
            return result

        return wrapper

    def _on_gc(self, phase, info):
        if os.getpid() != self.pid or self.trace_id is None:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "readmit" or n.startswith("readmit."))]
        for owner, attr, name, count in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, count)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.trace_id = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans, gc_collections, gc_pause_s):
    """Per-layer metrics of one trace from its spans and gc counters."""
    total = {}
    counts = {}
    children = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        if s.count is not None:
            counts.setdefault(s.name, []).append(s.count)
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
    self_time = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if layer in self_time:
            self_time[layer] += s.duration - children.get(s.id, 0.0)

    def t(name):
        return total.get(name, 0.0)

    def median_count(name):
        return statistics.median(counts[name]) if name in counts else 0

    val_predict = sum(s.duration for s in spans if s.name == "training.predict"
                      and s.parent is not None
                      and by_id[s.parent].name == "training.train")
    metrics = {
        "tensor.backward_s": t("tensor.backward"),
        "tensor.backward_share": _rate(t("tensor.backward"), t("training.train")),
        "tensor.graph_nodes_per_step": median_count("tensor.backward"),
        "tensor.score_graph_nodes_per_batch": median_count("model.forward_eval"),
        "tensor.gc_collections": gc_collections,
        "tensor.gc_pause_s": gc_pause_s,
        "model.forward_train_s": t("model.forward_train"),
        "model.collate_s": t("model.collate"),
        "model.forward_eval_s": t("model.forward_eval"),
        "model.load_model_s": t("model.load"),
        "training.adamw_s": t("training.adamw"),
        "training.clip_s": t("training.clip"),
        "training.noise_s": t("training.noise"),
        "training.focal_loss_s": t("training.focal_loss"),
        "training.val_predict_s": val_predict,
        "training.steps": sum(1 for s in spans if s.name == "training.adamw"),
        "training.kfold_train_s": t("training.kfold_train"),
        "training.ensemble_predict_s": t("training.ensemble_predict"),
        "features.forest_s": t("features.forest"),
        "features.trees_per_s": _rate(sum(counts.get("features.forest", [])),
                                      t("features.forest")),
        "features.tfidf_fit_s": t("features.tfidf_fit"),
        "features.bundles_per_s": _rate(sum(counts.get("features.bundles", [])),
                                        t("features.bundles")),
        "data.load_adm_per_s": _rate(sum(counts.get("data.load", [])), t("data.load")),
        "data.synth_s": t("data.synth"),
        "evaluation.auc_s": t("evaluation.auc"),
        "evaluation.evaluate_s": t("evaluation.evaluate"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    return metrics
