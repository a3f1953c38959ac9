"""Per-modality sequence encoders with attention pooling and a fusion head.

Each active modality (fixed order: ehr, cxr, notes) is embedded to d_model,
gets sinusoidal positional encoding, runs through its own encoder stack
(pre-norm transformer layers by default; GRU or LSTM stacks for baselines),
is collapsed to a single vector by learned-query attention pooling, and the
concatenated pooled vectors feed a small MLP that emits one logit.
"""

import base64
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .data import CXR_DIM, NOTES_DIM
from .errors import ConfigError, DataError
from .tensor import Tensor

MODALITY_ORDER = ("ehr", "cxr", "notes")
ENCODERS = ("transformer", "gru", "lstm")
DTYPES = ("float64", "float32")
INPUT_DIMS = {"cxr": CXR_DIM, "notes": NOTES_DIM}

MODEL_FORMAT = "readmit.model"
MODEL_VERSION = 1


@dataclass
class ModelConfig:
    d_model: int = 96
    n_heads: int = 3
    ehr_layers: int = 2
    cxr_layers: int = 2
    notes_layers: int = 3
    d_ff: int = 192
    dropout: float = 0.1
    k_ehr: int = 100
    modalities: tuple = ("ehr", "notes")
    encoder: str = "transformer"        # one of ENCODERS
    max_days: int = 64
    max_images: int = 16
    max_notes: int = 32
    seed: int = 0
    dtype: str = "float32"              # one of DTYPES; float64 is the reference

    def __post_init__(self):
        unknown = set(self.modalities) - set(MODALITY_ORDER)
        if unknown:
            raise ConfigError(f"unknown modalities: {sorted(unknown)}")
        self.modalities = tuple(m for m in MODALITY_ORDER if m in self.modalities)
        if not self.modalities:
            raise ConfigError("at least one modality must be active")
        for name, low in (("d_model", 1), ("n_heads", 1), ("ehr_layers", 0),
                          ("cxr_layers", 0), ("notes_layers", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.encoder not in ENCODERS:
            raise ConfigError(f"unknown encoder kind: {self.encoder!r}")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype!r}")

    def input_dim(self, modality):
        return self.k_ehr if modality == "ehr" else INPUT_DIMS[modality]

    def layers(self, modality):
        return {"ehr": self.ehr_layers, "cxr": self.cxr_layers, "notes": self.notes_layers}[modality]

    def caps(self):
        """Sequence caps as ``prepare_bundles`` keyword arguments."""
        return dict(max_days=self.max_days, max_images=self.max_images, max_notes=self.max_notes)

    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def to_json(self):
        d = asdict(self)
        d["modalities"] = list(self.modalities)
        return d

    @classmethod
    def from_json(cls, obj):
        obj = dict(obj)
        obj["modalities"] = tuple(obj["modalities"])
        return cls(**obj)


def positional_encoding(length, d_model):
    """Sinusoidal encoding: sin on even dims, cos on odd dims."""
    if length < 1:
        raise ValueError(f"positional encoding length must be >= 1, got {length}")
    pos = np.arange(length, dtype=float)[:, None]
    idx = np.arange(0, d_model, 2, dtype=float)
    angles = pos / np.power(10000.0, idx / d_model)
    pe = np.zeros((length, d_model))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return pe


def param_spec(cfg):
    """Parameter names in creation order, each mapped to its shape."""
    d = cfg.d_model
    spec = {}
    for mod in cfg.modalities:
        spec[f"{mod}.embed.w"] = (cfg.input_dim(mod), d)
        spec[f"{mod}.embed.b"] = (d,)
        for l in range(cfg.layers(mod)):
            p = f"{mod}.l{l}"
            if cfg.encoder == "transformer":
                for gate in ("q", "k", "v", "o"):
                    spec[f"{p}.attn.w{gate}"] = (d, d)
                    spec[f"{p}.attn.b{gate}"] = (d,)
                spec[f"{p}.ln1.g"] = (d,)
                spec[f"{p}.ln1.b"] = (d,)
                spec[f"{p}.ffn.w1"] = (d, cfg.d_ff)
                spec[f"{p}.ffn.b1"] = (cfg.d_ff,)
                spec[f"{p}.ffn.w2"] = (cfg.d_ff, d)
                spec[f"{p}.ffn.b2"] = (d,)
                spec[f"{p}.ln2.g"] = (d,)
                spec[f"{p}.ln2.b"] = (d,)
            else:
                gates = ("r", "z", "n") if cfg.encoder == "gru" else ("i", "f", "g", "o")
                for gate in gates:
                    spec[f"{p}.w{gate}"] = (d, d)
                    spec[f"{p}.u{gate}"] = (d, d)
                    spec[f"{p}.b{gate}"] = (d,)
        if cfg.encoder == "transformer":
            spec[f"{mod}.norm.g"] = (d,)
            spec[f"{mod}.norm.b"] = (d,)
        spec[f"{mod}.pool.q"] = (d, 1)
    spec["fusion.w1"] = (len(cfg.modalities) * d, d)
    spec["fusion.b1"] = (d,)
    spec["fusion.w2"] = (d, 1)
    spec["fusion.b2"] = (1,)
    return spec


def _initial_value(rng, name, shape):
    """Pooling queries ~ N(0, 1/d), other matrices Glorot-normal; layer-norm
    gains and the LSTM forget bias start at one, every other vector at zero."""
    if name.endswith(".pool.q"):
        return rng.normal(0.0, 1.0 / math.sqrt(shape[0]), size=shape)
    if len(shape) == 2:
        fan_in, fan_out = shape
        return rng.normal(0.0, math.sqrt(2.0 / (fan_in + fan_out)), size=shape)
    if name.endswith((".g", ".bf")):
        return np.ones(shape)
    return np.zeros(shape)


def build_parameters(cfg):
    """Initialize the full learnable parameter dict for a config."""
    rng = np.random.default_rng(cfg.seed)
    dt = cfg.np_dtype()
    return {
        name: Tensor(np.asarray(_initial_value(rng, name, shape), dtype=dt), requires_grad=True)
        for name, shape in param_spec(cfg).items()
    }


@dataclass
class Batch:
    """Collated padded inputs: per modality an (B, S, D) array and (B, S) mask."""

    arrays: dict
    masks: dict


def collate(bundles, modalities, dtype=np.float64):
    """Pad ``bundles`` into a Batch of ``dtype`` arrays.  The float64 default
    is the reference precision: gradient checks such as acceptance 1's
    tolerance hold on float64 batches only, so callers that want the model's
    precision pass ``config.np_dtype()``."""
    arrays = {}
    masks = {}
    for mod in modalities:
        mats = []
        for b in bundles:
            mat = b.get(mod)
            if mat is None:
                raise DataError(f"bundle missing active modality '{mod}'")
            mats.append(np.asarray(mat, dtype=dtype))
        s_max = max(m.shape[0] for m in mats)
        width = mats[0].shape[1]
        arr = np.zeros((len(mats), s_max, width), dtype=dtype)
        mask = np.zeros((len(mats), s_max), dtype=bool)
        for i, m in enumerate(mats):
            arr[i, : m.shape[0]] = m
            mask[i, : m.shape[0]] = True
        arrays[mod] = arr
        masks[mod] = mask
    return Batch(arrays=arrays, masks=masks)


def _attention_block(h, rows, key_bias, params, prefix, cfg, training, rng):
    """One pre-norm transformer layer on the packed (N, d) rows ``h``."""
    def p(name):
        return params[f"{prefix}.{name}"]

    # dropout arguments for the packed rows: rate, generator, rows, padded rows
    drop = (cfg.dropout, rng, rows, key_bias.shape[0] * key_bias.shape[2]) if training else ()

    x = T.layer_norm(h, p("ln1.g"), p("ln1.b"))
    qkv = T.linear(x, T.concat([p("attn.wq"), p("attn.wk"), p("attn.wv")]),
                   T.concat([p("attn.bq"), p("attn.bk"), p("attn.bv")]))
    att = T.multi_head_attention(qkv, rows, key_bias, cfg.n_heads)
    h = T.linear(att, p("attn.wo"), p("attn.bo"), h, *drop)

    x2 = T.layer_norm(h, p("ln2.g"), p("ln2.b"))
    f = T.gelu(T.linear(x2, p("ffn.w1"), p("ffn.b1")))
    if training:
        f = T.dropout(f, *drop)
    return T.linear(f, p("ffn.w2"), p("ffn.b2"), h)


def _gru_layer(h_seq, params, prefix):
    return T.gru(h_seq, *(params[f"{prefix}.{kind}{gate}"] for kind in "wub" for gate in "rzn"))


def _lstm_layer(h_seq, params, prefix):
    return T.lstm(h_seq, *(params[f"{prefix}.{kind}{gate}"] for kind in "wub" for gate in "ifgo"))


def encode_modality(x, mask, params, modality, cfg, training=False, rng=None):
    """Embed, add positional encoding, and run the modality's encoder stack.

    ``x`` is a (B, S, input_dim) constant Tensor or array; ``mask`` a (B, S)
    boolean array marking valid positions.  Returns (B, S, d_model).

    The transformer runs on packed rows: the N valid positions of ``x`` are
    gathered into (N, input_dim) before the embedding, so the embedding, the
    layer norms, projections, FFN and dropout all see (N, ·) rows.  Attention
    scatters them to the padded layout and excludes padded keys with a large
    negative score bias.  After the final norm the rows are scattered back to
    (B, S, d_model), whose padded positions are zero.  GRU and LSTM stacks
    recur over the padded layout.
    """
    if isinstance(x, np.ndarray):
        x = Tensor(x)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=1).all():
        raise DataError(f"{modality}: a sequence has no unmasked positions")
    batch, steps = mask.shape
    d = cfg.d_model
    dt = cfg.np_dtype()
    embed = (params[f"{modality}.embed.w"], params[f"{modality}.embed.b"])
    pe = positional_encoding(steps, d).astype(dt)

    if cfg.encoder != "transformer":
        h = T.add_const(T.linear(x, *embed), pe[None, :, :])
        layer = _gru_layer if cfg.encoder == "gru" else _lstm_layer
        for l in range(cfg.layers(modality)):
            h = layer(h, params, f"{modality}.l{l}")
        return h

    rows = np.flatnonzero(mask)
    h = T.add_const(T.linear(T.pack_rows(x, rows), *embed), pe[rows % steps])
    key_bias = np.where(mask, 0.0, T.MASK_NEG).astype(dt)[:, None, :]
    for l in range(cfg.layers(modality)):
        h = _attention_block(h, rows, key_bias, params, f"{modality}.l{l}", cfg, training, rng)
    h = T.layer_norm(h, params[f"{modality}.norm.g"], params[f"{modality}.norm.b"])
    return T.unpack_rows(h, rows, (batch, steps, d))


def attention_pool(h, mask, query):
    """Softmax-weighted pooling over the positions of (B, S, D) ``h`` with a
    learned query; returns (B, D)."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=1).all():
        raise DataError("attention_pool: a sequence has no unmasked positions")
    scores = T.matmul(h, query)                                    # (B, S, 1)
    bias = np.where(mask, 0.0, T.MASK_NEG).astype(h.data.dtype)[:, :, None]
    scores = T.add_const(scores, bias)
    weights = T.softmax(scores, axis=-2)
    pooled = T.matmul(T.transpose_last2(weights), h)               # (B, 1, D)
    return T.reshape(pooled, (pooled.shape[0], pooled.shape[2]))


def fuse_and_predict(pooled, params):
    """Concatenate pooled modality vectors and emit one logit per row."""
    expected = params["fusion.w1"].shape[0]
    got = sum(p.shape[-1] for p in pooled)
    if got != expected:
        raise ConfigError(f"fusion expects concatenated width {expected}, got {got}")
    h = pooled[0] if len(pooled) == 1 else T.concat(pooled, axis=-1)
    h = T.gelu(T.linear(h, params["fusion.w1"], params["fusion.b1"]))
    z = T.linear(h, params["fusion.w2"], params["fusion.b2"])
    return T.reshape(z, (z.shape[0],))


class ReadmissionModel:
    """All learnable parameters plus the forward pass."""

    def __init__(self, config, params=None):
        self.config = config
        self.params = params if params is not None else build_parameters(config)

    def count_parameters(self):
        return int(sum(p.data.size for p in self.params.values()))

    def get_state(self):
        return {name: p.data.copy() for name, p in self.params.items()}

    def set_state(self, state):
        for name, p in self.params.items():
            p.data = state[name].copy()
            p.grad = None

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def frozen(self):
        """This model on ``requires_grad=False`` views of the same parameter
        arrays (no copy): a forward pass through it builds no graph."""
        return ReadmissionModel(self.config, {n: Tensor(p.data) for n, p in self.params.items()})

    def forward_batch(self, batch, training=False, rng=None):
        """Logits for a collated batch; returns a (B,) Tensor."""
        pooled = []
        for mod in self.config.modalities:
            if mod not in batch.arrays:
                raise DataError(f"batch missing active modality '{mod}'")
            width, expected = batch.arrays[mod].shape[-1], self.config.input_dim(mod)
            if width != expected:
                raise DataError(
                    f"{mod} inputs have {width} columns; the model takes {expected}")
            h = encode_modality(
                Tensor(batch.arrays[mod]), batch.masks[mod],
                self.params, mod, self.config, training=training, rng=rng,
            )
            pooled.append(attention_pool(h, batch.masks[mod], self.params[f"{mod}.pool.q"]))
        return fuse_and_predict(pooled, self.params)


# ---------------------------------------------------------------------------
# serialization


def _encode_array(arr):
    arr = np.ascontiguousarray(arr)
    return {
        "shape": list(arr.shape),
        "dtype": arr.dtype.str,
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_array(obj):
    arr = np.frombuffer(base64.b64decode(obj["data"]), dtype=np.dtype(obj["dtype"]))
    expected = int(np.prod(obj["shape"])) if obj["shape"] else 1
    if arr.size != expected:
        raise DataError(f"array payload size {arr.size} != shape product {expected}")
    return arr.reshape(obj["shape"]).copy()


def save_model(path, model, selection=None, tfidf=None, fingerprint=None):
    """Write a versioned JSON container: config, pipeline artifacts, parameters.

    Round-tripping through load_model is bit-exact (raw little-endian bytes,
    base64-encoded).
    """
    obj = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": model.config.to_json(),
        "fingerprint": fingerprint,
        "selection": selection.to_json() if selection is not None else None,
        "tfidf": tfidf.to_json() if tfidf is not None else None,
        "params": {name: _encode_array(p.data) for name, p in model.params.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def load_model(path):
    """Load a saved model; returns (model, selection, tfidf, fingerprint)."""
    from .features import FeatureSelection, TfidfModel

    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise DataError(f"{path}: not a {MODEL_FORMAT} container")
    if obj.get("version") != MODEL_VERSION:
        raise DataError(f"{path}: unsupported model version {obj.get('version')}")
    try:
        config = ModelConfig.from_json(obj["config"])
        params = {name: Tensor(_decode_array(payload), requires_grad=True)
                  for name, payload in obj["params"].items()}
        selection = FeatureSelection.from_json(obj["selection"]) if obj.get("selection") else None
        tfidf = TfidfModel.from_json(obj["tfidf"]) if obj.get("tfidf") else None
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: corrupt model payload: {exc}") from exc
    spec = param_spec(config)
    if set(params) != set(spec):
        raise DataError(f"{path}: parameter names do not match the config")
    for name, shape in spec.items():
        if params[name].shape != shape:
            raise DataError(
                f"{path}: parameter {name} has shape {params[name].shape}, "
                f"the config needs {shape}"
            )
    model = ReadmissionModel(config, params=params)
    return model, selection, tfidf, obj.get("fingerprint")
