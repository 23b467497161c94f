"""Transformer encoders for early- and late-fusion sign-word classification.

Everything is plain numpy in float64. forward_batch runs either architecture
over (N,T,dim) stream arrays; loss_and_grads adds the combined loss and the
full analytic backward pass used by the training loop. Gradients are written
by hand and validated against central finite differences in the test suite.
masked_attention and encoder_block expose single layers on one sequence.

Architecture, shared by both fusion variants:
  project input -> add sinusoidal positions -> N encoder blocks -> additive
  skip from the projected input -> masked mean pool -> class head (softmax)
  and embedding head (linear, 300-d).
Late fusion runs one encoder per stream (hand / lip / arm geometry), then a
fused encoder over the per-frame concatenation of the three encoder outputs
(no second projection or positional term). Early fusion concatenates the raw
streams to a single 260-d vector and uses one encoder.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, FormatError
from .preprocess import STREAM_A_DIM, STREAM_B_DIM, STREAM_C_DIM

_LN_EPS = 1e-5
_MASK_BIAS = -1e30
_PROB_FLOOR = 1e-12
CLASS_LOSS_WEIGHT = 1.8
EMBED_LOSS_WEIGHT = 0.5
# Inference forwards run in blocks of max(1, _BLOCK_CELLS // T) rows; see forward_batch.
_BLOCK_CELLS = 128


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int
    ffn_width: int
    heads: int = 12
    blocks: int = 1
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.d_model % self.heads != 0:
            raise ConfigurationError(f"d_model {self.d_model} not divisible by {self.heads} heads")
        if self.ffn_width < 1 or self.blocks < 1:
            raise ConfigurationError("ffn_width and blocks must be >= 1")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigurationError(f"dropout_rate {self.dropout_rate} outside [0,1)")


@dataclass(frozen=True)
class LateFusionConfig:
    """Three per-stream encoders plus one fused encoder over their concat."""

    num_classes: int
    d_a: int = 120
    d_b: int = 120
    d_c: int = 24
    ffn_a: int = 256  # hand shape
    ffn_b: int = 64  # lip shape
    ffn_c: int = 256  # arm geometry
    ffn_fused: int = 512
    heads: int = 12
    blocks: int = 1
    dropout_rate: float = 0.1
    embed_dim: int = 300

    arch = "late"

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigurationError("need at least 2 classes")
        self.encoders()  # constructing them runs the divisibility checks

    @property
    def d_fused(self) -> int:
        return self.d_a + self.d_b + self.d_c

    def encoders(self) -> dict[str, EncoderConfig]:
        mk = lambda d, f: EncoderConfig(d, f, self.heads, self.blocks, self.dropout_rate)
        return {
            "a": mk(self.d_a, self.ffn_a),
            "b": mk(self.d_b, self.ffn_b),
            "c": mk(self.d_c, self.ffn_c),
            "f": mk(self.d_fused, self.ffn_fused),
        }

    def to_json(self) -> dict:
        return {
            "arch": "late",
            "num_classes": self.num_classes,
            "d_a": self.d_a,
            "d_b": self.d_b,
            "d_c": self.d_c,
            "ffn_a": self.ffn_a,
            "ffn_b": self.ffn_b,
            "ffn_c": self.ffn_c,
            "ffn_fused": self.ffn_fused,
            "heads": self.heads,
            "blocks": self.blocks,
            "dropout_rate": self.dropout_rate,
            "embed_dim": self.embed_dim,
        }


@dataclass(frozen=True)
class EarlyFusionConfig:
    """Single encoder over the 260-d raw stream concatenation."""

    num_classes: int
    d_model: int = 264
    ffn_width: int = 512
    heads: int = 12
    blocks: int = 1
    dropout_rate: float = 0.1
    embed_dim: int = 300

    arch = "early"

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigurationError("need at least 2 classes")
        self.encoder()

    def encoder(self) -> EncoderConfig:
        return EncoderConfig(self.d_model, self.ffn_width, self.heads, self.blocks, self.dropout_rate)

    def to_json(self) -> dict:
        return {
            "arch": "early",
            "num_classes": self.num_classes,
            "d_model": self.d_model,
            "ffn_width": self.ffn_width,
            "heads": self.heads,
            "blocks": self.blocks,
            "dropout_rate": self.dropout_rate,
            "embed_dim": self.embed_dim,
        }


ModelConfig = Union[LateFusionConfig, EarlyFusionConfig]


def config_from_json(doc: dict) -> ModelConfig:
    doc = dict(doc)
    arch = doc.pop("arch", None)
    try:
        if arch == "late":
            return LateFusionConfig(**doc)
        if arch == "early":
            return EarlyFusionConfig(**doc)
    except TypeError as exc:
        raise FormatError(f"bad model config: {exc}") from exc
    raise FormatError(f"unknown architecture tag {arch!r}")


@dataclass
class ModelParams:
    """A model: its configuration plus the named parameter tensors."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def probs(self, A, B, C, mask, toggles=(True, True, True)) -> np.ndarray:
        """(N,K) class probabilities of (N,T,dim) streams under an (N,T) mask."""
        return forward_batch(self, A, B, C, mask, toggles=toggles)[0]


# ---------------------------------------------------------------------------
# Initialization


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, (fan_in, fan_out))


def _block_shapes(prefix: str, enc: EncoderConfig, out: dict) -> None:
    d, f = enc.d_model, enc.ffn_width
    for i in range(enc.blocks):
        p = f"{prefix}.{i}"
        for name in ("Wq", "Wk", "Wv", "Wo"):
            out[f"{p}.attn.{name}"] = (d, d)
        for name in ("attn.bq", "attn.bk", "attn.bv", "attn.bo", "ln1.g", "ln1.b"):
            out[f"{p}.{name}"] = (d,)
        out[f"{p}.ffn.W1"] = (d, f)
        out[f"{p}.ffn.b1"] = (f,)
        out[f"{p}.ffn.W2"] = (f, d)
        for name in ("ffn.b2", "ln2.g", "ln2.b"):
            out[f"{p}.{name}"] = (d,)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter tensor, in init_params' draw order."""
    s: dict[str, tuple[int, ...]] = {}
    if isinstance(config, LateFusionConfig):
        encs = config.encoders()
        for name, in_dim, d in (
            ("a", STREAM_A_DIM, config.d_a),
            ("b", STREAM_B_DIM, config.d_b),
            ("c", STREAM_C_DIM, config.d_c),
        ):
            s[f"{name}.proj.W"] = (in_dim, d)
            s[f"{name}.proj.b"] = (d,)
            _block_shapes(name, encs[name], s)
        _block_shapes("f", encs["f"], s)
        pooled_dim = config.d_fused
    else:
        s["f.proj.W"] = (STREAM_A_DIM + STREAM_B_DIM + STREAM_C_DIM, config.d_model)
        s["f.proj.b"] = (config.d_model,)
        _block_shapes("f", config.encoder(), s)
        pooled_dim = config.d_model
    s["head.cls.W"] = (pooled_dim, config.num_classes)
    s["head.cls.b"] = (config.num_classes,)
    s["head.emb.W"] = (pooled_dim, config.embed_dim)
    s["head.emb.b"] = (config.embed_dim,)
    return s


def init_tensors(shapes: dict, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Glorot-uniform matrices drawn in the order given, zero vectors, unit layer-norm gains."""
    return {
        name: _glorot(rng, *shape) if len(shape) == 2
        else np.ones(shape) if name.endswith(".g") else np.zeros(shape)
        for name, shape in shapes.items()
    }


def check_tensors(path, tensors: dict, shapes: dict) -> None:
    """Raise FormatError unless tensors holds exactly the named shapes."""
    if tensors.keys() != shapes.keys():
        missing = sorted(shapes.keys() - tensors.keys())
        unexpected = sorted(tensors.keys() - shapes.keys())
        raise FormatError(f"{path}: tensors missing {missing}, unexpected {unexpected}")
    for name, shape in shapes.items():
        if tensors[name].shape != shape:
            raise FormatError(f"{path}: tensor {name} has shape {tensors[name].shape}, expected {shape}")


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases, identity layer norms."""
    return ModelParams(config, init_tensors(param_shapes(config), rng))


# ---------------------------------------------------------------------------
# Primitive layers


@functools.lru_cache(maxsize=64)
def positional_encoding(T: int, d_model: int) -> np.ndarray:
    """Sinusoidal position table: PE[t,2i]=sin(t/10000^(2i/d)), odd cols cos.

    Cached per (T, d_model) and returned read-only, since every caller shares it.
    """
    if T < 1 or d_model < 1:
        raise ConfigurationError("T and d_model must be >= 1")
    if d_model % 2 != 0:
        raise ConfigurationError(f"d_model must be even for sin/cos pairs, got {d_model}")
    pos = np.arange(T)[:, None]
    rates = np.power(10000.0, -np.arange(0, d_model, 2) / d_model)[None, :]
    pe = np.zeros((T, d_model))
    pe[:, 0::2] = np.sin(pos * rates)
    pe[:, 1::2] = np.cos(pos * rates)
    pe.flags.writeable = False
    return pe


def layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray, eps: float = _LN_EPS) -> np.ndarray:
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    return g * (xc / np.sqrt(var + eps)) + b


def _ln_forward(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _ln_backward(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(-1, keepdims=True)
    )
    return dx, dg, db


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    B, T, d = x.shape
    return x.reshape(B, T, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    B, h, T, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, T, h * dh)


def _mat_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # weight gradient of y = x @ W accumulated over batch and time
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _attn_forward(X, mask, w, prefix, heads, dropout, rng, train):
    """Multi-head attention with key masking. Returns (out, cache)."""
    q = _split_heads(X @ w[f"{prefix}.Wq"] + w[f"{prefix}.bq"], heads)
    k = _split_heads(X @ w[f"{prefix}.Wk"] + w[f"{prefix}.bk"], heads)
    v = _split_heads(X @ w[f"{prefix}.Wv"] + w[f"{prefix}.bv"], heads)
    dh = q.shape[-1]
    scale = 1.0 / np.sqrt(dh)
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    scores = scores + np.where(mask[:, None, None, :], 0.0, _MASK_BIAS)
    scores -= scores.max(-1, keepdims=True)
    e = np.exp(scores)
    p = e / e.sum(-1, keepdims=True)  # masked keys get exactly zero weight
    if train and dropout > 0.0:
        keep = (rng.random(p.shape) >= dropout) / (1.0 - dropout)
        pd = p * keep
    else:
        keep = None
        pd = p
    ctx = _merge_heads(pd @ v)
    out = ctx @ w[f"{prefix}.Wo"] + w[f"{prefix}.bo"]
    return out, (X, q, k, v, p, keep, pd, ctx, scale)


def _attn_backward(dout, cache, w, prefix, heads, grads):
    X, q, k, v, p, keep, pd, ctx, scale = cache
    grads[f"{prefix}.Wo"] += _mat_grad(ctx, dout)
    grads[f"{prefix}.bo"] += dout.sum((0, 1))
    dctx = _split_heads(dout @ w[f"{prefix}.Wo"].T, heads)
    dpd = dctx @ v.transpose(0, 1, 3, 2)
    dv = pd.transpose(0, 1, 3, 2) @ dctx
    dp = dpd * keep if keep is not None else dpd
    ds = p * (dp - (dp * p).sum(-1, keepdims=True))
    dq = (ds @ k) * scale
    dk = (ds.transpose(0, 1, 3, 2) @ q) * scale
    dX = np.zeros_like(X)
    for dpart, wname, bname in ((dq, "Wq", "bq"), (dk, "Wk", "bk"), (dv, "Wv", "bv")):
        merged = _merge_heads(dpart)
        grads[f"{prefix}.{wname}"] += _mat_grad(X, merged)
        grads[f"{prefix}.{bname}"] += merged.sum((0, 1))
        dX += merged @ w[f"{prefix}.{wname}"].T
    return dX


def _block_forward(X, mask, w, prefix, enc: EncoderConfig, rng, train):
    """One post-norm encoder block; masked rows are zeroed on output."""
    attn_out, attn_cache = _attn_forward(
        X, mask, w, f"{prefix}.attn", enc.heads, enc.dropout_rate, rng, train
    )
    h, ln1_cache = _ln_forward(X + attn_out, w[f"{prefix}.ln1.g"], w[f"{prefix}.ln1.b"])
    h1 = h @ w[f"{prefix}.ffn.W1"] + w[f"{prefix}.ffn.b1"]
    r = np.maximum(h1, 0.0)
    if train and enc.dropout_rate > 0.0:
        keep = (rng.random(r.shape) >= enc.dropout_rate) / (1.0 - enc.dropout_rate)
        rd = r * keep
    else:
        keep = None
        rd = r
    f = rd @ w[f"{prefix}.ffn.W2"] + w[f"{prefix}.ffn.b2"]
    y0, ln2_cache = _ln_forward(h + f, w[f"{prefix}.ln2.g"], w[f"{prefix}.ln2.b"])
    y = y0 * mask[:, :, None]
    return y, (attn_cache, ln1_cache, h, h1, keep, rd, ln2_cache, mask)


def _block_backward(dy, cache, w, prefix, enc: EncoderConfig, grads):
    attn_cache, ln1_cache, h, h1, keep, rd, ln2_cache, mask = cache
    dy0 = dy * mask[:, :, None]
    ds2, dg2, db2 = _ln_backward(dy0, ln2_cache)
    grads[f"{prefix}.ln2.g"] += dg2
    grads[f"{prefix}.ln2.b"] += db2
    dh = ds2.copy()
    grads[f"{prefix}.ffn.W2"] += _mat_grad(rd, ds2)
    grads[f"{prefix}.ffn.b2"] += ds2.sum((0, 1))
    drd = ds2 @ w[f"{prefix}.ffn.W2"].T
    dr = drd * keep if keep is not None else drd
    dh1 = dr * (h1 > 0.0)
    grads[f"{prefix}.ffn.W1"] += _mat_grad(h, dh1)
    grads[f"{prefix}.ffn.b1"] += dh1.sum((0, 1))
    dh += dh1 @ w[f"{prefix}.ffn.W1"].T
    ds1, dg1, db1 = _ln_backward(dh, ln1_cache)
    grads[f"{prefix}.ln1.g"] += dg1
    grads[f"{prefix}.ln1.b"] += db1
    dx = ds1 + _attn_backward(ds1, attn_cache, w, f"{prefix}.attn", enc.heads, grads)
    return dx


def _encoder_forward(Z, mask, w, name, enc: EncoderConfig, rng, train):
    """Block stack plus the additive skip from Z; masked rows zeroed."""
    cur = Z
    caches = []
    for i in range(enc.blocks):
        cur, c = _block_forward(cur, mask, w, f"{name}.{i}", enc, rng, train)
        caches.append(c)
    out = (cur + Z) * mask[:, :, None]
    return out, caches


def _encoder_backward(dout, caches, mask, w, name, enc: EncoderConfig, grads):
    g = dout * mask[:, :, None]
    dcur = g
    for i in reversed(range(enc.blocks)):
        dcur = _block_backward(dcur, caches[i], w, f"{name}.{i}", enc, grads)
    return dcur + g  # block-stack input grad plus the skip branch


# ---------------------------------------------------------------------------
# Public single-record layer operations


def masked_attention(
    X: np.ndarray, mask: np.ndarray, weights: dict[str, np.ndarray], heads: int
) -> np.ndarray:
    """Single-sequence masked multi-head attention (evaluation mode).

    weights uses keys Wq/Wk/Wv/Wo and bq/bk/bv/bo. Key positions with
    mask=false receive zero attention weight; rows at masked query positions
    are computed but carry no meaning downstream.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise DegenerateInputError("attention needs at least one unmasked position")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != mask.shape[0]:
        raise ConfigurationError(f"X shape {X.shape} inconsistent with mask {mask.shape}")
    w = {f"attn.{k}": np.asarray(v, dtype=np.float64) for k, v in weights.items()}
    out, _ = _attn_forward(X[None], mask[None], w, "attn", heads, 0.0, None, False)
    return out[0]


def encoder_block(
    X: np.ndarray, mask: np.ndarray, params: dict[str, np.ndarray], heads: int
) -> np.ndarray:
    """Single-sequence encoder block (evaluation mode).

    params holds attn.{Wq..bo}, ln1.{g,b}, ffn.{W1,b1,W2,b2}, ln2.{g,b}.
    """
    X = np.asarray(X, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if X.ndim != 2 or X.shape[0] != mask.shape[0]:
        raise ConfigurationError(f"X shape {X.shape} inconsistent with mask {mask.shape}")
    d = X.shape[1]
    if params["attn.Wq"].shape != (d, d):
        raise ConfigurationError("attention weights do not match input width")
    if not mask.any():
        raise DegenerateInputError("encoder block needs at least one unmasked position")
    w = {f"blk.{k}": np.asarray(v, dtype=np.float64) for k, v in params.items()}
    enc = EncoderConfig(d, params["ffn.W1"].shape[1], heads, 1, 0.0)
    out, _ = _block_forward(X[None], mask[None], w, "blk", enc, None, False)
    return out[0]


# ---------------------------------------------------------------------------
# Full forward (batched) and backward


def _check_streams(params: ModelParams, A, B, C):
    cfg = params.config
    if isinstance(cfg, LateFusionConfig):
        pairs = (("a.proj.W", A), ("b.proj.W", B), ("c.proj.W", C))
        for name, x in pairs:
            if params.tensors[name].shape[0] != x.shape[-1]:
                raise ConfigurationError(
                    f"stream width {x.shape[-1]} does not match projection {name}"
                )
    else:
        total = A.shape[-1] + B.shape[-1] + C.shape[-1]
        if params.tensors["f.proj.W"].shape[0] != total:
            raise ConfigurationError(
                f"concatenated width {total} does not match early-fusion projection"
            )


def forward_batch(
    params: ModelParams,
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    mask: np.ndarray,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
    toggles: tuple[bool, bool, bool] = (True, True, True),
    need_cache: bool = False,
):
    """Batched forward pass for either architecture.

    A/B/C are (N,T,dim) stream arrays, mask is (N,T) bool. Returns
    (class_probs (N,K), embedding_pred (N,embed_dim), cache or None).
    Stream toggles zero out excluded streams before projection (ablations).

    Inference (train and need_cache both false) runs over blocks of
    max(1, 128 // T) consecutive rows and concatenates the outputs. Rows are
    independent, so the result is the same up to summation order; the blocks
    keep each pass's temporaries small enough that the allocator reuses them
    instead of returning them to the kernel and faulting them in again on the
    next call (on a 2-vCPU machine at T=40, a row cost about 30% more in one
    pass of 32 rows than in blocks of 3). Training and cached passes run the
    whole batch at once.
    """
    _check_streams(params, A, B, C)
    if train and params.config.dropout_rate > 0.0 and rng is None:
        raise ConfigurationError("training-mode forward with dropout needs an rng")
    if not all(toggles):
        A = A if toggles[0] else np.zeros_like(A)
        B = B if toggles[1] else np.zeros_like(B)
        C = C if toggles[2] else np.zeros_like(C)
    n, T = A.shape[:2]
    rows = max(1, _BLOCK_CELLS // max(T, 1))
    if train or need_cache or n <= rows:
        return _forward(params, A, B, C, mask, train, rng, need_cache)
    blocks = [
        _forward(params, A[i : i + rows], B[i : i + rows], C[i : i + rows], mask[i : i + rows])
        for i in range(0, n, rows)
    ]
    probs = np.concatenate([p for p, _, _ in blocks])
    emb = np.concatenate([e for _, e, _ in blocks])
    return probs, emb, None


def _forward(params, A, B, C, mask, train=False, rng=None, need_cache=False):
    """forward_batch's pass over the whole batch, with no checks or toggles."""
    cfg = params.config
    w = params.tensors
    T = A.shape[1]
    cache: dict = {"A": A, "B": B, "C": C, "mask": mask}

    if isinstance(cfg, LateFusionConfig):
        encs = cfg.encoders()
        outs = []
        for name, x, d in (("a", A, cfg.d_a), ("b", B, cfg.d_b), ("c", C, cfg.d_c)):
            pe = positional_encoding(T, d)
            z = x @ w[f"{name}.proj.W"] + w[f"{name}.proj.b"] + pe
            out, blk_caches = _encoder_forward(z, mask, w, name, encs[name], rng, train)
            cache[f"enc.{name}"] = blk_caches
            outs.append(out)
        zf = np.concatenate(outs, axis=-1)
        cache["zf"] = zf
        enc_out, f_caches = _encoder_forward(zf, mask, w, "f", encs["f"], rng, train)
        cache["enc.f"] = f_caches
    else:
        x = np.concatenate([A, B, C], axis=-1)
        cache["x"] = x
        pe = positional_encoding(T, cfg.d_model)
        z = x @ w["f.proj.W"] + w["f.proj.b"] + pe
        cache["zf"] = z
        enc_out, f_caches = _encoder_forward(z, mask, w, "f", cfg.encoder(), rng, train)
        cache["enc.f"] = f_caches

    nreal = mask.sum(1).astype(np.float64)
    pooled = enc_out.sum(1) / nreal[:, None]  # masked rows are exactly zero
    logits = pooled @ w["head.cls.W"] + w["head.cls.b"]
    shifted = logits - logits.max(-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(-1, keepdims=True)
    emb = pooled @ w["head.emb.W"] + w["head.emb.b"]
    if need_cache:
        cache.update(pooled=pooled, probs=probs, nreal=nreal)
        return probs, emb, cache
    return probs, emb, None


def _backward_batch(params: ModelParams, cache, dprobs, demb):
    """Backward through forward_batch given dL/dprobs and dL/demb."""
    w = params.tensors
    cfg = params.config
    grads = {k: np.zeros_like(v) for k, v in w.items()}
    probs, pooled, mask, nreal = cache["probs"], cache["pooled"], cache["mask"], cache["nreal"]

    dlogits = probs * (dprobs - (dprobs * probs).sum(-1, keepdims=True))
    grads["head.cls.W"] += pooled.T @ dlogits
    grads["head.cls.b"] += dlogits.sum(0)
    grads["head.emb.W"] += pooled.T @ demb
    grads["head.emb.b"] += demb.sum(0)
    dpooled = dlogits @ w["head.cls.W"].T + demb @ w["head.emb.W"].T
    denc_out = dpooled[:, None, :] * (mask[:, :, None] / nreal[:, None, None])

    if isinstance(cfg, LateFusionConfig):
        encs = cfg.encoders()
        dzf = _encoder_backward(denc_out, cache["enc.f"], mask, w, "f", encs["f"], grads)
        splits = np.cumsum([cfg.d_a, cfg.d_b])
        douts = np.split(dzf, splits, axis=-1)
        for name, x, dout in (
            ("a", cache["A"], douts[0]),
            ("b", cache["B"], douts[1]),
            ("c", cache["C"], douts[2]),
        ):
            dz = _encoder_backward(dout, cache[f"enc.{name}"], mask, w, name, encs[name], grads)
            grads[f"{name}.proj.W"] += _mat_grad(x, dz)
            grads[f"{name}.proj.b"] += dz.sum((0, 1))
    else:
        dz = _encoder_backward(denc_out, cache["enc.f"], mask, w, "f", cfg.encoder(), grads)
        grads["f.proj.W"] += _mat_grad(cache["x"], dz)
        grads["f.proj.b"] += dz.sum((0, 1))
    return grads


# ---------------------------------------------------------------------------
# Losses


def label_smooth(onehot: np.ndarray, epsilon: float = 0.15) -> np.ndarray:
    """y' = (1 - eps) * onehot + eps / K."""
    if not (0.0 <= epsilon < 1.0):
        raise ConfigurationError(f"label smoothing epsilon {epsilon} outside [0,1)")
    onehot = np.asarray(onehot, dtype=np.float64)
    k = onehot.shape[-1]
    return (1.0 - epsilon) * onehot + epsilon / k


def cross_entropy(probs: np.ndarray, target: np.ndarray) -> float:
    """-sum(target * log probs), probs floored at 1e-12 before the log."""
    probs = np.asarray(probs, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    return float(-(target * np.log(np.maximum(probs, _PROB_FLOOR))).sum())


def cosine_loss(pred: np.ndarray, target_embedding: np.ndarray) -> float:
    """Negative cosine similarity; -1 at perfect alignment."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target_embedding, dtype=np.float64)
    tn = np.linalg.norm(target)
    if tn == 0.0:
        raise DegenerateInputError("target embedding has zero norm")
    pn = max(np.linalg.norm(pred), _PROB_FLOOR)
    return float(-(pred @ target) / (pn * tn))


def combined_loss(
    ce: float, cos: float, class_weight: float = CLASS_LOSS_WEIGHT, embed_weight: float = EMBED_LOSS_WEIGHT
) -> float:
    return class_weight * ce + embed_weight * cos


def loss_and_grads(
    params: ModelParams,
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    mask: np.ndarray,
    targets: np.ndarray,
    target_emb: np.ndarray,
    class_weight: float = CLASS_LOSS_WEIGHT,
    embed_weight: float = EMBED_LOSS_WEIGHT,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
    toggles: tuple[bool, bool, bool] = (True, True, True),
):
    """Mean combined loss over a batch plus gradients for every tensor.

    targets are already-smoothed class distributions (N,K); target_emb is
    (N,embed_dim) with nonzero rows. Returns (loss, grads, class_probs).
    """
    n = A.shape[0]
    probs, emb, cache = forward_batch(
        params, A, B, C, mask, train=train, rng=rng, toggles=toggles, need_cache=True
    )
    tn = np.linalg.norm(target_emb, axis=1)
    if np.any(tn == 0.0):
        raise DegenerateInputError("target embedding has zero norm")
    pn = np.maximum(np.linalg.norm(emb, axis=1), _PROB_FLOOR)
    clamped = np.maximum(probs, _PROB_FLOOR)
    ce = -(targets * np.log(clamped)).sum(-1)
    cos = (emb * target_emb).sum(-1) / (pn * tn)
    loss = float(np.mean(class_weight * ce - embed_weight * cos))

    # d(mean loss)/dprobs: only coordinates above the floor carry gradient
    dprobs = np.where(probs > _PROB_FLOOR, -targets / clamped, 0.0) * (class_weight / n)
    demb = (embed_weight / n) * (-target_emb / (pn * tn)[:, None] + (cos / (pn * pn))[:, None] * emb)
    grads = _backward_batch(params, cache, dprobs, demb)
    return loss, grads, probs


# ---------------------------------------------------------------------------
# Checkpoint serialization (shared by single models and the ensemble)

_CKPT_MAGIC_KEY = "signrec-checkpoint"


def save_checkpoint(path, config_doc: dict, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """u32 header length, JSON header, then little-endian f32 tensor payloads."""
    names = sorted(tensors)
    directory = []
    offset = 0
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
        blobs.append(arr.tobytes())
    header = {
        "format": _CKPT_MAGIC_KEY,
        "version": 1,
        "config": config_doc,
        "meta": meta,
        "tensors": directory,
    }
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        for blob in blobs:
            fh.write(blob)


def _tensor_entry(path, entry) -> tuple[str, tuple[int, ...], int]:
    """(name, shape, offset) of one header directory entry, validated."""
    try:
        name, shape, start = entry["name"], entry["shape"], entry["offset"]
    except (TypeError, KeyError) as exc:
        raise FormatError(f"{path}: bad tensor entry {entry!r}") from exc
    if not (isinstance(shape, list) and all(isinstance(d, int) and d >= 0 for d in shape)):
        raise FormatError(f"{path}: tensor {name} has bad shape {shape!r}")
    if not isinstance(start, int) or start < 0:
        raise FormatError(f"{path}: tensor {name} has bad offset {start!r}")
    return name, tuple(shape), start


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray], dict]:
    """Inverse of save_checkpoint; tensors come back as float64."""
    buf = Path(path).read_bytes()
    if len(buf) < 4:
        raise FormatError(f"{path}: truncated checkpoint")
    (hlen,) = struct.unpack_from("<I", buf)
    if len(buf) < 4 + hlen:
        raise FormatError(f"{path}: header extends past end of file")
    try:
        header = json.loads(buf[4 : 4 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: not a recognized checkpoint")
    if header.get("format") != _CKPT_MAGIC_KEY or header.get("version") != 1:
        raise FormatError(f"{path}: not a recognized checkpoint")
    if not isinstance(header.get("config"), dict) or not isinstance(header.get("tensors"), list):
        raise FormatError(f"{path}: checkpoint header lacks a config or a tensor list")
    payload = buf[4 + hlen :]
    tensors = {}
    for entry in header["tensors"]:
        name, shape, start = _tensor_entry(path, entry)
        end = start + 4 * int(np.prod(shape))
        if end > len(payload):
            raise FormatError(f"{path}: tensor {name} extends past end of file")
        arr = np.frombuffer(payload[start:end], dtype="<f4").reshape(shape)
        tensors[name] = arr.astype(np.float64)
    return header["config"], tensors, header.get("meta", {})


def save_model(path, params: ModelParams, meta: Optional[dict] = None) -> None:
    save_checkpoint(path, params.config.to_json(), params.tensors, meta or {})


def _build_model(path, config_doc: dict, tensors: dict[str, np.ndarray]) -> ModelParams:
    """ModelParams from a parsed checkpoint, tensors checked against the config."""
    config = config_from_json(config_doc)
    check_tensors(path, tensors, param_shapes(config))
    return ModelParams(config, tensors)


def load_model(path) -> tuple[ModelParams, dict]:
    config_doc, tensors, meta = load_checkpoint(path)
    return _build_model(path, config_doc, tensors), meta
