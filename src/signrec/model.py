"""Transformer encoders for early- and late-fusion sign-word classification.

Everything is plain numpy. Activations, dropout draws and gradients take the
dtype of the parameters, and the streams are cast to it on entry. init_params
gives float64 master weights; the training loop casts them to float32 for each
step's pass and applies the float32 gradients to the float64 masters. The
gradient checks call loss_and_grads on the float64 weights directly, so they
stay in float64. load_checkpoint gives float32, so loaded models serve in
float32, as freshly trained ones do. forward_batch is the one inference pass
over (N,T,dim) stream arrays; loss_and_grads is the one training pass: the same
forward, with dropout when it is given an rng, then the combined loss and the
full analytic backward pass. Stream ablation happens before either, where
preprocess.stack_batches stacks a batch. Gradients are written by
hand and validated against central finite differences in the test suite.

Architecture, shared by both fusion variants:
  project input -> add sinusoidal positions -> N encoder blocks -> additive
  skip from the projected input -> masked mean pool -> class head (softmax)
  and embedding head (linear, 300-d).
A config's encoders() table gives the layout. Each named branch projects the
concatenation of its streams and runs its own encoder; an optional fused
encoder "f" then runs over the per-frame concatenation of the branch outputs
(no second projection or positional term). Late fusion has branches a, b, c
over the hand, lip and arm-geometry streams plus the fused encoder. Early
fusion has one branch "f" over all three raw streams (260-d) and no fused
encoder. Parameter names, init draw order and pass order follow the table.

Buffer ownership: a pass works in place (out=, +=, *=) on temporaries it
allocated itself, and never writes to its inputs, the parameters, the shared
positional table or a cache it has returned. Three private helpers overwrite
an argument their caller hands over: _ln_forward turns x into the normalized
x-hat its cache keeps, _ln_backward turns dy into the input gradient, and
_encoder_backward masks dout in place. Every other helper only reads its
arguments and returns fresh arrays. The backward consumes the cache it is
handed: the forward keeps its caches in dicts and lists, and the backward
pops each array at its last use and drops each of its own temporaries there
too, so a step holds only what the rest of the backward still needs. It
writes none of the cached arrays, and leaves every cache container empty.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, FormatError
from .preprocess import STREAM_A_DIM, STREAM_B_DIM, STREAM_C_DIM

_STREAM_DIMS = (STREAM_A_DIM, STREAM_B_DIM, STREAM_C_DIM)
_LN_EPS = 1e-5
_MASK_BIAS = -1e30
_PROB_FLOOR = 1e-12
CLASS_LOSS_WEIGHT = 1.8
EMBED_LOSS_WEIGHT = 0.5
# Inference forwards run in blocks of max(1, _BLOCK_CELLS // T) rows; see forward_batch.
_BLOCK_CELLS = 128


# ---------------------------------------------------------------------------
# Configuration


def _is_a(v, kind: str) -> bool:
    """Whether v is a value of type kind, "int", "float" or "bool"; bool is no number here."""
    if isinstance(v, (bool, np.bool_)):
        return kind == "bool"
    if isinstance(v, (int, np.integer)):
        return kind in ("int", "float")
    return kind == "float" and isinstance(v, (float, np.floating)) and math.isfinite(v)


def _check_types(config) -> None:
    """ConfigurationError unless every field of a config dataclass holds its annotated type.

    Configs come from JSON (checkpoint headers, run configs), so a count can
    arrive as 1.5 or true, a rate as "x", a stream toggle as "false". A field
    is an int, a float, or a tuple of ints, floats or bools; bool is no number
    and a float must be finite. The model configs check every field their
    EncoderConfigs are built from, so encoders() need not repeat it.
    """
    for f in dataclasses.fields(config):
        v = getattr(config, f.name)
        if f.type.startswith("tuple["):  # annotations are strings under postponed evaluation
            kinds = f.type[len("tuple[") : -1].split(", ")
            ok = isinstance(v, (tuple, list)) and len(v) == len(kinds) and all(map(_is_a, v, kinds))
        else:
            ok = _is_a(v, f.type)
        if not ok:
            raise ConfigurationError(f"{f.name} must be {f.type}, got {v!r}")


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int
    ffn_width: int
    heads: int = 12
    blocks: int = 1
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.heads < 1 or self.d_model % self.heads != 0:
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
        _check_types(self)
        if self.num_classes < 2:
            raise ConfigurationError("need at least 2 classes")
        self.encoders()  # constructing them runs the divisibility checks

    def encoders(self) -> EncoderTable:
        mk = lambda d, f: EncoderConfig(d, f, self.heads, self.blocks, self.dropout_rate)
        branches = {
            "a": ((0,), mk(self.d_a, self.ffn_a)),
            "b": ((1,), mk(self.d_b, self.ffn_b)),
            "c": ((2,), mk(self.d_c, self.ffn_c)),
        }
        return branches, mk(self.d_a + self.d_b + self.d_c, self.ffn_fused)

    def to_json(self) -> dict:
        return {"arch": self.arch, **dataclasses.asdict(self)}


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
        _check_types(self)
        if self.num_classes < 2:
            raise ConfigurationError("need at least 2 classes")
        self.encoders()

    def encoders(self) -> EncoderTable:
        enc = EncoderConfig(self.d_model, self.ffn_width, self.heads, self.blocks, self.dropout_rate)
        return {"f": ((0, 1, 2), enc)}, None

    def to_json(self) -> dict:
        return {"arch": self.arch, **dataclasses.asdict(self)}


ModelConfig = Union[LateFusionConfig, EarlyFusionConfig]
# encoders(): ({branch: (indices of the streams it projects, encoder)}, fused encoder or None)
EncoderTable = tuple[dict[str, tuple[tuple[int, ...], EncoderConfig]], Optional[EncoderConfig]]
_ARCH_CONFIGS = {"late": LateFusionConfig, "early": EarlyFusionConfig}


def config_from_json(doc: dict) -> ModelConfig:
    doc = dict(doc)
    arch = doc.pop("arch", None)
    cls = _ARCH_CONFIGS.get(arch) if isinstance(arch, str) else None
    if cls is None:
        raise FormatError(f"unknown architecture tag {arch!r}")
    try:
        return cls(**doc)
    except (TypeError, ConfigurationError) as exc:
        raise FormatError(f"bad model config: {exc}") from exc


@dataclass
class ModelParams:
    """A model: its configuration plus the named parameter tensors."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def probs(self, A, B, C, mask) -> np.ndarray:
        """(N,K) class probabilities of (N,T,dim) streams under an (N,T) mask."""
        return forward_batch(self, A, B, C, mask)[0]


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
    branches, fused = config.encoders()
    for name, (idx, enc) in branches.items():
        s[f"{name}.proj.W"] = (sum(_STREAM_DIMS[i] for i in idx), enc.d_model)
        s[f"{name}.proj.b"] = (enc.d_model,)
        _block_shapes(name, enc, s)
    if fused is not None:
        _block_shapes("f", fused, s)
    pooled_dim = sum(enc.d_model for _, enc in branches.values())
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


def _ln_forward(x, g, b):
    """Layer norm over the last axis. Overwrites x with x-hat, which the cache keeps."""
    x -= x.mean(-1, keepdims=True)
    y = np.multiply(x, x)
    inv = y.mean(-1, keepdims=True)
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    x *= inv
    np.multiply(x, g, out=y)
    y += b
    return y, (x, inv, g)


def _ln_backward(dy, cache):
    """(dx, dg, db) of _ln_forward. Overwrites dy with dx."""
    xhat, inv, g = cache
    axes = tuple(range(dy.ndim - 1))
    db = dy.sum(axis=axes)
    tmp = dy * xhat
    dg = tmp.sum(axis=axes)
    dy *= g  # dxhat
    np.multiply(dy, xhat, out=tmp)
    proj = tmp.mean(-1, keepdims=True)
    np.multiply(xhat, proj, out=tmp)
    dy -= dy.mean(-1, keepdims=True)
    dy -= tmp
    dy *= inv
    return dy, dg, db


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    B, T, d = x.shape
    return x.reshape(B, T, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    B, h, T, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, T, h * dh)


def _affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    y = x @ W
    y += b
    return y


def _mat_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # weight gradient of y = x @ W accumulated over batch and time
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _mask_bias(mask: np.ndarray, dtype) -> np.ndarray:
    """(N,1,1,T) attention-score bias: 0 at real keys, _MASK_BIAS at padded ones."""
    return np.where(mask[:, None, None, :], 0.0, _MASK_BIAS).astype(dtype, copy=False)


def _attn_forward(X, bias, w, prefix, heads, dropout, rng):
    """Multi-head attention with key masking by bias, dropout if rng. Returns (out, cache)."""
    q = _split_heads(_affine(X, w[f"{prefix}.Wq"], w[f"{prefix}.bq"]), heads)
    k = _split_heads(_affine(X, w[f"{prefix}.Wk"], w[f"{prefix}.bk"]), heads)
    v = _split_heads(_affine(X, w[f"{prefix}.Wv"], w[f"{prefix}.bv"]), heads)
    scale = 1.0 / math.sqrt(q.shape[-1])
    p = q @ k.transpose(0, 1, 3, 2)
    p *= scale
    p += bias
    p -= p.max(-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(-1, keepdims=True)  # masked keys get exactly zero weight
    keep = c = None
    pd = p
    if rng is not None and dropout > 0.0:
        c = 1.0 / (1.0 - dropout)
        pd = rng.random(p.shape, dtype=p.dtype)
        keep = pd >= dropout
        np.multiply(p, keep, out=pd)
        pd *= c
    ctx = _merge_heads(pd @ v)
    out = _affine(ctx, w[f"{prefix}.Wo"], w[f"{prefix}.bo"])
    return out, dict(X=X, q=q, k=k, v=v, p=p, keep=keep, c=c, ctx=ctx, scale=scale)


def _attn_backward(dout, cache, w, prefix, heads, grads):
    """Input gradient of _attn_forward; pops every entry of cache at its last use."""
    grads[f"{prefix}.Wo"] = _mat_grad(cache.pop("ctx"), dout)
    grads[f"{prefix}.bo"] = dout.sum((0, 1))
    dctx = _split_heads(dout @ w[f"{prefix}.Wo"].T, heads)
    dp = dctx @ cache.pop("v").transpose(0, 1, 3, 2)
    p, keep, c = cache.pop("p"), cache.pop("keep"), cache.pop("c")
    if keep is None:
        dv = p.transpose(0, 1, 3, 2) @ dctx
        del dctx
        tmp = dp * p
    else:
        tmp = p * keep  # the forward's dropped weights, rebuilt instead of cached
        tmp *= c
        dv = tmp.transpose(0, 1, 3, 2) @ dctx
        del dctx
        dp *= keep
        del keep
        dp *= c
        np.multiply(dp, p, out=tmp)
    dp -= tmp.sum(-1, keepdims=True)
    del tmp
    dp *= p  # now the score gradient
    del p
    scale = cache.pop("scale")
    dq = dp @ cache.pop("k")
    dq *= scale
    dk = dp.transpose(0, 1, 3, 2) @ cache.pop("q")
    del dp
    dk *= scale
    X = cache.pop("X")
    dparts = [dq, dk, dv]
    del dq, dk, dv
    dX = None
    for name in ("q", "k", "v"):
        merged = _merge_heads(dparts.pop(0))
        grads[f"{prefix}.W{name}"] = _mat_grad(X, merged)
        grads[f"{prefix}.b{name}"] = merged.sum((0, 1))
        part = merged @ w[f"{prefix}.W{name}"].T
        del merged
        dX = part if dX is None else np.add(dX, part, out=dX)
    return dX


def _block_forward(X, mask, bias, w, prefix, enc: EncoderConfig, rng):
    """One post-norm encoder block; masked rows are zeroed on output."""
    s, attn_cache = _attn_forward(X, bias, w, f"{prefix}.attn", enc.heads, enc.dropout_rate, rng)
    s += X
    h, ln1_cache = _ln_forward(s, w[f"{prefix}.ln1.g"], w[f"{prefix}.ln1.b"])
    rd = _affine(h, w[f"{prefix}.ffn.W1"], w[f"{prefix}.ffn.b1"])
    np.maximum(rd, 0.0, out=rd)
    c = None
    if rng is not None and enc.dropout_rate > 0.0:
        rd *= rng.random(rd.shape, dtype=rd.dtype) >= enc.dropout_rate
        c = 1.0 / (1.0 - enc.dropout_rate)
        rd *= c
    f = _affine(rd, w[f"{prefix}.ffn.W2"], w[f"{prefix}.ffn.b2"])
    f += h
    y, ln2_cache = _ln_forward(f, w[f"{prefix}.ln2.g"], w[f"{prefix}.ln2.b"])
    y *= mask[:, :, None]
    return y, dict(attn=attn_cache, ln1=ln1_cache, h=h, rd=rd, c=c, ln2=ln2_cache, mask=mask)


def _block_backward(dy, cache, w, prefix, enc: EncoderConfig, grads):
    """Input gradient of _block_forward; pops every entry of cache at its last use."""
    ds2, grads[f"{prefix}.ln2.g"], grads[f"{prefix}.ln2.b"] = _ln_backward(
        dy * cache.pop("mask")[:, :, None], cache.pop("ln2")
    )
    rd = cache.pop("rd")
    grads[f"{prefix}.ffn.W2"] = _mat_grad(rd, ds2)
    grads[f"{prefix}.ffn.b2"] = ds2.sum((0, 1))
    dh1 = ds2 @ w[f"{prefix}.ffn.W2"].T
    # rd > 0 exactly where the unit was active and kept. Masking before scaling
    # by c gives the same bits, signed zeros included, as scaling by the float
    # dropout mask first and then masking by the pre-ReLU sign.
    dh1 *= rd > 0.0
    del rd
    c = cache.pop("c")
    if c is not None:
        dh1 *= c
    grads[f"{prefix}.ffn.W1"] = _mat_grad(cache.pop("h"), dh1)
    grads[f"{prefix}.ffn.b1"] = dh1.sum((0, 1))
    dh = dh1 @ w[f"{prefix}.ffn.W1"].T
    del dh1
    dh += ds2
    del ds2
    ds1, grads[f"{prefix}.ln1.g"], grads[f"{prefix}.ln1.b"] = _ln_backward(dh, cache.pop("ln1"))
    dx = _attn_backward(ds1, cache.pop("attn"), w, f"{prefix}.attn", enc.heads, grads)
    dx += ds1
    return dx


def _encoder_forward(Z, mask, w, name, enc: EncoderConfig, rng):
    """Block stack plus the additive skip from Z; masked rows zeroed."""
    bias = _mask_bias(mask, Z.dtype)
    cur = Z
    caches = []
    for i in range(enc.blocks):
        cur, c = _block_forward(cur, mask, bias, w, f"{name}.{i}", enc, rng)
        caches.append(c)
    cur += Z  # the last block's output is cached nowhere
    cur *= mask[:, :, None]
    return cur, caches


def _encoder_backward(dout, caches, mask, w, name, enc: EncoderConfig, grads):
    """Input gradient of _encoder_forward. Overwrites dout with its masked self.

    Pops the block caches off the list, last block first, so it ends empty.
    """
    dout *= mask[:, :, None]
    dcur = dout
    for i in reversed(range(enc.blocks)):
        dcur = _block_backward(dcur, caches.pop(), w, f"{name}.{i}", enc, grads)
    dcur += dout  # block-stack input grad plus the skip branch
    return dcur


# ---------------------------------------------------------------------------
# Full forward (batched) and backward


def _check_streams(params: ModelParams, A, B, C, mask):
    for name, (idx, _) in params.config.encoders()[0].items():
        width = sum((A, B, C)[i].shape[-1] for i in idx)
        if params.tensors[f"{name}.proj.W"].shape[0] != width:
            raise ConfigurationError(f"stream width {width} does not match {name}.proj.W")
    if not (A.shape[:2] == B.shape[:2] == C.shape[:2] == mask.shape):
        raise ConfigurationError(f"mask shape {mask.shape} inconsistent with streams")
    if not mask.any(1).all():
        raise DegenerateInputError("every row needs at least one unmasked position")


def forward_batch(
    params: ModelParams, A: np.ndarray, B: np.ndarray, C: np.ndarray, mask: np.ndarray
):
    """Inference pass for either architecture: (class_probs (N,K), embedding_pred (N,embed_dim)).

    A/B/C are (N,T,dim) stream arrays, mask is (N,T) bool with at least one
    true entry per row. No dropout runs; loss_and_grads is the training pass.

    The batch runs in blocks of max(1, 128 // T) consecutive rows and the
    outputs are concatenated. Every matmul runs one row at a time, so a row's
    outputs are the same bit for bit whatever batch or block it shares. The
    blocks keep each pass's temporaries small enough that the allocator reuses
    them instead of returning them to the kernel and faulting them in again on
    the next call (on a 2-vCPU machine at T=40, a row cost about 30% more in
    one pass of 32 rows than in blocks of 3).
    """
    _check_streams(params, A, B, C, mask)
    n, T = A.shape[:2]
    rows = max(1, _BLOCK_CELLS // max(T, 1))
    if n <= rows:
        return _forward(params, A, B, C, mask)[:2]
    # [:2] frees each block's cache before the next block runs
    blocks = [
        _forward(params, A[i : i + rows], B[i : i + rows], C[i : i + rows], mask[i : i + rows])[:2]
        for i in range(0, n, rows)
    ]
    return np.concatenate([p for p, _ in blocks]), np.concatenate([e for _, e in blocks])


def _forward(params, A, B, C, mask, rng=None):
    """(probs, emb, cache) of one unchecked pass over the whole batch; dropout when rng is given."""
    w = params.tensors
    dt = w["head.cls.W"].dtype
    streams = [x.astype(dt, copy=False) for x in (A, B, C)]
    T = A.shape[1]
    cache: dict = {"mask": mask}
    branches, fused = params.config.encoders()
    outs = []
    for name, (idx, enc) in branches.items():
        x = streams[idx[0]] if len(idx) == 1 else np.concatenate([streams[i] for i in idx], -1)
        cache[f"x.{name}"] = x
        z = _affine(x, w[f"{name}.proj.W"], w[f"{name}.proj.b"])
        z += positional_encoding(T, enc.d_model)
        out, cache[f"enc.{name}"] = _encoder_forward(z, mask, w, name, enc, rng)
        outs.append(out)
    enc_out = outs[0]
    if fused is not None:
        zf = np.concatenate(outs, axis=-1)
        enc_out, cache["enc.f"] = _encoder_forward(zf, mask, w, "f", fused, rng)

    nreal = mask.sum(1).astype(enc_out.dtype)
    pooled = enc_out.sum(1) / nreal[:, None]  # masked rows are exactly zero
    # The heads run one row at a time: a 2-D pooled @ W is one GEMM whose
    # per-row sums depend on how many rows share it.
    logits = (pooled[:, None, :] @ w["head.cls.W"])[:, 0] + w["head.cls.b"]
    shifted = logits - logits.max(-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(-1, keepdims=True)
    emb = (pooled[:, None, :] @ w["head.emb.W"])[:, 0] + w["head.emb.b"]
    cache.update(pooled=pooled, probs=probs, nreal=nreal)
    return probs, emb, cache


def _backward_batch(params: ModelParams, cache, dprobs, demb):
    """Backward through the cache of a _forward pass given dL/dprobs and dL/demb.

    Consumes the cache: every entry is popped at its last use, so the dict
    and the containers in it are empty on return.
    """
    w = params.tensors
    grads: dict[str, np.ndarray] = {}
    probs, pooled = cache.pop("probs"), cache.pop("pooled")
    mask, nreal = cache.pop("mask"), cache.pop("nreal")

    dlogits = probs * (dprobs - (dprobs * probs).sum(-1, keepdims=True))
    grads["head.cls.W"] = pooled.T @ dlogits
    grads["head.cls.b"] = dlogits.sum(0)
    grads["head.emb.W"] = pooled.T @ demb
    grads["head.emb.b"] = demb.sum(0)
    dpooled = dlogits @ w["head.cls.W"].T + demb @ w["head.emb.W"].T
    douts = [dpooled[:, None, :] * (mask[:, :, None] / nreal[:, None, None])]

    branches, fused = params.config.encoders()
    if fused is not None:
        dzf = _encoder_backward(douts.pop(), cache.pop("enc.f"), mask, w, "f", fused, grads)
        widths = [enc.d_model for _, enc in branches.values()]
        douts = np.split(dzf, np.cumsum(widths[:-1]), axis=-1)
        del dzf
    for name, (_, enc) in branches.items():
        dz = _encoder_backward(douts.pop(0), cache.pop(f"enc.{name}"), mask, w, name, enc, grads)
        grads[f"{name}.proj.W"] = _mat_grad(cache.pop(f"x.{name}"), dz)
        grads[f"{name}.proj.b"] = dz.sum((0, 1))
        del dz
    return {name: grads[name] for name in w}


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
    rng: Optional[np.random.Generator] = None,
):
    """Training pass: mean combined loss over a batch plus gradients for every tensor.

    targets are already-smoothed class distributions (N,K); target_emb is
    (N,embed_dim) with nonzero rows. Returns (loss, grads, class_probs).
    Dropout runs when rng is given; without one the class probabilities have
    the same bits as forward_batch's. The batch runs in one pass.
    """
    _check_streams(params, A, B, C, mask)
    n = A.shape[0]
    probs, emb, cache = _forward(params, A, B, C, mask, rng)
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
    grads = _backward_batch(
        params, cache, dprobs.astype(probs.dtype, copy=False), demb.astype(probs.dtype, copy=False)
    )
    return loss, grads, probs


# ---------------------------------------------------------------------------
# Checkpoint serialization (shared by single models and the ensemble)

_CKPT_MAGIC_KEY = "signrec-checkpoint"
_PAYLOAD_ALIGN = 64  # numpy copies a misaligned f32 view before every matmul


def save_checkpoint(path, config_doc: dict, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """u32 header length, JSON header padded to a 64-byte boundary, little-endian f32 tensors."""
    directory = []
    offset = 0
    blobs = []
    for name in sorted(tensors):
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
    raw += b" " * (-(4 + len(raw)) % _PAYLOAD_ALIGN)
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
    if not isinstance(name, str):
        raise FormatError(f"{path}: tensor name {name!r} is not a string")
    if not (isinstance(shape, list) and all(isinstance(d, int) and d >= 0 for d in shape)):
        raise FormatError(f"{path}: tensor {name} has bad shape {shape!r}")
    if not isinstance(start, int) or start < 0:
        raise FormatError(f"{path}: tensor {name} has bad offset {start!r}")
    return name, tuple(shape), start


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray], dict]:
    """Inverse of save_checkpoint.

    Tensors come back as read-only float32 views of the file's bytes, so a
    loaded model serves in float32; ModelParams.copy gives writable ones.
    A tensor name listed twice, or a tensor holding a NaN or infinity, is a
    FormatError.
    """
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
    recognized = isinstance(header, dict) and header.get("format") == _CKPT_MAGIC_KEY
    if not recognized or header.get("version") != 1:
        raise FormatError(f"{path}: not a recognized checkpoint")
    if not isinstance(header.get("config"), dict) or not isinstance(header.get("tensors"), list):
        raise FormatError(f"{path}: checkpoint header lacks a config or a tensor list")
    payload_len = len(buf) - (4 + hlen)
    tensors = {}
    for entry in header["tensors"]:
        name, shape, start = _tensor_entry(path, entry)
        if name in tensors:
            raise FormatError(f"{path}: tensor {name} listed twice")
        count = math.prod(shape)
        if start + 4 * count > payload_len:
            raise FormatError(f"{path}: tensor {name} extends past end of file")
        arr = np.frombuffer(buf, dtype="<f4", count=count, offset=4 + hlen + start)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {name} holds a non-finite value")
        tensors[name] = arr.reshape(shape)
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
