"""Transformer encoders for early- and late-fusion sign-word classification.

Everything is plain numpy. Activations, dropout draws and gradients take the
dtype of the parameters, and the streams are cast to it on entry. init_params
gives float64 master weights; the training loop casts them to float32 for each
step's pass and applies the float32 gradients to the float64 masters. The
gradient checks call loss_and_grads on the float64 weights directly, so they
stay in float64. load_checkpoint gives float32, so loaded models serve in
float32, as freshly trained ones do. forward_batch is the one inference pass
over (N,T,dim) stream arrays; loss_and_grads is the one training pass: the same
forward, with dropout masks drawn from an rng when it is given one, then the
combined loss and the full analytic backward pass. Both run a batch in row
blocks on every CPU. Stream ablation happens before either, where
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
An inference pass keeps no encoder caches: each block's temporaries are
dropped as the block ends. The concurrent row blocks of forward_batch and
loss_and_grads share only read-only arrays: the parameters, the positional
table, the caller's inputs and a training step's dropout masks, of which
each block reads its own rows. Each block's pass owns its cache, its
temporaries and its gradient dict; a training block hands its dict to the
step's _BlockOrderSum, which owns it from then on and adds it into block
0's dict, the step's result, in block order. The code a worker thread runs
calls no public function of the package: perfbench's tracer wraps public
functions with one span stack shared by all threads.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import itertools
import json
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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
# forward_batch and loss_and_grads run in blocks of max(1, _BLOCK_CELLS // T) rows.
_BLOCK_CELLS = 256
# The blocks run on each CPU the process may use: on the caller's thread and on
# _POOL_WORKERS threads started at first use; see _run_blocks.
try:
    _POOL_WORKERS = len(os.sched_getaffinity(0)) - 1
except AttributeError:  # no affinity call on this platform
    _POOL_WORKERS = (os.cpu_count() or 1) - 1
_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()
# mallopt parameter numbers in glibc's malloc.h; see _keep_freed_heap
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _forget_pool() -> None:
    """In a forked child: the parent's workers did not come along, so start a new pool when needed."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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


def _attn_forward(X, bias, w, prefix, heads, dropout, keep):
    """Multi-head attention with key masking by bias. Returns (out, cache).

    keep is None or the (N,heads,T,T) bool mask of attention weights that
    survive dropout at rate dropout.
    """
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
    c = None
    pd = p
    if keep is not None:
        c = 1.0 / (1.0 - dropout)
        pd = p * keep
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


def _block_forward(X, mask, bias, w, prefix, enc: EncoderConfig, drop):
    """One post-norm encoder block; masked rows are zeroed on output.

    drop holds the block's dropout masks, if any, under _dropout_masks' names.
    """
    keep = drop.get(f"{prefix}.attn")
    s, attn_cache = _attn_forward(X, bias, w, f"{prefix}.attn", enc.heads, enc.dropout_rate, keep)
    s += X
    h, ln1_cache = _ln_forward(s, w[f"{prefix}.ln1.g"], w[f"{prefix}.ln1.b"])
    rd = _affine(h, w[f"{prefix}.ffn.W1"], w[f"{prefix}.ffn.b1"])
    np.maximum(rd, 0.0, out=rd)
    c = None
    keep = drop.get(f"{prefix}.ffn")
    if keep is not None:
        rd *= keep
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


def _encoder_forward(Z, mask, w, name, enc: EncoderConfig, drop, keep=True):
    """Block stack plus the additive skip from Z; masked rows zeroed.

    Without keep the block caches are dropped as each block ends, and the
    returned list is empty.
    """
    bias = _mask_bias(mask, Z.dtype)
    cur = Z
    caches = []
    for i in range(enc.blocks):
        cur, c = _block_forward(cur, mask, bias, w, f"{name}.{i}", enc, drop)
        if keep:
            caches.append(c)
        del c
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

    The batch runs in blocks of max(1, 256 // T) consecutive rows, and the
    blocks run concurrently: the caller's thread and a thread pool with one
    worker per further CPU each take the next unclaimed block until none is
    left, so a thread the machine runs slowly takes fewer blocks and the
    caller never waits on a worker that has not started. The outputs are
    concatenated in row order. Every matmul runs one row at a time, so a
    row's outputs are the same bit for bit whatever batch or block it shares
    and however many CPUs run the blocks. The first call of more than one
    block has glibc keep freed heap memory (see _keep_freed_heap), so each
    block reuses the memory of the one before instead of faulting it in
    again. The block size is measured with that heap: in float32 at T=40 on
    a 2-vCPU VM, one thread ran 3-row blocks 7% slower than 6- to 12-row
    blocks and 24-row blocks 10% slower, and two threads ran 6-row blocks
    1.8-1.9 times as fast as one against 1.6-1.7 for 3-row blocks, since a
    bigger block hands the interpreter lock between the threads fewer times
    per row.
    """
    _check_streams(params, A, B, C, mask)
    n, T = A.shape[:2]
    rows = max(1, _BLOCK_CELLS // max(T, 1))
    if n <= rows:
        return _forward(params, A, B, C, mask, {}, keep=False)[:2]
    starts = range(0, n, rows)
    blocks: list = [None] * len(starts)

    def run(k):
        block = slice(starts[k], starts[k] + rows)
        blocks[k] = _forward(params, A[block], B[block], C[block], mask[block], {}, keep=False)[:2]

    _run_blocks(len(starts), run)
    return np.concatenate([p for p, _ in blocks]), np.concatenate([e for _, e in blocks])


def _run_blocks(count: int, run) -> None:
    """Call run(k) once for every k in range(count), on the caller's thread and the block pool's.

    The caller and up to _POOL_WORKERS pool workers each claim the next
    unclaimed k until none is left, so a thread the machine runs slowly
    claims fewer and the caller never waits on a worker that has not
    started: a helper still queued when the blocks run out is cancelled, and
    the caller waits only for the blocks workers have begun. A helper's error
    is raised here, after every running helper has finished. One block runs
    on the caller's thread alone; the first call of more than one calls
    _keep_freed_heap. run must call no public function of the package.
    """
    if count == 1:
        run(0)
        return
    _keep_freed_heap()
    claims = itertools.count()  # next() is atomic, so each block goes to one thread

    def claim_and_run():
        for k in claims:
            if k >= count:
                return
            run(k)

    helpers = [_block_pool().submit(claim_and_run) for _ in range(min(_POOL_WORKERS, count - 1))]
    try:
        claim_and_run()
    finally:
        # a helper still queued is cancelled; no running one still reads the
        # caller's arrays once this call returns or raises
        wait([h for h in helpers if not h.cancel()])
    for h in helpers:
        if not h.cancelled():
            h.result()  # re-raises a helper's error


def _block_pool() -> ThreadPoolExecutor:
    """The block worker pool of forward_batch and loss_and_grads, created at the first call that needs it."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_POOL_WORKERS, thread_name_prefix="signrec-blocks")
        return _pool


@functools.lru_cache(maxsize=None)
def _keep_freed_heap() -> None:
    """Have glibc keep freed heap memory for reuse instead of handing it back to the kernel; once per process.

    By default glibc trims a heap as soon as its free top passes a threshold
    of about 128 KB, so each block's pass faults its temporaries in afresh,
    and two threads faulting and trimming at once contend in the kernel. On
    a 2-vCPU VM, a pass of both base models over 100 records at T=40 in
    batches of 32 and 3-row blocks took 4,000-10,000 minor faults with the
    default settings and under 100 with these, and its forward_batch calls
    ran 1.58 times as fast on two threads as on one (median) instead of
    1.41. The values are glibc's own upper bounds for its adaptive
    thresholds. Other C libraries are left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt in this C library
        return
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _dropout_masks(params, n, T, rng) -> dict[str, np.ndarray]:
    """The bool keep masks of one training pass over n rows, drawn from rng.

    Encoders in table order, each block's attention weights (n,heads,T,T)
    before its FFN activations (n,T,ffn), each drawn in the parameters'
    dtype; named "{encoder}.{block}.attn" and "{encoder}.{block}.ffn". Row i
    of a mask belongs to row i of the batch, so a row block's pass takes the
    same rows of each mask. Empty without rng or at dropout rate 0.
    """
    if rng is None:
        return {}
    dt = params.tensors["head.cls.W"].dtype
    branches, fused = params.config.encoders()
    encoders = [(name, enc) for name, (_, enc) in branches.items()]
    if fused is not None:
        encoders.append(("f", fused))
    masks = {}
    for name, enc in encoders:
        if enc.dropout_rate == 0.0:
            continue
        for i in range(enc.blocks):
            for part, shape in (("attn", (n, enc.heads, T, T)), ("ffn", (n, T, enc.ffn_width))):
                masks[f"{name}.{i}.{part}"] = rng.random(shape, dtype=dt) >= enc.dropout_rate
    return masks


def _forward(params, A, B, C, mask, drop, keep=True):
    """(probs, emb, cache) of one unchecked pass over the whole batch.

    drop holds the pass's dropout masks (see _dropout_masks); an empty dict
    runs none. keep=False is inference: each encoder block's temporaries are
    freed as the block ends instead of living in the cache until the pass
    returns.
    """
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
        out, cache[f"enc.{name}"] = _encoder_forward(z, mask, w, name, enc, drop, keep)
        outs.append(out)
    enc_out = outs[0]
    if fused is not None:
        zf = np.concatenate(outs, axis=-1)
        enc_out, cache["enc.f"] = _encoder_forward(zf, mask, w, "f", fused, drop, keep)

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
    the same bits as forward_batch's.

    The batch runs in forward_batch's row blocks of max(1, 256 // T) rows, on
    the caller's thread and the block pool's (see _run_blocks). Each block
    runs the forward and the backward over its rows, with the whole batch's
    1/N scaling, and its gradients are added to the blocks' before it in
    block order, whichever thread ends first (_BlockOrderSum), so the bytes
    do not depend on the number of threads or their timing. The dropout
    masks are drawn over the whole batch before any block runs, and each
    block takes its rows of them. So a row's dropout, its probabilities and
    the loss, the mean over all rows, have the bits of one pass over the
    whole batch. The gradients of a batch of more than one block differ from
    such a pass's only in the order their sums run; a batch of one block
    gives that pass's bits.
    """
    _check_streams(params, A, B, C, mask)
    n, T = A.shape[:2]
    tn = np.linalg.norm(target_emb, axis=1)
    if np.any(tn == 0.0):
        raise DegenerateInputError("target embedding has zero norm")
    drop = _dropout_masks(params, n, T, rng)
    rows = max(1, _BLOCK_CELLS // max(T, 1))
    starts = range(0, n, rows)
    outs: list = [None] * len(starts)
    grads = _BlockOrderSum()

    def run(k):
        block = slice(starts[k], starts[k] + rows)
        outs[k], block_grads = _train_block(
            params, [x[block] for x in (A, B, C, mask, targets, target_emb, tn)],
            {name: m[block] for name, m in drop.items()}, n, class_weight, embed_weight,
        )
        grads.add(k, block_grads)

    _run_blocks(len(starts), run)
    probs, ce, cos = (np.concatenate(x) for x in zip(*outs))
    loss = float(np.mean(class_weight * ce - embed_weight * cos))
    return loss, grads.total, probs


def _train_block(params, batch, drop, n, class_weight, embed_weight):
    """((probs, ce, cos), grads) of one row block of a loss_and_grads batch of n rows.

    batch holds the block's rows of (A, B, C, mask, targets, target_emb,
    target norms), drop its rows of the dropout masks.
    """
    A, B, C, mask, targets, target_emb, tn = batch
    probs, emb, cache = _forward(params, A, B, C, mask, drop)
    pn = np.maximum(np.linalg.norm(emb, axis=1), _PROB_FLOOR)
    clamped = np.maximum(probs, _PROB_FLOOR)
    ce = -(targets * np.log(clamped)).sum(-1)
    cos = (emb * target_emb).sum(-1) / (pn * tn)

    # d(mean loss)/dprobs: only coordinates above the floor carry gradient
    dprobs = np.where(probs > _PROB_FLOOR, -targets / clamped, 0.0) * (class_weight / n)
    demb = (embed_weight / n) * (-target_emb / (pn * tn)[:, None] + (cos / (pn * pn))[:, None] * emb)
    grads = _backward_batch(
        params, cache, dprobs.astype(probs.dtype, copy=False), demb.astype(probs.dtype, copy=False)
    )
    return (probs, ce, cos), grads


class _BlockOrderSum:
    """The sum of row blocks' gradient dicts, added in block order whichever block ends first.

    A block's dict waits only until every block before it has been added;
    block 0's dict becomes the total, and each later one is added into it.
    """

    def __init__(self):
        self.total: Optional[dict[str, np.ndarray]] = None
        self._next = 0
        self._waiting: dict[int, dict[str, np.ndarray]] = {}
        self._lock = threading.Lock()

    def add(self, k: int, grads: dict[str, np.ndarray]) -> None:
        with self._lock:
            self._waiting[k] = grads
            while self._next in self._waiting:
                block = self._waiting.pop(self._next)
                if self.total is None:
                    self.total = block
                else:
                    for name, g in self.total.items():
                        g += block[name]
                self._next += 1


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
    The tensors must tile the payload exactly: two tensors sharing bytes, a
    byte no tensor covers, a tensor listed twice or holding a NaN or infinity
    is a FormatError.
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
    entries = [_tensor_entry(path, entry) for entry in header["tensors"]]
    end = 0  # one pass in offset order: each tensor starts where the one before ended
    for start, size, name in sorted((start, 4 * math.prod(shape), name) for name, shape, start in entries):
        if start < end:
            raise FormatError(f"{path}: tensor {name} overlaps the tensor before it")
        if start > end:
            raise FormatError(f"{path}: payload bytes {end}-{start} belong to no tensor")
        end = start + size
    if end != payload_len:
        raise FormatError(f"{path}: tensors end at payload byte {end}, the payload has {payload_len}")
    tensors = {}
    for name, shape, start in entries:
        if name in tensors:
            raise FormatError(f"{path}: tensor {name} listed twice")
        arr = np.frombuffer(buf, dtype="<f4", count=math.prod(shape), offset=4 + hlen + start)
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
