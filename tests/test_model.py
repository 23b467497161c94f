"""Forward-pass oracles, loss formulas, gradient checking, checkpoints.

The gradient checks compare analytic gradients against central finite
differences on small configurations; the relative-error metric floors the
denominator at 1e-3 so near-zero coordinates (the attention query/key biases
cancel exactly in softmax) do not blow up the ratio.
"""

import dataclasses
import hashlib
import math
import os
import signal
import struct
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from signrec import model
from signrec.errors import ConfigurationError, DegenerateInputError, FormatError
from signrec.model import (
    EarlyFusionConfig,
    EncoderConfig,
    LateFusionConfig,
    ModelParams,
    combined_loss,
    config_from_json,
    cosine_loss,
    cross_entropy,
    forward_batch,
    init_params,
    label_smooth,
    load_model,
    loss_and_grads,
    positional_encoding,
    save_model,
    _attn_forward,
    _backward_batch,
    _block_forward,
    _dropout_masks,
    _forward,
    _ln_forward,
    _mask_bias,
)
from signrec.preprocess import StreamBatch, stack_batches
from conftest import random_stream_batch, traced_peak


# ---------------------------------------------------------------------------
# parameter layout


def test_parameter_layout_is_pinned():
    """Names, shapes, order and init draws of the default configs' tensors.

    Checkpoints key their tensors by these names, and the digests of trained
    models depend on the draw order, so any change here must be on purpose.
    """
    want = {"late": ("2a7729838832e5a0", 74), "early": ("54d120e895bc3487", 22)}
    for cfg in (LateFusionConfig(num_classes=10), EarlyFusionConfig(num_classes=10)):
        tensors = init_params(cfg, np.random.default_rng(0)).tensors
        h = hashlib.sha256()
        for name, t in tensors.items():
            h.update(f"{name}{t.shape}".encode())
            h.update(t.tobytes())
        assert (h.hexdigest()[:16], len(tensors)) == want[cfg.arch]


# ---------------------------------------------------------------------------
# positional encoding / layer norm


def test_positional_encoding_closed_form():
    pe = positional_encoding(5, 8)
    assert pe.shape == (5, 8)
    npt.assert_array_equal(pe[0, 0::2], 0.0)  # sin 0
    npt.assert_array_equal(pe[0, 1::2], 1.0)  # cos 0
    npt.assert_allclose(pe[1, 0], math.sin(1.0), rtol=1e-12)
    for t in range(5):
        for i in range(4):
            rate = t / 10000.0 ** (2 * i / 8)
            npt.assert_allclose(pe[t, 2 * i], math.sin(rate), rtol=1e-12)
            npt.assert_allclose(pe[t, 2 * i + 1], math.cos(rate), rtol=1e-12)


def test_positional_encoding_is_shared_read_only():
    pe = positional_encoding(5, 8)
    assert positional_encoding(5, 8) is pe
    assert not pe.flags.writeable
    with pytest.raises(ValueError):
        pe[0, 0] = 1.0


def test_positional_encoding_errors():
    with pytest.raises(ConfigurationError):
        positional_encoding(4, 7)
    with pytest.raises(ConfigurationError):
        positional_encoding(0, 8)


def test_layer_norm_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 6))
    g = rng.standard_normal(6)
    b = rng.standard_normal(6)
    got, _ = _ln_forward(x.copy(), g, b)
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    want = (x - mu) / np.sqrt(var + 1e-5) * g + b
    npt.assert_allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# masked attention


def attn_weights(rng, d, scale=0.5):
    return {
        "Wq": rng.standard_normal((d, d)) * scale,
        "Wk": rng.standard_normal((d, d)) * scale,
        "Wv": rng.standard_normal((d, d)) * scale,
        "Wo": rng.standard_normal((d, d)) * scale,
        "bq": rng.standard_normal(d) * scale,
        "bk": rng.standard_normal(d) * scale,
        "bv": rng.standard_normal(d) * scale,
        "bo": rng.standard_normal(d) * scale,
    }


def attention(x, mask, weights, heads):
    """_attn_forward in evaluation mode on one (T,d) sequence."""
    w = {f"attn.{k}": v for k, v in weights.items()}
    bias = _mask_bias(mask[None], x.dtype)
    out, _ = _attn_forward(x[None], bias, w, "attn", heads, 0.0, None)
    return out[0]


def test_attention_single_key_returns_value():
    rng = np.random.default_rng(1)
    d = 6
    w = attn_weights(rng, d)
    x = rng.standard_normal((1, d))
    got = attention(x, np.array([True]), w, heads=2)
    want = (x @ w["Wv"] + w["bv"]) @ w["Wo"] + w["bo"]
    npt.assert_allclose(got, want, rtol=1e-10)


def test_attention_identical_rows_average_values():
    rng = np.random.default_rng(2)
    d = 4
    w = attn_weights(rng, d)
    row = rng.standard_normal(d)
    x = np.tile(row, (3, 1))
    got = attention(x, np.ones(3, dtype=bool), w, heads=2)
    want = (row @ w["Wv"] + w["bv"]) @ w["Wo"] + w["bo"]
    for t in range(3):
        npt.assert_allclose(got[t], want, rtol=1e-10)


def test_attention_truncation_equivalence():
    rng = np.random.default_rng(3)
    d = 8
    w = attn_weights(rng, d)
    x = rng.standard_normal((3, d))
    mask = np.array([True, True, False])
    full = attention(x, mask, w, heads=2)
    short = attention(x[:2], np.ones(2, dtype=bool), w, heads=2)
    npt.assert_allclose(full[:2], short, rtol=1e-10)


def test_attention_errors(tiny_late_config):
    # forward_batch is where a mask enters the model, so it checks it there
    rng = np.random.default_rng(4)
    params = init_params(tiny_late_config, rng)
    a, b, c, mask = random_stream_batch(rng, n=2, T=4, pad=0)
    mask[1] = False
    with pytest.raises(DegenerateInputError):
        forward_batch(params, a, b, c, mask)
    with pytest.raises(ConfigurationError):
        forward_batch(params, a, b, c, np.ones((2, 5), dtype=bool))


# ---------------------------------------------------------------------------
# encoder block


def block_params(rng, d, ffn):
    p = {f"attn.{k}": v for k, v in attn_weights(rng, d).items()}
    p.update(
        {
            "ln1.g": np.ones(d),
            "ln1.b": np.zeros(d),
            "ffn.W1": rng.standard_normal((d, ffn)) * 0.5,
            "ffn.b1": np.zeros(ffn),
            "ffn.W2": rng.standard_normal((ffn, d)) * 0.5,
            "ffn.b2": np.zeros(d),
            "ln2.g": np.ones(d),
            "ln2.b": np.zeros(d),
        }
    )
    return p


def encoder_block(x, mask, params, heads):
    """_block_forward in evaluation mode on one (T,d) sequence."""
    w = {f"blk.{k}": v for k, v in params.items()}
    enc = EncoderConfig(x.shape[1], params["ffn.W1"].shape[1], heads, 1, 0.0)
    bias = _mask_bias(mask[None], x.dtype)
    out, _ = _block_forward(x[None], mask[None], bias, w, "blk", enc, {})
    return out[0]


def test_encoder_block_shape_preserved():
    rng = np.random.default_rng(5)
    for d, ffn, T in ((4, 3, 2), (8, 16, 5), (6, 1, 7)):
        p = block_params(rng, d, ffn)
        x = rng.standard_normal((T, d))
        y = encoder_block(x, np.ones(T, dtype=bool), p, heads=2)
        assert y.shape == x.shape


def test_encoder_block_degenerate_weights_double_layernorm():
    # zero attention output projection + zero second FFN affine leave only
    # the two residual normalizations
    rng = np.random.default_rng(6)
    d = 6
    p = block_params(rng, d, 5)
    p["attn.Wo"][:] = 0.0
    p["attn.bo"][:] = 0.0
    p["ffn.W2"][:] = 0.0
    p["ffn.b2"][:] = 0.0
    x = rng.standard_normal((4, d))
    mask = np.ones(4, dtype=bool)
    got = encoder_block(x, mask, p, heads=2)
    h, _ = ref_ln_forward(x, p["ln1.g"], p["ln1.b"])
    want, _ = ref_ln_forward(h, p["ln2.g"], p["ln2.b"])
    npt.assert_allclose(got, want, rtol=1e-10)


def test_encoder_block_masked_row_append():
    rng = np.random.default_rng(7)
    d = 6
    p = block_params(rng, d, 5)
    x = rng.standard_normal((3, d))
    base = encoder_block(x, np.ones(3, dtype=bool), p, heads=2)
    padded = np.vstack([x, np.zeros((2, d))])
    mask = np.array([True, True, True, False, False])
    ext = encoder_block(padded, mask, p, heads=2)
    assert np.abs(ext[:3] - base).max() < 1e-5
    npt.assert_array_equal(ext[3:], 0.0)  # masked rows zeroed on output


# ---------------------------------------------------------------------------
# forward passes


def test_forward_outputs_on_simplex(tiny_late_config, tiny_early_config):
    rng = np.random.default_rng(8)
    a, b, c, mask = random_stream_batch(rng, n=3, T=8, pad=2)
    for cfg in (tiny_late_config, tiny_early_config):
        params = init_params(cfg, np.random.default_rng(0))
        probs, emb = forward_batch(params, a, b, c, mask)
        assert probs.shape == (3, 4) and emb.shape == (3, 300)
        assert (probs >= 0).all()
        npt.assert_allclose(probs.sum(-1), 1.0, atol=1e-6)


def test_forward_masking_invariance(tiny_late_config, tiny_early_config):
    rng = np.random.default_rng(9)
    for cfg in (tiny_late_config, tiny_early_config):
        params = init_params(cfg, np.random.default_rng(1))
        a, b, c, mask = random_stream_batch(rng, n=2, T=10, pad=3)
        p1, e1 = forward_batch(params, a, b, c, mask)
        # same real rows, four more rows of masked padding
        grow = lambda x: np.concatenate([x, np.zeros((2, 4) + x.shape[2:], x.dtype)], axis=1)
        p2, e2 = forward_batch(params, grow(a), grow(b), grow(c), grow(mask).astype(bool))
        assert np.abs(p1 - p2).max() < 1e-5
        assert np.abs(e1 - e2).max() < 1e-5


def test_inference_blocks_match_row_by_row(tiny_late_config, tiny_early_config):
    # at T=40 inference runs in blocks of 6 rows, so 7 rows span two blocks;
    # a row gives the same bits alone, in a block and in the whole batch. The
    # full-size heads are wide enough for a shared GEMM to change float32 sums.
    rng = np.random.default_rng(12)
    streams = padded_batch(rng, (40, 25, 40, 1, 33, 40, 12), T=40)
    mask = streams[3]
    full = (LateFusionConfig(num_classes=5), EarlyFusionConfig(num_classes=5))
    for dtype in (np.float64, np.float32):
        a, b, c = (x.astype(dtype) for x in streams[:3])
        for cfg in (tiny_late_config, tiny_early_config, *full):
            params = init_params(cfg, np.random.default_rng(7))
            params = ModelParams(cfg, {k: v.astype(dtype) for k, v in params.tensors.items()})
            probs, emb = forward_batch(params, a, b, c, mask)
            assert probs.dtype == emb.dtype == dtype
            for i in range(len(mask)):
                row = slice(i, i + 1)
                p_i, e_i = forward_batch(params, a[row], b[row], c[row], mask[row])
                assert_same_bits((probs[row], emb[row]), (p_i, e_i))


def test_forward_train_dropout(tiny_late_config):
    # dropout runs in the training pass exactly when it is given an rng
    rng = np.random.default_rng(10)
    a, b, c, mask = random_stream_batch(rng, n=2, T=6, pad=1)
    targets = label_smooth(np.eye(4)[[0, 3]])
    temb = rng.standard_normal((2, 300))
    params = init_params(tiny_late_config, np.random.default_rng(2))
    p_eval, _ = forward_batch(params, a, b, c, mask)
    _, _, p_train = loss_and_grads(
        params, a, b, c, mask, targets, temb, rng=np.random.default_rng(3)
    )
    assert np.abs(p_eval - p_train).max() > 0  # dropout actually fires


def test_stream_toggles_zero_streams(tiny_late_config):
    rng = np.random.default_rng(11)
    a, b, c, mask = random_stream_batch(rng, n=2, T=6, pad=0)
    params = init_params(tiny_late_config, np.random.default_rng(4))
    ta, tb, tc, tm = stack_batches(
        [StreamBatch(*row) for row in zip(a, b, c, mask)], toggles=(True, False, True)
    )
    assert_same_bits((ta, tb, tc, tm), (a, np.zeros_like(b), c, mask))
    p_zero_b, _ = forward_batch(params, a, np.zeros_like(b), c, mask)
    p_toggled, _ = forward_batch(params, ta, tb, tc, tm)
    assert_same_bits(p_toggled, p_zero_b)


def test_config_validation_and_json_roundtrip(tiny_late_config, tiny_early_config):
    with pytest.raises(ConfigurationError):
        EncoderConfig(d_model=10, ffn_width=4, heads=4)
    with pytest.raises(ConfigurationError):
        EncoderConfig(d_model=8, ffn_width=0, heads=2)
    with pytest.raises(ConfigurationError):
        LateFusionConfig(num_classes=1)
    with pytest.raises(ConfigurationError):
        EarlyFusionConfig(num_classes=4, d_model=16, heads=5)
    for cfg in (tiny_late_config, tiny_early_config):
        assert config_from_json(cfg.to_json()) == cfg
    with pytest.raises(FormatError):
        config_from_json({"arch": "middle", "num_classes": 4})
    with pytest.raises(FormatError):
        config_from_json({"arch": "late", "num_classes": 4, "bogus": 1})
    # every size, head and block count must be an int (264 % 1.5 == 0 would pass the divisibility check)
    for field, value in (("heads", 1.5), ("blocks", 1.5), ("num_classes", 4.0), ("embed_dim", True)):
        with pytest.raises(ConfigurationError):
            EarlyFusionConfig(**{"num_classes": 4, field: value})
    for field in ("d_c", "ffn_fused", "blocks"):
        with pytest.raises(ConfigurationError):
            LateFusionConfig(**{"num_classes": 4, field: 2.5})


# ---------------------------------------------------------------------------
# allocating oracle
#
# The layer functions as they were before the pass took ownership of its
# buffers: every op allocates a fresh array, dropout masks are float, the
# pre-ReLU activation is cached and gradients start from zero arrays. The
# in-place pass must give the same bits.


def ref_ln_forward(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def ref_ln_backward(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv * (
        dxhat - dxhat.mean(-1, keepdims=True) - xhat * (dxhat * xhat).mean(-1, keepdims=True)
    )
    return dx, dg, db


def ref_split(x, heads):
    B, T, d = x.shape
    return x.reshape(B, T, heads, d // heads).transpose(0, 2, 1, 3)


def ref_merge(x):
    B, h, T, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, T, h * dh)


def ref_mat_grad(x, dy):
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def ref_attn_forward(X, mask, w, prefix, heads, dropout, rng, train):
    q = ref_split(X @ w[f"{prefix}.Wq"] + w[f"{prefix}.bq"], heads)
    k = ref_split(X @ w[f"{prefix}.Wk"] + w[f"{prefix}.bk"], heads)
    v = ref_split(X @ w[f"{prefix}.Wv"] + w[f"{prefix}.bv"], heads)
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = (q @ k.transpose(0, 1, 3, 2)) * scale
    scores = scores + np.where(mask[:, None, None, :], 0.0, -1e30)
    scores -= scores.max(-1, keepdims=True)
    e = np.exp(scores)
    p = e / e.sum(-1, keepdims=True)
    if train and dropout > 0.0:
        keep = (rng.random(p.shape) >= dropout) / (1.0 - dropout)
        pd = p * keep
    else:
        keep = None
        pd = p
    ctx = ref_merge(pd @ v)
    out = ctx @ w[f"{prefix}.Wo"] + w[f"{prefix}.bo"]
    return out, (X, q, k, v, p, keep, pd, ctx, scale)


def ref_attn_backward(dout, cache, w, prefix, heads, grads):
    X, q, k, v, p, keep, pd, ctx, scale = cache
    grads[f"{prefix}.Wo"] += ref_mat_grad(ctx, dout)
    grads[f"{prefix}.bo"] += dout.sum((0, 1))
    dctx = ref_split(dout @ w[f"{prefix}.Wo"].T, heads)
    dpd = dctx @ v.transpose(0, 1, 3, 2)
    dv = pd.transpose(0, 1, 3, 2) @ dctx
    dp = dpd * keep if keep is not None else dpd
    ds = p * (dp - (dp * p).sum(-1, keepdims=True))
    dq = (ds @ k) * scale
    dk = (ds.transpose(0, 1, 3, 2) @ q) * scale
    dX = np.zeros_like(X)
    for dpart, wname, bname in ((dq, "Wq", "bq"), (dk, "Wk", "bk"), (dv, "Wv", "bv")):
        merged = ref_merge(dpart)
        grads[f"{prefix}.{wname}"] += ref_mat_grad(X, merged)
        grads[f"{prefix}.{bname}"] += merged.sum((0, 1))
        dX += merged @ w[f"{prefix}.{wname}"].T
    return dX


def ref_block_forward(X, mask, w, prefix, enc, rng, train):
    attn_out, attn_cache = ref_attn_forward(
        X, mask, w, f"{prefix}.attn", enc.heads, enc.dropout_rate, rng, train
    )
    h, ln1_cache = ref_ln_forward(X + attn_out, w[f"{prefix}.ln1.g"], w[f"{prefix}.ln1.b"])
    h1 = h @ w[f"{prefix}.ffn.W1"] + w[f"{prefix}.ffn.b1"]
    r = np.maximum(h1, 0.0)
    if train and enc.dropout_rate > 0.0:
        keep = (rng.random(r.shape) >= enc.dropout_rate) / (1.0 - enc.dropout_rate)
        rd = r * keep
    else:
        keep = None
        rd = r
    f = rd @ w[f"{prefix}.ffn.W2"] + w[f"{prefix}.ffn.b2"]
    y0, ln2_cache = ref_ln_forward(h + f, w[f"{prefix}.ln2.g"], w[f"{prefix}.ln2.b"])
    return y0 * mask[:, :, None], (attn_cache, ln1_cache, h, h1, keep, rd, ln2_cache, mask)


def ref_block_backward(dy, cache, w, prefix, enc, grads):
    attn_cache, ln1_cache, h, h1, keep, rd, ln2_cache, mask = cache
    ds2, dg2, db2 = ref_ln_backward(dy * mask[:, :, None], ln2_cache)
    grads[f"{prefix}.ln2.g"] += dg2
    grads[f"{prefix}.ln2.b"] += db2
    dh = ds2.copy()
    grads[f"{prefix}.ffn.W2"] += ref_mat_grad(rd, ds2)
    grads[f"{prefix}.ffn.b2"] += ds2.sum((0, 1))
    drd = ds2 @ w[f"{prefix}.ffn.W2"].T
    dr = drd * keep if keep is not None else drd
    dh1 = dr * (h1 > 0.0)
    grads[f"{prefix}.ffn.W1"] += ref_mat_grad(h, dh1)
    grads[f"{prefix}.ffn.b1"] += dh1.sum((0, 1))
    dh += dh1 @ w[f"{prefix}.ffn.W1"].T
    ds1, dg1, db1 = ref_ln_backward(dh, ln1_cache)
    grads[f"{prefix}.ln1.g"] += dg1
    grads[f"{prefix}.ln1.b"] += db1
    return ds1 + ref_attn_backward(ds1, attn_cache, w, f"{prefix}.attn", enc.heads, grads)


def ref_encoder_forward(Z, mask, w, name, enc, rng, train):
    cur = Z
    caches = []
    for i in range(enc.blocks):
        cur, c = ref_block_forward(cur, mask, w, f"{name}.{i}", enc, rng, train)
        caches.append(c)
    return (cur + Z) * mask[:, :, None], caches


def ref_encoder_backward(dout, caches, mask, w, name, enc, grads):
    g = dout * mask[:, :, None]
    dcur = g
    for i in reversed(range(enc.blocks)):
        dcur = ref_block_backward(dcur, caches[i], w, f"{name}.{i}", enc, grads)
    return dcur + g


def ref_encoders(cfg):
    """name -> EncoderConfig of every encoder in the config's table."""
    branches, fused = cfg.encoders()
    encs = {name: enc for name, (_, enc) in branches.items()}
    return encs if fused is None else {**encs, "f": fused}


def ref_forward(params, A, B, C, mask, train=False, rng=None):
    """(probs, emb, cache) of one pass over the whole batch."""
    cfg, w = params.config, params.tensors
    T = A.shape[1]
    cache = {"A": A, "B": B, "C": C, "mask": mask}
    encs = ref_encoders(cfg)
    if isinstance(cfg, LateFusionConfig):
        outs = []
        for name, x, d in (("a", A, cfg.d_a), ("b", B, cfg.d_b), ("c", C, cfg.d_c)):
            z = x @ w[f"{name}.proj.W"] + w[f"{name}.proj.b"] + positional_encoding(T, d)
            out, cache[f"enc.{name}"] = ref_encoder_forward(
                z, mask, w, name, encs[name], rng, train
            )
            outs.append(out)
        zf = np.concatenate(outs, axis=-1)
        enc_out, cache["enc.f"] = ref_encoder_forward(zf, mask, w, "f", encs["f"], rng, train)
    else:
        x = np.concatenate([A, B, C], axis=-1)
        cache["x"] = x
        z = x @ w["f.proj.W"] + w["f.proj.b"] + positional_encoding(T, cfg.d_model)
        enc_out, cache["enc.f"] = ref_encoder_forward(z, mask, w, "f", encs["f"], rng, train)
    nreal = mask.sum(1).astype(np.float64)
    pooled = enc_out.sum(1) / nreal[:, None]
    logits = (pooled[:, None, :] @ w["head.cls.W"])[:, 0] + w["head.cls.b"]
    e = np.exp(logits - logits.max(-1, keepdims=True))
    probs = e / e.sum(-1, keepdims=True)
    emb = (pooled[:, None, :] @ w["head.emb.W"])[:, 0] + w["head.emb.b"]
    cache.update(pooled=pooled, probs=probs, nreal=nreal)
    return probs, emb, cache


def ref_loss_and_grads(params, A, B, C, mask, targets, target_emb, rng, n=None):
    """loss_and_grads in training mode at the default loss weights, in one pass.

    n is the row count of the mean loss, the batch's own by default.
    """
    cw, ew, n = 1.8, 0.5, n or A.shape[0]
    cfg, w = params.config, params.tensors
    probs, emb, cache = ref_forward(params, A, B, C, mask, True, rng)
    tn = np.linalg.norm(target_emb, axis=1)
    pn = np.maximum(np.linalg.norm(emb, axis=1), 1e-12)
    clamped = np.maximum(probs, 1e-12)
    ce = -(targets * np.log(clamped)).sum(-1)
    cos = (emb * target_emb).sum(-1) / (pn * tn)
    loss = float(np.mean(cw * ce - ew * cos))
    dprobs = np.where(probs > 1e-12, -targets / clamped, 0.0) * (cw / n)
    demb = (ew / n) * (-target_emb / (pn * tn)[:, None] + (cos / (pn * pn))[:, None] * emb)

    grads = {k: np.zeros_like(v) for k, v in w.items()}
    pooled, nreal = cache["pooled"], cache["nreal"]
    dlogits = probs * (dprobs - (dprobs * probs).sum(-1, keepdims=True))
    grads["head.cls.W"] += pooled.T @ dlogits
    grads["head.cls.b"] += dlogits.sum(0)
    grads["head.emb.W"] += pooled.T @ demb
    grads["head.emb.b"] += demb.sum(0)
    dpooled = dlogits @ w["head.cls.W"].T + demb @ w["head.emb.W"].T
    denc_out = dpooled[:, None, :] * (mask[:, :, None] / nreal[:, None, None])
    encs = ref_encoders(cfg)
    if isinstance(cfg, LateFusionConfig):
        dzf = ref_encoder_backward(denc_out, cache["enc.f"], mask, w, "f", encs["f"], grads)
        douts = np.split(dzf, np.cumsum([cfg.d_a, cfg.d_b]), axis=-1)
        for name, x, dout in zip("abc", (A, B, C), douts):
            dz = ref_encoder_backward(dout, cache[f"enc.{name}"], mask, w, name, encs[name], grads)
            grads[f"{name}.proj.W"] += ref_mat_grad(x, dz)
            grads[f"{name}.proj.b"] += dz.sum((0, 1))
    else:
        dz = ref_encoder_backward(denc_out, cache["enc.f"], mask, w, "f", encs["f"], grads)
        grads["f.proj.W"] += ref_mat_grad(cache["x"], dz)
        grads["f.proj.b"] += dz.sum((0, 1))
    return loss, grads, probs, emb


class DrawLog:
    """rng stand-in that logs each random(shape) draw of the generator it wraps."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def random(self, shape):
        self.draws.append(self.rng.random(shape))
        return self.draws[-1]


class DrawRows:
    """rng stand-in that replays a DrawLog's draws, each cut to the rows of block."""

    def __init__(self, draws, block):
        self.draws, self.block = iter(draws), block

    def random(self, shape):
        return next(self.draws)[self.block]


def ref_blocked_loss_and_grads(params, A, B, C, mask, targets, target_emb, rng, rows):
    """loss_and_grads over row blocks of `rows`: (loss, grads, probs, emb).

    One pass over the whole batch draws the dropout and gives the loss,
    probabilities and embeddings. Each block then runs on its rows of those
    draws, scaled by the whole batch's row count, and the block gradients
    are added in block order.
    """
    inputs = (A, B, C, mask, targets, target_emb)
    log = DrawLog(rng)
    loss, grads, probs, emb = ref_loss_and_grads(params, *inputs, log)
    n = A.shape[0]
    if n > rows:
        grads = None
        for i in range(0, n, rows):
            block = slice(i, i + rows)
            _, g, _, _ = ref_loss_and_grads(
                params, *(x[block] for x in inputs), DrawRows(log.draws, block), n=n
            )
            grads = g if grads is None else {k: grads[k] + g[k] for k in g}
    return loss, grads, probs, emb


def assert_same_bits(got, want):
    """Equal structure, and every array equal in dtype, shape and bytes."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for k in want:
            assert_same_bits(got[k], want[k])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
    else:
        assert got == want


def snapshot(obj):
    """Deep copy of the arrays in a nested cache of dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, dict):
        return {k: snapshot(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(snapshot(v) for v in obj)
    return obj


def cache_contents(obj):
    """(arrays, dicts and lists) of a nested cache, in traversal order."""
    arrays, containers = [], []

    def walk(x):
        if isinstance(x, np.ndarray):
            arrays.append(x)
            return
        if isinstance(x, (dict, list)):
            containers.append(x)
        if isinstance(x, (dict, list, tuple)):
            for v in x.values() if isinstance(x, dict) else x:
                walk(v)

    walk(obj)
    return arrays, containers


def padded_batch(rng, lengths, T):
    a, b, c, mask = random_stream_batch(rng, n=len(lengths), T=T, pad=0)
    for i, real in enumerate(lengths):
        mask[i, real:] = False
        a[i, real:] = b[i, real:] = c[i, real:] = 0.0
    return a, b, c, mask


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("arch", ["late", "early"])
def test_training_pass_matches_allocating_oracle(arch, blocks, tiny_late_config, tiny_early_config):
    # At T=9 the batch is one row block, and the oracle is one pass over it.
    base = tiny_late_config if arch == "late" else tiny_early_config
    check_training_pass(dataclasses.replace(base, blocks=blocks), 9, (9, 3, 1, 9, 6))


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("arch", ["late", "early"])
def test_blocked_training_pass_matches_allocating_oracle(arch, blocks, tiny_late_config, tiny_early_config):
    # At T=40 the 13 rows run in row blocks of 6, 6 and 1 (256 // T rows),
    # whose gradients the oracle adds in block order.
    base = tiny_late_config if arch == "late" else tiny_early_config
    lengths = (40, 7, 1, 33, 20, 40, 12, 5, 40, 26, 1, 38, 19)
    check_training_pass(dataclasses.replace(base, blocks=blocks), 40, lengths)


def check_training_pass(cfg, T, lengths):
    """loss_and_grads with dropout against the blocked oracle, bit for bit; inputs and cache handling."""
    assert cfg.dropout_rate > 0.0
    rng = np.random.default_rng(21)
    params = init_params(cfg, rng)
    n = len(lengths)
    a, b, c, mask = padded_batch(rng, lengths, T=T)
    targets = label_smooth(np.eye(4)[[0, 3, 1, 2, 3, 2, 0, 1, 1, 3, 0, 2, 1][:n]])
    temb = rng.standard_normal((n, 300))
    inputs = (a, b, c, mask, targets, temb)
    before = snapshot((inputs, params.tensors))

    loss, grads, probs = loss_and_grads(params, *inputs, rng=np.random.default_rng(5))
    want_loss, want_grads, want_probs, want_emb = ref_blocked_loss_and_grads(
        params, *inputs, rng=np.random.default_rng(5), rows=model._BLOCK_CELLS // T
    )
    assert loss == want_loss
    assert list(grads) == list(params.tensors)
    assert_same_bits(grads, want_grads)
    assert_same_bits(probs, want_probs)
    assert_same_bits((inputs, params.tensors), before)

    # the cached training forward gives the same embeddings; a later pass does
    # not write to the cache, and the backward consumes it: it writes none of
    # the cached arrays and leaves every cache dict and list empty
    drop = _dropout_masks(params, n, T, np.random.default_rng(5))
    p, emb, cache = _forward(params, a, b, c, mask, drop)
    assert_same_bits((p, emb), (want_probs, want_emb))
    kept = snapshot(cache)
    arrays, containers = cache_contents(cache)
    loss_and_grads(params, *inputs, rng=np.random.default_rng(6))
    _backward_batch(params, cache, np.ones_like(p), np.ones_like(emb))
    assert_same_bits(arrays, cache_contents(kept)[0])
    assert containers and not any(containers)
    assert_same_bits((inputs, params.tensors), before)


@pytest.mark.parametrize("arch, budget_mb", [("late", 33.0), ("early", 23.0)], ids=["late", "early"])
def test_training_step_peak_memory(arch, budget_mb, pool_workers):
    # One float32 step at N=32, T=40 with dropout, in row blocks of 6 on two
    # threads whatever the CPU count. The backward frees each cached array at
    # its last use, and only two blocks' caches live at once. Measured peaks:
    # 21.4-24.9 MB (late) and 13.6-15.9 MB (early) over 20 steps, and 30.3
    # and 20.6 MB when the worker holds one block for a second while the
    # caller runs the other five, whose gradients then wait to be added in
    # block order. The budgets are the latter plus about 10%. One pass over
    # the whole batch peaked at 45.3 and 23.6 MB.
    pool_workers(1)
    cfg = LateFusionConfig(num_classes=10) if arch == "late" else EarlyFusionConfig(num_classes=10)
    rng = np.random.default_rng(3)
    params = init_params(cfg, rng)
    params = ModelParams(cfg, {k: v.astype(np.float32) for k, v in params.tensors.items()})
    T = 40
    a, b, c, mask = padded_batch(rng, rng.integers(1, T + 1, size=32), T)
    a, b, c = (x.astype(np.float32) for x in (a, b, c))
    targets = label_smooth(np.eye(10)[rng.integers(10, size=32)])
    temb = rng.standard_normal((32, 300))
    _, peak = traced_peak(
        loss_and_grads, params, a, b, c, mask, targets, temb, rng=np.random.default_rng(5)
    )
    assert peak < budget_mb * 1e6


@pytest.fixture
def pool_workers(monkeypatch):
    """use(n) gives the block pool of forward_batch and loss_and_grads n workers whatever the CPU count.

    Each use starts from no pool; the pools a test starts are shut down when
    it next calls use and after it ends.
    """
    monkeypatch.setattr(model, "_pool", None)
    monkeypatch.setattr(model, "_POOL_WORKERS", model._POOL_WORKERS)

    def use(workers):
        if model._pool is not None:
            model._pool.shutdown()
        model._pool, model._POOL_WORKERS = None, workers

    yield use
    use(0)


def run_entry(entry, params, a, b, c, mask):
    """forward_batch's outputs, or loss_and_grads' with dropout on targets fixed by the row count."""
    if entry == "forward":
        return forward_batch(params, a, b, c, mask)
    n, k = a.shape[0], params.config.num_classes
    targets = label_smooth(np.eye(k)[np.arange(n) % k])
    temb = np.random.default_rng(n).standard_normal((n, params.config.embed_dim))
    return loss_and_grads(params, a, b, c, mask, targets, temb, rng=np.random.default_rng(5))


@pytest.mark.parametrize("arch", ["late", "early"])
def test_inference_matches_allocating_oracle(arch, pool_workers):
    cfg = LateFusionConfig(num_classes=5) if arch == "late" else EarlyFusionConfig(num_classes=5)
    rng = np.random.default_rng(22)
    params = init_params(cfg, rng)
    T = 40
    lengths = rng.integers(1, T + 1, size=33)
    a, b, c, mask = padded_batch(rng, lengths, T)
    before = snapshot(((a, b, c, mask), params.tensors))
    rows = model._BLOCK_CELLS // T  # forward_batch's inference block
    # 1 to 6 blocks on 1, 2 and 4 threads: the shares need not be equal, and
    # the rows come back in order
    for workers in (0, 1, 3):
        pool_workers(workers)
        for n in (1, 4, 7, 20, 32, 33):
            streams = [x[:n] for x in (a, b, c, mask)]
            probs, emb = forward_batch(params, *streams)
            want = [ref_forward(params, *(x[i : i + rows] for x in streams)) for i in range(0, n, rows)]
            assert_same_bits(probs, np.concatenate([p for p, _, _ in want]))
            assert_same_bits(emb, np.concatenate([e for _, e, _ in want]))
    assert_same_bits(((a, b, c, mask), params.tensors), before)


def test_training_bytes_do_not_depend_on_workers(pool_workers, tiny_late_config, tiny_early_config):
    # 1 to 4 row blocks of 6 rows at T=40, the 2- and 3-block batches with a
    # short last block, on 1, 2 and 4 threads: the block gradients are added
    # in block order whichever thread ends first.
    rng = np.random.default_rng(33)
    a, b, c, mask = padded_batch(rng, rng.integers(1, 41, size=24), 40)
    for cfg in (tiny_late_config, tiny_early_config):
        params = init_params(cfg, np.random.default_rng(34))
        for n in (1, 7, 17, 24):
            streams = [x[:n] for x in (a, b, c, mask)]
            pool_workers(0)
            want = run_entry("training", params, *streams)
            for workers in (1, 3):
                pool_workers(workers)
                assert_same_bits(run_entry("training", params, *streams), want)


def test_concurrent_callers_get_their_own_bytes(monkeypatch, pool_workers):
    check_concurrent_callers(monkeypatch, pool_workers, "forward")


def test_concurrent_training_callers_get_their_own_bytes(monkeypatch, pool_workers):
    check_concurrent_callers(monkeypatch, pool_workers, "training")


def check_concurrent_callers(monkeypatch, pool_workers, entry):
    """Two callers race to start the block pool and then share it.

    The pool has 2 workers whatever the CPU count, and the interpreter
    switches threads often. One pool starts, each caller gets the bytes of
    its own call on one thread, and neither waits forever.
    """
    started = []

    class CountedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(model, "ThreadPoolExecutor", CountedPool)
    cfg = LateFusionConfig(num_classes=5)
    rng = np.random.default_rng(26)
    params = init_params(cfg, rng)
    params = ModelParams(cfg, {k: v.astype(np.float32) for k, v in params.tensors.items()})
    batches = [padded_batch(rng, rng.integers(1, 41, size=32), 40) for _ in range(2)]
    pool_workers(0)
    want = [run_entry(entry, params, *batch) for batch in batches]
    pool_workers(2)
    got = [[], []]

    def caller(i):
        for _ in range(3):
            got[i].append(run_entry(entry, params, *batches[i]))

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(started) == 1
    for i in range(2):
        assert len(got[i]) == 3
        for outputs in got[i]:
            assert_same_bits(outputs, want[i])


def test_one_block_call_never_submits_to_the_pool(monkeypatch, tiny_early_config):
    class NoPool:
        def submit(self, *args):
            raise AssertionError("submitted to the block pool")

    monkeypatch.setattr(model, "_POOL_WORKERS", 1)
    monkeypatch.setattr(model, "_pool", NoPool())
    params = init_params(tiny_early_config, np.random.default_rng(27))
    a, b, c, mask = padded_batch(np.random.default_rng(28), (40, 5, 17, 40, 9, 33, 2), 40)
    forward_batch(params, a[:6], b[:6], c[:6], mask[:6])  # one 6-row block at T=40
    with pytest.raises(AssertionError, match="block pool"):
        forward_batch(params, a, b, c, mask)


def test_caller_runs_every_block_when_no_worker_starts(monkeypatch, tiny_early_config):
    check_stalled_pool(monkeypatch, tiny_early_config, "forward")


def test_caller_runs_every_training_block_when_no_worker_starts(monkeypatch, tiny_early_config):
    check_stalled_pool(monkeypatch, tiny_early_config, "training")


def check_stalled_pool(monkeypatch, cfg, entry):
    """Blocks go to whichever thread claims them next, so a worker the pool
    never starts costs nothing: the caller runs all the blocks, gets the
    serial bytes and cancels the queued work instead of waiting on it."""
    queued = []

    class StalledPool:
        def submit(self, *args):
            queued.append(Future())
            return queued[-1]

    params = init_params(cfg, np.random.default_rng(31))
    batch = padded_batch(np.random.default_rng(32), (40, 5, 17, 40, 9, 33, 2, 12, 1, 40, 28, 6, 19), 40)  # 3 blocks
    monkeypatch.setattr(model, "_POOL_WORKERS", 0)
    want = run_entry(entry, params, *batch)
    monkeypatch.setattr(model, "_POOL_WORKERS", 2)
    monkeypatch.setattr(model, "_pool", StalledPool())
    assert_same_bits(run_entry(entry, params, *batch), want)
    assert len(queued) == 2 and all(f.cancelled() for f in queued)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_pool(pool_workers, tiny_early_config):
    check_forked_child(pool_workers, tiny_early_config, "forward")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_pool_for_training(pool_workers, tiny_early_config):
    check_forked_child(pool_workers, tiny_early_config, "training")


def check_forked_child(pool_workers, cfg, entry):
    """A forked child has none of its parent's pool workers; had it kept the
    parent's pool, its first call of two blocks would wait forever."""
    pool_workers(1)
    params = init_params(cfg, np.random.default_rng(29))
    batch = padded_batch(np.random.default_rng(30), (40, 5, 17, 40, 9, 33, 2), 40)  # two blocks
    want = run_entry(entry, params, *batch)  # starts the pool in this process
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = run_entry(entry, params, *batch)
            try:
                assert_same_bits(got, want)
                code = 0
            except AssertionError:
                code = 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid, f"the forked child's {entry} call did not return within 60 s"
    assert os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.parametrize("where", ["caller", "worker"])
def test_failing_block_raises_and_leaves_the_pool_usable(monkeypatch, pool_workers, tiny_early_config, where):
    # The caller's blocks take at least 0.2 s, so the worker claims one of
    # the three. A block that fails on the named thread raises its own error
    # from loss_and_grads, and the next call gets the serial bytes.
    pool_workers(1)
    params = init_params(tiny_early_config, np.random.default_rng(35))
    batch = padded_batch(np.random.default_rng(36), (40, 5, 17, 40, 9, 33, 2, 12, 1, 40, 28, 6, 19), 40)
    want = run_entry("training", params, *batch)
    backward = model._backward_batch

    def failing(*args):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (where == "caller"):
            raise FloatingPointError(f"block failed on the {where}")
        if on_caller:
            time.sleep(0.2)
        return backward(*args)

    monkeypatch.setattr(model, "_backward_batch", failing)
    with pytest.raises(FloatingPointError, match=f"on the {where}"):
        run_entry("training", params, *batch)
    monkeypatch.setattr(model, "_backward_batch", backward)
    assert_same_bits(run_entry("training", params, *batch), want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("arch", ["late", "early"])
def test_training_pass_without_rng_matches_inference(arch, dtype):
    # Both entries run row blocks of 256 // T = 6 rows at T=40. Without an
    # rng no dropout runs, and the two give the same bits at every batch size.
    cfg = LateFusionConfig(num_classes=5) if arch == "late" else EarlyFusionConfig(num_classes=5)
    rng = np.random.default_rng(25)
    params = init_params(cfg, rng)
    params = ModelParams(cfg, {k: v.astype(dtype) for k, v in params.tensors.items()})
    T = 40
    a, b, c, mask = padded_batch(rng, rng.integers(1, T + 1, size=32), T)
    targets = label_smooth(np.eye(5)[rng.integers(5, size=32)])
    temb = rng.standard_normal((32, 300))
    for n in (1, 5, 32):
        streams = [x[:n] for x in (a, b, c, mask)]
        want, _ = forward_batch(params, *streams)
        _, _, got = loss_and_grads(params, *streams, targets[:n], temb[:n])
        assert_same_bits(got, want)


def test_float32_params_and_streams_give_float32_outputs(tiny_late_config, tiny_early_config):
    rng = np.random.default_rng(23)
    a, b, c, mask = padded_batch(rng, (40, 12, 1, 33, 40, 7, 20), T=40)
    f32 = [x.astype(np.float32) for x in (a, b, c)]
    f64 = [x.astype(np.float64) for x in f32]
    for cfg in (tiny_late_config, tiny_early_config):
        params = init_params(cfg, np.random.default_rng(8))
        params32 = ModelParams(cfg, {k: v.astype(np.float32) for k, v in params.tensors.items()})
        params64 = ModelParams(cfg, {k: v.astype(np.float64) for k, v in params32.tensors.items()})
        # reference: the same float32 values, computed in float64
        want_p, want_e = forward_batch(params64, *f64, mask)
        assert want_p.dtype == want_e.dtype == np.float64
        for n in (1, 7):  # one pass, and two inference blocks
            probs, emb = forward_batch(params32, *(x[:n] for x in f32), mask[:n])
            assert probs.dtype == np.float32 and emb.dtype == np.float32
            npt.assert_allclose(probs, want_p[:n], atol=1e-5)
            npt.assert_allclose(emb, want_e[:n], rtol=1e-4, atol=1e-5)
            # float64 streams are cast to the params' float32 on entry
            p64in, e64in = forward_batch(params32, *(x[:n] for x in f64), mask[:n])
            assert_same_bits((p64in, e64in), (probs, emb))


def test_float32_training_pass_stays_float32_and_near_float64(tiny_late_config, tiny_early_config):
    """A float32 training pass against the same values computed in float64.

    Tolerance, fixed from float32's epsilon (1.2e-7) with room for the sums
    of a pass: every gradient tensor within 1e-4 of the float64 one, relative
    to its own norm floored at 1e-3 of the whole gradient's norm (the
    attention key biases' gradients are zero up to rounding, as they cancel
    in the softmax). The loss agrees to 1e-5 relative.
    """
    rng = np.random.default_rng(24)
    a, b, c, mask = padded_batch(rng, (9, 3, 1, 9, 6), T=9)
    a, b, c = (x.astype(np.float32) for x in (a, b, c))
    targets = label_smooth(np.eye(4)[[0, 3, 1, 2, 3]])
    temb = rng.standard_normal((5, 300))
    for base in (tiny_late_config, tiny_early_config):
        params = init_params(base, np.random.default_rng(9))
        t32 = {k: v.astype(np.float32) for k, v in params.tensors.items()}
        # with dropout on, the draws and every gradient stay float32
        _, grads, probs = loss_and_grads(
            ModelParams(base, t32), a, b, c, mask, targets, temb, rng=np.random.default_rng(5),
        )
        assert probs.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads.values())

        cfg = dataclasses.replace(base, dropout_rate=0.0)
        t64 = {k: v.astype(np.float64) for k, v in t32.items()}
        loss32, g32, _ = loss_and_grads(ModelParams(cfg, t32), a, b, c, mask, targets, temb)
        loss64, g64, _ = loss_and_grads(ModelParams(cfg, t64), a, b, c, mask, targets, temb)
        assert all(g.dtype == np.float32 for g in g32.values())
        assert abs(loss32 - loss64) <= 1e-5 * abs(loss64)
        floor = 1e-3 * math.sqrt(sum(np.sum(g * g) for g in g64.values()))
        for name, want in g64.items():
            err = np.linalg.norm(g32[name] - want) / max(np.linalg.norm(want), floor)
            assert err < 1e-4, f"{cfg.arch} {name}: relative error {err:.2e}"


# ---------------------------------------------------------------------------
# losses


def test_label_smooth():
    onehot = np.zeros(101)
    onehot[7] = 1.0
    smoothed = label_smooth(onehot)
    npt.assert_allclose(smoothed[7], 0.85 + 0.15 / 101, rtol=1e-12)
    npt.assert_allclose(smoothed[0], 0.15 / 101, rtol=1e-12)
    npt.assert_allclose(smoothed.sum(), 1.0, rtol=1e-12)
    npt.assert_array_equal(label_smooth(onehot, 0.0), onehot)
    with pytest.raises(ConfigurationError):
        label_smooth(onehot, 1.0)
    with pytest.raises(ConfigurationError):
        label_smooth(onehot, -0.1)


def test_cross_entropy_uniform():
    target = np.array([0.0, 1.0, 0.0, 0.0])
    npt.assert_allclose(cross_entropy(np.full(4, 0.25), target), math.log(4.0), rtol=1e-12)
    # the 1e-12 floor keeps zero probabilities finite
    hard = cross_entropy(np.array([1.0, 0.0, 0.0, 0.0]), target)
    npt.assert_allclose(hard, -math.log(1e-12), rtol=1e-9)


def test_cosine_loss():
    v = np.array([1.0, 2.0, -3.0])
    npt.assert_allclose(cosine_loss(v, v), -1.0, rtol=1e-12)
    npt.assert_allclose(cosine_loss(v, -v), 1.0, rtol=1e-12)
    npt.assert_allclose(cosine_loss(2.5 * v, v), cosine_loss(v, v), rtol=1e-12)
    rng = np.random.default_rng(12)
    for _ in range(25):
        a, b = rng.standard_normal((2, 8))
        assert -1.0 - 1e-12 <= cosine_loss(a, b) <= 1.0 + 1e-12
    with pytest.raises(DegenerateInputError):
        cosine_loss(v, np.zeros(3))


def test_combined_loss():
    npt.assert_allclose(combined_loss(1.0, -1.0), 1.3, rtol=1e-12)
    npt.assert_allclose(combined_loss(0.0, 0.0), 0.0, atol=0)


# ---------------------------------------------------------------------------
# gradient check


def grad_configs():
    late = LateFusionConfig(
        num_classes=3,
        d_a=4,
        d_b=4,
        d_c=4,
        ffn_a=5,
        ffn_b=5,
        ffn_c=5,
        ffn_fused=6,
        heads=2,
        dropout_rate=0.0,
        embed_dim=5,
    )
    early = EarlyFusionConfig(
        num_classes=3, d_model=12, ffn_width=7, heads=2, dropout_rate=0.0, embed_dim=5
    )
    return {"late": late, "early": early}


def run_gradcheck(cfg, seed, coords_per_tensor=5, h=1e-5):
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    a, b, c, mask = random_stream_batch(rng, n=2, T=4, pad=1)
    onehot = np.eye(3)[[0, 2]]
    targets = 0.85 * onehot + 0.15 / 3
    temb = rng.standard_normal((2, 5))

    def loss_at(tensors):
        p = ModelParams(cfg, tensors)
        return loss_and_grads(p, a, b, c, mask, targets, temb)[0]

    _, grads, _ = loss_and_grads(params, a, b, c, mask, targets, temb)
    worst, checked = 0.0, 0
    coord_rng = np.random.default_rng(seed + 1)
    for name, tensor in sorted(params.tensors.items()):
        flat = tensor.reshape(-1)
        for idx in coord_rng.choice(flat.size, size=min(coords_per_tensor, flat.size), replace=False):
            bumped = {k: v.copy() for k, v in params.tensors.items()}
            bumped[name].reshape(-1)[idx] += h
            up = loss_at(bumped)
            bumped[name].reshape(-1)[idx] -= 2 * h
            down = loss_at(bumped)
            numeric = (up - down) / (2 * h)
            analytic = grads[name].reshape(-1)[idx]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
            worst = max(worst, rel)
            checked += 1
    return worst, checked


@pytest.mark.parametrize("arch", ["late", "early"])
def test_gradcheck(arch):
    worst, checked = run_gradcheck(grad_configs()[arch], seed=17)
    assert checked >= 100
    assert worst < 1e-6, f"{arch}: worst relative error {worst:.3e} over {checked} coords"


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path, tiny_late_config):
    params = init_params(tiny_late_config, np.random.default_rng(5))
    path = tmp_path / "m.ckpt"
    save_model(path, params, meta={"epoch": 3, "val_top1": 0.5})
    loaded, meta = load_model(path)
    assert meta == {"epoch": 3, "val_top1": 0.5}
    assert loaded.config == params.config
    assert sorted(loaded.tensors) == sorted(params.tensors)
    for name, tensor in params.tensors.items():
        # payloads are stored as f32 and served as read-only f32 views
        assert loaded.tensors[name].dtype == np.float32
        assert not loaded.tensors[name].flags.writeable
        npt.assert_array_equal(loaded.tensors[name], tensor.astype(np.float32).astype(np.float64))

    # saving is deterministic
    first = path.read_bytes()
    save_model(path, params, meta={"epoch": 3, "val_top1": 0.5})
    assert path.read_bytes() == first


def test_checkpoint_payload_is_aligned(tmp_path, tiny_early_config):
    params = init_params(tiny_early_config, np.random.default_rng(5))
    path = tmp_path / "m.ckpt"
    residues = set()
    for pad in range(8):  # unpadded header lengths cover every residue mod 4
        save_model(path, params, meta={"pad": "x" * pad})
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", raw)
        residues.add(len(raw[4 : 4 + hlen].rstrip(b" ")) % 4)
        assert (4 + hlen) % 64 == 0
        loaded, meta = load_model(path)
        assert meta == {"pad": "x" * pad}
        assert all(t.flags.aligned for t in loaded.tensors.values())
    assert residues == {0, 1, 2, 3}


def test_checkpoint_corruption(tmp_path, tiny_early_config):
    params = init_params(tiny_early_config, np.random.default_rng(6))
    path = tmp_path / "m.ckpt"
    save_model(path, params)
    raw = path.read_bytes()

    path.write_bytes(raw[:3])
    with pytest.raises(FormatError):
        load_model(path)
    path.write_bytes(raw[: len(raw) - 9])
    with pytest.raises(FormatError):
        load_model(path)
    path.write_bytes(b'{"x": 1}' + raw)
    with pytest.raises(FormatError):
        load_model(path)
