"""Forward-pass oracles, loss formulas, gradient checking, checkpoints.

The gradient checks compare analytic gradients against central finite
differences on small configurations; the relative-error metric floors the
denominator at 1e-3 so near-zero coordinates (the attention query/key biases
cancel exactly in softmax) do not blow up the ratio.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

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
    encoder_block,
    forward_batch,
    init_params,
    label_smooth,
    layer_norm,
    load_model,
    loss_and_grads,
    masked_attention,
    positional_encoding,
    save_model,
)
from conftest import random_stream_batch


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
    got = layer_norm(x, g, b)
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


def test_attention_single_key_returns_value():
    rng = np.random.default_rng(1)
    d = 6
    w = attn_weights(rng, d)
    x = rng.standard_normal((1, d))
    got = masked_attention(x, np.array([True]), w, heads=2)
    want = (x @ w["Wv"] + w["bv"]) @ w["Wo"] + w["bo"]
    npt.assert_allclose(got, want, rtol=1e-10)


def test_attention_identical_rows_average_values():
    rng = np.random.default_rng(2)
    d = 4
    w = attn_weights(rng, d)
    row = rng.standard_normal(d)
    x = np.tile(row, (3, 1))
    got = masked_attention(x, np.ones(3, dtype=bool), w, heads=2)
    want = (row @ w["Wv"] + w["bv"]) @ w["Wo"] + w["bo"]
    for t in range(3):
        npt.assert_allclose(got[t], want, rtol=1e-10)


def test_attention_truncation_equivalence():
    rng = np.random.default_rng(3)
    d = 8
    w = attn_weights(rng, d)
    x = rng.standard_normal((3, d))
    mask = np.array([True, True, False])
    full = masked_attention(x, mask, w, heads=2)
    short = masked_attention(x[:2], np.ones(2, dtype=bool), w, heads=2)
    npt.assert_allclose(full[:2], short, rtol=1e-10)


def test_attention_errors():
    rng = np.random.default_rng(4)
    w = attn_weights(rng, 4)
    x = rng.standard_normal((2, 4))
    with pytest.raises(DegenerateInputError):
        masked_attention(x, np.zeros(2, dtype=bool), w, heads=2)
    with pytest.raises(ConfigurationError):
        masked_attention(x, np.ones(3, dtype=bool), w, heads=2)


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
    h = layer_norm(x, p["ln1.g"], p["ln1.b"])
    want = layer_norm(h, p["ln2.g"], p["ln2.b"])
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
        probs, emb, _ = forward_batch(params, a, b, c, mask)
        assert probs.shape == (3, 4) and emb.shape == (3, 300)
        assert (probs >= 0).all()
        npt.assert_allclose(probs.sum(-1), 1.0, atol=1e-6)


def test_forward_masking_invariance(tiny_late_config, tiny_early_config):
    rng = np.random.default_rng(9)
    for cfg in (tiny_late_config, tiny_early_config):
        params = init_params(cfg, np.random.default_rng(1))
        a, b, c, mask = random_stream_batch(rng, n=2, T=10, pad=3)
        p1, e1, _ = forward_batch(params, a, b, c, mask)
        # same real rows, four more rows of masked padding
        grow = lambda x: np.concatenate([x, np.zeros((2, 4) + x.shape[2:], x.dtype)], axis=1)
        p2, e2, _ = forward_batch(params, grow(a), grow(b), grow(c), grow(mask).astype(bool))
        assert np.abs(p1 - p2).max() < 1e-5
        assert np.abs(e1 - e2).max() < 1e-5


def test_inference_blocks_match_row_by_row(tiny_late_config, tiny_early_config):
    # at T=40 inference runs in blocks of 3 rows, so 7 rows span three blocks
    rng = np.random.default_rng(12)
    a, b, c, mask = random_stream_batch(rng, n=7, T=40, pad=0)
    for i, real in enumerate((40, 25, 40, 1, 33, 40, 12)):
        mask[i, real:] = False
        a[i, real:] = b[i, real:] = c[i, real:] = 0.0
    for cfg in (tiny_late_config, tiny_early_config):
        params = init_params(cfg, np.random.default_rng(7))
        probs, emb, _ = forward_batch(params, a, b, c, mask)
        for i in range(len(mask)):
            row = slice(i, i + 1)
            p_i, e_i, _ = forward_batch(params, a[row], b[row], c[row], mask[row])
            assert np.abs(probs[i] - p_i[0]).max() <= 1e-12
            assert np.abs(emb[i] - e_i[0]).max() <= 1e-12


def test_forward_train_dropout(tiny_late_config):
    rng = np.random.default_rng(10)
    a, b, c, mask = random_stream_batch(rng, n=2, T=6, pad=1)
    params = init_params(tiny_late_config, np.random.default_rng(2))
    with pytest.raises(ConfigurationError):
        forward_batch(params, a, b, c, mask, train=True)
    p_eval, _, _ = forward_batch(params, a, b, c, mask)
    p_train, _, _ = forward_batch(
        params, a, b, c, mask, train=True, rng=np.random.default_rng(3)
    )
    assert np.abs(p_eval - p_train).max() > 0  # dropout actually fires


def test_stream_toggles_zero_streams(tiny_late_config):
    rng = np.random.default_rng(11)
    a, b, c, mask = random_stream_batch(rng, n=2, T=6, pad=0)
    params = init_params(tiny_late_config, np.random.default_rng(4))
    p_zero_b, _, _ = forward_batch(params, a, np.zeros_like(b), c, mask)
    p_toggled, _, _ = forward_batch(params, a, b, c, mask, toggles=(True, False, True))
    npt.assert_allclose(p_toggled, p_zero_b, rtol=1e-12)


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
        # payloads are stored as f32
        npt.assert_array_equal(loaded.tensors[name], tensor.astype(np.float32).astype(np.float64))

    # saving is deterministic
    first = path.read_bytes()
    save_model(path, params, meta={"epoch": 3, "val_top1": 0.5})
    assert path.read_bytes() == first


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
