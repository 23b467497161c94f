"""Adamax oracle checks, training-loop determinism, and evaluation."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from signrec.errors import ConfigurationError, TrainingDivergenceError
from signrec.model import init_params, label_smooth, load_model, loss_and_grads, save_model
from signrec.preprocess import StreamBatch, assemble_streams, stack_batches
from signrec.train import (
    EVAL_SEED,
    AdamaxState,
    Checkpoint,
    TrainConfig,
    _fit_epochs,
    adamax_step,
    evaluate,
    split_probabilities,
    train_model,
)
from conftest import TINY_T, RowwiseModel, random_stream_batch, traced_peak


# ---------------------------------------------------------------------------
# adamax


def test_adamax_scalar_example():
    # theta=0, g=1, t=1: m=0.1, u=1, step = lr*0.1/(0.1*(1+eps)) ~ lr
    tensors = {"w": np.array([0.0])}
    grads = {"w": np.array([1.0])}
    out, state = adamax_step(tensors, grads, AdamaxState.zeros(tensors), t=1, lr=0.0012, wd=0.0)
    npt.assert_allclose(out["w"][0], -0.0012, rtol=1e-7)
    npt.assert_allclose(state.m["w"][0], 0.1, rtol=1e-12)
    npt.assert_allclose(state.u["w"][0], 1.0, rtol=1e-12)


def test_adamax_zero_gradient_is_identity():
    tensors = {"w": np.array([1.0, -2.0])}
    before = tensors["w"].copy()
    grads = {"w": np.zeros(2)}
    out, _ = adamax_step(tensors, grads, AdamaxState.zeros(tensors), t=1, lr=0.01, wd=0.0)
    npt.assert_array_equal(out["w"], before)


def test_adamax_decay_only():
    tensors = {"w": np.array([4.0])}
    grads = {"w": np.zeros(1)}
    lr, wd = 0.01, 0.1
    out, _ = adamax_step(tensors, grads, AdamaxState.zeros(tensors), t=1, lr=lr, wd=wd)
    npt.assert_allclose(out["w"][0], 4.0 * (1.0 - lr * wd), rtol=1e-12)


def test_adamax_matches_reference_loop():
    rng = np.random.default_rng(0)
    tensors = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}
    state = AdamaxState.zeros(tensors)
    ref = {k: v.copy() for k, v in tensors.items()}
    ref_m = {k: np.zeros_like(v) for k, v in tensors.items()}
    ref_u = {k: np.zeros_like(v) for k, v in tensors.items()}
    lr, wd, b1, b2, eps = 0.002, 0.01, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        grads = {k: rng.standard_normal(v.shape) for k, v in tensors.items()}
        tensors, state = adamax_step(tensors, grads, state, t, lr, wd)
        for k in ref:
            ref_m[k] = b1 * ref_m[k] + (1 - b1) * grads[k]
            ref_u[k] = np.maximum(b2 * ref_u[k], np.abs(grads[k]))
            ref[k] = ref[k] - lr * ref_m[k] / ((1 - b1**t) * (ref_u[k] + eps))
            ref[k] = ref[k] * (1 - lr * wd)
    for k in ref:
        npt.assert_allclose(tensors[k], ref[k], rtol=1e-12)
        npt.assert_allclose(state.m[k], ref_m[k], rtol=1e-12)
        npt.assert_allclose(state.u[k], ref_u[k], rtol=1e-12)


def allocating_adamax(tensors, grads, state, t, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """The allocating Adamax update that adamax_step replaced, kept as an oracle."""
    new_t, new_m, new_u = {}, {}, {}
    bias = 1.0 - beta1**t
    for name, theta in tensors.items():
        g = grads[name]
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        u = np.maximum(beta2 * state.u[name], np.abs(g))
        theta = theta - lr * m / (bias * (u + eps))
        if wd != 0.0:
            theta = theta - lr * wd * theta
        new_t[name], new_m[name], new_u[name] = theta, m, u
    return new_t, AdamaxState(new_m, new_u)


@pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("wd", [0.0, 0.0001])
def test_adamax_in_place_matches_allocating_oracle(grad_dtype, wd):
    rng = np.random.default_rng(11)
    shapes = {"W": (7, 5), "b": (5,), "g": (3, 4, 2)}
    tensors = {k: rng.standard_normal(s) for k, s in shapes.items()}
    state = AdamaxState.zeros(tensors)
    ref, ref_state = {k: v.copy() for k, v in tensors.items()}, AdamaxState.zeros(tensors)
    arrays = [*tensors.values(), *state.m.values(), *state.u.values()]
    for t in range(1, 5):
        grads = {k: rng.standard_normal(s).astype(grad_dtype) for k, s in shapes.items()}
        grads["b"][t % 5] = 0.0  # u decays where the gradient vanishes
        out, out_state = adamax_step(tensors, grads, state, t, 0.0012, wd)
        ref, ref_state = allocating_adamax(ref, grads, ref_state, t, 0.0012, wd)
        assert out is tensors and out_state is state
        for k in shapes:
            assert tensors[k].dtype == np.float64
            assert tensors[k].tobytes() == ref[k].tobytes()
            assert state.m[k].tobytes() == ref_state.m[k].tobytes()
            assert state.u[k].tobytes() == ref_state.u[k].tobytes()
    # the caller's arrays were updated, never replaced
    now = [*tensors.values(), *state.m.values(), *state.u.values()]
    assert all(a is b for a, b in zip(arrays, now))


def test_adamax_divergence_leaves_weights_and_state_untouched():
    rng = np.random.default_rng(2)
    tensors = {k: rng.standard_normal(4) for k in ("a", "b", "c")}
    state = AdamaxState.zeros(tensors)
    adamax_step(tensors, {k: rng.standard_normal(4) for k in tensors}, state, 1, 0.01, 0.1)
    before = [a.tobytes() for a in (*tensors.values(), *state.m.values(), *state.u.values())]
    grads = {k: rng.standard_normal(4) for k in tensors}
    grads["c"][2] = np.nan
    with pytest.raises(TrainingDivergenceError, match="non-finite gradient in c"):
        adamax_step(tensors, grads, state, 2, 0.01, 0.1)
    after = [a.tobytes() for a in (*tensors.values(), *state.m.values(), *state.u.values())]
    assert after == before


@pytest.mark.parametrize("wd", [0.0, 0.0001])
def test_adamax_step_peak_memory(wd):
    # In place, a step's only large temporaries are lr*m and the step array:
    # the traced peak measured 2.00x the tensor's bytes (the allocating
    # update measured 4.00x without weight decay and 5.00x with it).
    rng = np.random.default_rng(0)
    tensors = {"w": rng.standard_normal((756, 756))}
    grads = {"w": rng.standard_normal((756, 756))}
    state = AdamaxState.zeros(tensors)
    adamax_step(tensors, grads, state, 1, 0.0012, wd)
    _, peak = traced_peak(adamax_step, tensors, grads, state, 2, 0.0012, wd)
    assert peak < 2.25 * tensors["w"].nbytes


def test_adamax_rejects_bad_input():
    tensors = {"w": np.zeros(1)}
    with pytest.raises(TrainingDivergenceError):
        adamax_step(tensors, {"w": np.array([np.nan])}, AdamaxState.zeros(tensors), 1, 0.01, 0.0)
    with pytest.raises(ConfigurationError):
        adamax_step(tensors, {"w": np.zeros(1)}, AdamaxState.zeros(tensors), 0, 0.01, 0.0)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(stream_toggles=(False, False, False))
    with pytest.raises(ConfigurationError):
        TrainConfig(stream_toggles=(True, False))
    with pytest.raises(ConfigurationError):
        Checkpoint(None, 1, val_top1=1.5, val_top5=1.0)


# ---------------------------------------------------------------------------
# training loop


def small_config(**overrides):
    fields = dict(epochs=2, batch_size=8, seed=3, sequence_length=TINY_T)
    fields.update(overrides)
    return TrainConfig(**fields)


def tiny_model_kwargs():
    from signrec.model import LateFusionConfig

    return LateFusionConfig(
        num_classes=4, d_a=8, d_b=8, d_c=8, ffn_a=8, ffn_b=8, ffn_c=8,
        ffn_fused=16, heads=2, dropout_rate=0.1,
    )


def test_train_model_deterministic(tiny_dataset):
    ck1 = train_model(tiny_dataset, "late", small_config(), model_config=tiny_model_kwargs())
    ck2 = train_model(tiny_dataset, "late", small_config(), model_config=tiny_model_kwargs())
    assert ck1.epoch == ck2.epoch
    assert ck1.val_top1 == ck2.val_top1
    for name in ck1.params.tensors:
        npt.assert_array_equal(ck1.params.tensors[name], ck2.params.tensors[name])
    ck3 = train_model(
        tiny_dataset, "late", small_config(seed=4), model_config=tiny_model_kwargs()
    )
    assert any(
        not np.array_equal(ck1.params.tensors[n], ck3.params.tensors[n])
        for n in ck1.params.tensors
    )


def test_train_model_single_epoch(tiny_dataset):
    ck = train_model(
        tiny_dataset, "late", small_config(epochs=1), model_config=tiny_model_kwargs()
    )
    assert ck.epoch == 1
    assert 0.0 <= ck.val_top1 <= 1.0 and 0.0 <= ck.val_top5 <= 1.0


def test_train_model_log_and_checkpoint_selection(tmp_path, tiny_dataset):
    log = tmp_path / "log.jsonl"
    ck = train_model(
        tiny_dataset,
        "late",
        small_config(epochs=4),
        model_config=tiny_model_kwargs(),
        log_path=log,
    )
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["epoch"] for r in rows] == [1, 2, 3, 4]
    assert set(rows[0]) == {"epoch", "train_loss", "val_top1", "val_top5", "seconds"}
    tops = [r["val_top1"] for r in rows]
    assert ck.val_top1 == max(tops)
    assert ck.epoch == tops.index(max(tops)) + 1  # earliest epoch wins ties
    # best-so-far is non-decreasing by construction
    best = -1.0
    for v in tops:
        best = max(best, v)
    assert best == ck.val_top1
    # checkpoint metrics agree with a fresh evaluation of the stored params
    top1, top5, _, _ = evaluate(ck.params, tiny_dataset.split("val"), T=TINY_T)
    assert top1 == ck.val_top1 and top5 == ck.val_top5


def test_train_model_checkpoint_is_the_float32_that_is_saved(tmp_path, tiny_dataset):
    ck = train_model(
        tiny_dataset, "late", small_config(epochs=1), model_config=tiny_model_kwargs()
    )
    assert all(t.dtype == np.float32 for t in ck.params.tensors.values())
    path = tmp_path / "m.ckpt"
    save_model(path, ck.params)
    loaded, _ = load_model(path)
    assert loaded.tensors.keys() == ck.params.tensors.keys()
    for name, tensor in ck.params.tensors.items():
        assert loaded.tensors[name].dtype == np.float32
        assert loaded.tensors[name].tobytes() == tensor.tobytes()
    # so the loaded model scores the validation split exactly as training did
    val = tiny_dataset.split("val")
    want = split_probabilities(ck.params, val, TINY_T, 8)
    assert split_probabilities(loaded, val, TINY_T, 8).tobytes() == want.tobytes()


class ScriptedParams:
    """Stand-in for a model in _fit_epochs: named tensors and a copy()."""

    def __init__(self, tensors):
        self.tensors = tensors

    def copy(self):
        return ScriptedParams({k: v.copy() for k, v in self.tensors.items()})


def test_fit_epochs_selection_and_log(tmp_path, capsys):
    labels = np.array([0, 1])
    right, half = np.eye(6)[[0, 1]], np.eye(6)[[0, 0]]
    script = iter([half, right, right, half])  # val Top-1 0.5, 1.0, 1.0, 0.5
    chunks, seen = [], []

    def batch_loss(params, chunk):
        chunks.append(chunk)
        return float(len(chunks)), {"w": np.ones(1)}

    def val_probs(params):
        seen.append(params.tensors["w"].copy())
        return next(script)

    params = ScriptedParams({"w": np.zeros(1)})
    log = tmp_path / "log.jsonl"
    ck = _fit_epochs(
        params, 5, batch_loss, val_probs, labels, small_config(epochs=4, batch_size=2),
        np.random.default_rng(0), log_path=log, verbose=True,
    )
    # every epoch covers range(5) in batches of 2, 2 and 1
    assert [len(c) for c in chunks] == [2, 2, 1] * 4
    for e in range(4):
        assert sorted(np.concatenate(chunks[3 * e : 3 * e + 3])) == [0, 1, 2, 3, 4]
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert [set(r) for r in rows] == [{"epoch", "train_loss", "val_top1", "val_top5", "seconds"}] * 4
    assert all(r["seconds"] >= 0.0 for r in rows)
    assert [r["epoch"] for r in rows] == [1, 2, 3, 4]
    assert [r["train_loss"] for r in rows] == [2.0, 5.0, 8.0, 11.0]
    assert [r["val_top1"] for r in rows] == [0.5, 1.0, 1.0, 0.5]
    assert [r["val_top5"] for r in rows] == [1.0] * 4
    # the tie between epochs 2 and 3 keeps epoch 2, as a snapshot of its weights
    assert (ck.epoch, ck.val_top1, ck.val_top5) == (2, 1.0, 1.0)
    npt.assert_array_equal(ck.params.tensors["w"], seen[1])
    assert not np.array_equal(params.tensors["w"], seen[1])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(line.startswith("epoch") for line in err)


def test_fit_epochs_non_finite_loss_diverges(tmp_path):
    losses = iter([1.0, 2.0, float("nan")])
    log = tmp_path / "log.jsonl"
    with pytest.raises(TrainingDivergenceError, match="non-finite loss at epoch 2"):
        _fit_epochs(
            ScriptedParams({"w": np.zeros(1)}), 3,
            lambda params, chunk: (next(losses), {"w": np.ones(1)}),
            lambda params: np.eye(6)[[0, 1]], np.array([0, 1]),
            small_config(epochs=3, batch_size=2), np.random.default_rng(0), log_path=log,
        )
    # the log is closed with the finished epoch in it
    assert [json.loads(line)["epoch"] for line in log.read_text().splitlines()] == [1]


def test_train_model_argument_errors(tiny_dataset):
    with pytest.raises(ConfigurationError):
        train_model(tiny_dataset, "middle", small_config())
    with pytest.raises(ConfigurationError):
        # early config paired with a late request
        train_model(tiny_dataset, "early", small_config(), model_config=tiny_model_kwargs())


def test_stream_toggle_zeroes_projection_gradients(tiny_late_config):
    rng = np.random.default_rng(5)
    params = init_params(tiny_late_config, rng)
    a, b, c, mask = random_stream_batch(rng, n=3, T=6, pad=1)
    targets = label_smooth(np.eye(4)[0]) * np.ones((3, 1))
    temb = rng.standard_normal((3, 300))
    a, b, c, mask = stack_batches(
        [StreamBatch(*row) for row in zip(a, b, c, mask)], toggles=(True, False, True)
    )
    _, grads, _ = loss_and_grads(params, a, b, c, mask, targets, temb)
    npt.assert_array_equal(grads["b.proj.W"], 0.0)
    assert np.abs(grads["a.proj.W"]).max() > 0
    assert np.abs(grads["c.proj.W"]).max() > 0


# ---------------------------------------------------------------------------
# evaluation


def stream_centroid(records, T):
    feats, labels = [], []
    rng = np.random.default_rng(123)
    for r in records:
        sb = assemble_streams(r, T, rng)
        row = np.concatenate(
            [sb.stream_a[sb.mask].mean(0), sb.stream_b[sb.mask].mean(0), sb.stream_c[sb.mask].mean(0)]
        )
        feats.append(row)
        labels.append(r.label_id)
    feats, labels = np.stack(feats), np.asarray(labels)
    k = labels.max() + 1
    return np.stack([feats[labels == i].mean(0) for i in range(k)]), k


def test_evaluate_perfect_centroid_stub(tiny_dataset):
    centroids, k = stream_centroid(tiny_dataset.split("train"), TINY_T)

    def stub(sb):
        row = np.concatenate(
            [sb.stream_a[sb.mask].mean(0), sb.stream_b[sb.mask].mean(0), sb.stream_c[sb.mask].mean(0)]
        )
        d = ((centroids - row) ** 2).sum(-1)
        probs = np.zeros(k)
        probs[int(np.argmin(d))] = 1.0
        return probs

    model = RowwiseModel(stub)
    top1, top5, confusion, latency = evaluate(model, tiny_dataset.split("test"), T=TINY_T)
    assert top1 == 1.0 and top5 == 1.0
    assert latency > 0.0
    npt.assert_array_equal(confusion, np.diag([3, 3, 3, 3]))


def test_evaluate_uniform_stub(tiny_dataset):
    records = tiny_dataset.split("val")
    stub = RowwiseModel(lambda sb: np.full(4, 0.25))
    top1, top5, confusion, _ = evaluate(stub, records, T=TINY_T)
    labels = np.array([r.label_id for r in records])
    # deterministic tie-break: lowest class index wins
    assert top1 == (labels == 0).mean()
    assert top5 == 1.0  # k is clamped to the class count
    assert confusion.sum() == len(records)
    npt.assert_array_equal(confusion.sum(axis=1), np.bincount(labels, minlength=4))


def test_evaluate_random_stub_statistics(eval_dataset):
    # uniform random scores: P(label in top5 of 10) = 1/2
    records = list(eval_dataset.sequences)
    hits1, hits5, n = 0.0, 0.0, 0
    for seed in range(10):
        stub_rng = np.random.default_rng(seed)
        stub = RowwiseModel(lambda sb: (lambda v: v / v.sum())(stub_rng.random(10) + 1e-9))
        top1, top5, _, _ = evaluate(stub, records, T=TINY_T)
        assert top1 <= top5
        hits1 += top1 * len(records)
        hits5 += top5 * len(records)
        n += len(records)
    for frac, p in ((hits1 / n, 0.1), (hits5 / n, 0.5)):
        band = 3.0 * np.sqrt(p * (1 - p) / n)
        assert abs(frac - p) < band, f"{frac} outside {p}+-{band}"


def test_evaluate_argument_errors(tiny_dataset):
    stub = RowwiseModel(lambda sb: np.full(4, 0.25))
    with pytest.raises(ValueError):
        evaluate(stub, [], T=TINY_T)
    from signrec.featurestore import FeatureSequence

    unlabeled = FeatureSequence(*tiny_dataset.sequences[0].arrays())
    with pytest.raises(ValueError):
        evaluate(stub, [unlabeled], T=TINY_T)


def test_split_probabilities_deterministic(tiny_dataset, tiny_late_config):
    params = init_params(tiny_late_config, np.random.default_rng(9))
    records = tiny_dataset.split("test")
    p1 = split_probabilities(params, records, T=TINY_T)
    p2 = split_probabilities(params, records, T=TINY_T)
    npt.assert_array_equal(p1, p2)
    assert p1.shape == (len(records), 4)
    # batches of 32 agree with one record at a time
    p3 = split_probabilities(params, records, T=TINY_T, batch_size=1)
    npt.assert_allclose(p1, p3, rtol=1e-12)


def ref_split_probabilities(model, records, T, batch_size=32, toggles=(True, True, True)):
    """Oracle: the form that assembles every record before scoring the first batch."""
    rng = np.random.default_rng(EVAL_SEED)
    batches = [assemble_streams(r, T, rng) for r in records]
    return np.concatenate(
        [
            model.probs(*stack_batches(batches[i : i + batch_size], toggles))
            for i in range(0, len(batches), batch_size)
        ]
    )


@pytest.mark.parametrize("n", [1, 31, 32, 33, 70])
def test_split_probabilities_matches_assemble_first_oracle(tiny_dataset, tiny_late_config, n):
    params = init_params(tiny_late_config, np.random.default_rng(9))
    # records up to 14 frames at T=12: the longer ones draw their deletions from the rng
    records = (list(tiny_dataset.sequences) * 2)[:n]
    for toggles in ((True, True, True), (False, True, True)):
        got = split_probabilities(params, records, TINY_T, toggles=toggles)
        want = ref_split_probabilities(params, records, TINY_T, toggles=toggles)
        assert got.shape == (n, 4)
        assert got.tobytes() == want.tobytes()
