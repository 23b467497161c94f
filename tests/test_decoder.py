"""Sliding-window decoding: window math, thresholding, dedup fold."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from signrec.ensemble_ga import (
    Chromosome,
    EnsembleClassifier,
    init_ensemble_params,
    load_ensemble,
    save_ensemble,
)
from signrec.errors import ConfigurationError
from signrec.decoder import (
    DecodeConfig,
    DecodeTrace,
    WindowPrediction,
    accept_stream,
    classify_window,
    decode,
    decode_trace,
    trace_to_json,
    windows,
)
from signrec.featurestore import ARM_DIM, HAND_DIM, LIP_DIM, FeatureSequence, concat_sentence
from signrec.model import init_params
from signrec.preprocess import assemble_streams
from conftest import RowwiseModel


def flat_sequence(n):
    return FeatureSequence(
        np.zeros((n, HAND_DIM)),
        np.zeros((n, ARM_DIM)),
        np.zeros((n, LIP_DIM)),
        np.zeros((n, 2, 2)),
        np.zeros((n, 2), dtype=bool),
    )


def scripted_model(prob_rows):
    """Model that replays a fixed list of probability vectors, one per window."""
    state = {"i": 0}

    def fn(sb):
        row = prob_rows[min(state["i"], len(prob_rows) - 1)]
        state["i"] += 1
        return np.asarray(row, dtype=np.float64)

    return RowwiseModel(fn)


def dist(k, winner, p):
    row = np.full(k, (1.0 - p) / (k - 1))
    row[winner] = p
    return row


# ---------------------------------------------------------------------------
# windows


def test_window_offsets_examples():
    cfg = DecodeConfig()
    assert windows(40, cfg) == [0]
    assert windows(95, cfg) == list(range(0, 56, 5))
    assert len(windows(95, cfg)) == 12
    assert windows(20, cfg) == [0]
    assert windows(1, cfg) == [0]


def test_window_offsets_match_brute_force():
    cfg = DecodeConfig()
    for L in range(1, 301):
        got = windows(L, cfg)
        if L < cfg.window:
            assert got == [0]
        else:
            want = [s for s in range(0, L + 1, cfg.step) if s + cfg.window <= L]
            assert got == want
            assert len(got) == (L - cfg.window) // cfg.step + 1
    with pytest.raises(ValueError):
        windows(0, cfg)


def test_decode_config_validation():
    with pytest.raises(ConfigurationError):
        DecodeConfig(window=0)
    with pytest.raises(ConfigurationError):
        DecodeConfig(step=0)
    with pytest.raises(ConfigurationError):
        DecodeConfig(threshold=0.0)
    with pytest.raises(ConfigurationError):
        DecodeConfig(threshold=1.0)


# ---------------------------------------------------------------------------
# classify_window


def test_classify_window_threshold_boundary():
    cfg = DecodeConfig()
    below = classify_window(dist(101, 2, 0.19), cfg, start=10)
    assert below.word is None and below.start == 10
    npt.assert_allclose(below.confidence, 0.19, rtol=1e-12)

    above = classify_window(dist(5, 2, 0.21), cfg)
    assert above.word == 2
    npt.assert_allclose(above.confidence, 0.21, rtol=1e-12)


def test_classify_window_uniform_101_is_null():
    cfg = DecodeConfig()
    pred = classify_window(np.full(101, 1.0 / 101), cfg)
    assert pred.word is None
    npt.assert_allclose(pred.confidence, 1.0 / 101, rtol=1e-12)


# ---------------------------------------------------------------------------
# accept_stream (the dedup state machine)


def wp(word, conf=0.5, start=0):
    return WindowPrediction(start, word, conf)


@pytest.mark.parametrize(
    "stream,expected",
    [
        ([wp("A", 0.6), wp("A", 0.55), wp(None), wp("B", 0.3)], ["A", "B"]),
        ([wp("A", 0.6), wp(None), wp("A", 0.7)], ["A"]),
        ([wp(None), wp(None)], []),
        ([], []),
        ([wp("A")], ["A"]),
        ([wp("A"), wp("B"), wp("A")], ["A", "B", "A"]),
        ([wp("A"), wp("A"), wp("A")], ["A"]),
        ([wp(None), wp("A"), wp(None), wp(None), wp("A"), wp("B")], ["A", "B"]),
        ([wp("A"), wp("B"), wp("B"), wp(None), wp("B"), wp("C")], ["A", "B", "C"]),
        ([wp("A"), wp(None), wp("B"), wp(None), wp("A")], ["A", "B", "A"]),
        ([wp(None), wp("C")], ["C"]),
        ([wp("A"), wp("A"), wp("B"), wp("A"), wp("A")], ["A", "B", "A"]),
    ],
)
def test_accept_stream_traces(stream, expected):
    words, confs = accept_stream(stream)
    assert words == expected
    assert len(confs) == len(expected)


def test_accept_stream_keeps_first_confidence():
    words, confs = accept_stream([wp("A", 0.9), wp("A", 0.4), wp("B", 0.3)])
    assert words == ["A", "B"]
    assert confs == [0.9, 0.3]


# ---------------------------------------------------------------------------
# decode


def test_decode_all_below_threshold():
    model = scripted_model([dist(101, 1, 0.15)])
    words, confs, mean = decode(model, flat_sequence(60), DecodeConfig())
    assert words == [] and confs == [] and mean == 0.0


def test_decode_single_word_collapses():
    model = scripted_model([dist(5, 3, 0.9)])  # same confident row everywhere
    seq = flat_sequence(95)
    words, confs, mean = decode(model, seq, DecodeConfig())
    assert words == [3]
    npt.assert_allclose(mean, 0.9, rtol=1e-12)


def test_decode_mean_confidence():
    rows = [dist(101, 1, 0.6)] + [np.full(101, 1.0 / 101)] * 5 + [dist(101, 2, 0.5)] * 6
    model = scripted_model(rows)
    words, confs, mean = decode(model, flat_sequence(95), DecodeConfig())
    assert words == [1, 2]
    npt.assert_allclose(confs, [0.6, 0.5], rtol=1e-12)
    npt.assert_allclose(mean, 0.55, rtol=1e-12)


def test_decode_trace_structure_and_json():
    rows = [dist(101, 0, 0.7)] * 3 + [np.full(101, 1.0 / 101)] * 3 + [dist(101, 2, 0.8)] * 6
    model = scripted_model(rows)
    trace = decode_trace(model, flat_sequence(95), DecodeConfig())
    assert isinstance(trace, DecodeTrace)
    assert len(trace.predictions) == 12
    assert [p.start for p in trace.predictions] == list(range(0, 60, 5))
    assert list(trace.accepted_words) == [0, 2]
    nonnull = [p.word for p in trace.predictions if p.word is not None]
    # accepted words form a subsequence of the non-null stream
    it = iter(nonnull)
    assert all(w in it for w in trace.accepted_words)

    doc = trace_to_json(trace)
    assert set(doc) == {"windows", "accepted", "mean_confidence"}
    assert doc["windows"][0] == {"start": 0, "word": 0, "confidence": 0.7}
    assert doc["windows"][3]["word"] is None
    assert [a["word"] for a in doc["accepted"]] == [0, 2]


def test_decode_trace_empty_mean():
    t = DecodeTrace((), [], [])
    assert t.mean_confidence == 0.0


def test_decode_deterministic():
    rows = [dist(6, i % 6, 0.5) for i in range(12)]
    seq = flat_sequence(95)
    r1 = decode(scripted_model(rows), seq, DecodeConfig())
    r2 = decode(scripted_model(rows), seq, DecodeConfig())
    assert r1 == r2


# ---------------------------------------------------------------------------
# batched window scoring


class CountingModel:
    """Fake model that records each probs call's rows and the first hand value of each row."""

    def __init__(self):
        self.calls = []

    def probs(self, A, B, C, mask):
        self.calls.append(A[:, 0, 0].copy())
        return np.tile(dist(5, 3, 0.9), (len(A), 1))


@pytest.mark.parametrize("n_windows", [1, 31, 32, 33, 70, 2000])
def test_decode_trace_scores_windows_in_batches_of_32(n_windows):
    cfg = DecodeConfig()
    seq = flat_sequence(cfg.window + (n_windows - 1) * cfg.step)
    seq.hand[:, 0] = np.arange(len(seq))  # a window's first hand value is its start
    model = CountingModel()
    trace = decode_trace(model, seq, cfg)
    starts = [p.start for p in trace.predictions]
    assert starts == windows(len(seq), cfg) and len(starts) == n_windows
    assert len(model.calls) <= math.ceil(n_windows / 32)
    assert max(len(rows) for rows in model.calls) <= 32
    assert np.concatenate(model.calls).tolist() == starts
    assert list(trace.accepted_words) == [3]


@pytest.mark.parametrize("words, window, step", [(6, 12, 1), (1, 20, 5)])
def test_decode_trace_matches_windows_scored_alone(
    tmp_path, tiny_dataset, tiny_early_config, tiny_late_config, words, window, step
):
    # A loaded (float32) ensemble with the served head widths, at which a
    # whole-batch head GEMM would give some rows different bits.
    early = init_params(tiny_early_config, np.random.default_rng(20))
    late = init_params(tiny_late_config, np.random.default_rng(21))
    head = init_ensemble_params(Chromosome((2, 128, 64) + (0,) * 6), 4, np.random.default_rng(26))
    save_ensemble(tmp_path / "ens.ckpt", EnsembleClassifier(early, late, head))
    clf, _ = load_ensemble(tmp_path / "ens.ckpt")
    seq, _ = concat_sentence(tiny_dataset.sequences[:words])
    cfg = DecodeConfig(window=window, step=step, threshold=0.275)

    trace = decode_trace(clf, seq, cfg)
    alone = []
    for start in windows(len(seq), cfg):
        win = FeatureSequence(*(a[start : start + window] for a in seq.arrays()))
        alone.append(classify_window(clf(assemble_streams(win, window)), cfg, start))
    assert len(trace.predictions) == len(alone) > (32 if words > 1 else 0)
    got = np.array([p.confidence for p in trace.predictions], dtype=np.float32)
    want = np.array([p.confidence for p in alone], dtype=np.float32)
    assert got.tobytes() == want.tobytes()
    assert [p.word for p in trace.predictions] == [p.word for p in alone]
    assert list(trace.predictions) == alone
