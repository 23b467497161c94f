"""Sliding-window decoding of concatenated word sequences.

A fixed-size window advances over the input in small steps; each window is
classified in isolation and windows whose best class probability does not
exceed the confidence threshold become null predictions. A sentence's windows
are scored in batches of up to 32 through the model's probs; every model row
(base forwards and ensemble head alike) gives the same bits in any batch, so a
window's confidence does not depend on which windows share its batch. A final
pass keeps only confident words that differ from the last accepted word, so
repeats of one word across overlapping windows (even separated by nulls)
collapse to a single acceptance. A genuine immediate repetition in the signal
is therefore unrecoverable by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .featurestore import FeatureSequence
from .model import _check_types
from .train import split_probabilities

# Windows per model.probs call in decode_trace.
_WINDOW_BATCH = 32


@dataclass(frozen=True)
class DecodeConfig:
    window: int = 40
    step: int = 5
    threshold: float = 0.2

    def __post_init__(self):
        _check_types(self)
        if self.window < 1 or self.step < 1:
            raise ConfigurationError("window and step must be >= 1")
        if not (0.0 < self.threshold < 1.0):
            raise ConfigurationError(f"threshold {self.threshold} outside (0,1)")


@dataclass(frozen=True)
class WindowPrediction:
    start: int
    word: Optional[int]  # None = below threshold ("null")
    confidence: float


@dataclass(frozen=True)
class DecodeTrace:
    predictions: tuple[WindowPrediction, ...]
    accepted_words: tuple[int, ...]
    accepted_confidences: tuple[float, ...]

    @property
    def mean_confidence(self) -> float:
        if not self.accepted_confidences:
            return 0.0
        return float(np.mean(self.accepted_confidences))


def windows(seq_len: int, config: DecodeConfig) -> list[int]:
    """Window start offsets. A too-short input still yields one (padded) window."""
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    if seq_len < config.window:
        return [0]
    return list(range(0, seq_len - config.window + 1, config.step))


def classify_window(probs: np.ndarray, config: DecodeConfig, start: int = 0) -> WindowPrediction:
    """Threshold one window's (K,) class probabilities; below-threshold maxima become null.

    The threshold is strict: confidence must exceed it.
    """
    best = int(np.argmax(probs))
    confidence = float(probs[best])
    word = best if confidence > config.threshold else None
    return WindowPrediction(start, word, confidence)


def accept_stream(preds: Sequence[WindowPrediction]) -> tuple[list[int], list[float]]:
    """Keep confident words that differ from the last accepted word.

    Nulls never reset the comparison state: a word re-recognized after any
    run of nulls is still discarded if it matches the last accepted word.
    """
    accepted: list[int] = []
    confidences: list[float] = []
    last: Optional[int] = None
    for p in preds:
        if p.word is None:
            continue
        if p.word != last:
            accepted.append(p.word)
            confidences.append(p.confidence)
            last = p.word
    return accepted, confidences


def decode_trace(model, seq: FeatureSequence, config: DecodeConfig = DecodeConfig()) -> DecodeTrace:
    """Full decoding trace: every window prediction plus the accepted words.

    Each window is a fresh record over a slice of seq's arrays, so hand
    tracking starts over at every window start; a window shorter than
    config.window is zero-padded and masked. The windows are scored by
    split_probabilities in batches of _WINDOW_BATCH, each assembled only when
    it is scored, then thresholded one by one with classify_window.
    """
    starts = windows(len(seq), config)
    arrays = seq.arrays()
    slices = [FeatureSequence(*(a[s : s + config.window] for a in arrays)) for s in starts]
    probs = split_probabilities(model, slices, config.window, _WINDOW_BATCH)
    preds = [classify_window(row, config, s) for row, s in zip(probs, starts)]
    words, confs = accept_stream(preds)
    return DecodeTrace(tuple(preds), tuple(words), tuple(confs))


def decode(
    model, seq: FeatureSequence, config: DecodeConfig = DecodeConfig()
) -> tuple[list[int], list[float], float]:
    """(accepted words, their confidences, mean confidence; 0 if none)."""
    trace = decode_trace(model, seq, config)
    return list(trace.accepted_words), list(trace.accepted_confidences), trace.mean_confidence


def trace_to_json(trace: DecodeTrace) -> dict:
    return {
        "windows": [
            {"start": p.start, "word": p.word, "confidence": p.confidence}
            for p in trace.predictions
        ],
        "accepted": [
            {"word": w, "confidence": c}
            for w, c in zip(trace.accepted_words, trace.accepted_confidences)
        ],
        "mean_confidence": trace.mean_confidence,
    }
