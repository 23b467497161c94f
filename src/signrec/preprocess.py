"""Fixed-length masked batching and the relative hand geometry stream.

assemble_streams normalizes a record's arrays to T frames (random deletion
when too long, zero padding when too short) and splits them into three
streams:

  A: hand shape, T x 126
  B: lip shape, T x 120
  C: arm points plus hand-center distance and angle, T x 14

Padding is always a suffix and padded rows are all-zero in every stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .featurestore import ARM_DIM, HAND_DIM, LIP_DIM, FeatureSequence

STREAM_A_DIM = HAND_DIM
STREAM_B_DIM = LIP_DIM
STREAM_C_DIM = ARM_DIM + 2
DEFAULT_T = 40

# Fallback center for a hand that was never observed: bottom center of the
# normalized image (y grows downward).
_FALLBACK_CENTER = (0.5, 1.0)


@dataclass(frozen=True)
class StreamBatch:
    """One record, normalized to T frames and split into the three streams."""

    stream_a: np.ndarray  # (T, 126)
    stream_b: np.ndarray  # (T, 120)
    stream_c: np.ndarray  # (T, 14)
    mask: np.ndarray  # (T,) bool, true = real frame

    def __post_init__(self):
        t = self.mask.shape[0]
        shapes = (
            (self.stream_a.shape, (t, STREAM_A_DIM)),
            (self.stream_b.shape, (t, STREAM_B_DIM)),
            (self.stream_c.shape, (t, STREAM_C_DIM)),
        )
        for got, want in shapes:
            if got != want:
                raise ValueError(f"stream shape {got} does not match {want}")
        m = self.mask
        if m.dtype != np.bool_:
            raise ValueError("mask must be boolean")
        # padding must be a suffix: no true after a false
        if np.any(m[1:] & ~m[:-1]):
            raise ValueError("mask must be true on a prefix and false on a suffix")
        pad = ~m
        if pad.any():
            for s in (self.stream_a, self.stream_b, self.stream_c):
                if np.any(s[pad]):
                    raise ValueError("masked rows must be all-zero in every stream")

    @property
    def T(self) -> int:
        return self.mask.shape[0]


def _hand_geometry(centers: np.ndarray, present: np.ndarray) -> tuple[list[float], list[float]]:
    """Per-frame distance and angle between the two effective hand centers.

    An absent hand falls back to its last observed center among these
    frames, or to the bottom center of the image if it was not seen yet.
    The angle is atan2 of the left-to-right segment (image coordinates, y
    downward), zero when the centers coincide. math.hypot/atan2 are used
    because numpy's versions differ from them in the last ulp.
    """
    rows = np.arange(len(present))
    # last[t, h]: the latest frame <= t in which hand h was present, or -1
    last = np.maximum.accumulate(np.where(present, rows[:, None], -1), axis=0)
    eff = np.where((last >= 0)[..., None], centers[last, [0, 1]], _FALLBACK_CENTER)
    dx = (eff[:, 1, 0] - eff[:, 0, 0]).tolist()
    dy = (eff[:, 1, 1] - eff[:, 0, 1]).tolist()
    distance = list(map(math.hypot, dx, dy))
    angle = [math.atan2(y, x) if d > 0.0 else 0.0 for x, y, d in zip(dx, dy, distance)]
    return distance, angle


def assemble_streams(
    seq: FeatureSequence, T: int = DEFAULT_T, rng: Optional[np.random.Generator] = None
) -> StreamBatch:
    """Normalize seq to exactly T frames and split it into the three input streams.

    Longer inputs lose a uniformly random set of frames (survivors keep
    their original order); shorter inputs gain trailing all-zero rows,
    marked false in the mask. Pass a seeded generator for reproducible
    deletion; a fresh default generator is used when rng is None. Hand
    tracking runs over the retained frames only.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    n = len(seq)
    if n > T:
        if rng is None:
            rng = np.random.default_rng()
        keep = np.sort(rng.choice(n, size=T, replace=False))
    else:
        keep = slice(None)
    k = min(n, T)
    a = np.zeros((T, STREAM_A_DIM))
    b = np.zeros((T, STREAM_B_DIM))
    c = np.zeros((T, STREAM_C_DIM))
    a[:k] = seq.hand[keep]
    b[:k] = seq.lip[keep]
    c[:k, :ARM_DIM] = seq.arm[keep]
    c[:k, ARM_DIM], c[:k, ARM_DIM + 1] = _hand_geometry(seq.centers[keep], seq.present[keep])
    return StreamBatch(a, b, c, np.arange(T) < k)


def stack_batches(
    batches: Sequence[StreamBatch], toggles: tuple[bool, bool, bool] = (True, True, True)
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stack per-record StreamBatches into (B,T,d) arrays plus a (B,T) mask.

    A stream whose toggle is false comes back as zeros of its shape and
    dtype: the stream ablation, applied here for every model and for training.
    """
    if not batches:
        raise ValueError("cannot stack zero batches")
    streams = ([getattr(sb, f"stream_{s}") for sb in batches] for s in "abc")
    a, b, c = (
        np.stack(xs) if on else np.zeros((len(xs), *xs[0].shape), np.result_type(*xs))
        for xs, on in zip(streams, toggles)
    )
    return a, b, c, np.stack([sb.mask for sb in batches])
