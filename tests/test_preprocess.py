"""Stream assembly: length normalization, hand geometry, and masking."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from signrec.decoder import DecodeConfig, decode_trace, windows
from signrec.featurestore import ARM_DIM, HAND_DIM, LIP_DIM, FeatureSequence, concat_sentence
from signrec.preprocess import DEFAULT_T, StreamBatch, assemble_streams, stack_batches
from conftest import RowwiseModel

_FALLBACK_CENTER = (0.5, 1.0)


def f32(x):
    """x as stored in a record: centers are float32."""
    return float(np.float32(x))


def tagged_sequence(n, centers=(None, None)):
    """n frames tagged by index in hand[:, 0]; centers is one (left, right) pair for every frame."""
    return track(*[centers] * n)


def track(*frames):
    """One frame per (left, right) pair of hand centers, None where the hand is absent."""
    n = len(frames)
    hand = np.zeros((n, HAND_DIM), np.float32)
    hand[:, 0] = np.arange(1, n + 1)
    present = np.array([[c is not None for c in f] for f in frames], dtype=bool)
    centers = np.array([[c if c is not None else (0.0, 0.0) for c in f] for f in frames])
    return FeatureSequence(hand, np.zeros((n, ARM_DIM)), np.zeros((n, LIP_DIM)), centers, present, 0)


def random_record(rng, n, label_id=0):
    """Random features; each hand center is absent on ~30% of frames."""
    return FeatureSequence(
        rng.standard_normal((n, HAND_DIM)),
        rng.standard_normal((n, ARM_DIM)),
        rng.standard_normal((n, LIP_DIM)),
        rng.random((n, 2, 2)),
        rng.random((n, 2)) >= 0.3,
        label_id=label_id,
    )


def geometry(seq, T=1):
    """(distance, angle) columns of seq's C stream."""
    c = assemble_streams(seq, T).stream_c
    return c[:, ARM_DIM], c[:, ARM_DIM + 1]


# ---------------------------------------------------------------------------
# Per-frame oracle: the hand-tracking loop that assemble_streams vectorizes.


def hand_geometry(centers, state):
    """Distance and angle for one frame's (left, right) centers; state is the last seen pair."""
    left, right = centers
    last_left, last_right = state
    eff_left = left if left is not None else (last_left or _FALLBACK_CENTER)
    eff_right = right if right is not None else (last_right or _FALLBACK_CENTER)
    dx = eff_right[0] - eff_left[0]
    dy = eff_right[1] - eff_left[1]
    distance = math.hypot(dx, dy)
    angle = math.atan2(dy, dx) if distance > 0.0 else 0.0
    new_state = (
        left if left is not None else last_left,
        right if right is not None else last_right,
    )
    return distance, angle, new_state


def oracle_streams(seq, rows, T):
    """StreamBatch arrays built frame by frame from seq's frames `rows`, tracking from no history."""
    a, b, c = np.zeros((T, HAND_DIM)), np.zeros((T, LIP_DIM)), np.zeros((T, ARM_DIM + 2))
    state = (None, None)
    for t, row in enumerate(rows):
        centers = tuple(
            (float(seq.centers[row, h, 0]), float(seq.centers[row, h, 1]))
            if seq.present[row, h]
            else None
            for h in range(2)
        )
        a[t], b[t], c[t, :ARM_DIM] = seq.hand[row], seq.lip[row], seq.arm[row]
        c[t, ARM_DIM], c[t, ARM_DIM + 1], state = hand_geometry(centers, state)
    return a, b, c, np.arange(T) < len(rows)


def kept_rows(n, T, seed):
    """The frames assemble_streams keeps under default_rng(seed)."""
    if n <= T:
        return list(range(n))
    return sorted(np.random.default_rng(seed).choice(n, size=T, replace=False).tolist())


@pytest.mark.parametrize("n", [1, 7, 39, 40, 41, 97])
def test_assemble_matches_per_frame_oracle(n):
    rng = np.random.default_rng(n)
    for seed in range(10):
        seq = random_record(rng, n)
        sb = assemble_streams(seq, DEFAULT_T, np.random.default_rng(seed))
        want = oracle_streams(seq, kept_rows(n, DEFAULT_T, seed), DEFAULT_T)
        for got, exp in zip((sb.stream_a, sb.stream_b, sb.stream_c, sb.mask), want):
            assert got.dtype == exp.dtype
            npt.assert_array_equal(got, exp)


def test_decode_windows_match_per_frame_oracle():
    rng = np.random.default_rng(31)
    sentence, _ = concat_sentence([random_record(rng, n, i) for i, n in enumerate((33, 58, 26))])
    cfg = DecodeConfig()
    seen = []
    decode_trace(RowwiseModel(lambda sb: seen.append(sb) or np.full(3, 1 / 3)), sentence, cfg)
    starts = windows(len(sentence), cfg)
    assert len(seen) == len(starts) == 16
    carried = 0
    for start, sb in zip(starts, seen):
        rows = range(start, start + cfg.window)
        want = oracle_streams(sentence, rows, cfg.window)
        for got, exp in zip((sb.stream_a, sb.stream_b, sb.stream_c, sb.mask), want):
            npt.assert_array_equal(got, exp)
        # tracking restarts at the window: a history carried in from the
        # frames before it would have given different geometry here
        carried += not np.array_equal(
            sb.stream_c, oracle_streams(sentence, range(start + cfg.window), start + cfg.window)[2][start:]
        )
    assert carried > 0


# ---------------------------------------------------------------------------
# length normalization


def test_normalize_identity():
    seq = tagged_sequence(DEFAULT_T)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    sb = assemble_streams(seq, DEFAULT_T, rng)
    npt.assert_array_equal(sb.stream_a[:, 0], np.arange(1, DEFAULT_T + 1))
    assert sb.mask.all() and sb.mask.shape == (DEFAULT_T,)
    assert rng.bit_generator.state == before  # nothing drawn at n == T


def test_normalize_pads_short_input():
    # the corpus's shortest word is 21 frames
    seq = tagged_sequence(21, centers=((0.2, 0.2), (0.6, 0.5)))
    sb = assemble_streams(seq, DEFAULT_T)
    assert sb.mask[:21].all() and not sb.mask[21:].any()
    for stream in (sb.stream_a, sb.stream_b, sb.stream_c):
        npt.assert_array_equal(stream[21:], 0.0)
    npt.assert_array_equal(sb.stream_a[:21, 0], np.arange(1, 22))


def test_normalize_deletes_long_input():
    # the corpus's longest word is 116 frames
    seq = tagged_sequence(116)
    sb = assemble_streams(seq, DEFAULT_T, np.random.default_rng(13))
    assert sb.mask.all()
    tags = sb.stream_a[:, 0].astype(int).tolist()
    assert tags == sorted(tags)  # survivors keep original order
    assert len(set(tags)) == DEFAULT_T
    assert set(tags) <= set(range(1, 117))
    # reproducible under the same seed
    again = assemble_streams(seq, DEFAULT_T, np.random.default_rng(13))
    npt.assert_array_equal(again.stream_a, sb.stream_a)


def test_normalize_subsequence_property():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(1, 60))
        T = int(rng.integers(1, 30))
        sb = assemble_streams(tagged_sequence(n), T, rng)
        assert sb.T == T
        assert sb.mask.sum() == min(n, T)
        real = sb.stream_a[sb.mask, 0].astype(int).tolist()
        assert real == sorted(set(real))
    with pytest.raises(ValueError):
        assemble_streams(tagged_sequence(3), 0)


# ---------------------------------------------------------------------------
# hand geometry (C stream columns 12 and 13)


def test_geometry_coincident_centers():
    d, a = geometry(track(((0.3, 0.3), (0.3, 0.3))))
    assert d[0] == 0.0 and a[0] == 0.0
    # -0.0 - 0.0 is -0.0, and atan2(-0.0, -0.0) is -pi: the angle is still +0.0
    d, a = geometry(track(((0.0, 0.0), (-0.0, -0.0))))
    assert d[0] == 0.0 and a[0] == 0.0 and math.copysign(1.0, a[0]) == 1.0


def test_geometry_diagonal():
    d, a = geometry(track(((0.0, 0.0), (1.0, 1.0))))
    assert d[0] == math.sqrt(2.0)
    npt.assert_allclose(a[0], 0.7853981633974483, rtol=1e-12)


def test_geometry_fallback_bottom_center():
    # no history at all: both hands land on (0.5, 1.0) and coincide
    d, a = geometry(track((None, None)))
    assert d[0] == 0.0 and a[0] == 0.0
    # absence leaves the memory empty: the right hand still falls back
    d, a = geometry(track((None, None), ((0.5, 0.25), None)), T=2)
    assert d[1] == 0.75 and a[1] == math.atan2(0.75, 0.0)


def test_geometry_last_seen_persistence():
    seq = track(((0.1, 0.2), (0.9, 0.8)), ((0.1, 0.2), None), (None, None))
    d, a = geometry(seq, T=3)
    # the right hand disappears, then both: their last centers stand in
    dx, dy = f32(0.9) - f32(0.1), f32(0.8) - f32(0.2)
    npt.assert_array_equal(d, [math.hypot(dx, dy)] * 3)
    npt.assert_array_equal(a, [math.atan2(dy, dx)] * 3)
    npt.assert_allclose(d[1], math.hypot(0.8, 0.6), rtol=1e-6)


def test_geometry_swap_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(50):
        left = (f32(rng.random()), f32(rng.random()))
        right = (f32(rng.random()), f32(rng.random()))
        d1, a1 = geometry(track((left, right)))
        d2, a2 = geometry(track((right, left)))
        assert d1[0] == d2[0]
        assert 0.0 <= d1[0] <= math.sqrt(2.0) + 1e-12
        if d1[0] > 0:
            dx, dy = right[0] - left[0], right[1] - left[1]
            assert a2[0] == math.atan2(-dy, -dx)


# ---------------------------------------------------------------------------
# assemble_streams / StreamBatch


def test_assemble_shapes_and_padding():
    sb = assemble_streams(tagged_sequence(9, centers=((0.2, 0.2), (0.6, 0.5))))
    assert sb.stream_a.shape == (DEFAULT_T, 126)
    assert sb.stream_b.shape == (DEFAULT_T, 120)
    assert sb.stream_c.shape == (DEFAULT_T, 14)
    assert sb.mask.shape == (DEFAULT_T,)
    assert sb.T == DEFAULT_T
    assert sb.mask[:9].all() and not sb.mask[9:].any()
    npt.assert_array_equal(sb.stream_a[9:], 0.0)
    npt.assert_array_equal(sb.stream_b[9:], 0.0)
    npt.assert_array_equal(sb.stream_c[9:], 0.0)
    # geometry columns carry the constant center pair (centers quantize to f32)
    npt.assert_allclose(sb.stream_c[:9, 12], math.hypot(0.4, 0.3), rtol=1e-6)
    npt.assert_allclose(sb.stream_c[:9, 13], math.atan2(0.3, 0.4), rtol=1e-6)


def test_assemble_absent_centers_zero_tail():
    sb = assemble_streams(tagged_sequence(5))
    npt.assert_array_equal(sb.stream_c[:5, 12:], 0.0)


def test_assemble_zero_lips_leaves_other_streams():
    rng = np.random.default_rng(12)
    seq = FeatureSequence(
        rng.standard_normal((6, HAND_DIM)),
        rng.standard_normal((6, ARM_DIM)),
        np.zeros((6, LIP_DIM)),
        np.zeros((6, 2, 2)),
        np.zeros((6, 2), dtype=bool),
    )
    sb = assemble_streams(seq)
    npt.assert_array_equal(sb.stream_b, 0.0)
    assert np.abs(sb.stream_a[:6]).sum() > 0
    assert np.abs(sb.stream_c[:6, :12]).sum() > 0


def test_stream_batch_validation():
    T = 6
    zeros = dict(
        stream_a=np.zeros((T, 126)),
        stream_b=np.zeros((T, 120)),
        stream_c=np.zeros((T, 14)),
    )
    mask = np.array([True, True, False, True, False, False])
    with pytest.raises(ValueError):
        StreamBatch(mask=mask, **zeros)  # true after false
    mask = np.array([True] * 3 + [False] * 3)
    bad = dict(zeros)
    bad["stream_a"] = zeros["stream_a"].copy()
    bad["stream_a"][4, 0] = 1.0
    with pytest.raises(ValueError):
        StreamBatch(mask=mask, **bad)  # nonzero padded row
    with pytest.raises(ValueError):
        StreamBatch(np.zeros((T, 10)), zeros["stream_b"], zeros["stream_c"], mask)


def test_stack_batches():
    batches = [assemble_streams(tagged_sequence(n)) for n in (3, 5)]
    a, b, c, m = stack_batches(batches)
    assert a.shape == (2, DEFAULT_T, 126)
    assert b.shape == (2, DEFAULT_T, 120)
    assert c.shape == (2, DEFAULT_T, 14)
    assert m.shape == (2, DEFAULT_T)
    assert m[0].sum() == 3 and m[1].sum() == 5
    with pytest.raises(ValueError):
        stack_batches([])
