"""Show how a record's per-frame arrays become the three model streams.

Covers length normalization to the fixed T, the prefix-true mask, and the
derived hand distance/angle channels that ride along with the arm points.
"""

import numpy as np

from signrec.featurestore import (
    ARM_DIM, HAND_DIM, LIP_DIM, FeatureSequence, generate_synthetic_dataset,
)
from signrec.preprocess import assemble_streams

dataset = generate_synthetic_dataset(
    n_classes=3, n_per_signer_class=2, n_signers=3, length_range=(12, 70), seed=4
)

short = next(s for s in dataset.sequences if len(s) < 40)
long = next(s for s in dataset.sequences if len(s) > 40)

for seq in (short, long):
    batch = assemble_streams(seq, T=40, rng=np.random.default_rng(0))
    kept = int(batch.mask.sum())
    print(f"{seq.gloss!r}: {len(seq)} frames -> {kept} kept of T=40 "
          f"({'padded' if len(seq) < 40 else 'subsampled'})")
    print(f"  shapes: A {batch.stream_a.shape}  B {batch.stream_b.shape}  C {batch.stream_c.shape}")
    pad = ~batch.mask
    print(f"  masked rows all-zero: {not batch.stream_a[pad].any()}")

# the C stream's last two columns are geometry, not raw keypoints
batch = assemble_streams(short, T=40, rng=np.random.default_rng(0))
dist_col, angle_col = batch.stream_c[:, 12], batch.stream_c[:, 13]
print(f"\nC stream geometry over time (first 5 frames):")
for t in range(5):
    print(f"  t={t}: distance={dist_col[t]:.4f} angle={angle_col[t]:+.4f} rad")

# geometry falls back to the last seen center when a hand drops out
centers = np.array([[(0.2, 0.3), (0.6, 0.7)], [(0.2, 0.3), (0.0, 0.0)]])
present = np.array([[True, True], [True, False]])  # right hand lost in frame 1
two = FeatureSequence(np.zeros((2, HAND_DIM)), np.zeros((2, ARM_DIM)), np.zeros((2, LIP_DIM)),
                      centers, present)
d1, d2 = assemble_streams(two, T=2).stream_c[:, 12]
print(f"\nboth hands: d={d1:.4f}  after losing one: d={d2:.4f} (reuses last center)")

# shrinking deletes random interior frames, deterministic under a seed
a = assemble_streams(long, T=40, rng=np.random.default_rng(1))
b = assemble_streams(long, T=40, rng=np.random.default_rng(1))
print(f"\n{len(long)} -> {int(a.mask.sum())} frames; "
      f"deterministic under a seed: {np.array_equal(a.stream_a, b.stream_a)}")
