"""Shared fixtures: small synthetic datasets and downsized model configs.

Everything here is sized for speed. The full-scale end-to-end runs live in
test_acceptance.py with their own module-level fixtures.
"""

import tracemalloc

import numpy as np
import pytest

from signrec.featurestore import generate_synthetic_dataset
from signrec.model import EarlyFusionConfig, LateFusionConfig
from signrec.preprocess import StreamBatch

TINY_T = 12


@pytest.fixture(scope="session")
def tiny_dataset():
    # 4 classes x 3 signers x 3 records = 36 records, signer splits 0/1/2
    return generate_synthetic_dataset(
        4, 3, 3, length_range=(8, 14), noise_sigma=0.05, seed=7
    )


@pytest.fixture(scope="session")
def eval_dataset():
    # wider class count for the Monte Carlo top-k checks
    return generate_synthetic_dataset(
        10, 2, 3, length_range=(8, 14), noise_sigma=0.05, seed=11
    )


@pytest.fixture
def tiny_late_config():
    return LateFusionConfig(
        num_classes=4,
        d_a=8,
        d_b=8,
        d_c=8,
        ffn_a=8,
        ffn_b=8,
        ffn_c=8,
        ffn_fused=16,
        heads=2,
        dropout_rate=0.1,
    )


@pytest.fixture
def tiny_early_config():
    return EarlyFusionConfig(
        num_classes=4, d_model=16, ffn_width=16, heads=2, dropout_rate=0.1
    )


def random_stream_batch(rng, n=2, T=8, pad=2):
    """Random (A,B,C,mask) arrays with `pad` masked trailing rows per item."""
    a = rng.standard_normal((n, T, 126))
    b = rng.standard_normal((n, T, 120))
    c = rng.standard_normal((n, T, 14))
    mask = np.ones((n, T), dtype=bool)
    if pad:
        mask[:, T - pad :] = False
        a[~mask] = 0.0
        b[~mask] = 0.0
        c[~mask] = 0.0
    return a, b, c, mask


class RowwiseModel:
    """Fake model for the probs protocol: fn(StreamBatch) -> (K,) applied row by row."""

    def __init__(self, fn):
        self.fn = fn

    def probs(self, A, B, C, mask):
        return np.stack([self.fn(StreamBatch(*row)) for row in zip(A, B, C, mask)])


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the tracemalloc peak in bytes of what it allocated)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak
