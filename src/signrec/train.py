"""Adamax optimizer, the training loop, checkpoint selection, evaluation.

Training is deterministic for a given (dataset, config, seed): the seed is
split into independent streams for parameter init, epoch shuffling, random
frame deletion, and dropout. Validation always normalizes lengths with a
fixed seed so the selection metric is reproducible.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, TrainingDivergenceError
from .featurestore import Dataset, FeatureSequence
from .metrics import confusion_matrix, topk_accuracy
from .model import (
    _ARCH_CONFIGS,
    ModelConfig,
    ModelParams,
    _check_types,
    init_params,
    label_smooth,
    loss_and_grads,
)
from .preprocess import DEFAULT_T, assemble_streams, stack_batches

# Fixed seed for evaluation-time length normalization; never used for training.
EVAL_SEED = 9973


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.0012
    weight_decay: float = 0.0001
    epochs: int = 30
    batch_size: int = 32
    label_smoothing: float = 0.15
    loss_weights: tuple[float, float] = (1.8, 0.5)  # (class, embedding)
    seed: int = 0
    stream_toggles: tuple[bool, bool, bool] = (True, True, True)
    sequence_length: int = DEFAULT_T

    def __post_init__(self):
        _check_types(self)
        if self.learning_rate <= 0.0:
            raise ConfigurationError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1 or self.sequence_length < 1:
            raise ConfigurationError("epochs, batch_size and sequence_length must be >= 1")
        if not any(self.stream_toggles):
            raise ConfigurationError("at least one stream must stay enabled")


@dataclass
class Checkpoint:
    """Best-validation snapshot of a training run."""

    params: Any
    epoch: int
    val_top1: float
    val_top5: float

    def __post_init__(self):
        for v in (self.val_top1, self.val_top5):
            if not (0.0 <= v <= 1.0):
                raise ConfigurationError(f"metric {v} outside [0,1]")


@dataclass
class AdamaxState:
    m: dict[str, np.ndarray]
    u: dict[str, np.ndarray]

    @staticmethod
    def zeros(tensors: dict[str, np.ndarray]) -> "AdamaxState":
        return AdamaxState(
            {k: np.zeros_like(v) for k, v in tensors.items()},
            {k: np.zeros_like(v) for k, v in tensors.items()},
        )


def adamax_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamaxState,
    t: int,
    lr: float,
    wd: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[dict[str, np.ndarray], AdamaxState]:
    """One Adamax update with decoupled weight decay, in place.

    m <- b1 m + (1-b1) g; u <- max(b2 u, |g|);
    theta <- theta - lr m / ((1 - b1^t)(u + eps)); then theta <- theta (1 - lr wd).

    Every array of `tensors`, `state.m` and `state.u` is overwritten, so the
    caller owns them and they must be writable; the return is the caller's
    own (tensors, state). Every gradient is checked for finiteness before any
    array is touched, so a TrainingDivergenceError leaves them all as they were.
    """
    if t < 1:
        raise ConfigurationError("step counter t must be >= 1")
    for name in tensors:
        if not np.all(np.isfinite(grads[name])):
            raise TrainingDivergenceError(f"non-finite gradient in {name}")
    bias = 1.0 - beta1**t
    for name, theta in tensors.items():
        g, m, u = grads[name], state.m[name], state.u[name]
        m *= beta1
        m += (1.0 - beta1) * g
        u *= beta2
        np.maximum(u, np.abs(g), out=u)
        step = u + eps
        step *= bias
        np.divide(lr * m, step, out=step)
        theta -= step
        if wd != 0.0:
            theta -= lr * wd * theta
    return tensors, state


# ---------------------------------------------------------------------------
# Prediction over record lists. A model is anything with a batched
# probs(A, B, C, mask) -> (N,K) method: ModelParams or EnsembleClassifier.
# Stream toggles zero the switched-off streams where stack_batches stacks a batch.


def split_probabilities(
    model,
    records: Sequence[FeatureSequence],
    T: int = DEFAULT_T,
    batch_size: int = 32,
    toggles: tuple[bool, bool, bool] = (True, True, True),
) -> np.ndarray:
    """Deterministic (N,K) class probabilities for a list of records.

    Length normalization is driven by the fixed evaluation seed, threaded
    over the records in order, so repeated calls agree bit for bit. Each
    batch is assembled only when it is scored, so memory does not grow with
    the number of records.
    """
    rng = np.random.default_rng(EVAL_SEED)
    return np.concatenate(
        [
            model.probs(
                *stack_batches(
                    [assemble_streams(r, T, rng) for r in records[i : i + batch_size]], toggles
                )
            )
            for i in range(0, len(records), batch_size)
        ]
    )


def evaluate(
    model,
    split: Sequence[FeatureSequence],
    T: int = DEFAULT_T,
    toggles: tuple[bool, bool, bool] = (True, True, True),
) -> tuple[float, float, np.ndarray, float]:
    """(top1, top5, confusion matrix, mean latency per record in seconds).

    Records are scored by split_probabilities in batches of 32, so the
    latency is per record amortized over those batches, stream assembly
    included; length normalization uses the fixed evaluation seed.
    """
    records = list(split)
    if not records:
        raise ValueError("evaluate needs a nonempty split")
    if any(r.label_id is None for r in records):
        raise ValueError("evaluate needs labeled records")
    labels = np.asarray([r.label_id for r in records])
    start = time.perf_counter()
    probs = split_probabilities(model, records, T, toggles=toggles)
    latency = (time.perf_counter() - start) / len(records)
    top1 = topk_accuracy(probs, labels, 1)
    top5 = topk_accuracy(probs, labels, 5)
    preds = probs.argmax(axis=1)
    conf = confusion_matrix(preds, labels, probs.shape[1])
    return top1, top5, conf, latency


# ---------------------------------------------------------------------------
# Training loop


def _default_model_config(arch: str, num_classes: int) -> ModelConfig:
    if arch not in _ARCH_CONFIGS:
        raise ConfigurationError(f"unknown architecture {arch!r} (expected 'early' or 'late')")
    return _ARCH_CONFIGS[arch](num_classes=num_classes)


def _fit_epochs(
    params, n, batch_loss, val_probs, val_labels, config, shuffle_rng, log_path=None, verbose=False
) -> Checkpoint:
    """Adamax on batch_loss(params, chunk) -> (loss, grads) over shuffled chunks of range(n).

    adamax_step updates params.tensors and the optimizer state in place, so
    params must own writable arrays. Each epoch scores val_probs(params)
    against val_labels and appends one JSON line to the optional log, with
    the epoch's wall time in seconds. Returns the checkpoint with the best
    validation Top-1, earliest epoch on ties, holding a copy of that epoch's
    weights. A step's gradients are dropped once Adamax has applied them, so
    neither the next step, the validation pass nor the best copy holds them.
    """
    state = AdamaxState.zeros(params.tensors)
    best: Optional[Checkpoint] = None
    step = 0
    with open(log_path, "w") if log_path is not None else contextlib.nullcontext() as log_fh:
        for epoch in range(1, config.epochs + 1):
            start = time.perf_counter()
            order = shuffle_rng.permutation(n)
            losses = []
            for i in range(0, n, config.batch_size):
                loss, grads = batch_loss(params, order[i : i + config.batch_size])
                if not np.isfinite(loss):
                    raise TrainingDivergenceError(f"non-finite loss at epoch {epoch}")
                step += 1
                adamax_step(
                    params.tensors, grads, state, step, config.learning_rate, config.weight_decay
                )
                del grads
                losses.append(loss)
            probs = val_probs(params)
            val_top1 = topk_accuracy(probs, val_labels, 1)
            val_top5 = topk_accuracy(probs, val_labels, 5)
            entry = {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "val_top1": val_top1,
                "val_top5": val_top5,
                "seconds": time.perf_counter() - start,
            }
            if log_fh is not None:
                log_fh.write(json.dumps(entry) + "\n")
            if verbose:
                print(
                    f"epoch {epoch:3d}  loss {entry['train_loss']:.4f}  "
                    f"val top1 {val_top1:.3f}  top5 {val_top5:.3f}",
                    file=sys.stderr,
                )
            if best is None or val_top1 > best.val_top1:
                best = Checkpoint(params.copy(), epoch, val_top1, val_top5)
    return best


def train_model(
    dataset: Dataset,
    arch: str,
    config: TrainConfig,
    model_config: Optional[ModelConfig] = None,
    log_path=None,
    verbose: bool = False,
) -> Checkpoint:
    """Mini-batch Adamax training; returns the best-validation checkpoint.

    The combined loss is loss_weights[0] * label-smoothed cross-entropy plus
    loss_weights[1] * negative cosine similarity to the class word vector.
    Mixed precision: the master weights and the Adamax state stay float64.
    Each step casts the masters to float32 once, loss_and_grads runs on that
    copy, and Adamax applies its float32 gradients to the masters in place
    (the masters are this function's own writable arrays).
    Validation scores the float32 cast, and the checkpoint holds the float32
    cast of the best weights: the bytes save_model writes and a loaded model
    serves. Checkpoint selection and the per-epoch log are _fit_epochs'.
    """
    train_recs = dataset.split("train")
    val_recs = dataset.split("val")
    if not train_recs or not val_recs:
        raise ConfigurationError("training needs nonempty train and val splits")
    k = dataset.num_classes
    if len(dataset.embeddings) < k:
        raise ConfigurationError("embedding table does not cover all classes")
    if model_config is None:
        model_config = _default_model_config(arch, k)
    elif model_config.arch != arch:
        raise ConfigurationError(f"model config is {model_config.arch!r}, requested {arch!r}")

    seeds = np.random.SeedSequence(config.seed).spawn(4)
    init_rng, shuffle_rng, augment_rng, dropout_rng = (np.random.default_rng(s) for s in seeds)
    params = init_params(model_config, init_rng)

    labels = np.asarray([r.label_id for r in train_recs])
    eye = np.eye(k)
    emb = dataset.embeddings.vectors
    T = config.sequence_length
    cw, ew = config.loss_weights

    def batch_loss(params, chunk):
        sbs = [assemble_streams(train_recs[j], T, augment_rng) for j in chunk]
        a, b, c, m = stack_batches(sbs, config.stream_toggles)
        targets = label_smooth(eye[labels[chunk]], config.label_smoothing)
        return loss_and_grads(
            _float32(params), a, b, c, m, targets, emb[labels[chunk]],
            class_weight=cw, embed_weight=ew, rng=dropout_rng,
        )[:2]

    def val_probs(params):
        return split_probabilities(
            _float32(params), val_recs, T, config.batch_size, config.stream_toggles
        )

    val_labels = np.asarray([r.label_id for r in val_recs])
    best = _fit_epochs(
        params, len(train_recs), batch_loss, val_probs, val_labels, config, shuffle_rng,
        log_path, verbose,
    )
    best.params = _float32(best.params)
    return best


def _float32(params: ModelParams) -> ModelParams:
    """The float32 cast of a model's (float64 master) weights."""
    return ModelParams(params.config, {k: v.astype(np.float32) for k, v in params.tensors.items()})
