"""Frozen-base ensemble head and the genetic search over its structure.

The ensemble concatenates the class probabilities of the trained early- and
late-fusion models into a 2K vector and passes it through a small dense ReLU
stack whose depth and widths are encoded by a 9-gene chromosome: gene 0 is
the layer count L in [1,8], genes 1..L are widths in [1,756], and genes
beyond L are exactly zero. A generational GA (roulette selection, uniform
crossover, low-rate mutation, single elite, occasional random immigrant)
searches that space with a reduced-epoch training run as the fitness signal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    FormatError,
    InvalidChromosomeError,
    SelectionError,
    TrainingDivergenceError,
)
from .featurestore import Dataset
from .metrics import topk_accuracy
from .model import (
    ModelParams,
    config_from_json,
    label_smooth,
    load_checkpoint,
    save_checkpoint,
)
from .preprocess import DEFAULT_T, StreamBatch
from .train import AdamaxState, Checkpoint, TrainConfig, adamax_step, probability_fn, split_probabilities

GENE_COUNT = 9
MAX_LAYERS = 8
MAX_NEURONS = 756

ENSEMBLE_LR = 0.0015
ENSEMBLE_WD = 0.0004


@dataclass(frozen=True)
class Chromosome:
    genes: tuple[int, ...]

    def __post_init__(self):
        genes = tuple(int(g) for g in self.genes)
        object.__setattr__(self, "genes", genes)
        if len(genes) != GENE_COUNT:
            raise InvalidChromosomeError(f"need {GENE_COUNT} genes, got {len(genes)}")
        layers = genes[0]
        if not (1 <= layers <= MAX_LAYERS):
            raise InvalidChromosomeError(f"layer gene {layers} outside [1,{MAX_LAYERS}]")
        for pos in range(1, GENE_COUNT):
            g = genes[pos]
            if pos <= layers:
                if not (1 <= g <= MAX_NEURONS):
                    raise InvalidChromosomeError(
                        f"gene {pos} = {g} outside [1,{MAX_NEURONS}] for an active layer"
                    )
            elif g != 0:
                raise InvalidChromosomeError(f"gene {pos} = {g} must be zero beyond layer {layers}")

    @property
    def layer_count(self) -> int:
        return self.genes[0]

    @property
    def widths(self) -> tuple[int, ...]:
        return self.genes[1 : 1 + self.layer_count]


def decode_chromosome(c) -> list[int]:
    """Active layer widths, genes 1..L in order."""
    if not isinstance(c, Chromosome):
        c = Chromosome(tuple(c))
    return list(c.widths)


def random_chromosome(rng: np.random.Generator) -> Chromosome:
    layers = int(rng.integers(1, MAX_LAYERS + 1))
    genes = [layers] + [0] * (GENE_COUNT - 1)
    for pos in range(1, layers + 1):
        genes[pos] = int(rng.integers(1, MAX_NEURONS + 1))
    return Chromosome(tuple(genes))


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 20
    generations: int = 30
    parents_per_generation: int = 10
    layer_gene_mutation_rate: float = 0.005
    neuron_gene_mutation_rate: float = 0.001
    immigrant_probability: float = 0.08
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2 or self.generations < 1:
            raise ConfigurationError("population_size >= 2 and generations >= 1 required")
        if not (1 <= self.parents_per_generation <= self.population_size):
            raise ConfigurationError("parents_per_generation must be in [1, population_size]")
        for r in (
            self.layer_gene_mutation_rate,
            self.neuron_gene_mutation_rate,
            self.immigrant_probability,
        ):
            if not (0.0 <= r <= 1.0):
                raise ConfigurationError(f"rate {r} outside [0,1]")


def fitness(val_top1_percent: float) -> float:
    """f = exp(accuracy / 2.5), accuracy in percent for meaningful shaping."""
    return float(np.exp(val_top1_percent / 2.5))


def select_parents(
    population: Sequence[Chromosome],
    fitnesses: Sequence[float],
    n: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> list[Chromosome]:
    """n independent roulette draws with replacement, P(i) = f_i / sum f."""
    rng = rng if rng is not None else np.random.default_rng()
    fits = np.asarray(fitnesses, dtype=np.float64)
    if len(fits) != len(population):
        raise SelectionError("population and fitnesses are misaligned")
    if np.any(fits < 0.0):
        raise SelectionError("fitness values must be non-negative")
    total = fits.sum()
    if total <= 0.0:
        raise SelectionError("cannot select from all-zero fitness")
    idx = rng.choice(len(fits), size=n, replace=True, p=fits / total)
    return [population[int(i)] for i in idx]


def uniform_crossover(p1: Chromosome, p2: Chromosome, rng: np.random.Generator) -> Chromosome:
    """Child layer count from either parent; per-position genes picked or copied.

    For positions up to the child's layer count, both parents nonzero means a
    fair coin between them, exactly one nonzero means a copy. At least one is
    always nonzero there since the position is active in the longer parent.
    """
    layers = int((p1.genes[0], p2.genes[0])[rng.integers(2)])
    genes = [layers] + [0] * (GENE_COUNT - 1)
    for pos in range(1, layers + 1):
        g1, g2 = p1.genes[pos], p2.genes[pos]
        if g1 and g2:
            genes[pos] = (g1, g2)[rng.integers(2)]
        else:
            genes[pos] = g1 or g2
    return Chromosome(tuple(genes))


def mutate(
    c: Chromosome, config: GAConfig, rng: np.random.Generator, is_elite: bool = False
) -> Chromosome:
    """Per-gene redraw at the configured rates; the elite is never mutated.

    A layer-count increase fills the newly active positions with fresh random
    widths; a decrease zeroes the trailing genes.
    """
    if is_elite:
        return c
    old_layers = c.genes[0]
    new_layers = old_layers
    if rng.random() < config.layer_gene_mutation_rate:
        new_layers = int(rng.integers(1, MAX_LAYERS + 1))
    genes = list(c.genes)
    for pos in range(1, old_layers + 1):
        if rng.random() < config.neuron_gene_mutation_rate:
            genes[pos] = int(rng.integers(1, MAX_NEURONS + 1))
    genes[0] = new_layers
    if new_layers > old_layers:
        for pos in range(old_layers + 1, new_layers + 1):
            genes[pos] = int(rng.integers(1, MAX_NEURONS + 1))
    elif new_layers < old_layers:
        for pos in range(new_layers + 1, GENE_COUNT):
            genes[pos] = 0
    return Chromosome(tuple(genes))


def run_ga(
    fitness_fn: Callable[[Chromosome], float], config: GAConfig
) -> tuple[Chromosome, list[dict]]:
    """Generational loop: evaluate, keep elite, select, cross, mutate, immigrate.

    fitness_fn must be a deterministic function of the chromosome (elitism
    guarantees monotone best fitness only under that assumption). The random
    immigrant, when drawn, takes over one child slot; the elite is never
    displaced. History holds one record per generation.
    """
    rng = np.random.default_rng(config.seed)
    population = [random_chromosome(rng) for _ in range(config.population_size)]
    best_c: Optional[Chromosome] = None
    best_f = -np.inf
    history: list[dict] = []
    for generation in range(1, config.generations + 1):
        fits = [float(fitness_fn(c)) for c in population]
        gen_best = int(np.argmax(fits))
        history.append(
            {
                "generation": generation,
                "best_fitness": fits[gen_best],
                "best_chromosome": list(population[gen_best].genes),
                "population_mean_fitness": float(np.mean(fits)),
            }
        )
        if fits[gen_best] > best_f:
            best_f = fits[gen_best]
            best_c = population[gen_best]
        if generation == config.generations:
            break
        elite = population[gen_best]
        parents = select_parents(population, fits, config.parents_per_generation, rng)
        children = []
        for _ in range(config.population_size - 1):
            pa = parents[int(rng.integers(len(parents)))]
            pb = parents[int(rng.integers(len(parents)))]
            children.append(uniform_crossover(pa, pb, rng))
        children = [mutate(ch, config, rng) for ch in children]
        if rng.random() < config.immigrant_probability:
            children[-1] = random_chromosome(rng)
        population = [elite] + children
    return best_c, history


def write_ga_history(history: list[dict], path) -> None:
    with open(path, "w") as fh:
        for entry in history:
            fh.write(json.dumps(entry) + "\n")


# ---------------------------------------------------------------------------
# Ensemble head


@dataclass
class EnsembleParams:
    """Dense-stack weights decoded from a chromosome: 2K -> widths -> K."""

    chromosome: Chromosome
    num_classes: int
    tensors: dict[str, np.ndarray]

    def copy(self) -> "EnsembleParams":
        return EnsembleParams(self.chromosome, self.num_classes, {k: v.copy() for k, v in self.tensors.items()})


def init_ensemble_params(
    chromosome: Chromosome, num_classes: int, rng: np.random.Generator
) -> EnsembleParams:
    widths = list(chromosome.widths)
    dims = [2 * num_classes] + widths + [num_classes]
    t: dict[str, np.ndarray] = {}
    for i in range(len(widths)):
        lim = np.sqrt(6.0 / (dims[i] + dims[i + 1]))
        t[f"h{i}.W"] = rng.uniform(-lim, lim, (dims[i], dims[i + 1]))
        t[f"h{i}.b"] = np.zeros(dims[i + 1])
    lim = np.sqrt(6.0 / (dims[-2] + dims[-1]))
    t["out.W"] = rng.uniform(-lim, lim, (dims[-2], dims[-1]))
    t["out.b"] = np.zeros(dims[-1])
    return EnsembleParams(chromosome, num_classes, t)


def _head_forward(params: EnsembleParams, x: np.ndarray, need_cache: bool = False):
    if x.shape[-1] != params.tensors["h0.W"].shape[0]:
        raise ConfigurationError(
            f"input width {x.shape[-1]} does not match head input {params.tensors['h0.W'].shape[0]}"
        )
    h = x
    cache = [] if need_cache else None
    for i in range(params.chromosome.layer_count):
        z = h @ params.tensors[f"h{i}.W"] + params.tensors[f"h{i}.b"]
        if need_cache:
            cache.append((h, z))
        h = np.maximum(z, 0.0)
    logits = h @ params.tensors["out.W"] + params.tensors["out.b"]
    shifted = logits - logits.max(-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(-1, keepdims=True)
    return probs, h, cache


def _head_backward(params: EnsembleParams, probs, last_h, cache, dprobs):
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    dlogits = probs * (dprobs - (dprobs * probs).sum(-1, keepdims=True))
    grads["out.W"] += last_h.T @ dlogits
    grads["out.b"] += dlogits.sum(0)
    dh = dlogits @ params.tensors["out.W"].T
    for i in reversed(range(params.chromosome.layer_count)):
        h_in, z = cache[i]
        dz = dh * (z > 0.0)
        grads[f"h{i}.W"] += h_in.T @ dz
        grads[f"h{i}.b"] += dz.sum(0)
        dh = dz @ params.tensors[f"h{i}.W"].T
    return grads


def ensemble_forward(
    class_probs_early: np.ndarray, class_probs_late: np.ndarray, params: EnsembleParams
) -> np.ndarray:
    """Fused class distribution from the two base distributions."""
    pe = np.asarray(class_probs_early, dtype=np.float64)
    pl = np.asarray(class_probs_late, dtype=np.float64)
    if pe.shape != (params.num_classes,) or pl.shape != (params.num_classes,):
        raise ConfigurationError(
            f"expected two {params.num_classes}-class distributions, got {pe.shape} and {pl.shape}"
        )
    probs, _, _ = _head_forward(params, np.concatenate([pe, pl])[None])
    return probs[0]


@dataclass
class EnsembleClassifier:
    """Frozen base models plus the trained head; callable on a StreamBatch."""

    early: ModelParams
    late: ModelParams
    head: EnsembleParams

    def __call__(self, sb: StreamBatch) -> np.ndarray:
        pe = probability_fn(self.early)(sb)
        pl = probability_fn(self.late)(sb)
        return ensemble_forward(pe, pl, self.head)


def _stacked_inputs(early, late, records, T, batch_size):
    pe = split_probabilities(early, records, T, batch_size)
    pl = split_probabilities(late, records, T, batch_size)
    return np.concatenate([pe, pl], axis=1)


def train_ensemble(
    frozen_early: ModelParams,
    frozen_late: ModelParams,
    chromosome: Chromosome,
    dataset: Dataset,
    config: TrainConfig,
    log_path=None,
) -> Checkpoint:
    """Train the dense head on cached base-model outputs; bases stay frozen.

    Base class probabilities for the train and val splits are precomputed
    once with the fixed evaluation seed, then the head alone is optimized
    with Adamax on label-smoothed cross-entropy. Returns the checkpoint with
    the best validation Top-1 (earliest epoch on ties).
    """
    train_recs = dataset.split("train")
    val_recs = dataset.split("val")
    if not train_recs or not val_recs:
        raise ConfigurationError("ensemble training needs nonempty train and val splits")
    k = dataset.num_classes
    if frozen_early.config.num_classes != k or frozen_late.config.num_classes != k:
        raise ConfigurationError("base models and dataset disagree on class count")

    T = config.sequence_length
    x_train = _stacked_inputs(frozen_early, frozen_late, train_recs, T, config.batch_size)
    x_val = _stacked_inputs(frozen_early, frozen_late, val_recs, T, config.batch_size)
    y_train = np.asarray([r.label_id for r in train_recs])
    y_val = np.asarray([r.label_id for r in val_recs])

    init_rng, shuffle_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(2)
    )
    params = init_ensemble_params(chromosome, k, init_rng)
    state = AdamaxState.zeros(params.tensors)
    eye = np.eye(k)

    best: Optional[Checkpoint] = None
    log_fh = open(log_path, "w") if log_path is not None else None
    try:
        step = 0
        for epoch in range(1, config.epochs + 1):
            order = shuffle_rng.permutation(len(x_train))
            losses = []
            for i in range(0, len(order), config.batch_size):
                chunk = order[i : i + config.batch_size]
                targets = label_smooth(eye[y_train[chunk]], config.label_smoothing)
                probs, last_h, cache = _head_forward(params, x_train[chunk], need_cache=True)
                clamped = np.maximum(probs, 1e-12)
                loss = float(-(targets * np.log(clamped)).mean(0).sum())
                if not np.isfinite(loss):
                    raise TrainingDivergenceError(f"non-finite ensemble loss at epoch {epoch}")
                dprobs = np.where(probs > 1e-12, -targets / clamped, 0.0) / len(chunk)
                grads = _head_backward(params, probs, last_h, cache, dprobs)
                step += 1
                params.tensors, state = adamax_step(
                    params.tensors, grads, state, step, config.learning_rate, config.weight_decay
                )
                losses.append(loss)
            val_probs, _, _ = _head_forward(params, x_val)
            val_top1 = topk_accuracy(val_probs, y_val, 1)
            val_top5 = topk_accuracy(val_probs, y_val, 5)
            if log_fh is not None:
                entry = {
                    "epoch": epoch,
                    "train_loss": float(np.mean(losses)),
                    "val_top1": val_top1,
                    "val_top5": val_top5,
                }
                log_fh.write(json.dumps(entry) + "\n")
            if best is None or val_top1 > best.val_top1:
                best = Checkpoint(params.copy(), epoch, val_top1, val_top5)
    finally:
        if log_fh is not None:
            log_fh.close()
    return best


def ensemble_train_config(epochs: int, seed: int = 0, **overrides) -> TrainConfig:
    """TrainConfig with the ensemble-stage optimizer settings."""
    base = dict(learning_rate=ENSEMBLE_LR, weight_decay=ENSEMBLE_WD, epochs=epochs, seed=seed)
    base.update(overrides)
    return TrainConfig(**base)


def make_ensemble_fitness(
    dataset: Dataset,
    frozen_early: ModelParams,
    frozen_late: ModelParams,
    budget_epochs: int = 10,
    seed: int = 0,
    T: int = DEFAULT_T,
    batch_size: int = 32,
) -> Callable[[Chromosome], float]:
    """Fitness for the GA: reduced-epoch head training, exp(val% / 2.5).

    Base-model outputs are computed once up front and shared across all
    candidate evaluations; results are memoized per chromosome so the elite
    is not retrained every generation. The returned function is deterministic.
    """
    train_recs = dataset.split("train")
    val_recs = dataset.split("val")
    if not train_recs or not val_recs:
        raise ConfigurationError("fitness evaluation needs nonempty train and val splits")
    k = dataset.num_classes
    x_train = _stacked_inputs(frozen_early, frozen_late, train_recs, T, batch_size)
    x_val = _stacked_inputs(frozen_early, frozen_late, val_recs, T, batch_size)
    y_train = np.asarray([r.label_id for r in train_recs])
    y_val = np.asarray([r.label_id for r in val_recs])
    eye = np.eye(k)
    memo: dict[tuple[int, ...], float] = {}

    def fitness_fn(chromosome: Chromosome) -> float:
        key = chromosome.genes
        if key in memo:
            return memo[key]
        init_rng, shuffle_rng = (
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
        )
        params = init_ensemble_params(chromosome, k, init_rng)
        state = AdamaxState.zeros(params.tensors)
        step = 0
        best_top1 = 0.0
        for _ in range(budget_epochs):
            order = shuffle_rng.permutation(len(x_train))
            for i in range(0, len(order), batch_size):
                chunk = order[i : i + batch_size]
                targets = label_smooth(eye[y_train[chunk]])
                probs, last_h, cache = _head_forward(params, x_train[chunk], need_cache=True)
                dprobs = np.where(probs > 1e-12, -targets / np.maximum(probs, 1e-12), 0.0) / len(chunk)
                grads = _head_backward(params, probs, last_h, cache, dprobs)
                step += 1
                params.tensors, state = adamax_step(
                    params.tensors, grads, state, step, ENSEMBLE_LR, ENSEMBLE_WD
                )
            val_probs, _, _ = _head_forward(params, x_val)
            best_top1 = max(best_top1, topk_accuracy(val_probs, y_val, 1))
        result = fitness(100.0 * best_top1)
        memo[key] = result
        return result

    return fitness_fn


# ---------------------------------------------------------------------------
# Ensemble checkpoint bundling (bases + head in one file)


def save_ensemble(path, classifier: EnsembleClassifier, meta: Optional[dict] = None) -> None:
    tensors: dict[str, np.ndarray] = {}
    for prefix, part in (("early", classifier.early), ("late", classifier.late)):
        for name, arr in part.tensors.items():
            tensors[f"{prefix}.{name}"] = arr
    for name, arr in classifier.head.tensors.items():
        tensors[f"head.{name}"] = arr
    config_doc = {
        "arch": "ensemble",
        "num_classes": classifier.head.num_classes,
        "chromosome": list(classifier.head.chromosome.genes),
        "early": classifier.early.config.to_json(),
        "late": classifier.late.config.to_json(),
    }
    save_checkpoint(path, config_doc, tensors, meta or {})


def load_ensemble(path) -> tuple[EnsembleClassifier, dict]:
    config_doc, tensors, meta = load_checkpoint(path)
    if config_doc.get("arch") != "ensemble":
        raise ConfigurationError(f"{path} is not an ensemble checkpoint")
    groups: dict[str, dict[str, np.ndarray]] = {"early": {}, "late": {}, "head": {}}
    for name, arr in tensors.items():
        prefix, _, rest = name.partition(".")
        if prefix not in groups:
            raise FormatError(f"{path}: unknown tensor {name!r} in ensemble checkpoint")
        groups[prefix][rest] = arr
    early = ModelParams(config_from_json(config_doc["early"]), groups["early"])
    late = ModelParams(config_from_json(config_doc["late"]), groups["late"])
    head = EnsembleParams(
        Chromosome(tuple(config_doc["chromosome"])), int(config_doc["num_classes"]), groups["head"]
    )
    return EnsembleClassifier(early, late, head), meta
