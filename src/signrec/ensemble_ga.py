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

from .errors import ConfigurationError, FormatError, InvalidChromosomeError, SelectionError
from .featurestore import Dataset
from .model import (
    ModelParams,
    _check_types,
    check_tensors,
    config_from_json,
    init_tensors,
    label_smooth,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
)
from .preprocess import DEFAULT_T, StreamBatch, stack_batches
from .train import Checkpoint, TrainConfig, _fit_epochs, split_probabilities

GENE_COUNT = 9
MAX_LAYERS = 8
MAX_NEURONS = 756

ENSEMBLE_LR = 0.0015
ENSEMBLE_WD = 0.0004


def _gene(g) -> int:
    """int(g), but a ValueError (as int("a") raises) for a number that is not integral."""
    if isinstance(g, (float, np.floating)) and not float(g).is_integer():
        raise ValueError(f"gene {g!r} is not an integer")
    return int(g)


@dataclass(frozen=True)
class Chromosome:
    genes: tuple[int, ...]

    def __post_init__(self):
        genes = tuple(_gene(g) for g in self.genes)
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
        _check_types(self)
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


def _head_shapes(chromosome: Chromosome, num_classes: int) -> dict[str, tuple[int, ...]]:
    dims = [2 * num_classes, *chromosome.widths, num_classes]
    names = [f"h{i}" for i in range(chromosome.layer_count)] + ["out"]
    shapes: dict[str, tuple[int, ...]] = {}
    for name, d_in, d_out in zip(names, dims, dims[1:]):
        shapes[f"{name}.W"] = (d_in, d_out)
        shapes[f"{name}.b"] = (d_out,)
    return shapes


def init_ensemble_params(
    chromosome: Chromosome, num_classes: int, rng: np.random.Generator
) -> EnsembleParams:
    """Glorot-uniform weights and zero biases for the head a chromosome encodes."""
    tensors = init_tensors(_head_shapes(chromosome, num_classes), rng)
    return EnsembleParams(chromosome, num_classes, tensors)


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
    dlogits = probs * (dprobs - (dprobs * probs).sum(-1, keepdims=True))
    grads = {"out.W": last_h.T @ dlogits, "out.b": dlogits.sum(0)}
    dh = dlogits @ params.tensors["out.W"].T
    for i in reversed(range(params.chromosome.layer_count)):
        h_in, z = cache[i]
        dz = dh * (z > 0.0)
        grads[f"h{i}.W"] = h_in.T @ dz
        grads[f"h{i}.b"] = dz.sum(0)
        dh = dz @ params.tensors[f"h{i}.W"].T
    return grads


def ensemble_forward(
    class_probs_early: np.ndarray, class_probs_late: np.ndarray, params: EnsembleParams
) -> np.ndarray:
    """Fused class distribution from the two base distributions.

    Runs in the dtype the inputs and head tensors promote to, as
    EnsembleClassifier.probs does.
    """
    pe = np.asarray(class_probs_early)
    pl = np.asarray(class_probs_late)
    if pe.shape != (params.num_classes,) or pl.shape != (params.num_classes,):
        raise ConfigurationError(
            f"expected two {params.num_classes}-class distributions, got {pe.shape} and {pl.shape}"
        )
    probs, _, _ = _head_forward(params, np.concatenate([pe, pl])[None])
    return probs[0]


@dataclass
class EnsembleClassifier:
    """Frozen base models plus the trained head."""

    early: ModelParams
    late: ModelParams
    head: EnsembleParams

    def probs(self, A, B, C, mask) -> np.ndarray:
        """(N,K) fused class probabilities.

        The head runs one row at a time, as ensemble_forward does: a 2-D GEMM's
        per-row sums depend on how many rows share it, so a row gives the same
        bits in any batch. Head training keeps the whole-batch GEMM.
        """
        pe = self.early.probs(A, B, C, mask)
        pl = self.late.probs(A, B, C, mask)
        x = np.concatenate([pe, pl], axis=1)
        return np.concatenate([_head_forward(self.head, x[i : i + 1])[0] for i in range(len(x))])

    def __call__(self, sb: StreamBatch) -> np.ndarray:
        return self.probs(*stack_batches([sb]))[0]


def _head_inputs(early: ModelParams, late: ModelParams, dataset: Dataset, T: int, batch_size: int):
    """(x_train, y_train, x_val, y_val): the bases' (N,2K) outputs and the labels per split."""
    k = dataset.num_classes
    if early.config.num_classes != k or late.config.num_classes != k:
        raise ConfigurationError("base models and dataset disagree on class count")
    splits = (dataset.split("train"), dataset.split("val"))
    if not all(splits):
        raise ConfigurationError("ensemble training needs nonempty train and val splits")
    out = []
    for records in splits:
        pe = split_probabilities(early, records, T, batch_size)
        pl = split_probabilities(late, records, T, batch_size)
        out += [np.concatenate([pe, pl], axis=1), np.asarray([r.label_id for r in records])]
    return out


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
    inputs = _head_inputs(frozen_early, frozen_late, dataset, config.sequence_length, config.batch_size)
    return _fit_head(chromosome, dataset.num_classes, *inputs, config, log_path)


def _fit_head(
    chromosome, k, x_train, y_train, x_val, y_val, config: TrainConfig, log_path=None
) -> Checkpoint:
    """Adamax on label-smoothed cross-entropy over precomputed (N,2K) base outputs.

    Checkpoint selection and the per-epoch log are _fit_epochs'.
    """
    init_rng, shuffle_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(2)
    )
    params = init_ensemble_params(chromosome, k, init_rng)
    eye = np.eye(k)

    def batch_loss(params, chunk):
        targets = label_smooth(eye[y_train[chunk]], config.label_smoothing)
        probs, last_h, cache = _head_forward(params, x_train[chunk], need_cache=True)
        clamped = np.maximum(probs, 1e-12)
        loss = float(-(targets * np.log(clamped)).mean(0).sum())
        dprobs = np.where(probs > 1e-12, -targets / clamped, 0.0) / len(chunk)
        return loss, _head_backward(params, probs, last_h, cache, dprobs)

    return _fit_epochs(
        params, len(x_train), batch_loss, lambda params: _head_forward(params, x_val)[0],
        y_val, config, shuffle_rng, log_path,
    )


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
    """Fitness for the GA: exp(val% / 2.5) of the head that train_ensemble
    gives under ensemble_train_config(budget_epochs, seed, batch_size=batch_size).

    Base-model outputs are computed once up front and shared across all
    candidate evaluations; results are memoized per chromosome so the elite
    is not retrained every generation. The returned function is deterministic.
    """
    inputs = _head_inputs(frozen_early, frozen_late, dataset, T, batch_size)
    config = ensemble_train_config(budget_epochs, seed, batch_size=batch_size)
    memo: dict[tuple[int, ...], float] = {}

    def fitness_fn(chromosome: Chromosome) -> float:
        key = chromosome.genes
        if key not in memo:
            head = _fit_head(chromosome, dataset.num_classes, *inputs, config)
            memo[key] = fitness(100.0 * head.val_top1)
        return memo[key]

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
    return _build_ensemble(path, config_doc, tensors), meta


def _build_ensemble(path, config_doc: dict, tensors: dict[str, np.ndarray]) -> EnsembleClassifier:
    """EnsembleClassifier from a parsed checkpoint, tensors checked against the config."""
    if config_doc.get("arch") != "ensemble":
        raise ConfigurationError(f"{path} is not an ensemble checkpoint")
    groups: dict[str, dict[str, np.ndarray]] = {"early": {}, "late": {}, "head": {}}
    for name, arr in tensors.items():
        prefix, _, rest = name.partition(".")
        if prefix not in groups:
            raise FormatError(f"{path}: unknown tensor {name!r} in ensemble checkpoint")
        groups[prefix][rest] = arr
    try:
        early_cfg = config_from_json(config_doc["early"])
        late_cfg = config_from_json(config_doc["late"])
        chromosome = Chromosome(tuple(config_doc["chromosome"]))
        k = config_doc["num_classes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad ensemble config: {exc!r}") from exc
    if isinstance(k, bool) or not isinstance(k, int):
        raise FormatError(f"{path}: num_classes must be an integer, got {k!r}")
    if early_cfg.num_classes != k or late_cfg.num_classes != k:
        raise FormatError(f"{path}: base models and head disagree on class count")
    check_tensors(path, groups["early"], param_shapes(early_cfg))
    check_tensors(path, groups["late"], param_shapes(late_cfg))
    check_tensors(path, groups["head"], _head_shapes(chromosome, k))
    early = ModelParams(early_cfg, groups["early"])
    late = ModelParams(late_cfg, groups["late"])
    return EnsembleClassifier(early, late, EnsembleParams(chromosome, k, groups["head"]))
