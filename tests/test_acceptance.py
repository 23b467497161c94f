"""The eight release gates, one printed verdict line each.

Gates 4 and 6 share a module-scoped rig: the default synthetic dataset,
both fusion models trained for 30 epochs, and the fixed 2-layer ensemble
head trained on top. Everything else is formula-level or reduced-scale.
"""

import itertools
import json
import math
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from signrec.cli import main as cli_main
from signrec.decoder import DecodeConfig, WindowPrediction, accept_stream, decode
from signrec.ensemble_ga import (
    Chromosome,
    EnsembleClassifier,
    GAConfig,
    ensemble_train_config,
    fitness,
    mutate,
    random_chromosome,
    run_ga,
    train_ensemble,
    uniform_crossover,
)
from signrec.featurestore import build_sentences, generate_synthetic_dataset
from signrec.metrics import edit_errors, sentence_report
from signrec.model import (
    EarlyFusionConfig,
    LateFusionConfig,
    combined_loss,
    cosine_loss,
    cross_entropy,
    forward_batch,
    init_params,
    label_smooth,
    positional_encoding,
)
from signrec.train import AdamaxState, TrainConfig, adamax_step, evaluate, train_model

from test_model import grad_configs, run_gradcheck


@pytest.fixture
def verdict(capsys):
    """Emit one PASS/FAIL line per gate, outside pytest's capture."""

    def emit(n, name, ok, detail=""):
        line = f"[criterion {n}] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        with capsys.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
        assert ok, line

    return emit


def rel(got, want):
    return abs(got - want) / max(abs(got), abs(want), 1e-12)


@pytest.fixture(scope="module")
def rig():
    t0 = time.perf_counter()
    dataset = generate_synthetic_dataset(10, 10, 5, noise_sigma=0.05, seed=0)
    early = train_model(dataset, "early", TrainConfig(epochs=30, seed=1))
    late = train_model(dataset, "late", TrainConfig(epochs=30, seed=2))
    head = train_ensemble(
        early.params,
        late.params,
        Chromosome((2, 128, 64, 0, 0, 0, 0, 0, 0)),
        dataset,
        ensemble_train_config(epochs=1, seed=3, batch_size=1),
    )
    return SimpleNamespace(
        dataset=dataset,
        early=early,
        late=late,
        classifier=EnsembleClassifier(early.params, late.params, head.params),
        build_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------


def test_criterion_1_formula_exactness(verdict):
    t0 = time.perf_counter()
    rels = []

    pe = positional_encoding(7, 10)
    for t in range(7):
        for i in range(5):
            angle = t / 10000 ** (2 * i / 10)
            rels.append(rel(pe[t, 2 * i], math.sin(angle)))
            rels.append(rel(pe[t, 2 * i + 1], math.cos(angle)))

    smoothed = label_smooth(np.array([0.0, 0.0, 1.0, 0.0]), 0.15)
    for got, want in zip(smoothed, (0.0375, 0.0375, 0.8875, 0.0375)):
        rels.append(rel(got, want))

    probs = np.array([0.7, 0.2, 0.1])
    target = np.array([0.9, 0.05, 0.05])
    want_ce = -(0.9 * math.log(0.7) + 0.05 * math.log(0.2) + 0.05 * math.log(0.1))
    rels.append(rel(cross_entropy(probs, target), want_ce))
    # flooring at 1e-12 keeps an all-wrong prediction finite
    rels.append(rel(cross_entropy(np.array([1.0, 0.0]), np.array([0.0, 1.0])), -math.log(1e-12)))

    rels.append(rel(cosine_loss(np.array([1.0, 2.0, 2.0]), np.array([2.0, 1.0, 2.0])), -8.0 / 9.0))

    rels.append(rel(combined_loss(0.4, -0.9), 1.8 * 0.4 + 0.5 * (-0.9)))
    rels.append(rel(combined_loss(1.0, 1.0), 2.3))

    rels.append(rel(fitness(62.5), math.exp(25.0)))
    rels.append(rel(fitness(90.2), math.exp(90.2 / 2.5)))

    # three Adamax steps against a plain-float recurrence
    theta, m, u = 0.5, 0.0, 0.0
    lr, wd, b1, b2, eps = 0.002, 0.01, 0.9, 0.999, 1e-8
    tensors = {"w": np.array([0.5])}
    state = AdamaxState({"w": np.zeros(1)}, {"w": np.zeros(1)})
    for t, g in enumerate((0.3, -0.7, 0.05), start=1):
        m = b1 * m + (1 - b1) * g
        u = max(b2 * u, abs(g))
        theta = theta - lr * m / ((1 - b1**t) * (u + eps))
        theta = theta - lr * wd * theta
        tensors, state = adamax_step(tensors, {"w": np.array([g])}, state, t, lr, wd)
        rels.append(rel(tensors["w"][0], theta))
        rels.append(rel(state.m["w"][0], m))
        rels.append(rel(state.u["w"][0], u))

    worst = max(rels)
    elapsed = time.perf_counter() - t0
    verdict(1, "formula exactness", worst <= 1e-6, f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gradient_check(verdict):
    t0 = time.perf_counter()
    results = {}
    for arch, cfg in grad_configs().items():
        results[arch] = run_gradcheck(cfg, seed=0, coords_per_tensor=5)
    worst = max(w for w, _ in results.values())
    fewest = min(n for _, n in results.values())
    elapsed = time.perf_counter() - t0
    verdict(
        2,
        "gradient check",
        worst < 1e-3 and fewest >= 100 and elapsed < 60,
        f"worst rel {worst:.2e}, >= {fewest} coords/arch, {elapsed:.1f}s",
    )


def test_criterion_3_masking_invariance(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    configs = (LateFusionConfig(num_classes=5), EarlyFusionConfig(num_classes=5))
    for cfg in configs:
        params = init_params(cfg, np.random.default_rng(1))
        for _ in range(50):
            n = int(rng.integers(2, 5))
            T = int(rng.integers(6, 14))
            pad = int(rng.integers(1, 5))
            lengths = rng.integers(1, T + 1, size=n)
            mask = np.arange(T)[None, :] < lengths[:, None]
            streams = []
            for dim in (126, 120, 14):
                s = rng.normal(size=(n, T, dim)) * mask[..., None]
                streams.append(s)
            p1, e1 = forward_batch(params, *streams, mask)
            padded = [
                np.concatenate([s, np.zeros((n, pad, s.shape[2]))], axis=1) for s in streams
            ]
            mask2 = np.concatenate([mask, np.zeros((n, pad), dtype=bool)], axis=1)
            p2, e2 = forward_batch(params, *padded, mask2)
            worst = max(worst, float(np.abs(p1 - p2).max()), float(np.abs(e1 - e2).max()))
    elapsed = time.perf_counter() - t0
    verdict(
        3,
        "masking invariance",
        worst < 1e-5 and elapsed < 60,
        f"worst diff {worst:.2e} over 50 batches/arch, {elapsed:.1f}s",
    )


def test_criterion_4_synthetic_end_to_end(rig, verdict):
    t0 = time.perf_counter()
    test_records = rig.dataset.split("test")
    early_t1, _, _, _ = evaluate(rig.early.params, test_records)
    late_t1, _, _, _ = evaluate(rig.late.params, test_records)
    ens_t1, _, _, _ = evaluate(rig.classifier, test_records)
    elapsed = rig.build_seconds + time.perf_counter() - t0
    ok = (
        rig.early.val_top1 >= 0.85
        and rig.late.val_top1 >= 0.85
        and ens_t1 >= max(early_t1, late_t1) - 0.02
        and elapsed <= 900
    )
    verdict(
        4,
        "synthetic end-to-end",
        ok,
        f"val top1 early {rig.early.val_top1:.3f} late {rig.late.val_top1:.3f}, "
        f"test top1 ensemble {ens_t1:.3f} vs max base {max(early_t1, late_t1):.3f}, {elapsed:.0f}s",
    )


def test_criterion_5_ga_behavior(verdict):
    t0 = time.perf_counter()
    target = Chromosome((6, 310, 693, 465, 638, 513, 406, 0, 0))
    tgt = np.asarray(target.genes, dtype=float)

    def accuracy(c):
        return 100.0 - float(np.abs(np.asarray(c.genes, dtype=float) - tgt).mean())

    def shaped(c):  # select_parents needs positive mass, so reuse the exp shaping
        return math.exp(accuracy(c) / 2.5)

    elitism_ok = True
    ga_scores, rand_scores = [], []
    for seed in range(10):
        best, history = run_ga(shaped, GAConfig(population_size=20, generations=30, seed=seed))
        series = [row["best_fitness"] for row in history]
        elitism_ok = elitism_ok and all(a <= b for a, b in zip(series, series[1:]))
        ga_scores.append(accuracy(best))
        rng = np.random.default_rng(1000 + seed)
        rand_scores.append(max(accuracy(random_chromosome(rng)) for _ in range(20)))
    beats_random = float(np.median(ga_scores)) > float(np.median(rand_scores))

    rng = np.random.default_rng(7)
    cfg = GAConfig(layer_gene_mutation_rate=0.2, neuron_gene_mutation_rate=0.1)
    pool = [random_chromosome(rng) for _ in range(8)]
    closed = True
    for i in range(10_000):
        if i % 3 == 0:
            a, b = rng.integers(len(pool), size=2)
            c = uniform_crossover(pool[a], pool[b], rng)
        elif i % 3 == 1:
            c = mutate(pool[int(rng.integers(len(pool)))], cfg, rng)
        else:
            c = random_chromosome(rng)
        closed = closed and isinstance(c, Chromosome)  # constructor re-validates
        pool[int(rng.integers(len(pool)))] = c

    elapsed = time.perf_counter() - t0
    verdict(
        5,
        "GA behavior",
        elitism_ok and beats_random and closed and elapsed < 120,
        f"median acc GA {np.median(ga_scores):.2f} vs random {np.median(rand_scores):.2f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_continuous_decoding(rig, verdict):
    t0 = time.perf_counter()
    sentences = build_sentences(rig.dataset, count=20, rng=np.random.default_rng(0))
    config = DecodeConfig(window=40, step=5, threshold=0.2)
    decodes = [decode(rig.classifier, seq, config) for seq, _ in sentences]
    report = sentence_report(decodes, [ref for _, ref in sentences])
    avg_errors = report["average_total_errors"]

    def wp(word, conf=0.5):
        return WindowPrediction(0, word, conf)

    crafted = [
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
    ]
    traces_ok = all(accept_stream(stream)[0] == want for stream, want in crafted)

    elapsed = time.perf_counter() - t0
    verdict(
        6,
        "continuous decoding",
        avg_errors <= 1.0 and traces_ok and elapsed < 300,
        f"avg I+D+S {avg_errors:.2f} over 20 sentences, {len(crafted)} crafted traces, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_edit_distance_oracle(verdict):
    t0 = time.perf_counter()
    seqs = [tuple(s) for n in range(7) for s in itertools.product(range(3), repeat=n)]
    by_len = {0: np.zeros((1, 0), dtype=np.int64)}
    for m in range(1, 7):
        by_len[m] = np.array([s for s in seqs if len(s) == m], dtype=np.int64)

    def block_distances(ref, H):
        """Levenshtein distance of ref against every row of H, vectorized."""
        count, m = H.shape
        prev = np.tile(np.arange(m + 1, dtype=np.int64), (count, 1))
        for i in range(1, len(ref) + 1):
            cur = np.empty_like(prev)
            cur[:, 0] = i
            for j in range(1, m + 1):
                sub = prev[:, j - 1] + (H[:, j - 1] != ref[i - 1])
                cur[:, j] = np.minimum(np.minimum(sub, prev[:, j] + 1), cur[:, j - 1] + 1)
            prev = cur
        return prev[:, -1]

    def script_ball_distance(ref, hyp):
        """True exhaustive search: grow the edit ball around ref until hyp appears."""
        goal = tuple(hyp)
        ball = {tuple(ref)}
        edits = 0
        while goal not in ball:
            grown = set(ball)
            for seq in ball:
                for pos in range(len(seq) + 1):
                    for sym in range(3):
                        grown.add(seq[:pos] + (sym,) + seq[pos:])
                for pos in range(len(seq)):
                    grown.add(seq[:pos] + seq[pos + 1 :])
                    for sym in range(3):
                        grown.add(seq[:pos] + (sym,) + seq[pos + 1 :])
            ball = grown
            edits += 1
        return edits

    # the DP is the scalable oracle; pin it to exhaustive script search first
    short = [s for s in seqs if len(s) <= 2]
    dp_matches_search = all(
        script_ball_distance(r, h) == int(block_distances(r, by_len[len(h)])[_row(h)])
        for r in short
        for h in short
    )

    every_pair_ok = True
    invariant_ok = True
    for ref in seqs:
        want = {m: block_distances(ref, by_len[m]) for m in range(7)}
        row = {m: 0 for m in range(7)}
        for hyp in seqs:
            m = len(hyp)
            counts = edit_errors(ref, hyp)
            every_pair_ok = every_pair_ok and counts.total == int(want[m][row[m]])
            invariant_ok = invariant_ok and (
                counts.insertions - counts.deletions == m - len(ref)
            )
            row[m] += 1
    elapsed = time.perf_counter() - t0
    verdict(
        7,
        "edit-distance oracle",
        dp_matches_search and every_pair_ok and invariant_ok and elapsed < 60,
        f"{len(seqs) ** 2} pairs, {elapsed:.0f}s",
    )


def _row(hyp):
    """Index of hyp inside its fixed-length block (base-3 enumeration order)."""
    idx = 0
    for sym in hyp:
        idx = idx * 3 + sym
    return idx


def test_criterion_8_pipeline_determinism(tmp_path, verdict):
    t0 = time.perf_counter()

    def cli(*argv):
        return cli_main([str(a) for a in argv])

    def pipeline(root):
        data = root / "data"
        manifest = data / "manifest.json"
        codes = [
            cli("synth", "--classes", 4, "--per-class", 2, "--signers", 3,
                "--min-len", 8, "--max-len", 14, "--seed", 7, "--out", data),
            cli("train", "--data", manifest, "--arch", "late", "--epochs", 1,
                "--batch-size", 8, "--seed", 1, "--out", root / "late.ckpt"),
            cli("train", "--data", manifest, "--arch", "early", "--epochs", 1,
                "--batch-size", 8, "--seed", 2, "--out", root / "early.ckpt"),
            cli("ensemble", "--data", manifest, "--early", root / "early.ckpt",
                "--late", root / "late.ckpt", "--chromosome", "1,8", "--epochs", 1,
                "--seed", 3, "--out", root / "ens.ckpt"),
            cli("eval", "--data", manifest, "--model", root / "ens.ckpt",
                "--split", "test", "--out", root / "metrics.json"),
            cli("sentences", "--data", manifest, "--count", 3, "--seed", 0,
                "--out", root / "sent"),
            cli("decode", "--model", root / "ens.ckpt", "--sentences", root / "sent",
                "--out", root / "report.json"),
        ]
        assert codes == [0] * len(codes)
        return (root / "metrics.json").read_bytes(), (root / "report.json").read_bytes()

    m1, r1 = pipeline(tmp_path / "run1")
    m2, r2 = pipeline(tmp_path / "run2")
    # same seed, fresh directory: metric and report artifacts byte-identical
    identical = m1 == m2 and r1 == r2
    meaningful = json.loads(m1.decode())["count"] > 0
    elapsed = time.perf_counter() - t0
    verdict(8, "pipeline determinism", identical and meaningful, f"{elapsed:.0f}s")
