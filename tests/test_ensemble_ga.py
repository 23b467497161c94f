"""Chromosome algebra, GA operators, and the frozen-base ensemble head."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from signrec.errors import ConfigurationError, InvalidChromosomeError, SelectionError
from signrec.ensemble_ga import (
    ENSEMBLE_LR,
    ENSEMBLE_WD,
    Chromosome,
    EnsembleClassifier,
    EnsembleParams,
    GAConfig,
    ensemble_forward,
    ensemble_train_config,
    fitness,
    init_ensemble_params,
    load_ensemble,
    make_ensemble_fitness,
    mutate,
    random_chromosome,
    run_ga,
    save_ensemble,
    select_parents,
    train_ensemble,
    uniform_crossover,
    _fit_head,
)
from signrec.model import LateFusionConfig, EarlyFusionConfig, init_params
from signrec.preprocess import StreamBatch, assemble_streams, stack_batches
from signrec.train import EVAL_SEED, evaluate, split_probabilities
from conftest import TINY_T, random_stream_batch, traced_peak


def chrom(*genes):
    padded = tuple(genes) + (0,) * (9 - len(genes))
    return Chromosome(padded)


# ---------------------------------------------------------------------------
# chromosomes


def test_decode_chromosome():
    assert list(chrom(6, 310, 693, 465, 638, 513, 406).widths) == [
        310, 693, 465, 638, 513, 406,
    ]
    assert list(chrom(1, 5).widths) == [5]


def test_chromosome_validation():
    with pytest.raises(InvalidChromosomeError):
        chrom(2, 5, 7, 3)  # nonzero gene beyond the layer count
    with pytest.raises(InvalidChromosomeError):
        chrom(0, 5)
    with pytest.raises(InvalidChromosomeError):
        chrom(9, 1, 1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(InvalidChromosomeError):
        chrom(1, 757)
    with pytest.raises(InvalidChromosomeError):
        chrom(2, 5, 0)  # zero width inside the active range
    with pytest.raises(InvalidChromosomeError):
        Chromosome((1, 5, 0, 0))
    with pytest.raises(ValueError):
        chrom(1, 8.7)  # not truncated to 8
    assert chrom(1, 8.0).genes == chrom(1, 8).genes


def test_fitness_examples():
    npt.assert_allclose(fitness(0.0), 1.0, rtol=1e-12)
    npt.assert_allclose(fitness(2.5), math.e, rtol=1e-12)
    npt.assert_allclose(fitness(90.2), math.exp(36.08), rtol=1e-12)
    # strictly monotone, so fitness-argmax equals accuracy-argmax
    rng = np.random.default_rng(0)
    for _ in range(20):
        accs = rng.random(6) * 100
        assert np.argmax([fitness(a) for a in accs]) == np.argmax(accs)


# ---------------------------------------------------------------------------
# GA operators


def test_select_parents_single_member():
    rng = np.random.default_rng(1)
    only = chrom(1, 5)
    parents = select_parents([only], [2.0], 4, rng)
    assert parents == [only] * 4


def test_select_parents_roulette_frequencies():
    rng = np.random.default_rng(2)
    pop = [chrom(1, 1), chrom(1, 2)]
    draws = select_parents(pop, [3.0, 1.0], 100_000, rng)
    freq = sum(1 for p in draws if p is pop[0]) / 100_000
    band = 3.0 * math.sqrt(0.75 * 0.25 / 100_000)
    assert abs(freq - 0.75) < band


def test_select_parents_errors():
    rng = np.random.default_rng(3)
    pop = [chrom(1, 1), chrom(1, 2)]
    with pytest.raises(SelectionError):
        select_parents(pop, [0.0, 0.0], 2, rng)
    with pytest.raises(SelectionError):
        select_parents(pop, [1.0, -1.0], 2, rng)
    with pytest.raises(SelectionError):
        select_parents(pop, [1.0], 2, rng)


def test_crossover_identical_parents_fixed_point():
    rng = np.random.default_rng(4)
    p = chrom(3, 10, 20, 30)
    for _ in range(10):
        assert uniform_crossover(p, p, rng).genes == p.genes


def test_crossover_mixed_lengths():
    # p1 L=3 (a,b,c), p2 L=5 (d,e,f,g,h): a long child copies the tail
    p1 = chrom(3, 101, 102, 103)
    p2 = chrom(5, 201, 202, 203, 204, 205)
    rng = np.random.default_rng(5)
    seen_long = seen_short = False
    for _ in range(200):
        child = uniform_crossover(p1, p2, rng)
        L = child.genes[0]
        assert L in (3, 5)
        for pos in range(1, L + 1):
            if pos <= 3:
                assert child.genes[pos] in (p1.genes[pos], p2.genes[pos])
            else:
                assert child.genes[pos] == p2.genes[pos]
        if L == 5:
            seen_long = True
        else:
            seen_short = True
    assert seen_long and seen_short


def test_mutate_elite_and_zero_rates():
    rng = np.random.default_rng(6)
    cfg = GAConfig(layer_gene_mutation_rate=1.0, neuron_gene_mutation_rate=1.0, seed=0)
    c = chrom(4, 9, 8, 7, 6)
    assert mutate(c, cfg, rng, is_elite=True).genes == c.genes
    quiet = GAConfig(layer_gene_mutation_rate=0.0, neuron_gene_mutation_rate=0.0, seed=0)
    assert mutate(c, quiet, rng).genes == c.genes


def test_mutate_layer_increase_fills_new_positions():
    cfg = GAConfig(layer_gene_mutation_rate=1.0, neuron_gene_mutation_rate=0.0, seed=0)
    base = chrom(3, 11, 12, 13)
    for seed in range(200):
        out = mutate(base, cfg, np.random.default_rng(seed))
        L = out.genes[0]
        if L > 3:
            assert out.genes[1:4] == (11, 12, 13)
            assert all(1 <= g <= 756 for g in out.genes[4 : L + 1])
            assert all(g == 0 for g in out.genes[L + 1 :])
            break
        if L < 3:
            assert out.genes[1 : L + 1] == (11, 12, 13)[:L]
            assert all(g == 0 for g in out.genes[L + 1 :])
    else:
        pytest.fail("layer mutation never increased the layer count")


def test_operator_closure_property():
    # constructors re-validate, so surviving 10^4 applications means validity
    rng = np.random.default_rng(7)
    cfg = GAConfig(layer_gene_mutation_rate=0.2, neuron_gene_mutation_rate=0.1, seed=0)
    pool = [random_chromosome(rng) for _ in range(8)]
    for i in range(10_000):
        op = i % 3
        if op == 0:
            a, b = rng.integers(len(pool), size=2)
            c = uniform_crossover(pool[a], pool[b], rng)
        elif op == 1:
            c = mutate(pool[int(rng.integers(len(pool)))], cfg, rng)
        else:
            c = random_chromosome(rng)
        assert isinstance(c, Chromosome)
        pool[int(rng.integers(len(pool)))] = c


# ---------------------------------------------------------------------------
# the GA driver


def mock_accuracy(target):
    t = np.asarray(target.genes, dtype=float)
    return lambda c: 100.0 - float(np.abs(np.asarray(c.genes, dtype=float) - t).mean())


def mean_gap_fitness(target):
    # the score can dip below zero, so route it through the exponential
    # shaping exactly as a real accuracy would be (same formula as fitness())
    acc = mock_accuracy(target)
    return lambda c: math.exp(acc(c) / 2.5)


def test_run_ga_constant_fitness():
    best, history = run_ga(
        lambda c: 1.0,
        GAConfig(population_size=6, generations=5, parents_per_generation=3, seed=0),
    )
    assert isinstance(best, Chromosome)
    assert [h["generation"] for h in history] == [1, 2, 3, 4, 5]
    assert all(h["best_fitness"] == 1.0 for h in history)


def test_run_ga_elitism_monotone():
    target = chrom(4, 400, 300, 200, 100)
    for seed in range(4):
        cfg = GAConfig(population_size=10, generations=12, parents_per_generation=5, seed=seed)
        _, history = run_ga(mean_gap_fitness(target), cfg)
        tops = [h["best_fitness"] for h in history]
        assert all(b >= a for a, b in zip(tops, tops[1:]))
        assert set(history[0]) == {
            "generation", "best_fitness", "best_chromosome", "population_mean_fitness",
        }


def test_run_ga_beats_random_search():
    target = chrom(6, 310, 693, 465, 638, 513, 406)
    fn = mean_gap_fitness(target)
    acc = mock_accuracy(target)
    ga_scores, rand_scores = [], []
    for seed in range(10):
        cfg = GAConfig(population_size=20, generations=30, seed=seed)
        best, _ = run_ga(fn, cfg)
        ga_scores.append(acc(best))
        rng = np.random.default_rng(1000 + seed)
        rand_scores.append(max(acc(random_chromosome(rng)) for _ in range(20)))
    assert np.median(ga_scores) > np.median(rand_scores)


# ---------------------------------------------------------------------------
# ensemble head


def test_ensemble_forward_simplex_and_shapes():
    rng = np.random.default_rng(8)
    params = init_ensemble_params(chrom(2, 16, 8), num_classes=101, rng=rng)
    e = rng.random(101)
    l = rng.random(101)
    out = ensemble_forward(e / e.sum(), l / l.sum(), params)
    assert out.shape == (101,)
    assert (out >= 0).all()
    npt.assert_allclose(out.sum(), 1.0, atol=1e-9)
    with pytest.raises(ConfigurationError):
        ensemble_forward(np.full(7, 1 / 7), np.full(101, 1 / 101), params)


def test_ensemble_forward_routing_weights():
    # hand-built head that forwards the late-fusion half of the concat
    k = 5
    h0 = np.zeros((2 * k, k))
    h0[k:, :] = np.eye(k)
    params = EnsembleParams(
        chrom(1, k),
        k,
        {
            "h0.W": h0,
            "h0.b": np.zeros(k),
            "out.W": 50.0 * np.eye(k),
            "out.b": np.zeros(k),
        },
    )
    rng = np.random.default_rng(9)
    for _ in range(20):
        e, l = rng.random((2, k)) + 1e-6
        out = ensemble_forward(e / e.sum(), l / l.sum(), params)
        assert np.argmax(out) == np.argmax(l)


def tiny_bases(dataset):
    late = LateFusionConfig(
        num_classes=4, d_a=8, d_b=8, d_c=8, ffn_a=8, ffn_b=8, ffn_c=8,
        ffn_fused=16, heads=2, dropout_rate=0.1,
    )
    early = EarlyFusionConfig(num_classes=4, d_model=16, ffn_width=16, heads=2)
    return (
        init_params(early, np.random.default_rng(20)),
        init_params(late, np.random.default_rng(21)),
    )


def head_config(**overrides):
    fields = dict(epochs=2, seed=5, batch_size=8, sequence_length=TINY_T)
    fields.update(overrides)
    return ensemble_train_config(**fields)


def test_ensemble_train_config_defaults():
    cfg = ensemble_train_config(epochs=3)
    assert cfg.learning_rate == ENSEMBLE_LR == 0.0015
    assert cfg.weight_decay == ENSEMBLE_WD == 0.0004
    assert cfg.epochs == 3


def test_train_ensemble_freezes_bases(tiny_dataset):
    early, late = tiny_bases(tiny_dataset)
    before = {
        "e": {k: v.copy() for k, v in early.tensors.items()},
        "l": {k: v.copy() for k, v in late.tensors.items()},
    }
    ck = train_ensemble(early, late, chrom(2, 12, 8), tiny_dataset, head_config())
    for k, v in early.tensors.items():
        npt.assert_array_equal(v, before["e"][k])
    for k, v in late.tensors.items():
        npt.assert_array_equal(v, before["l"][k])
    assert set(ck.params.tensors) == {"h0.W", "h0.b", "h1.W", "h1.b", "out.W", "out.b"}
    assert 0.0 <= ck.val_top1 <= 1.0


def test_train_ensemble_single_epoch_and_determinism(tiny_dataset):
    early, late = tiny_bases(tiny_dataset)
    ck1 = train_ensemble(early, late, chrom(1, 6), tiny_dataset, head_config(epochs=1))
    assert ck1.epoch == 1
    ck2 = train_ensemble(early, late, chrom(1, 6), tiny_dataset, head_config(epochs=1))
    for name in ck1.params.tensors:
        npt.assert_array_equal(ck1.params.tensors[name], ck2.params.tensors[name])


def test_fit_head_peak_memory():
    # One epoch of a wide 8-layer head. Its weights, the two Adamax moments,
    # one step's gradients and Adamax's two temporaries of the largest tensor
    # measured 4.28x the float64 weight bytes; holding the previous step's
    # gradients through the next step and the best copy measured 5.19x.
    k = 10
    rng = np.random.default_rng(0)
    x_train, x_val = (rng.dirichlet(np.ones(k), size=(n, 2)).reshape(n, 2 * k) for n in (60, 20))
    y_train, y_val = rng.integers(k, size=60), rng.integers(k, size=20)
    chromosome = chrom(8, *[400] * 8)
    weights = init_ensemble_params(chromosome, k, rng).tensors
    _, peak = traced_peak(
        _fit_head, chromosome, k, x_train, y_train, x_val, y_val, ensemble_train_config(epochs=1)
    )
    assert peak < 4.7 * sum(w.nbytes for w in weights.values())


def test_train_ensemble_log_agrees_with_checkpoint(tmp_path, tiny_dataset):
    early, late = tiny_bases(tiny_dataset)
    log = tmp_path / "head.jsonl"
    ck = train_ensemble(
        early, late, chrom(2, 12, 8), tiny_dataset, head_config(epochs=4), log_path=log
    )
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["epoch"] for r in rows] == [1, 2, 3, 4]
    assert all(set(r) == {"epoch", "train_loss", "val_top1", "val_top5", "seconds"} for r in rows)
    tops = [r["val_top1"] for r in rows]
    assert ck.epoch == tops.index(max(tops)) + 1  # earliest epoch wins ties
    kept = rows[ck.epoch - 1]
    assert (ck.val_top1, ck.val_top5) == (kept["val_top1"], kept["val_top5"])


def test_train_ensemble_class_count_mismatch(tiny_dataset):
    early, _ = tiny_bases(tiny_dataset)
    other = init_params(
        LateFusionConfig(num_classes=5, d_a=8, d_b=8, d_c=8, ffn_a=8, ffn_b=8,
                         ffn_c=8, ffn_fused=16, heads=2),
        np.random.default_rng(22),
    )
    with pytest.raises(ConfigurationError):
        train_ensemble(early, other, chrom(1, 6), tiny_dataset, head_config())


def test_ensemble_classifier_and_checkpoint_roundtrip(tmp_path, tiny_dataset):
    early, late = tiny_bases(tiny_dataset)
    ck = train_ensemble(early, late, chrom(2, 12, 8), tiny_dataset, head_config())
    clf = EnsembleClassifier(early, late, ck.params)
    records = tiny_dataset.split("test")
    top1, top5, confusion, _ = evaluate(clf, records, T=TINY_T)
    assert 0.0 <= top1 <= top5 <= 1.0

    path = tmp_path / "ens.ckpt"
    save_ensemble(path, clf, meta={"note": "tiny"})
    back, meta = load_ensemble(path)
    assert meta["note"] == "tiny"
    rng = np.random.default_rng(23)
    a, b, c, mask = random_stream_batch(rng, n=1, T=TINY_T, pad=2)
    sb = StreamBatch(a[0], b[0], c[0], mask[0])
    # f32 checkpoint quantization shifts probabilities a hair
    npt.assert_allclose(back(sb), clf(sb), atol=1e-5)


def test_loaded_ensemble_serves_float32_and_matches_offline_scoring(tmp_path, tiny_dataset):
    early, late = tiny_bases(tiny_dataset)
    head = init_ensemble_params(chrom(2, 12, 8), 4, np.random.default_rng(26))
    path = tmp_path / "ens.ckpt"
    save_ensemble(path, EnsembleClassifier(early, late, head))
    clf, _ = load_ensemble(path)
    for part in (clf.early, clf.late, clf.head):
        assert all(t.dtype == np.float32 for t in part.tensors.values())

    # online: one record per call; offline: batches of 32 per base model, then
    # the head row by row. Both thread the evaluation rng over the same records.
    records = tiny_dataset.sequences
    rng = np.random.default_rng(EVAL_SEED)
    online = np.stack([clf(assemble_streams(r, TINY_T, rng)) for r in records])
    pe = split_probabilities(clf.early, records, TINY_T, batch_size=32)
    pl = split_probabilities(clf.late, records, TINY_T, batch_size=32)
    offline = np.stack([ensemble_forward(e, l, clf.head) for e, l in zip(pe, pl)])
    assert online.dtype == offline.dtype == np.float32
    assert online.tobytes() == offline.tobytes()


def test_loaded_ensemble_rows_do_not_depend_on_the_batch(tmp_path, tiny_dataset):
    # (2, 128, 64) is the served head. At these widths a float32 2-D GEMM over
    # 32 rows gives some rows other bits than a one-row GEMM; the tiny (2, 12, 8)
    # head above hides that.
    early, late = tiny_bases(tiny_dataset)
    head = init_ensemble_params(chrom(2, 128, 64), 4, np.random.default_rng(26))
    path = tmp_path / "ens.ckpt"
    save_ensemble(path, EnsembleClassifier(early, late, head))
    clf, _ = load_ensemble(path)
    rng = np.random.default_rng(EVAL_SEED)
    sbs = [assemble_streams(r, TINY_T, rng) for r in tiny_dataset.sequences[:32]]
    batched = clf.probs(*stack_batches(sbs))
    rows = np.stack([clf(sb) for sb in sbs])
    assert batched.dtype == rows.dtype == np.float32
    assert batched.tobytes() == rows.tobytes()


def test_load_ensemble_rejects_single_model(tmp_path, tiny_dataset):
    from signrec.model import save_model

    early, _ = tiny_bases(tiny_dataset)
    path = tmp_path / "single.ckpt"
    save_model(path, early)
    with pytest.raises(ConfigurationError):
        load_ensemble(path)


def test_make_ensemble_fitness_memoizes(tiny_dataset):
    early, late = tiny_bases(tiny_dataset)
    fn = make_ensemble_fitness(
        tiny_dataset, early, late, budget_epochs=1, seed=2, T=TINY_T
    )
    c = chrom(1, 6)
    first = fn(c)
    assert first == fn(Chromosome(c.genes))
    assert first >= 1.0  # exp of a percentage is at least e^0


def test_ensemble_probs_match_row_by_row(tiny_dataset):
    early, late = tiny_bases(tiny_dataset)
    head = init_ensemble_params(chrom(2, 12, 8), 4, np.random.default_rng(24))
    clf = EnsembleClassifier(early, late, head)
    a, b, c, mask = random_stream_batch(np.random.default_rng(25), n=5, T=TINY_T, pad=0)
    for i, real in enumerate((TINY_T, 1, 7, TINY_T - 1, 3)):  # mixed padding
        mask[i, real:] = False
        for s in (a, b, c):
            s[i, real:] = 0.0
    batched = clf.probs(a, b, c, mask)
    rows = np.stack([clf(StreamBatch(*row)) for row in zip(a, b, c, mask)])
    assert batched.shape == (5, 4)
    npt.assert_allclose(batched, rows, rtol=0, atol=1e-12)


def test_fitness_equals_train_ensemble(tiny_dataset):
    early, late = tiny_bases(tiny_dataset)
    fn = make_ensemble_fitness(
        tiny_dataset, early, late, budget_epochs=3, seed=4, T=TINY_T, batch_size=5
    )
    for c in (chrom(1, 6), chrom(2, 300, 300)):  # the wide head is sensitive to every setting
        config = ensemble_train_config(3, 4, batch_size=5, sequence_length=TINY_T)
        head = train_ensemble(early, late, c, tiny_dataset, config)
        assert fn(c) == fitness(100 * head.val_top1)
