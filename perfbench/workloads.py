"""The signrec benchmark workloads: word, decode and fit.

Each workload has a set-up step, a list of phases (streams of requests run as
a closed loop with one client) and an evaluation that turns the phase outputs
into metrics, output checks and a digest of its predictions. ``run`` drives a
workload either untraced, timing set-up several times and each phase for its
share of the run, or traced, replaying a fixed request list once untraced and
once under a Tracer.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from signrec import decoder as dec
from signrec import ensemble_ga as ens
from signrec import featurestore as fs
from signrec import metrics as met
from signrec import model as mdl
from signrec import preprocess as pp
from signrec import train as tr

from tracing import Tracer, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".bench_build" / "perfbench"
RUN_PY = Path(__file__).resolve().parent / "run.py"

HEAD = ens.Chromosome((2, 128, 64, 0, 0, 0, 0, 0, 0))
DECODE = dec.DecodeConfig(window=40, step=5, threshold=0.2)
T = pp.DEFAULT_T
OFFLINE_BATCH = 32
MAX_PROB_DIFF = 1e-9
EPOCHS = 1  # base-model epochs, served and fit; one already reaches val top1 1.0
ROUNDS = 12  # an untraced run is cut into this many rounds, each opening with a set-up


@dataclass(frozen=True)
class Scale:
    """Input and model sizes. ``full`` is the benchmark; ``tiny`` is the smoke test."""

    name: str
    # served model: generator (classes, records per signer and class, signers), seed 0
    classes: int
    per_signer_class: int
    signers: int
    early: dict
    late: dict
    # decode: a sentence takes words until it spans this many frames (2-5 words)
    min_sentence_frames: int
    sentence_pool: int
    fixed_sentences: int  # digest prefix and traced request count
    # fit: generator records per signer and class (seeded by the workload seed)
    fit_per_signer_class: int
    ga_population: int
    ga_generations: int
    head_epochs: int
    # output checks
    min_top1: float
    max_wer: float


SCALES = {
    "full": Scale(
        "full", classes=10, per_signer_class=10, signers=5, early={}, late={},
        min_sentence_frames=140, sentence_pool=240, fixed_sentences=24,
        fit_per_signer_class=2, ga_population=4, ga_generations=2, head_epochs=10,
        min_top1=0.9, max_wer=0.25,
    ),
    "tiny": Scale(
        "tiny", classes=4, per_signer_class=2, signers=3,
        early=dict(d_model=16, ffn_width=16, heads=2),
        late=dict(d_a=8, d_b=8, d_c=8, ffn_a=8, ffn_b=8, ffn_c=8, ffn_fused=16, heads=2),
        min_sentence_frames=80, sentence_pool=6, fixed_sentences=2,
        fit_per_signer_class=2, ga_population=2, ga_generations=1, head_epochs=1,
        min_top1=0.0, max_wer=float("inf"),
    ),
}


def source_key(*config) -> str:
    """Hash of the program sources and ``config``: names cached models and digests."""
    h = hashlib.sha256(repr(config).encode())
    for path in sorted((ROOT / "src" / "signrec").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def model_configs(scale: Scale, num_classes: int):
    return (
        mdl.EarlyFusionConfig(num_classes=num_classes, **scale.early),
        mdl.LateFusionConfig(num_classes=num_classes, **scale.late),
    )


# ---------------------------------------------------------------------------
# Served model, built once per checkout and source version


def serving_dir(scale: Scale) -> Path:
    recipe = (scale.classes, scale.per_signer_class, scale.signers, EPOCHS, scale.early, scale.late)
    return CACHE / f"serving-{scale.name}-{source_key(recipe)}"


def build_serving(scale: Scale) -> None:
    """Train the served ensemble on the seed-0 dataset and store it with the data.

    Follows the documented recipe: early and late bases for a fixed epoch
    count, then the fixed (2,128,64) head for one epoch at batch size 1.
    """
    out = serving_dir(scale)
    if (out / "model.ckpt").exists():
        return
    t0 = time.perf_counter()
    tmp = out.with_name(f"{out.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    ds = fs.generate_synthetic_dataset(scale.classes, scale.per_signer_class, scale.signers, seed=0)
    fs.write_dataset(ds, tmp / "data")
    early_cfg, late_cfg = model_configs(scale, ds.num_classes)
    early = tr.train_model(ds, "early", tr.TrainConfig(epochs=EPOCHS, seed=1), early_cfg)
    late = tr.train_model(ds, "late", tr.TrainConfig(epochs=EPOCHS, seed=2), late_cfg)
    head = ens.train_ensemble(
        early.params, late.params, HEAD, ds, ens.ensemble_train_config(epochs=1, seed=3, batch_size=1)
    )
    meta = {
        "val_top1": {"early": early.val_top1, "late": late.val_top1, "head": head.val_top1},
        "build_s": time.perf_counter() - t0,
    }
    clf = ens.EnsembleClassifier(early.params, late.params, head.params)
    ens.save_ensemble(tmp / "model.ckpt", clf, meta)
    try:
        os.replace(tmp, out)
    except OSError:  # another run finished the same build first
        shutil.rmtree(tmp, ignore_errors=True)


def ensure_serving(scale: Scale) -> Path:
    """Build the served model in a child process (so its memory stays out of ours)."""
    out = serving_dir(scale)
    if not (out / "model.ckpt").exists():
        subprocess.run(
            [sys.executable, str(RUN_PY), "--build", "--scale", scale.name],
            check=True, stdout=sys.stderr,
        )
    return out


# ---------------------------------------------------------------------------
# Closed-loop phases


@dataclass
class Phase:
    latencies: list = field(default_factory=list)  # seconds, successful requests only
    outputs: list = field(default_factory=list)  # None where the request failed
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0  # time spent inside requests, failed ones included


@dataclass
class PhaseSpec:
    name: str
    stream: Callable[[object], Callable[[int], object]]  # state -> (request index -> output)
    share: float  # of the request time of an untraced run
    min_count: int  # untraced runs at least this many requests
    fixed_count: int  # requests replayed by a traced run


class Client:
    """One closed-loop client: sends request i only after request i-1 returned.

    It can be run in slices; the request index and the phase it records
    carry over from one slice to the next. A request that raises is counted
    as failed and the loop goes on.
    """

    def __init__(self, request, tracer=None, name=""):
        self.request = request
        self.tracer = tracer
        self.name = name
        self.phase = Phase()
        self.budget = 0.0  # seconds of request time granted so far

    def send(self) -> None:
        ph = self.phase
        i = ph.attempted
        if self.tracer is not None:
            self.tracer.request = f"{self.name}:{i}"
        t0 = time.perf_counter()
        try:
            out = self.request(i)
        except Exception:
            out = None
            ph.failed += 1
            if ph.failed <= 3:
                traceback.print_exc(file=sys.stderr)
        else:
            ph.latencies.append(time.perf_counter() - t0)
        ph.wall += time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.request = None
        ph.outputs.append(out)
        ph.attempted += 1

    def run(self, count: int) -> Phase:
        while self.phase.attempted < count:
            self.send()
        return self.phase

    def spend(self, seconds: float) -> None:
        """Grant ``seconds`` more request time; send while a request of average length fits."""
        self.budget += seconds
        ph = self.phase
        while ph.wall + (ph.wall / ph.attempted if ph.attempted else 0.0) <= self.budget:
            self.send()


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


def latency_metrics(latencies: list) -> dict:
    """Median, mean and p90 latency, and how many samples lie beyond the p90.

    The mean is the one BENCHMARK.json gates next to the p90. On a shared
    host the speed of a request flips between a fast and a slow state about
    once a second, so per-request latencies mix two modes. The median of
    such a mix jumps between the modes as the share of fast time moves from
    run to run; the mean moves only in proportion to that share.
    """
    ms = np.asarray(latencies) * 1e3
    n = len(ms)
    if n == 0:  # every request failed; the failure checks report it
        ms = np.asarray([float("nan")])
    p90 = float(np.percentile(ms, 90))
    return {
        "latency_ms_p50": Metric(float(np.percentile(ms, 50)), "ms", n),
        "latency_ms_mean": Metric(float(np.mean(ms)), "ms", n),
        "latency_ms_p90": Metric(p90, "ms", n),
        "latency_p90_beyond": Metric(int((ms > p90).sum()), "count", n),
    }


def rate(amounts, seconds) -> float:
    """Work completed per second: total work over the total time it took."""
    return float(np.sum(amounts) / np.sum(seconds))


@dataclass
class Evaluation:
    report: dict  # issue metric name -> Metric, printed
    gated: dict  # BENCHMARK.json end-to-end name -> Metric
    checks: list  # (description, passed)
    digest_payload: object  # deterministic prefix of the predictions


# ---------------------------------------------------------------------------
# Served workloads: word and decode


@dataclass
class Serving:
    seed: int
    clf: ens.EnsembleClassifier
    paths: list  # test-signer record files
    labels: list
    records: list  # the same records, in memory
    workdir: Path
    orders: dict = field(default_factory=dict)
    sentences: list = field(default_factory=list)  # (path, reference, frames)

    def order(self, p: int) -> np.ndarray:
        """Seeded visiting order of the test records for pass p."""
        if p not in self.orders:
            self.orders[p] = np.random.default_rng([self.seed, p]).permutation(len(self.paths))
        return self.orders[p]


def setup_serving(scale: Scale, seed: int, workdir: Path) -> Serving:
    base = serving_dir(scale)
    clf, _ = ens.load_ensemble(base / "model.ckpt")
    manifest = fs.DatasetManifest.load(base / "data" / "manifest.json")
    entries = [e for e in manifest.records if e.split == "test"]
    paths = [base / "data" / e.path for e in entries]
    records = [fs.load_record(p) for p in paths]
    return Serving(seed, clf, paths, [e.label_id for e in entries], records, workdir)


class WordOnline:
    """Request i: read one record, assemble its streams, classify, argmax.

    Each pass visits every test record once in a seeded order, with the
    length-normalization rng threaded from EVAL_SEED across the pass exactly
    as split_probabilities threads it, so both phases see the same frames.
    """

    def __init__(self, st: Serving):
        self.st = st
        self.rng = None

    def __call__(self, i: int):
        n = len(self.st.paths)
        if i % n == 0:
            self.rng = np.random.default_rng(tr.EVAL_SEED)
        idx = int(self.st.order(i // n)[i % n])
        seq = fs.load_record(self.st.paths[idx])
        probs = self.st.clf(pp.assemble_streams(seq, T, self.rng))
        return idx, probs


def word_offline(st: Serving):
    """Request j: score pass j's records offline, batch 32 per base, then the head."""

    def request(j: int):
        order = st.order(j)
        recs = [st.records[i] for i in order]
        pe = tr.split_probabilities(st.clf.early, recs, T, OFFLINE_BATCH)
        pl = tr.split_probabilities(st.clf.late, recs, T, OFFLINE_BATCH)
        return order, np.stack([ens.ensemble_forward(a, b, st.clf.head) for a, b in zip(pe, pl)])

    return request


class WordWorkload:
    name = "word"
    warmup = 1

    def setup(self, scale: Scale, seed: int, workdir: Path) -> Serving:
        return setup_serving(scale, seed, workdir)

    def phases(self, st: Serving, scale: Scale) -> list:
        n = len(st.paths)
        return [
            PhaseSpec("online", WordOnline, 0.6, n, 4 * n),
            PhaseSpec("offline", word_offline, 0.4, 1, 2),
        ]

    def evaluate(self, st: Serving, scale: Scale, ph: dict) -> Evaluation:
        online, offline = ph["online"], ph["offline"]
        n = len(st.paths)
        done = [o for o in online.outputs if o is not None]
        hits = [int(np.argmax(p)) == st.labels[idx] for idx, p in done]
        top1 = float(np.mean(hits)) if hits else 0.0
        # compare every pass both phases completed
        agree, max_diff, compared = True, 0.0, 0
        for j, off in enumerate(offline.outputs):
            chunk = online.outputs[j * n : (j + 1) * n]
            if off is None or len(chunk) < n or any(o is None for o in chunk):
                continue
            _, off_probs = off
            on_probs = np.stack([p for _, p in chunk])
            agree &= bool(np.array_equal(on_probs.argmax(1), off_probs.argmax(1)))
            max_diff = max(max_diff, float(np.abs(on_probs - off_probs).max()))
            compared += 1
        words = len(online.latencies)
        passes = len(offline.latencies)
        report = {
            **latency_metrics(online.latencies),
            "words_per_s": Metric(words / online.wall, "records/s", words),
            "batch_words_per_s": Metric(
                rate([n] * passes, offline.latencies), "records/s", passes
            ),
            "top1": Metric(top1, "fraction", len(hits)),
            "max_prob_diff": Metric(max_diff, "abs", compared),
        }
        checks = [
            (f"online top1 {top1:.4f} >= {scale.min_top1}", top1 >= scale.min_top1),
            (f"online and batched labels identical over {compared} pass(es)", agree and compared > 0),
            (f"max |p_online - p_batched| = {max_diff:.3g} <= {MAX_PROB_DIFF:g}", max_diff <= MAX_PROB_DIFF),
        ]
        gated = {
            "latency_ms_mean": report["latency_ms_mean"],
            "latency_ms_p90": report["latency_ms_p90"],
            "throughput": Metric(report["batch_words_per_s"].value, "1/s", passes),
            "word_accuracy": report["top1"],
        }
        first = online.outputs[:n]
        payload = {
            "online": [None if o is None else [o[0], int(np.argmax(o[1]))] for o in first],
            "offline": None if not offline.outputs or offline.outputs[0] is None
            else offline.outputs[0][1].argmax(1).tolist(),
        }
        return Evaluation(report, gated, checks, payload)


def sentence_stream(records: list, rng: np.random.Generator, min_frames: int, count: int) -> list:
    """Seeded 2-5 word sentences that each span at least ``min_frames`` frames.

    Words are drawn from successive seeded permutations of the test-signer
    records, so every record is used once before any is reused; a word whose
    label equals the previous word's is deferred (the decoder cannot
    represent an immediate repeat). Bounding sentences by frames rather than
    by a random word count keeps the per-sentence work, and so the latency
    percentiles, comparable between seeds.
    """
    pending: list = []
    sentences = []
    while len(sentences) < count:
        words: list = []
        frames = 0
        while len(words) < 5 and (len(words) < 2 or frames < min_frames):
            k = next(
                (k for k, i in enumerate(pending) if not words or records[i].label_id != words[-1].label_id),
                None,
            )
            if k is None:
                pending.extend(int(i) for i in rng.permutation(len(records)))
                continue
            words.append(records[pending.pop(k)])
            frames += len(words[-1])
        sentences.append(fs.concat_sentence(words))
    return sentences


class DecodeWorkload:
    name = "decode"
    warmup = 1

    def setup(self, scale: Scale, seed: int, workdir: Path) -> Serving:
        return setup_serving(scale, seed, workdir)

    def phases(self, st: Serving, scale: Scale) -> list:
        # The sentence files are the clients' input, written once and outside
        # setup_s, which times what the server needs before its first request.
        out = st.workdir / "sentences"
        out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(st.seed)
        for i, (seq, ref) in enumerate(
            sentence_stream(st.records, rng, scale.min_sentence_frames, scale.sentence_pool)
        ):
            path = out / f"s{i:04d}.slf"
            fs.save_record(seq, path)
            st.sentences.append((path, ref, len(seq)))

        def stream(st: Serving):
            def request(i: int):
                path, ref, frames = st.sentences[i % len(st.sentences)]
                seq = fs.load_record(path)
                words, _, _ = dec.decode(st.clf, seq, DECODE)
                return words, met.edit_errors(ref, words).total, len(ref), frames

            return request

        k = scale.fixed_sentences
        return [PhaseSpec("sentences", stream, 1.0, k, k)]

    def evaluate(self, st: Serving, scale: Scale, ph: dict) -> Evaluation:
        phase = ph["sentences"]
        done = [o for o in phase.outputs if o is not None]
        errors = sum(o[1] for o in done)
        ref_words = sum(o[2] for o in done)
        wer = errors / ref_words if ref_words else float("inf")
        report = {
            **latency_metrics(phase.latencies),
            "frames_per_s": Metric(rate([o[3] for o in done], phase.latencies), "frames/s", len(done)),
            "words_per_s": Metric(ref_words / phase.wall, "words/s", len(done)),
            "wer": Metric(wer, "(I+D+S)/ref", ref_words),
        }
        if phase.attempted > len(st.sentences):
            print(f"note: {phase.attempted} requests cycled through {len(st.sentences)} sentences",
                  file=sys.stderr)
        k = st.clf.head.num_classes
        valid = all(0 <= w < k for o in done for w in o[0])
        checks = [
            (f"wer {wer:.4f} <= {scale.max_wer}", wer <= scale.max_wer),
            ("hypotheses hold only known word ids", valid),
        ]
        gated = {
            "latency_ms_mean": report["latency_ms_mean"],
            "latency_ms_p90": report["latency_ms_p90"],
            "throughput": Metric(report["frames_per_s"].value, "1/s", len(done)),
            "word_accuracy": Metric(1.0 - wer, "fraction", ref_words),
        }
        payload = [None if o is None else o[0] for o in phase.outputs[: scale.fixed_sentences]]
        return Evaluation(report, gated, checks, payload)


# ---------------------------------------------------------------------------
# Offline model building: fit


@dataclass
class FitState:
    seed: int
    dataset: fs.Dataset
    workdir: Path


class FitWorkload:
    name = "fit"
    warmup = 0

    def setup(self, scale: Scale, seed: int, workdir: Path) -> FitState:
        ds = fs.generate_synthetic_dataset(
            scale.classes, scale.fit_per_signer_class, scale.signers, seed=seed
        )
        return FitState(seed, ds, workdir)

    def phases(self, st: FitState, scale: Scale) -> list:
        def stream(st: FitState):
            def job(i: int):
                out = st.workdir / f"fit{i}"
                fs.write_dataset(st.dataset, out)
                ds = fs.load_dataset(out / "manifest.json")
                early_cfg, late_cfg = model_configs(scale, ds.num_classes)
                t0 = time.perf_counter()
                early = tr.train_model(ds, "early", tr.TrainConfig(epochs=EPOCHS, seed=1), early_cfg)
                late = tr.train_model(ds, "late", tr.TrainConfig(epochs=EPOCHS, seed=2), late_cfg)
                train_s = time.perf_counter() - t0
                fitness_fn = ens.make_ensemble_fitness(ds, early.params, late.params, budget_epochs=1, seed=0)
                ga = ens.GAConfig(
                    population_size=scale.ga_population, generations=scale.ga_generations,
                    parents_per_generation=scale.ga_population, seed=0,
                )
                best, _ = ens.run_ga(fitness_fn, ga)
                head = ens.train_ensemble(
                    early.params, late.params, best, ds,
                    ens.ensemble_train_config(epochs=scale.head_epochs, seed=3),
                )
                clf = ens.EnsembleClassifier(early.params, late.params, head.params)
                top1, _, conf, _ = tr.evaluate(clf, ds.split("test"))
                samples = 2 * EPOCHS * len(ds.split("train"))
                return best.genes, conf.tolist(), top1, train_s, samples

            return job

        return [PhaseSpec("jobs", stream, 1.0, 1, 1)]

    def evaluate(self, st: FitState, scale: Scale, ph: dict) -> Evaluation:
        phase = ph["jobs"]
        done = [o for o in phase.outputs if o is not None]
        top1 = float(np.mean([o[2] for o in done])) if done else 0.0
        report = {
            **latency_metrics(phase.latencies),
            "fit_s": Metric(float(np.median(phase.latencies)) if done else float("inf"), "s", len(done)),
            "train_samples_per_s": Metric(
                rate([o[4] for o in done], [o[3] for o in done]), "samples/s", len(done)
            ),
            "top1": Metric(top1, "fraction", len(done)),
        }
        same = all(o[:3] == done[0][:3] for o in done)
        checks = [
            (f"ensemble test top1 {top1:.4f} >= {scale.min_top1}", top1 >= scale.min_top1 and bool(done)),
            (f"{len(done)} fit job(s) built identical models", same),
        ]
        gated = {
            "latency_ms_mean": report["latency_ms_mean"],
            "latency_ms_p90": report["latency_ms_p90"],
            "throughput": Metric(report["train_samples_per_s"].value, "1/s", len(done)),
            "word_accuracy": report["top1"],
        }
        payload = None if not phase.outputs or phase.outputs[0] is None else list(phase.outputs[0][:3])
        return Evaluation(report, gated, checks, payload)


WORKLOADS = {w.name: w for w in (WordWorkload(), DecodeWorkload(), FitWorkload())}


# ---------------------------------------------------------------------------
# Driver


@dataclass
class Result:
    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> Metric, as reported in the JSON line
    report: dict  # every metric printed in the table
    checks: list
    digest: str
    spans_path: Optional[Path] = None


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=list).encode()).hexdigest()


def _check_digest(scale: Scale, workload: str, seed: int, digest: str) -> tuple:
    """Store the digest for this seed, or compare it with the one stored earlier."""
    path = CACHE / "digests" / f"{scale.name}-{source_key(scale)}-{workload}-seed{seed}.txt"
    if path.exists():
        earlier = path.read_text().strip()
        return (f"prediction digest {digest[:16]} matches an earlier run with seed {seed}", earlier == digest)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest + "\n")
    return (f"prediction digest {digest[:16]} stored for seed {seed}", True)


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: Scale) -> Result:
    wl = WORKLOADS[workload_name]
    if workload_name in ("word", "decode"):
        ensure_serving(scale)
    workdir = CACHE / "work" / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(wl, seed, seconds, trace, scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_rounds(wl, st, scale, seed, workdir, specs, seconds, setup_times) -> list:
    """Spread the set-ups and every phase over the whole untraced run.

    The run is cut into ROUNDS rounds of equal wall time. Each round after
    the first opens with a timed set-up whose result is dropped, then grants
    each phase its share of what is left of the round. Every metric so
    averages over the whole run instead of over the stretch one phase used,
    which keeps the host's speed drift, seconds to minutes long on a shared
    machine, from moving one metric alone.
    """
    clients = [Client(s.stream(st)) for s in specs]
    start = time.perf_counter()
    for r in range(ROUNDS):
        if r:
            t0 = time.perf_counter()
            wl.setup(scale, seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        left = start + seconds * (r + 1) / ROUNDS - time.perf_counter()
        for c, s in zip(clients, specs):
            c.spend(s.share * max(left, 0.0))
    return [c.run(s.min_count) for c, s in zip(clients, specs)]


def _run(wl, seed, seconds, trace, scale, workdir) -> Result:
    t0 = time.perf_counter()
    st = wl.setup(scale, seed, workdir)
    setup_times = [time.perf_counter() - t0]
    specs = wl.phases(st, scale)
    attempted = failed = 0

    def tally(ph: Phase) -> Phase:
        nonlocal attempted, failed
        attempted += ph.attempted
        failed += ph.failed
        return ph

    if wl.warmup:
        tally(Client(specs[0].stream(st)).run(wl.warmup))

    spans_path = None
    if not trace:
        ran = run_rounds(wl, st, scale, seed, workdir, specs, seconds, setup_times)
        phases = {s.name: tally(ph) for s, ph in zip(specs, ran)}
        ev = wl.evaluate(st, scale, phases)
        checks = list(ev.checks)
        metrics = {
            "setup_s": Metric(float(np.median(setup_times)), "s", len(setup_times)),
            **ev.gated,
            "peak_rss_mb": Metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }
        report = {"setup_s": metrics["setup_s"], **ev.report,
                  "fail_ratio": Metric(failed / max(attempted, 1), "failed/attempted", attempted),
                  "peak_rss_mb": metrics["peak_rss_mb"]}
    else:
        plain = {s.name: tally(Client(s.stream(st)).run(s.fixed_count)) for s in specs}
        untraced_s = sum(p.wall for p in plain.values())
        tracer = Tracer()
        with tracer:
            traced = {s.name: tally(Client(s.stream(st), tracer, s.name).run(s.fixed_count))
                      for s in specs}
        traced_s = sum(p.wall for p in traced.values())
        ev = wl.evaluate(st, scale, traced)
        same = _digest(wl.evaluate(st, scale, plain).digest_payload) == _digest(ev.digest_payload)
        checks = list(ev.checks) + [("traced and untraced replays predict the same", same)]
        layers = per_layer_metrics(tracer, traced_s, untraced_s)
        metrics = {k: Metric(v, unit, 1) for k, (v, unit) in layers.items()}
        report = {"setup_s": Metric(setup_times[0], "s", 1), **ev.report,
                  "fail_ratio": Metric(failed / max(attempted, 1), "failed/attempted", attempted),
                  **metrics}
        spans_path = CACHE / "traces" / f"{wl.name}-seed{seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)

    digest = _digest(ev.digest_payload)
    checks.append(_check_digest(scale, wl.name, seed, digest))
    checks.append((f"{failed} of {attempted} requests failed", failed == 0))
    correct = all(ok for _, ok in checks)
    return Result(wl.name, correct, attempted, failed, metrics, report, checks, digest, spans_path)
