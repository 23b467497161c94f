"""Decode continuous sentences with a sliding window over a trained ensemble.

Trains small base models plus the fixed 2-layer head, concatenates test
words into sentences, and walks one decode trace window by window.
"""

import time

import numpy as np

from signrec.decoder import DecodeConfig, decode_trace
from signrec.ensemble_ga import Chromosome, EnsembleClassifier, ensemble_train_config, train_ensemble
from signrec.featurestore import build_sentences, generate_synthetic_dataset
from signrec.metrics import format_sentence_report, sentence_report
from signrec.train import TrainConfig, train_model

t0 = time.perf_counter()
# the calibrated operating point; takes a couple of minutes. Ten classes
# keep the uniform probability (0.1) under the 0.2 threshold so off-word
# windows get nulled, and 30 epochs sharpen the window confidences.
dataset = generate_synthetic_dataset(10, 10, 5, noise_sigma=0.05, seed=0)
early = train_model(dataset, "early", TrainConfig(epochs=30, seed=1))
late = train_model(dataset, "late", TrainConfig(epochs=30, seed=2))
head = train_ensemble(
    early.params, late.params,
    Chromosome((2, 128, 64, 0, 0, 0, 0, 0, 0)),
    dataset, ensemble_train_config(epochs=1, seed=3, batch_size=1),
)
classifier = EnsembleClassifier(early.params, late.params, head.params)
print(f"models ready in {time.perf_counter() - t0:.1f}s "
      f"(val top1: early {early.val_top1:.2f}, late {late.val_top1:.2f})")

sentences = build_sentences(dataset, count=8, rng=np.random.default_rng(0))
config = DecodeConfig(window=40, step=5, threshold=0.2)

seq, reference = sentences[0]
trace = decode_trace(classifier, seq, config)
print(f"\nfirst sentence: {len(seq)} frames, reference {reference}")
print(f"{'start':>6}  {'word':>5}  conf")
for p in trace.predictions:
    word = "-" if p.word is None else p.word
    print(f"{p.start:>6}  {word:>5}  {p.confidence:.3f}")
print(f"accepted after dedup: {list(trace.accepted_words)}")

decodes, references = [], []
for seq, reference in sentences:
    tr = decode_trace(classifier, seq, config)
    decodes.append((list(tr.accepted_words), list(tr.accepted_confidences), tr.mean_confidence))
    references.append(reference)

print()
print(format_sentence_report(sentence_report(decodes, references)))
