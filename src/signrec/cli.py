"""Command-line entry point wiring the pipeline into reproducible runs.

Subcommands: synth, train, ga, ensemble, eval, sentences, decode. Every
command is deterministic under --seed; artifacts go to --out paths and
progress chatter goes to stderr. Exit codes: 0 success, 1 configuration
error, 2 data or format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import decoder as dec
from . import ensemble_ga as eg
from .errors import (
    ConfigurationError,
    CorruptRecordError,
    DegenerateInputError,
    FormatError,
    InvalidChromosomeError,
    SelectionError,
    TrainingDivergenceError,
)
from .featurestore import (
    build_sentences,
    generate_synthetic_dataset,
    load_dataset,
    load_record,
    save_record,
    write_dataset,
)
from .metrics import format_sentence_report, sentence_report
from .model import _build_model, load_checkpoint, load_model, save_model
from .train import TrainConfig, evaluate, train_model

_CONFIG_ERRORS = (
    ConfigurationError,
    InvalidChromosomeError,
    SelectionError,
    TrainingDivergenceError,
    ValueError,
)
_DATA_ERRORS = (FormatError, CorruptRecordError, DegenerateInputError, OSError)


class _Parser(argparse.ArgumentParser):
    # route usage problems through the configuration-error exit code
    def error(self, message):
        raise ConfigurationError(message)


def _json_dump(doc, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _parse_streams(text: str) -> tuple[bool, bool, bool]:
    parts = [p.strip().upper() for p in text.split(",") if p.strip()]
    bad = [p for p in parts if p not in ("A", "B", "C")]
    if bad or not parts:
        raise ConfigurationError(f"--streams expects a subset of A,B,C, got {text!r}")
    return ("A" in parts, "B" in parts, "C" in parts)


def _parse_chromosome(text: str) -> eg.Chromosome:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"--chromosome must be integers: {exc}") from exc
    if not values:
        raise ConfigurationError("--chromosome is empty")
    layers = values[0]
    if len(values) != 1 + layers:
        raise ConfigurationError(
            f"--chromosome declares {layers} layers but lists {len(values) - 1} widths"
        )
    genes = values + [0] * (eg.GENE_COUNT - len(values))
    return eg.Chromosome(tuple(genes))


# Known RunConfig keys; anything else is rejected by name.
_SECTION_FIELDS = {
    "train": {f.name for f in dataclasses.fields(TrainConfig)},
    "ga": {f.name for f in dataclasses.fields(eg.GAConfig)},
    "decode": {f.name for f in dataclasses.fields(dec.DecodeConfig)},
}
_TOP_KEYS = {"seed", "data", "arch"} | set(_SECTION_FIELDS)


def _load_run_config(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: config root must be an object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
    for section, allowed in _SECTION_FIELDS.items():
        sub = doc.get(section, {})
        if not isinstance(sub, dict):
            raise ConfigurationError(f"config section {section!r} must be an object")
        for key in sub:
            if key not in allowed:
                raise ConfigurationError(f"unknown config key {section!r}.{key!r}")
    return doc


def _config(cls, doc: dict, section: str, args, **defaults):
    """cls from defaults, then the config file's section, then the flags given.

    The config file's top-level seed stands in for a seed the section lacks.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    fields = {**defaults, **doc.get(section, {})}
    if "seed" in names and "seed" in doc:
        fields.setdefault("seed", doc["seed"])
    fields.update((n, getattr(args, n)) for n in names if getattr(args, n, None) is not None)
    for name in ("loss_weights", "stream_toggles"):
        if isinstance(fields.get(name), list):
            fields[name] = tuple(fields[name])
    try:
        return cls(**fields)
    except TypeError as exc:
        raise ConfigurationError(f"bad {section} config: {exc}") from exc


def _dataset(path):
    if not path:
        raise ConfigurationError("a dataset manifest path is required (--data)")
    return load_dataset(path)


def _load_predictor(path):
    """Model checkpoint of either kind -> (predictor, kind string)."""
    config_doc, tensors, _ = load_checkpoint(path)
    if config_doc.get("arch") == "ensemble":
        return eg._build_ensemble(path, config_doc, tensors), "ensemble"
    params = _build_model(path, config_doc, tensors)
    return params, params.config.arch


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> None:
    dataset = generate_synthetic_dataset(
        n_classes=args.classes,
        n_per_signer_class=args.per_class,
        n_signers=args.signers,
        length_range=(args.min_len, args.max_len),
        noise_sigma=args.noise,
        seed=args.seed if args.seed is not None else 0,
    )
    write_dataset(dataset, args.out)
    print(
        f"wrote {len(dataset.sequences)} records, {dataset.num_classes} classes -> {args.out}",
        file=sys.stderr,
    )


def cmd_train(args) -> None:
    doc = _load_run_config(args.config) if args.config else {}
    config = _config(TrainConfig, doc, "train", args)
    arch = args.arch or doc.get("arch")
    if arch not in ("early", "late"):
        raise ConfigurationError("--arch must be 'early' or 'late'")
    dataset = _dataset(args.data or doc.get("data"))
    checkpoint = train_model(dataset, arch, config, log_path=args.log, verbose=True)
    meta = {
        "arch": arch,
        "epoch": checkpoint.epoch,
        "val_top1": checkpoint.val_top1,
        "val_top5": checkpoint.val_top5,
        "train_config": dataclasses.asdict(config),
    }
    save_model(args.out, checkpoint.params, meta)
    print(
        f"best epoch {checkpoint.epoch}: val top1 {checkpoint.val_top1:.3f}, "
        f"top5 {checkpoint.val_top5:.3f} -> {args.out}",
        file=sys.stderr,
    )


def cmd_ga(args) -> None:
    doc = _load_run_config(args.config) if args.config else {}
    config = _config(eg.GAConfig, doc, "ga", args)
    dataset = _dataset(args.data or doc.get("data"))
    early, _ = load_model(args.early)
    late, _ = load_model(args.late)
    fitness_fn = eg.make_ensemble_fitness(
        dataset, early, late, budget_epochs=args.budget_epochs, seed=config.seed
    )
    best, history = eg.run_ga(fitness_fn, config)
    if args.history:
        eg.write_ga_history(history, args.history)
    _json_dump(
        {
            "chromosome": list(best.genes),
            "widths": list(best.widths),
            "fitness": max(h["best_fitness"] for h in history),
        },
        args.out,
    )
    print(f"best chromosome {list(best.genes)} -> {args.out}", file=sys.stderr)


def cmd_ensemble(args) -> None:
    doc = _load_run_config(args.config) if args.config else {}
    config = _config(
        TrainConfig, doc, "train", args,
        learning_rate=eg.ENSEMBLE_LR, weight_decay=eg.ENSEMBLE_WD,
    )
    if args.chromosome:
        chromosome = _parse_chromosome(args.chromosome)
    elif args.chromosome_file:
        try:
            best = json.loads(Path(args.chromosome_file).read_text())
            chromosome = eg.Chromosome(tuple(best["chromosome"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{args.chromosome_file}: malformed chromosome file: {exc!r}") from exc
    else:
        raise ConfigurationError("provide --chromosome or --chromosome-file")
    dataset = _dataset(args.data or doc.get("data"))
    early, _ = load_model(args.early)
    late, _ = load_model(args.late)
    checkpoint = eg.train_ensemble(early, late, chromosome, dataset, config, log_path=args.log)
    classifier = eg.EnsembleClassifier(early, late, checkpoint.params)
    meta = {
        "epoch": checkpoint.epoch,
        "val_top1": checkpoint.val_top1,
        "val_top5": checkpoint.val_top5,
        "train_config": dataclasses.asdict(config),
    }
    eg.save_ensemble(args.out, classifier, meta)
    print(
        f"ensemble best epoch {checkpoint.epoch}: val top1 {checkpoint.val_top1:.3f} -> {args.out}",
        file=sys.stderr,
    )


def cmd_eval(args) -> None:
    dataset = _dataset(args.data)
    records = dataset.split(args.split)
    if not records:
        raise ConfigurationError(f"split {args.split!r} is empty")
    predictor, kind = _load_predictor(args.model)
    toggles = _parse_streams(args.streams) if args.streams else (True, True, True)
    if kind == "ensemble" and toggles != (True, True, True):
        raise ConfigurationError("stream ablation applies to single models only")
    top1, top5, confusion, latency = evaluate(predictor, records, toggles=toggles)
    _json_dump(
        {
            "model": kind,
            "split": args.split,
            "count": len(records),
            "top1": top1,
            "top5": top5,
            "confusion": confusion.tolist(),
        },
        args.out,
    )
    print(
        f"{kind} on {args.split}: top1 {top1:.3f} top5 {top5:.3f} "
        f"({1000 * latency:.1f} ms per record, amortized over batches of 32) -> {args.out}",
        file=sys.stderr,
    )


def cmd_sentences(args) -> None:
    dataset = _dataset(args.data)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    sentences = build_sentences(
        dataset, count=args.count, min_words=args.min_words, max_words=args.max_words, rng=rng
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    index = []
    for i, (seq, reference) in enumerate(sentences):
        name = f"sentence_{i:03d}.slf"
        save_record(seq, out / name)
        index.append(
            {
                "path": name,
                "reference": reference,
                "glosses": [dataset.manifest.classes[w] for w in reference],
            }
        )
    _json_dump({"sentences": index}, out / "sentences.json")
    print(f"wrote {len(index)} sentences -> {out}", file=sys.stderr)


def cmd_decode(args) -> None:
    doc = _load_run_config(args.config) if args.config else {}
    config = _config(dec.DecodeConfig, doc, "decode", args)
    predictor, kind = _load_predictor(args.model)
    sent_dir = Path(args.sentences)
    index_path = sent_dir / "sentences.json" if sent_dir.is_dir() else sent_dir
    try:
        index = json.loads(index_path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{index_path}: not valid JSON: {exc}") from exc
    try:
        paths = [index_path.parent / entry["path"] for entry in index["sentences"]]
        references = [[int(w) for w in entry["reference"]] for entry in index["sentences"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{index_path}: malformed sentence index: {exc!r}") from exc
    decodes = []
    traces = []
    for path in paths:
        trace = dec.decode_trace(predictor, load_record(path), config)
        decodes.append((list(trace.accepted_words), list(trace.accepted_confidences), trace.mean_confidence))
        traces.append(trace)
    report = sentence_report(decodes, references)
    report["model"] = kind
    report["decode_config"] = dataclasses.asdict(config)
    if args.traces:
        report["traces"] = [dec.trace_to_json(t) for t in traces]
    _json_dump(report, args.out)
    print(format_sentence_report(report))
    print(
        f"avg errors {report['average_total_errors']:.2f}, "
        f"avg confidence {report['average_confidence']:.3f} -> {args.out}",
        file=sys.stderr,
    )


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="signrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--per-class", type=int, default=10, help="records per signer per class")
    p.add_argument("--signers", type=int, default=5)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--min-len", type=int, default=21)
    p.add_argument("--max-len", type=int, default=116)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a fusion model")
    p.add_argument("--data", help="dataset manifest path")
    p.add_argument("--arch", choices=("early", "late"))
    p.add_argument("--config", help="RunConfig JSON file")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--wd", dest="weight_decay", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--streams", dest="stream_toggles", type=_parse_streams,
                   help="comma list from A,B,C to keep enabled")
    p.add_argument("--log", help="JSON-lines training log path")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ga", help="search ensemble structures genetically")
    p.add_argument("--data", help="dataset manifest path")
    p.add_argument("--early", required=True, help="early-fusion checkpoint")
    p.add_argument("--late", required=True, help="late-fusion checkpoint")
    p.add_argument("--config", help="RunConfig JSON file")
    p.add_argument("--budget-epochs", type=int, default=10)
    p.add_argument("--generations", type=int, default=None)
    p.add_argument("--population", dest="population_size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--history", help="JSON-lines GA history path")
    p.add_argument("--out", required=True, help="best-chromosome JSON path")
    p.set_defaults(func=cmd_ga)

    p = sub.add_parser("ensemble", help="train the ensemble head")
    p.add_argument("--data", help="dataset manifest path")
    p.add_argument("--early", required=True)
    p.add_argument("--late", required=True)
    p.add_argument("--config", help="RunConfig JSON file")
    p.add_argument("--chromosome", help="L,w1,...,wL e.g. 6,310,693,465,638,513,406")
    p.add_argument("--chromosome-file", help="best-chromosome JSON from the ga command")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--log", help="JSON-lines training log path")
    p.add_argument("--out", required=True, help="ensemble checkpoint path")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--streams", help="comma list from A,B,C to keep enabled")
    p.add_argument("--out", required=True, help="metrics JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sentences", help="concatenate test words into sentences")
    p.add_argument("--data", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--min-words", type=int, default=2)
    p.add_argument("--max-words", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sentences)

    p = sub.add_parser("decode", help="decode sentences with a sliding window")
    p.add_argument("--model", required=True)
    p.add_argument("--sentences", required=True, help="sentences directory or index JSON")
    p.add_argument("--config", help="RunConfig JSON file")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--step", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--traces", action="store_true", help="include per-window traces in the report")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_decode)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        return 0
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
