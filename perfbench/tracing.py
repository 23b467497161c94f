"""In-memory span tracing around the public functions of each signrec layer.

A Tracer wraps every public function of the layer modules and installs the
wrapper wherever a module looks the function up (``signrec.train.forward_batch``,
``signrec.decoder.classify_window``, ...), so calls made inside the program are
traced without editing it. Each span records its name, start, end, parent span
and the request it belongs to; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("featurestore", "preprocess", "model", "train", "ensemble_ga", "decoder", "metrics")

# ensemble_ga.fitness is the scalar exp(acc / 2.5) shaping; its name is taken by
# the span around the GA fitness closure that make_ensemble_fitness returns.
_NOT_WRAPPED = {("ensemble_ga", "fitness")}


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, request id)
        self.spans: list[tuple] = []
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.load_bytes = 0
        self.forward_rows = 0
        self.windows = 0
        self.null_windows = 0
        self.frames_assembled = 0
        self.distinct_frames: dict = defaultdict(set)
        self.fitness_keys: set = set()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if after is not None:
                result = after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _after_hooks(self) -> dict:
        def load_record(args, kwargs, result):
            self.load_bytes += os.path.getsize(args[0] if args else kwargs["path"])
            return result

        def forward_batch(args, kwargs, result):
            a = args[1] if len(args) > 1 else kwargs["A"]
            self.forward_rows += a.shape[0]
            return result

        def normalize_length(args, kwargs, result):
            norm, mask = result
            real = int(mask.sum())
            self.frames_assembled += real
            self.distinct_frames[self.request].update(id(f) for f in norm.frames[:real])
            return result

        def classify_window(args, kwargs, result):
            self.windows += 1
            self.null_windows += result.word is None
            return result

        def make_ensemble_fitness(args, kwargs, fitness_fn):
            def counted(chromosome):
                self.fitness_keys.add(chromosome.genes)
                return fitness_fn(chromosome)

            return self._wrap("ensemble_ga.fitness", counted)

        return {
            "featurestore.load_record": load_record,
            "model.forward_batch": forward_batch,
            "preprocess.normalize_length": normalize_length,
            "decoder.classify_window": classify_window,
            "ensemble_ga.make_ensemble_fitness": make_ensemble_fitness,
        }

    def install(self) -> None:
        """Replace every binding of a layer's public functions with a wrapper."""
        hooks = self._after_hooks()
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"signrec.{layer}"]
            for fname, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not fname.startswith("_")
                    and (layer, fname) not in _NOT_WRAPPED
                ):
                    name = f"{layer}.{fname}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        for mname, module in list(sys.modules.items()):
            if module is None or not (mname == "signrec" or mname.startswith("signrec.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds; per-layer self seconds."""
        calls: dict = defaultdict(int)
        total: dict = defaultdict(float)
        child: list = [0.0] * len(self.spans)
        children_named: dict = defaultdict(set)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
                children_named[parent].add(name)
        self_s: dict = defaultdict(float)
        layer_self: dict = {layer: 0.0 for layer in LAYERS}
        fitness_calls = memo_hits = 0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own = (end - start) - child[i]
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if name == "ensemble_ga.fitness":
                fitness_calls += 1
                memo_hits += "ensemble_ga.init_ensemble_params" not in children_named[i]
        distinct = sum(len(ids) for ids in self.distinct_frames.values())
        return {
            "calls": calls,
            "total": total,
            "self": self_s,
            "layer_self": layer_self,
            "memo_hit_ratio": memo_hits / fitness_calls if fitness_calls else 0.0,
            "frames_per_distinct_frame": self.frames_assembled / distinct if distinct else 0.0,
        }

    def write(self, path) -> None:
        """Spans as JSON lines: name, start/end relative to the first span, parent, request."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start - t0, "end": end - t0,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )


def per_layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
    s = tracer.summary()
    calls, total, self_s = s["calls"], s["total"], s["self"]
    fb_calls = calls["model.forward_batch"]
    out = {
        "featurestore.load_record.calls": (calls["featurestore.load_record"], "count"),
        "featurestore.load_record.s": (total["featurestore.load_record"], "s"),
        "featurestore.load_record.bytes": (tracer.load_bytes, "B"),
        "featurestore.write_dataset.s": (total["featurestore.write_dataset"], "s"),
        "featurestore.load_dataset.s": (total["featurestore.load_dataset"], "s"),
        "preprocess.assemble_streams.calls": (calls["preprocess.assemble_streams"], "count"),
        "preprocess.assemble_streams.s": (total["preprocess.assemble_streams"], "s"),
        "preprocess.frames_per_distinct_frame": (s["frames_per_distinct_frame"], "ratio"),
        "model.forward_batch.calls": (fb_calls, "count"),
        "model.forward_batch.s": (total["model.forward_batch"], "s"),
        "model.forward_batch.rows_per_call": (
            tracer.forward_rows / fb_calls if fb_calls else 0.0, "rows"),
        "model.loss_and_grads.calls": (calls["model.loss_and_grads"], "count"),
        "model.loss_and_grads.s": (total["model.loss_and_grads"], "s"),
        "train.adamax_step.calls": (calls["train.adamax_step"], "count"),
        "train.adamax_step.s": (total["train.adamax_step"], "s"),
        "train.train_model.s": (total["train.train_model"], "s"),
        "train.split_probabilities.s": (total["train.split_probabilities"], "s"),
        "ensemble_ga.fitness.calls": (calls["ensemble_ga.fitness"], "count"),
        "ensemble_ga.fitness.distinct": (len(tracer.fitness_keys), "count"),
        "ensemble_ga.fitness.s": (total["ensemble_ga.fitness"], "s"),
        "ensemble_ga.fitness.memo_hit_ratio": (s["memo_hit_ratio"], "ratio"),
        "ensemble_ga.train_ensemble.s": (total["ensemble_ga.train_ensemble"], "s"),
        "ensemble_ga.ensemble_forward.calls": (calls["ensemble_ga.ensemble_forward"], "count"),
        "ensemble_ga.ensemble_forward.s": (total["ensemble_ga.ensemble_forward"], "s"),
        "decoder.classify_window.calls": (calls["decoder.classify_window"], "count"),
        "decoder.classify_window.s": (total["decoder.classify_window"], "s"),
        "decoder.decode_trace.self_s": (self_s["decoder.decode_trace"], "s"),
        "decoder.null_window_ratio": (
            tracer.null_windows / tracer.windows if tracer.windows else 0.0, "ratio"),
        "metrics.edit_errors.calls": (calls["metrics.edit_errors"], "count"),
        "metrics.edit_errors.s": (total["metrics.edit_errors"], "s"),
        "metrics.topk_accuracy.s": (total["metrics.topk_accuracy"], "s"),
    }
    for layer, value in s["layer_self"].items():
        out[f"{layer}.self_s"] = (value, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.untraced_s"] = (untraced_s, "s")
    out["trace.traced_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out
