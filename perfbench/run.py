"""Benchmark command for signrec.

    python3 perfbench/run.py --workload {word,decode,fit,all} --seed N \
        --seconds S --trace {0,1} [--scale {full,tiny}]

Prints a table of every metric with its unit and sample count, the output
checks, and as its last line one JSON object with the keys correct,
attempted, failed and metrics. ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json, ``--trace 1`` the per-layer ones. Exits 1 when an output
check fails and 2 when the program cannot be found. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

# Set before numpy is imported anywhere in this process. One thread keeps the
# batch-1 forward passes that dominate serving free of thread hand-offs and
# keeps runs steady on a shared machine.
BLAS_THREADS = 1  # never more than nproc, which is at least 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _number(value):
    return value if math.isfinite(value) else None


def print_result(res, env: dict, args) -> None:
    print(f"signrec benchmark  workload={res.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print("env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'metric':<42} {'value':>14}  {'unit':<18} samples")
    for name, m in res.report.items():
        print(f"{name:<42} {m.value:>14.6g}  {m.unit:<18} {m.samples}")
    for text, ok in res.checks:
        print(f"check  {'PASS' if ok else 'FAIL'}  {text}")
    if res.spans_path is not None:
        print(f"spans written to {res.spans_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("word", "decode", "fit", "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--build", action="store_true", help="only build the served model")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "signrec" / "__init__.py").exists():
        print(f"error: signrec sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    scale = workloads.SCALES[args.scale]
    if args.build:
        workloads.build_serving(scale)
        return 0

    env = environment(args.seed)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = workloads.run(name, args.seed, args.seconds, bool(args.trace), scale)
        print_result(res, env, args)
        results.append(res)
        out = workloads.CACHE / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "workload": name, "env": env, "correct": res.correct, "attempted": res.attempted,
            "failed": res.failed, "digest": res.digest,
            "metrics": {k: [_number(m.value), m.unit, m.samples] for k, m in res.report.items()},
            "checks": res.checks,
        }, indent=1) + "\n")

    prefix = len(results) > 1
    line = {
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {
            (f"{r.workload}.{k}" if prefix else k): {"value": _number(m.value), "unit": m.unit}
            for r in results for k, m in r.metrics.items()
        },
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
