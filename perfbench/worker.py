"""One workload in its own process: timed passes, then a JSON report.

Run by ``run.py``; not meant to be called by hand.  The process imports
only ringlat and the benchmark's own modules, so its peak resident memory
is the workload's.  One untimed warm-up pass on the tiny inputs runs
the same calls first, so no timed pass pays for first calls; for
``omega_sweep`` it also tells the pool size that sets the OpenBLAS cap
(``workloads.blas_threads``).  The worker then repeats the workload's
calls until the next pass would run past ``--seconds`` (always at least
one pass).  With ``--trace 1`` passes alternate untraced and traced, at
least one of each, and the report carries the per-layer metrics of the
traced passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import ringlat  # noqa: E402
import ringlat.cli  # noqa: E402

import envinfo  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for the report, spans and CSVs")
    args = parser.parse_args(argv)

    if Path(ringlat.__file__).resolve().parent != ROOT / "src" / "ringlat":
        print(f"ringlat imported from {ringlat.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    args.out.mkdir(parents=True, exist_ok=True)
    warmup = workloads.make_inputs(args.workload, args.seed, tiny=True)
    try:
        workloads.run_pass(args.workload,
                           workloads.prepare(args.workload, warmup,
                                             args.out / "warmup"),
                           args.out / "warmup")
    except Exception:  # the timed passes record what raises
        pass
    blas_threads = workloads.blas_threads(args.workload, args.out / "warmup")
    if blas_threads is not None:
        envinfo.set_openblas_threads(blas_threads)

    inputs = workloads.make_inputs(args.workload, args.seed, args.tiny)
    prepared = workloads.prepare(args.workload, inputs, args.out / "csv")
    tracer = tracing.Tracer() if args.trace else None

    passes = []
    clock = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        restore = tracer.install(len(passes)) if traced else []
        try:
            wall, results = workloads.run_pass(args.workload, prepared,
                                               args.out / "csv")
            error = None
        except Exception as exc:  # a raising call fails its whole pass
            wall, results, error = None, None, f"{type(exc).__name__}: {exc}"
        finally:
            tracing.Tracer.uninstall(restore)
        passes.append({"traced": traced, "wall_s": wall, "results": results,
                       "error": error})
        if error is not None:
            break
        elapsed = time.perf_counter() - clock
        enough = tracer is None or len(passes) >= 2
        if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    report = {
        "seed": args.seed,
        "inputs": inputs,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": dict(envinfo.collect(ROOT), openblas_cap=blas_threads),
    }
    if tracer is not None and all(p["error"] is None for p in passes):
        per_pass = [tracing.layer_metrics([s for s in tracer.spans if s.run == i])
                    for i, p in enumerate(passes) if p["traced"]]
        layers = {name: statistics.median(m[name] for m in per_pass)
                  for name in tracing.LAYER_METRICS}
        untraced = statistics.median(p["wall_s"] for p in passes
                                     if not p["traced"])
        traced_wall = statistics.median(p["wall_s"] for p in passes
                                        if p["traced"])
        layers["trace.overhead_frac"] = traced_wall / untraced - 1.0
        report["layers"] = layers
        tracer.write(args.out / "spans.jsonl")
    with open(args.out / "report.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
