"""ringlat benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload omega_sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout; it measures the package under ``src/``.
With ``--trace 0`` it reports ``wall_s`` (median wall time of one pass of
the workload's calls), ``setup_s`` (median over fresh interpreters of
importing ringlat and ringlat.cli and generating the inputs) and
``peak_rss_mb`` (peak resident memory of the workload process).  With
``--trace 1`` it reports the per-layer metrics of ``tracing.py``.  Every
result of every pass is checked against an independent reference
(``gate.py``); failures count in ``failed`` out of ``attempted``.  The last
line of standard output is the JSON result; the lines before it record
the inputs, the environment and any failures.  When the calls raise
before the passes needed for the metrics complete, the result line still
counts the failures, leaves those metrics out and the exit code is 1.
Scratch files go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed for setup_s, after one untimed warm-up that
#: also writes the bytecode cache.  Half run before the worker and half
#: after it, so the median spans the whole run rather than a few seconds
#: of a host whose speed drifts.
SETUP_SAMPLES = 12
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


def _probe_setup(workload: str, seed: int, tiny: bool, out: Path,
                 count: int) -> list[float]:
    """Set-up times of ``count`` fresh interpreters, one after another."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), "1" if tiny else "0", str(out)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def measure(workload: str, seed: int, seconds: float, traced: bool,
            tiny: bool = False, samples: int = SETUP_SAMPLES,
            ) -> tuple[dict, list[str], dict]:
    """Run one workload and check it.

    Returns the result line's object, the log lines before it and the
    worker's report.
    """
    out = ROOT / ".perfbench_out" / f"{workload}-{seed}-{int(traced)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    _probe_setup(workload, seed, tiny, out / "probe", 1)
    setup = _probe_setup(workload, seed, tiny, out / "probe", samples // 2)

    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", str(int(traced)), "--out", str(out)]
    if tiny:
        command.append("--tiny")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n"
                           f"{done.stderr}")
    setup += _probe_setup(workload, seed, tiny, out / "probe",
                          samples - samples // 2)
    with open(out / "report.json", encoding="utf-8") as handle:
        report = json.load(handle)
    result, log = summarize(workload, report, setup, traced)
    if "layers" in report:
        log.append(f"spans {out / 'spans.jsonl'}")
    return result, log, report


def summarize(workload: str, report: dict, setup: list[float],
              traced: bool) -> tuple[dict, list[str]]:
    """The result line's object and the log lines, from a worker report.

    Every pass is checked.  When no pass completed (the first one raised)
    the result still counts every result as failed, and the metrics that
    need a completed pass are left out.
    """
    inputs = report["inputs"]
    attempted, failures = gate.check(workload, inputs,
                                     gate.expected(workload, inputs),
                                     report["passes"])
    walls = [p["wall_s"] for p in report["passes"]
             if p["wall_s"] is not None and not p["traced"]]
    if traced:
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in report.get("layers", {}).items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        if walls:
            metrics["wall_s"] = {"value": statistics.median(walls),
                                 "unit": "s"}
    log = [
        f"workload {workload} seed {report['seed']} trace {int(traced)}: "
        f"{len(report['passes'])} passes, wall_s "
        f"{[p['wall_s'] for p in report['passes']]}",
        f"setup_s samples {setup}",
        f"inputs {json.dumps(inputs)}",
        f"env {json.dumps(report['env'])}",
        f"gate: {attempted} attempted, {len(failures)} failed",
    ]
    log.extend(f"FAIL {message}" for message in failures[:20])
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, log


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.startswith(("eigen.solves_per", "sweep.solves_per")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ringlat benchmark",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check metric names and that the gate catches "
                             "corrupted results")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ringlat" / "__init__.py").is_file():
        print(f"no ringlat sources under {ROOT / 'src'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, log, _ = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError, OSError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print("\n".join(log))
    print(json.dumps(result))
    # Without completed passes there is nothing to time.
    timed = "trace.overhead_frac" if args.trace else "wall_s"
    return 0 if timed in result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
