"""besselnorms benchmark: runs one workload through ``besselnorms.cli.main``,
checks every outcome and prints the metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-session --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a traced run and writes its
spans to .perfbench-out/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The lines before it
give the same numbers for a reader, plus fail_frac and the tail percentile.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

from tracing import LAYER_UNITS, combine_passes
from workloads import MIN_PASSES, PASS_BUDGET_S, WORKLOADS, commands_for

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# fresh-interpreter set-up probes, half before and half after the worker so
# that the median samples the machine across the whole run
SETUP_PROBES = 8
# a run, with its set-up probes and checks, must end within 180 s
WORKER_BUDGET_S = 120.0
WORKER_TIMEOUT_S = 160.0

E2E_UNITS = {
    "pass_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PROBE = "import besselnorms.cli, time; besselnorms.cli.build_parser(); print(time.monotonic())"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(probes: int) -> list[float]:
    """Times from starting a fresh interpreter until besselnorms.cli is
    imported and its parser built (CLOCK_MONOTONIC is shared by processes)."""
    samples = []
    for _ in range(probes):
        t0 = monotonic()
        done = subprocess.run([sys.executable, "-c", PROBE], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


def run_workload(workload: str, seed: int, passes: int, trace: bool) -> tuple[list, dict]:
    """Runs the passes in a fresh worker interpreter; returns (commands, results)."""
    commands = commands_for(workload, seed)
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        spec = {
            "commands": commands,
            "passes": passes,
            "trace": trace,
            "scratch": str(scratch),
            "out": str(scratch / "result.json"),
            "spans": str(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"),
            "budget_s": WORKER_BUDGET_S,
        }
        spec_path = scratch / "spec.json"
        spec_path.write_text(json.dumps(spec))
        subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)], env=child_env(),
                       cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
        return commands, json.loads(Path(spec["out"]).read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    ordered = sorted(samples)
    index = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, math.floor(seconds / PASS_BUDGET_S[workload]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "besselnorms" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {SRC}/besselnorms or {ROOT}/tests/oracles.py is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    from expect import Checker

    trace = bool(args.trace)
    passes = passes_for(args.workload, args.seconds)
    if trace:
        passes += passes % 2  # untraced and traced passes alternate
    probes = 0 if trace else SETUP_PROBES // 2
    setup_samples = measure_setup(probes)
    commands, results = run_workload(args.workload, args.seed, passes, trace)
    setup_samples += measure_setup(probes)

    checker = Checker()
    failures = []
    for index, one_pass in enumerate(results["passes"]):
        for argv, outcome in zip(commands, one_pass["commands"]):
            reason = checker.check(argv, outcome)
            if reason is not None:
                failures.append((index, " ".join(argv), reason))
    attempted = sum(len(p["commands"]) for p in results["passes"])
    failed = len(failures)
    for index, command, reason in failures[:20]:
        print(f"FAILED pass {index}: {command}: {reason}")

    plain = [p for p in results["passes"] if not p["traced"]]
    traced = [p for p in results["passes"] if p["traced"]]
    latencies = [c["latency_s"] * 1e3 for p in plain for c in p["commands"]]
    tail, percentile = tail_latency(latencies)
    pass_s = statistics.median(p["pass_s"] for p in plain)
    print(f"workload {args.workload}, seed {args.seed}: {len(commands)} commands per pass, "
          f"{len(plain)} untraced + {len(traced)} traced passes")
    print(f"fail_frac      {failed / attempted:.6g} ({failed} of {attempted} commands)")

    if trace:
        layers = combine_passes([p["layers"] for p in traced], [p["pass_s"] for p in traced],
                                [p["pass_s"] for p in plain])
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        print(f"pass_s         {pass_s:.6g} s untraced, "
              f"{statistics.median(p['pass_s'] for p in traced):.6g} s traced")
        print(f"spans          {OUT_DIR / f'spans-{args.workload}-seed{args.seed}.jsonl'}")
    else:
        values = {
            "pass_s": pass_s,
            "cmd_p50_ms": statistics.median(latencies),
            "cmd_tail_ms": tail,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": results["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        print(f"cmd_tail_ms is p{percentile:.4g} of {len(latencies)} command latencies")
    for name, metric in metrics.items():
        print(f"{name:<36} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
