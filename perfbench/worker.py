"""Runs one workload's passes in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON names the commands, the number of passes, whether to trace, a
scratch directory for the cache files, and where to write the results (and,
when tracing, the spans).  Passes alternate untraced and traced when tracing,
so the overhead is measured in the same process.  Nothing here checks the
outputs; the parent process does that after this one has exited, so the
oracles do not add to this process's peak memory.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from tracing import MODULES, Tracer


def run_pass(cli, norms, commands, cache_path: Path, tracer: Tracer | None) -> dict:
    """One pass over the command list from an empty cache file."""
    cache_path.unlink(missing_ok=True)
    results = []
    start = perf_counter()
    for command_id, argv in enumerate(commands):
        norms.clear_memo_cache()
        if tracer is not None:
            tracer.command = command_id
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--format", "json", "--cache", str(cache_path)])
        except Exception as exc:  # a raising command is a failed outcome, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        results.append({"code": code, "latency_s": latency, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "error": error})
    return {"pass_s": perf_counter() - start, "traced": tracer is not None, "commands": results}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    modules = {name: importlib.import_module(f"besselnorms.{name}") for name in MODULES}
    cli, norms = modules["cli"], modules["norms"]
    cache_path = Path(spec["scratch"]) / "cache.json"
    passes, spans_out = [], []
    started = perf_counter()
    for index in range(spec["passes"]):
        tracer = Tracer(modules) if spec["trace"] and index % 2 == 1 else None
        uninstall = tracer.install() if tracer else None
        try:
            result = run_pass(cli, norms, spec["commands"], cache_path, tracer)
        finally:
            if uninstall:
                uninstall()
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            spans_out.extend(tracer.span_rows(index))
        passes.append(result)
        elapsed = perf_counter() - started
        # keep the whole run inside its time limit on a much slower machine
        if elapsed + result["pass_s"] > spec["budget_s"] and len(passes) >= (2 if spec["trace"] else 1):
            break
    cache_path.unlink(missing_ok=True)
    if spec["trace"]:
        with open(spec["spans"], "w") as fh:
            for row in spans_out:
                fh.write(json.dumps(row) + "\n")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["out"]).write_text(json.dumps({"passes": passes, "peak_rss_mb": peak_rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
