"""Spans and counters around the public functions of each besselnorms module.

The package is not edited: ``Tracer.install`` rebinds every module-level name
that refers to a traced function (so ``jv`` imported into both ``specfun``
and ``quadrature``, or ``lambda_sup`` imported into ``hierarchy``, ``sweep``
and ``cli``, are all caught) and returns a function that restores them.

A span records name, start, end, parent span and command id.  Functions that
run about 10^5 times per pass (``lower_bound_L0`` in the sweeps) are only
counted; their time stays in the caller's span.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from collections import Counter
from time import perf_counter

import numpy as np
import scipy.special

# (module, attribute, span name) of plainly spanned functions
SPANNED = [
    ("specfun", "sup_critical_point", "specfun.sup_critical_point"),
    ("norms", "lambda_sup", "norms.lambda_sup"),
    ("norms", "lambda_power", "norms.lambda_power"),
    ("norms", "best_k", "norms.best_k"),
    ("norms", "upper_bound_U", "norms.bounds"),
    ("quadrature", "integrate_weighted_power", "quadrature.integrate_weighted_power"),
    ("hierarchy", "verify_sup_monotone", "hierarchy.verify"),
    ("hierarchy", "verify_p4", "hierarchy.verify"),
    ("hierarchy", "verify_pst", "hierarchy.verify"),
    ("local", "verify_holder_chain", "local.verify"),
    ("local", "verify_second_order_positivity", "local.verify"),
    ("cli", "main", "cli.main"),
]
MODULES = ("specfun", "quadrature", "norms", "hierarchy", "sweep", "local", "golden", "cli")

# per-layer metric -> unit; the order is the report order
LAYER_UNITS = {
    "specfun.jv.calls": "count",
    "specfun.jv.points": "count",
    "specfun.jv.busy_s": "s",
    "specfun.jv.ns_per_point": "ns",
    "specfun.sup_critical_point.calls": "count",
    "specfun.sup_critical_point.busy_s": "s",
    "norms.lambda_sup.calls": "count",
    "norms.lambda_sup.self_s": "s",
    "norms.lambda_power.calls": "count",
    "norms.lambda_power.memo_hit_ratio": "ratio",
    "norms.best_k.busy_s": "s",
    "norms.bounds.calls": "count",
    "norms.bounds.busy_s": "s",
    "quadrature.panel_integrate.calls": "count",
    "quadrature.panel_integrate.busy_s": "s",
    "quadrature.panel_integrate.self_s": "s",
    "quadrature.integrand.busy_s": "s",
    "quadrature.nodes": "count",
    "quadrature.rounds": "count",
    "quadrature.capped": "count",
    "quadrature.useful_node_ratio": "ratio",
    "hierarchy.verify.calls": "count",
    "hierarchy.verify.self_s": "s",
    "sweep.p0_report.calls": "count",
    "sweep.p0_report.self_s": "s",
    "sweep.grid_points": "count",
    "local.cross_norm.calls": "count",
    "local.cross_norm.busy_s": "s",
    "local.cross_norm.distinct_ratio": "ratio",
    "local.verify.self_s": "s",
    "cli.cache.hits": "count",
    "cli.cache.misses": "count",
    "cli.cache.hit_ratio": "ratio",
    "cli.cache.discards": "count",
    "cli.cache.io_s": "s",
    "cli.cache.file_bytes": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}
# metrics that are times; every other metric is a deterministic count or ratio
TIME_METRICS = {name for name, unit in LAYER_UNITS.items() if unit in ("s", "ns")}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, package_modules: dict):
        self.modules = package_modules
        self.spans: list[list] = []  # [name, start, end, parent index, command id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.command: int | None = None
        self.integrals: list[tuple[int, int, int, bool]] = []  # nodes, rounds, final-round nodes, capped
        self.cross_ids: list[tuple] = []
        self.cache_file_bytes = 0

    # -- wrapping -----------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.command]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, counter):
        """Counts calls without a span; counter(args, kwargs, result) names the count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[counter(args, kwargs, result)] += 1
            return result

        return wrapper

    def _panel_integrate(self, fn):
        signature = inspect.signature(fn)

        def run(f, *args, **kwargs):
            sizes: list[int] = []
            timed_f = self._spanned("quadrature.integrand", f)

            def integrand(r):
                sizes.append(int(np.size(r)))
                return timed_f(r)

            result = spanned(integrand, *args, **kwargs)
            bound = signature.bind(f, *args, **kwargs)
            bound.apply_defaults()
            rounds = len(sizes) // 2
            self.integrals.append(
                (sum(sizes), rounds, sum(sizes[-2:]), rounds == bound.arguments["cfg"].max_refinements + 1)
            )
            return result

        spanned = self._spanned("quadrature.panel_integrate", fn)
        return functools.wraps(fn)(run)

    def install(self):
        """Rebind the traced names in every package module; returns the undo."""
        mods = self.modules
        replaced: list[tuple[object, str, object]] = []

        def rebind(original, wrapper):
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        replaced.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

        def count_points(args, kwargs, result):
            self.counts["specfun.jv.points"] += int(np.size(args[1]))

        rebind(scipy.special.jv, self._spanned("specfun.jv", scipy.special.jv, count_points))
        for module, attr, name in SPANNED:
            original = getattr(mods[module], attr)
            rebind(original, self._spanned(name, original))
        lower_bound = mods["norms"].lower_bound_L0
        rebind(lower_bound, self._counted(lower_bound, lambda *_: "norms.bounds"))
        panel = mods["quadrature"].panel_integrate
        rebind(panel, self._panel_integrate(panel))

        cross_signature = inspect.signature(mods["local"].cross_norm)
        default_radius = mods["norms"].default_radius

        def cross_identity(args, kwargs, result):
            bound = cross_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            R = default_radius(a["d"], a["k"]) if a["R"] is None else a["R"]
            self.cross_ids.append((a["d"], a["p"], a["k"], R, a["cfg"].key()))

        cross = mods["local"].cross_norm
        rebind(cross, self._spanned("local.cross_norm", cross, cross_identity))

        p0 = mods["sweep"].p0_report

        def grid_points(args, kwargs, result):
            self.counts["sweep.grid_points"] += sum(len(res.p_grid) for res in result[1])

        rebind(p0, self._spanned("sweep.p0_report", p0, grid_points))

        cache_cls = mods["cli"].ResultCache

        def hit_or_miss(args, kwargs, result):
            return "cli.cache.misses" if result is None else "cli.cache.hits"

        def discarded(args, kwargs, result):
            cache = args[0]
            try:
                payload = json.loads(cache.path.read_text())
            except (OSError, ValueError):
                return
            if isinstance(payload, dict) and payload.get("config_digest") != cache.config_digest:
                self.counts["cli.cache.discards"] += 1

        def file_size(args, kwargs, result):
            try:
                self.cache_file_bytes = args[0].path.stat().st_size
            except OSError:
                self.cache_file_bytes = 0

        for attr, wrap in (
            ("_load", lambda fn: self._spanned("cli.cache.io", fn, discarded)),
            ("save", lambda fn: self._spanned("cli.cache.io", fn, file_size)),
            ("get_enclosure", lambda fn: self._counted(fn, hit_or_miss)),
        ):
            original = vars(cache_cls)[attr]
            replaced.append((cache_cls, attr, original))
            setattr(cache_cls, attr, wrap(original))

        def uninstall():
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)

        return uninstall

    # -- reduction ----------------------------------------------------------

    def span_rows(self, pass_index: int):
        for index, (name, start, end, parent, command) in enumerate(self.spans):
            yield {"pass": pass_index, "id": index, "name": name, "start": start, "end": end,
                   "parent": parent, "command": command}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass (trace.overhead_s is added by the caller)."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        self_time: Counter = Counter()
        spans = self.spans
        for name, start, end, parent, _ in spans:
            duration = end - start
            calls[name] += 1
            self_time[name] += duration
            if parent is not None:
                self_time[spans[parent][0]] -= duration
            # busy time counts only the outermost span of a name
            ancestor = parent
            while ancestor is not None and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor is None:
                busy[name] += duration
        integrations_from_memo_path = sum(
            1
            for name, _, _, parent, _ in spans
            if name == "quadrature.integrate_weighted_power"
            and parent is not None
            and spans[parent][0] == "norms.lambda_power"
        )
        nodes = sum(i[0] for i in self.integrals)
        hits, misses = self.counts["cli.cache.hits"], self.counts["cli.cache.misses"]
        points = self.counts["specfun.jv.points"]
        return {
            "specfun.jv.calls": calls["specfun.jv"],
            "specfun.jv.points": points,
            "specfun.jv.busy_s": busy["specfun.jv"],
            "specfun.jv.ns_per_point": _ratio(busy["specfun.jv"] * 1e9, points),
            "specfun.sup_critical_point.calls": calls["specfun.sup_critical_point"],
            "specfun.sup_critical_point.busy_s": busy["specfun.sup_critical_point"],
            "norms.lambda_sup.calls": calls["norms.lambda_sup"],
            "norms.lambda_sup.self_s": self_time["norms.lambda_sup"],
            "norms.lambda_power.calls": calls["norms.lambda_power"],
            "norms.lambda_power.memo_hit_ratio": (
                1.0 - _ratio(integrations_from_memo_path, calls["norms.lambda_power"])
                if calls["norms.lambda_power"] else 0.0
            ),
            "norms.best_k.busy_s": busy["norms.best_k"],
            "norms.bounds.calls": calls["norms.bounds"] + self.counts["norms.bounds"],
            "norms.bounds.busy_s": busy["norms.bounds"],
            "quadrature.panel_integrate.calls": calls["quadrature.panel_integrate"],
            "quadrature.panel_integrate.busy_s": busy["quadrature.panel_integrate"],
            "quadrature.panel_integrate.self_s": self_time["quadrature.panel_integrate"],
            "quadrature.integrand.busy_s": busy["quadrature.integrand"],
            "quadrature.nodes": nodes,
            "quadrature.rounds": sum(i[1] for i in self.integrals),
            "quadrature.capped": sum(1 for i in self.integrals if i[3]),
            "quadrature.useful_node_ratio": _ratio(sum(i[2] for i in self.integrals), nodes),
            "hierarchy.verify.calls": calls["hierarchy.verify"],
            "hierarchy.verify.self_s": self_time["hierarchy.verify"],
            "sweep.p0_report.calls": calls["sweep.p0_report"],
            "sweep.p0_report.self_s": self_time["sweep.p0_report"],
            "sweep.grid_points": self.counts["sweep.grid_points"],
            "local.cross_norm.calls": calls["local.cross_norm"],
            "local.cross_norm.busy_s": busy["local.cross_norm"],
            "local.cross_norm.distinct_ratio": _ratio(len(set(self.cross_ids)), len(self.cross_ids)),
            "local.verify.self_s": self_time["local.verify"],
            "cli.cache.hits": hits,
            "cli.cache.misses": misses,
            "cli.cache.hit_ratio": _ratio(hits, hits + misses),
            "cli.cache.discards": self.counts["cli.cache.discards"],
            "cli.cache.io_s": busy["cli.cache.io"],
            "cli.cache.file_bytes": self.cache_file_bytes,
            "cli.main.self_s": self_time["cli.main"],
        }


def combine_passes(per_pass: list[dict], traced_pass_s: list[float], plain_pass_s: list[float]) -> dict:
    """Counters from the first traced pass, times as the median over traced
    passes, and the overhead as traced minus untraced median pass time."""
    combined = {}
    for name in LAYER_UNITS:
        if name == "trace.overhead_s":
            combined[name] = statistics.median(traced_pass_s) - statistics.median(plain_pass_s)
        elif name in TIME_METRICS:
            combined[name] = float(statistics.median(m[name] for m in per_pass))
        else:
            combined[name] = per_pass[0][name]
    return combined
