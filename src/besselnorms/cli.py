"""Command-line front end: norm computations, hierarchy verifications,
exponent sweeps and reproduction tables, all reading and writing one
result store kept in a JSON file.

Exit codes: 0 all checks passed, 1 any FAIL or INCONCLUSIVE outcome,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__, golden, store
from .hierarchy import VerificationRecord, verify_p4, verify_pst, verify_sup_monotone
from .local import DeficitCoefficients, verify_holder_chain, verify_second_order_positivity
from .norms import (
    INFINITY,
    NormKey,
    NormValue,
    Status,
    lambda_finite,
    lambda_sup,
    stein_tomas_exponent,
)
from .quadrature import Enclosure, QuadConfig, integrate_weighted_power
from .specfun import SpecfunDomainError
from .store import ResultCache
from .sweep import p0_report

__all__ = ["main"]

CACHE_ENV_VAR = "BESSELNORMS_CACHE"
DEFAULT_CACHE_PATH = "~/.cache/besselnorms/results.json"

PRECISION_PROFILES = {
    "fast": QuadConfig(abs_tol=1e-8, max_refinements=8),
    "standard": QuadConfig(),
    "high": QuadConfig(gauss_order_high=24, gauss_order_low=12, abs_tol=1e-13),
}


def fmt(x: float) -> str:
    """Decimal string with 17 significant digits (stable across platforms)."""
    return format(float(x), ".17g")


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj) -> str:
    return hashlib.sha256(_canonical_json(obj).encode()).hexdigest()


@dataclass
class RunConfig:
    precision: str = "standard"
    radius: float | None = None
    output_format: str = "text"
    cache_path: str | None = None
    grid_step: float = 0.01

    @property
    def quad(self) -> QuadConfig:
        return PRECISION_PROFILES[self.precision]

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "radius": self.radius,
            "output_format": self.output_format,
            "grid_step": self.grid_step,
        }

    def digest(self) -> str:
        # output format does not affect computed values
        payload = {"precision": self.precision, "radius": self.radius, "grid_step": self.grid_step}
        return _digest(payload)


def _enclosure_dict(enc: Enclosure) -> dict:
    return {
        "lower": fmt(enc.lower),
        "upper": fmt(enc.upper),
        "truncation_bound": fmt(enc.truncation_bound),
        "quad_error_bound": fmt(enc.quad_error_bound),
    }


def _witness_value(value) -> object:
    if isinstance(value, Enclosure):
        return _enclosure_dict(value)
    if isinstance(value, NormValue):
        return {
            "enclosure": _enclosure_dict(value.enclosure),
            "R_used": fmt(value.R_used),
            "method": value.method.value,
        }
    if isinstance(value, DeficitCoefficients):
        return {
            "cross_norm": _enclosure_dict(value.cross_norm),
            "lambda0_p": _enclosure_dict(value.lambda0_p),
            "coeff_real_part": fmt(value.coeff_real_part),
            "coeff_modulus": fmt(value.coeff_modulus),
        }
    if isinstance(value, float):
        return fmt(value)
    return value


def _record_entry(record: VerificationRecord) -> dict:
    return {
        "id": record.claim_id.value,
        "params": {key: ("inf" if v == INFINITY else v) for key, v in record.params.items()},
        "status": record.status.value,
        "witnesses": [{"description": desc, "value": _witness_value(v)} for desc, v in record.witnesses],
        "k_explicit": record.k_explicit,
        "k_dominated_from": record.k_dominated_from,
        "notes": record.notes,
        "value_lower": None,
        "value_upper": None,
    }


def _report(config: RunConfig, entries: list[dict]) -> dict:
    status = "PASS" if all(e["status"] == "PASS" for e in entries) else "FAIL"
    return {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config.to_dict(),
        "config_digest": config.digest(),
        "entries": entries,
        "status": status,
    }


def _emit(report: dict, config: RunConfig) -> None:
    if config.output_format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif config.output_format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["id", "params", "value_lower", "value_upper", "status"])
        for entry in report["entries"]:
            writer.writerow(
                [
                    entry["id"],
                    _canonical_json(entry["params"]),
                    entry.get("value_lower") or "",
                    entry.get("value_upper") or "",
                    entry["status"],
                ]
            )
        sys.stdout.write(out.getvalue())
    else:
        for entry in report["entries"]:
            line = f"{entry['id']}  {_canonical_json(entry['params'])}  {entry['status']}"
            if entry.get("value_lower") is not None:
                line += f"  [{entry['value_lower']}, {entry['value_upper']}]"
            print(line)
            for note in entry.get("notes", []) or []:
                print(f"    note: {note}")
        print(f"overall: {report['status']}")


def _parse_p(raw: str) -> float:
    if raw.lower() in ("inf", "infinity"):
        return INFINITY
    return float(raw)


def cmd_norm(args, config: RunConfig) -> int:
    p = _parse_p(args.p)
    if math.isinf(p):
        nv = lambda_sup(args.d, args.k)
    else:
        nv = lambda_finite(NormKey(args.d, p, args.k), args.R, config.quad)
    entry = {
        "id": "norm",
        "params": {"d": args.d, "p": "inf" if math.isinf(p) else p, "k": args.k, "R": nv.R_used},
        "status": "PASS",
        "method": nv.method.value,
        "value_lower": fmt(nv.enclosure.lower),
        "value_upper": fmt(nv.enclosure.upper),
        "notes": [],
    }
    _emit(_report(config, [entry]), config)
    return 0


_VERIFY_CLAIMS = ("sup-monotone", "p4", "pst", "holder-chain", "local-coefficients")


def _default_pair_exponent(d: int) -> float:
    if d == 2:
        return 6.0
    if d == 3:
        return 4.0
    return stein_tomas_exponent(d)


def cmd_verify(args, config: RunConfig) -> int:
    quad = config.quad
    if args.claim == "sup-monotone":
        record = verify_sup_monotone(args.d, args.K if args.K is not None else 10)
        if args.d > 10:
            record.notes.append("dimension beyond the published tables; engine extension")
    elif args.claim == "p4":
        record = verify_p4(args.d, quad)
    elif args.claim == "pst":
        record = verify_pst(args.d, quad)
    elif args.claim == "holder-chain":
        p = _parse_p(args.p) if args.p is not None else _default_pair_exponent(args.d)
        record = verify_holder_chain(args.d, p, args.k if args.k is not None else 1, args.R, quad)
    else:
        p = _parse_p(args.p) if args.p is not None else _default_pair_exponent(args.d)
        record = verify_second_order_positivity(
            args.d, p, args.K if args.K is not None else 8, args.R, quad
        )
    report = _report(config, [_record_entry(record)])
    _emit(report, config)
    return 0 if record.status is Status.PASS else 1


def cmd_sweep(args, config: RunConfig) -> int:
    threshold, results = p0_report(args.d, step=config.grid_step, cfg=config.quad)
    entries = []
    ok = golden.meets_threshold(threshold, golden.THRESHOLDS[args.d])
    for res in results:
        entries.append(
            {
                "id": f"sweep-{res.regime.value}",
                "params": {"d": res.d, "p_min": res.p_grid[0], "p_max": res.p_grid[-1], "step": config.grid_step},
                "status": "PASS" if res.certified_threshold is not None else "FAIL",
                "certified_threshold": res.certified_threshold,
                "published_threshold": res.published_threshold,
                "limit_margin": fmt(res.limit_margin) if res.limit_margin is not None else None,
                "value_lower": None,
                "value_upper": None,
                "notes": res.notes,
            }
        )
    entries.append(
        {
            "id": "p0-threshold",
            "params": {"d": args.d},
            "status": "PASS" if ok else "FAIL",
            "certified_threshold": threshold,
            "published_threshold": golden.THRESHOLDS[args.d],
            "value_lower": fmt(threshold),
            "value_upper": fmt(threshold),
            "notes": [],
        }
    )
    _emit(_report(config, entries), config)
    return 0 if ok else 1


def _table_rows(table: str, config: RunConfig) -> list[dict]:
    rows = []  # (label, params, computed value, reference)
    if table == "sup-values":
        for d, ref in golden.SUP_NORM_DEGREE_ONE.items():
            rows.append((f"sup d={d} k=1", {"d": d, "k": 1}, lambda_sup(d, 1).enclosure.midpoint, ref))
    elif table in ("p4-truncations", "pst-truncations"):
        if table == "p4-truncations":
            name, exponent = "p4", lambda d: 4.0
            parts = [(40, {(d, 1): ref for d, ref in golden.P4_TRUNCATED_40_K1.items()}), (200, golden.P4_TRUNCATED_200)]
        else:
            name, exponent = "pst", stein_tomas_exponent
            parts = [
                (50, {(d, 1): ref for d, ref in golden.PST_TRUNCATED_50_K1.items()}),
                (200, golden.PST_TRUNCATED_200),
                (50, {(d, 0): ref for d, ref in golden.PST_TRUNCATED_50_K0.items()}),
            ]
        for R, refs in parts:
            for (d, k), ref in refs.items():
                # the stored truncated integral on [0, R], without its tail
                truncated = store.current().enclosure("power", integrate_weighted_power, d, exponent(d), k, float(R), config.quad)
                rows.append((f"{name} [0,{R}] d={d} k={k}", {"d": d, "k": k, "R": R}, truncated.midpoint, ref))
    elif table == "thresholds":
        for d, ref in golden.THRESHOLDS.items():
            value = p0_report(d, step=config.grid_step, cfg=config.quad)[0]
            rows.append((f"threshold d={d}", {"d": d}, value, ref))
    else:
        raise SpecfunDomainError(f"unknown table {table!r}")

    entries = []
    for label, params, value, ref in rows:
        matched = golden.meets_threshold(value, ref) if table == "thresholds" else golden.matches_6sf(value, ref)
        entries.append(
            {
                "id": f"reproduce:{label}",
                "params": params,
                "status": "PASS" if matched else "FAIL",
                "value_lower": fmt(value),
                "value_upper": fmt(value),
                "reference": fmt(ref),
                "notes": [],
            }
        )
    return entries


def cmd_reproduce(args, config: RunConfig) -> int:
    report = _report(config, _table_rows(args.table, config))
    _emit(report, config)
    return 0 if report["status"] == "PASS" else 1


def cmd_cache(args, config: RunConfig) -> int:
    if args.action == "clear":
        store.current().clear()
        print("cache cleared")
        return 0
    raise SpecfunDomainError(f"unknown cache action {args.action!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="besselnorms", description=__doc__)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "csv", "text"), default="text")
    shared.add_argument("--precision", choices=tuple(PRECISION_PROFILES), default="standard")
    shared.add_argument("--cache", default=None, help=f"cache file path (default ${CACHE_ENV_VAR} or {DEFAULT_CACHE_PATH})")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[shared], **kw))

    p_norm = sub.add_parser("norm", help="compute one weighted norm")
    p_norm.add_argument("--d", type=int, required=True)
    p_norm.add_argument("--p", required=True, help="exponent, a real or 'inf'")
    p_norm.add_argument("--k", type=int, required=True)
    p_norm.add_argument("--R", type=float, default=None)

    p_verify = sub.add_parser("verify", help="run one hierarchy or local check")
    p_verify.add_argument("claim", choices=_VERIFY_CLAIMS)
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.add_argument("--p", default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--K", type=int, default=None)
    p_verify.add_argument("--R", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="certify the exponent threshold for one dimension")
    p_sweep.add_argument("--d", type=int, required=True)
    p_sweep.add_argument("--step", type=float, default=0.01)

    p_repro = sub.add_parser("reproduce", help="regenerate one published table")
    p_repro.add_argument("--table", required=True, choices=("sup-values", "p4-truncations", "pst-truncations", "thresholds"))
    p_repro.add_argument("--step", type=float, default=0.01)

    p_cache = sub.add_parser("cache", help="manage the result cache")
    p_cache.add_argument("action", choices=("clear",))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        precision=args.precision,
        radius=getattr(args, "R", None),
        output_format=args.format,
        cache_path=args.cache,
        grid_step=getattr(args, "step", 0.01),
    )
    handlers = {
        "norm": cmd_norm,
        "verify": cmd_verify,
        "sweep": cmd_sweep,
        "reproduce": cmd_reproduce,
        "cache": cmd_cache,
    }
    cache = ResultCache(config.cache_path or os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_PATH)
    try:
        with store.using(cache):
            return handlers[args.command](args, config)
    except (SpecfunDomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        cache.save()


if __name__ == "__main__":
    sys.exit(main())
