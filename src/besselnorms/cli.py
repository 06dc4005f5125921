"""Command-line front end: norm computations, hierarchy verifications,
exponent sweeps and reproduction tables.  Each command keeps its integrals
in an in-process result store; --cache PATH mirrors the store to a JSON
file, and without it no file is read or written.

Exit codes: 0 when the report's status is PASS, 1 when it is FAIL (any
FAIL or INCONCLUSIVE entry, a sweep that certifies no threshold included),
2 usage or domain error (a degree search past the order limit included).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import sys
from datetime import datetime, timezone

from . import __version__, golden, store
from .hierarchy import verify_p4, verify_pst, verify_sup_monotone
from .local import DeficitCoefficients, verify_holder_chain, verify_second_order_positivity
from .norms import (
    INFINITY,
    NormKey,
    NormValue,
    lambda_finite,
    lambda_sup,
    stein_tomas_exponent,
    truncated_power,
)
from .quadrature import Enclosure
from .specfun import SpecfunDomainError, check_admissible
from .store import ResultCache
from .sweep import p0_report

__all__ = ["main"]


def fmt(x: float) -> str:
    """Decimal string with 17 significant digits (stable across platforms)."""
    return format(float(x), ".17g")


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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


def _entry(id: str, params: dict, status: str, lower=None, upper=None, notes=(), **fields) -> dict:
    """One report entry: the value ends (null when absent) as fmt strings,
    plus the fields of its kind."""
    return {
        "id": id,
        "params": params,
        "status": status,
        "value_lower": None if lower is None else fmt(lower),
        "value_upper": None if upper is None else fmt(upper),
        "notes": list(notes),
        **fields,
    }


def _emit(report: dict, output_format: str) -> None:
    if output_format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif output_format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["id", "params", "value_lower", "value_upper", "status"])
        for entry in report["entries"]:
            ends = [entry["value_lower"] or "", entry["value_upper"] or ""]
            writer.writerow([entry["id"], _canonical_json(entry["params"]), *ends, entry["status"]])
        sys.stdout.write(out.getvalue())
    else:
        for entry in report["entries"]:
            line = f"{entry['id']}  {_canonical_json(entry['params'])}  {entry['status']}"
            if entry["value_lower"] is not None:
                line += f"  [{entry['value_lower']}, {entry['value_upper']}]"
            print(line)
            for note in entry["notes"]:
                print(f"    note: {note}")
        print(f"overall: {report['status']}")


def _parse_p(raw: str) -> float:
    if raw.lower() in ("inf", "infinity"):
        return INFINITY
    return float(raw)


def cmd_norm(args) -> list[dict]:
    p = _parse_p(args.p)
    if math.isinf(p):
        nv = lambda_sup(args.d, args.k)
    else:
        nv = lambda_finite(NormKey(args.d, p, args.k), args.R)
    params = {"d": args.d, "p": "inf" if math.isinf(p) else p, "k": args.k, "R": nv.R_used}
    return [_entry("norm", params, "PASS", nv.enclosure.lower, nv.enclosure.upper, method=nv.method.value)]


def _pair_exponent(args) -> float:
    """--p, or the paper's exponent for the dimension: 6 (d=2), 4 (d=3), p_st(d)."""
    check_admissible(args.d)
    if args.p is not None:
        return _parse_p(args.p)
    if args.d == 2:
        return 6.0
    if args.d == 3:
        return 4.0
    return stein_tomas_exponent(args.d)


def cmd_verify(args) -> list[dict]:
    if args.claim == "sup-monotone":
        record = verify_sup_monotone(args.d, args.K if args.K is not None else 10)
        if args.d > 10:
            record.notes.append("dimension beyond the published tables; engine extension")
    elif args.claim == "p4":
        record = verify_p4(args.d)
    elif args.claim == "pst":
        record = verify_pst(args.d)
    elif args.claim == "holder-chain":
        record = verify_holder_chain(args.d, _pair_exponent(args), args.k if args.k is not None else 1, args.R)
    else:
        record = verify_second_order_positivity(
            args.d, _pair_exponent(args), args.K if args.K is not None else 8, args.R
        )
    params = {key: ("inf" if v == INFINITY else v) for key, v in record.params.items()}
    witnesses = [{"description": desc, "value": _witness_value(v)} for desc, v in record.witnesses]
    fields = {"witnesses": witnesses, "k_explicit": record.k_explicit, "k_dominated_from": record.k_dominated_from}
    return [_entry(record.claim_id.value, params, record.status.value, notes=record.notes, **fields)]


def cmd_sweep(args) -> list[dict]:
    threshold, results = p0_report(args.d, step=args.step)
    entries = [
        _entry(
            f"sweep-{res.regime.value}",
            {"d": res.d, "p_min": res.p_grid[0], "p_max": res.p_grid[-1], "step": args.step},
            "PASS" if res.certified_threshold is not None else "FAIL",
            notes=res.notes,
            certified_threshold=res.certified_threshold,
            published_threshold=res.published_threshold,
            limit_margin=fmt(res.limit_margin) if res.limit_margin is not None else None,
        )
        for res in results
    ]
    published = golden.THRESHOLDS[args.d]
    entries.append(
        _entry(
            "p0-threshold",
            {"d": args.d},
            "PASS" if golden.meets_threshold(threshold, published) else "FAIL",
            threshold,
            threshold,
            certified_threshold=threshold,
            published_threshold=published,
        )
    )
    return entries


def cmd_reproduce(args) -> list[dict]:
    rows = []  # (label, params, computed value, reference)
    if args.table == "sup-values":
        for d, ref in golden.SUP_NORM_DEGREE_ONE.items():
            rows.append((f"sup d={d} k=1", {"d": d, "k": 1}, lambda_sup(d, 1).enclosure.midpoint, ref))
    elif args.table == "thresholds":
        for d, ref in golden.THRESHOLDS.items():
            rows.append((f"threshold d={d}", {"d": d}, p0_report(d, step=args.step)[0], ref))
    else:
        if args.table == "p4-truncations":
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
                truncated = truncated_power(NormKey(d, exponent(d), k), float(R))
                rows.append((f"{name} [0,{R}] d={d} k={k}", {"d": d, "k": k, "R": R}, truncated.midpoint, ref))
    matches = golden.meets_threshold if args.table == "thresholds" else golden.matches_6sf
    return [
        _entry(f"reproduce:{label}", params, "PASS" if matches(value, ref) else "FAIL", value, value, reference=fmt(ref))
        for label, params, value, ref in rows
    ]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="besselnorms", description=__doc__)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "csv", "text"), default="text")
    shared.add_argument("--cache", default=None, help="JSON file that keeps computed integrals across runs (default: none)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[shared], **kw))

    p_norm = sub.add_parser("norm", help="compute one weighted norm")
    p_norm.add_argument("--d", type=int, required=True)
    p_norm.add_argument("--p", required=True, help="exponent, a real or 'inf'")
    p_norm.add_argument("--k", type=int, required=True)
    p_norm.add_argument("--R", type=float, default=None)
    p_norm.set_defaults(run=cmd_norm)

    p_verify = sub.add_parser("verify", help="run one hierarchy or local check")
    p_verify.add_argument("claim", choices=("sup-monotone", "p4", "pst", "holder-chain", "local-coefficients"))
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.add_argument("--p", default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--K", type=int, default=None)
    p_verify.add_argument("--R", type=float, default=None)
    p_verify.set_defaults(run=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="certify the exponent threshold for one dimension")
    p_sweep.add_argument("--d", type=int, required=True)
    p_sweep.add_argument("--step", type=float, default=0.01)
    p_sweep.set_defaults(run=cmd_sweep)

    p_repro = sub.add_parser("reproduce", help="regenerate one published table")
    p_repro.add_argument("--table", required=True, choices=("sup-values", "p4-truncations", "pst-truncations", "thresholds"))
    p_repro.add_argument("--step", type=float, default=0.01)
    p_repro.set_defaults(run=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; build, print and score its report."""
    args = build_parser().parse_args(argv)
    cache = ResultCache(args.cache)
    try:
        with store.using(cache):
            entries = args.run(args)
    except (SpecfunDomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        cache.save()
    status = "PASS" if all(e["status"] == "PASS" for e in entries) else "FAIL"
    # the output format does not affect computed values, so the digest leaves it out
    config = {"radius": getattr(args, "R", None), "grid_step": getattr(args, "step", 0.01)}
    report = {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": {**config, "output_format": args.format},
        "config_digest": hashlib.sha256(_canonical_json(config).encode()).hexdigest(),
        "entries": entries,
        "status": status,
    }
    _emit(report, args.format)
    return 0 if status == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
