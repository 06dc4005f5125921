"""Command-line front end: norm computations, hierarchy verifications,
exponent sweeps and reproduction tables.  Each command keeps its integrals
in an in-process result store; --cache PATH journals the store to a file
(see store): a stamp line naming the engine version and the quadrature
plan, then one line per entry, last line winning, a torn last line losing
only its entry; a file under another stamp is discarded whole.  A command
appends only the integrals it computed, so a warm command leaves the file
as it was; without --cache no file is read or written.

Exit codes: 0 when the report's status is PASS, 1 when it is FAIL (any
FAIL or INCONCLUSIVE entry, a sweep that certifies no threshold included),
2 for a usage or domain error (a degree search past the order limit
included) or a quadrature still above its tolerance after the refinement
cap, with no report; an engine error prints one "error: ..." line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import sys
from datetime import datetime, timezone

from . import __version__, golden, store
from .hierarchy import verify_p4, verify_pst, verify_sup_monotone
from .local import DeficitCoefficients, verify_holder_chain, verify_second_order_positivity
from .norms import (
    INFINITY,
    Claim,
    NormKey,
    NormValue,
    Status,
    lambda_finite,
    lambda_sup,
    stein_tomas_exponent,
    truncated_power,
)
from .quadrature import Enclosure, QuadratureError
from .specfun import SpecfunDomainError, check_admissible
from .store import ResultCache
from .sweep import MAX_GRID_POINTS, p0_report

__all__ = ["main"]

STEP_HELP = f"exponent grid step of the sweeps (default 0.01); a step giving a grid of more than {MAX_GRID_POINTS:,} points exits 2"


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


def _entry(claim: Claim) -> dict:
    """The report entry of a claim, built here only (every command returns
    one claim per entry): "inf" for an infinite parameter, the value ends
    (null when absent) as fmt strings, and the fields of its kind, each
    witness value in its report form."""

    def witness_value(value) -> object:
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

    fields = dict(claim.fields)
    if "witnesses" in fields:
        fields["witnesses"] = [{"description": desc, "value": witness_value(v)} for desc, v in fields["witnesses"]]
    return {
        "id": claim.id,
        "params": {key: ("inf" if v == INFINITY else v) for key, v in claim.params.items()},
        "status": claim.status.value,
        "value_lower": None if claim.lower is None else fmt(claim.lower),
        "value_upper": None if claim.upper is None else fmt(claim.upper),
        "notes": list(claim.notes),
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


def cmd_norm(args) -> list[Claim]:
    p = _parse_p(args.p)
    if p == INFINITY:
        nv = lambda_sup(args.d, args.k)
    else:
        nv = lambda_finite(NormKey(args.d, p, args.k), args.R)
    params = {"d": args.d, "p": p, "k": args.k, "R": nv.R_used}
    enc = nv.enclosure
    return [Claim("norm", params, lower=enc.lower, upper=enc.upper, fields={"method": nv.method.value})]


def _pair_exponent(args) -> float:
    """--p, or the paper's exponent for the dimension: 6 (d=2), 4 (d=3), p_st(d)."""
    check_admissible(args.d)
    if args.p is not None:
        return _parse_p(args.p)
    return {2: 6.0, 3: 4.0}.get(args.d, stein_tomas_exponent(args.d))


def cmd_verify(args) -> list[Claim]:
    return [args.verify(args)]


def cmd_sweep(args) -> list[Claim]:
    threshold, results = p0_report(args.d, step=args.step)
    claims = [
        Claim(
            f"sweep-{res.regime.value}",
            {"d": res.d, "p_min": res.p_grid[0], "p_max": res.p_grid[-1], "step": args.step},
            Status.PASS if res.certified_threshold is not None else Status.FAIL,
            fields={
                "certified_threshold": res.certified_threshold,
                "published_threshold": res.published_threshold,
                "limit_margin": fmt(res.limit_margin) if res.limit_margin is not None else None,
            },
        )
        for res in results
    ]
    published = golden.THRESHOLDS[args.d]
    status = Status.PASS if golden.meets_threshold(threshold, published) else Status.FAIL
    fields = {"certified_threshold": threshold, "published_threshold": published}
    claims.append(Claim("p0-threshold", {"d": args.d}, status, lower=threshold, upper=threshold, fields=fields))
    return claims


def cmd_reproduce(args) -> list[Claim]:
    matches = golden.meets_threshold if args.table == "thresholds" else golden.matches_6sf
    claims = []

    def row(label: str, params: dict, value: float, ref: float) -> None:
        """One row: the computed value and its one "matches the published value" verdict."""
        status = Status.PASS if matches(value, ref) else Status.FAIL
        fields = {"reference": fmt(ref)}
        claims.append(Claim(f"reproduce:{label}", params, status, lower=value, upper=value, fields=fields))

    if args.table == "sup-values":
        for d, ref in golden.SUP_NORM_DEGREE_ONE.items():
            row(f"sup d={d} k=1", {"d": d, "k": 1}, lambda_sup(d, 1).enclosure.midpoint, ref)
    elif args.table == "thresholds":
        for d, ref in golden.THRESHOLDS.items():
            row(f"threshold d={d}", {"d": d}, p0_report(d, step=args.step)[0], ref)
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
                row(f"{name} [0,{R}] d={d} k={k}", {"d": d, "k": k, "R": R}, truncated.midpoint, ref)
    return claims


class _Subparser(argparse.ArgumentParser):
    """A subcommand's parser: an argument it does not take is an error
    under its own usage, which names the flags it does take."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="besselnorms", description=__doc__)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "csv", "text"), default="text")
    shared.add_argument("--cache", default=None, help="journal file that keeps computed integrals across runs (default: none)")
    # every subcommand takes the shared flags, except verify: its claims do
    subparser = lambda parents=(shared,), **kw: _Subparser(parents=list(parents), **kw)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=subparser)

    p_norm = sub.add_parser("norm", help="compute one weighted norm")
    p_norm.add_argument("--d", type=int, required=True)
    p_norm.add_argument("--p", required=True, help="exponent, a real or 'inf'")
    p_norm.add_argument("--k", type=int, required=True)
    p_norm.add_argument("--R", type=float, default=None)
    p_norm.set_defaults(run=cmd_norm)

    # one subparser per claim, with only the flags the claim reads
    p_verify = sub.add_parser("verify", help="run one hierarchy or local check", parents=())
    claims = p_verify.add_subparsers(dest="claim", required=True, parser_class=subparser)

    def claim(name, verify):
        p_claim = claims.add_parser(name)
        p_claim.add_argument("--d", type=int, required=True)
        p_claim.set_defaults(run=cmd_verify, verify=verify)
        return p_claim

    claim("sup-monotone", lambda a: verify_sup_monotone(a.d, a.K)).add_argument("--K", type=int, default=10)
    claim("p4", lambda a: verify_p4(a.d))
    claim("pst", lambda a: verify_pst(a.d))
    holder = claim("holder-chain", lambda a: verify_holder_chain(a.d, _pair_exponent(a), a.k, a.R))
    holder.add_argument("--k", type=int, default=1)
    local = claim("local-coefficients", lambda a: verify_second_order_positivity(a.d, _pair_exponent(a), a.K, a.R))
    local.add_argument("--K", type=int, default=8)
    for pair in (holder, local):
        pair.add_argument("--p", default=None)
        pair.add_argument("--R", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="certify the exponent threshold for one dimension")
    p_sweep.add_argument("--d", type=int, required=True)
    p_sweep.add_argument("--step", type=float, default=0.01, help=STEP_HELP)
    p_sweep.set_defaults(run=cmd_sweep)

    p_repro = sub.add_parser("reproduce", help="regenerate one published table")
    p_repro.add_argument("--table", required=True, choices=("sup-values", "p4-truncations", "pst-truncations", "thresholds"))
    p_repro.add_argument("--step", type=float, default=0.01, help=STEP_HELP)
    p_repro.set_defaults(run=cmd_reproduce)
    return parser


def _radius(args) -> float | None:
    """--R as the command reads it: None where the command has no --R, and
    for norm --p inf, which accepts --R and ignores it."""
    if args.command == "norm" and _parse_p(args.p) == INFINITY:
        return None
    return getattr(args, "R", None)


def main(argv: list[str] | None = None) -> int:
    """Run one command; build, print and score its report."""
    args = build_parser().parse_args(argv)
    cache = ResultCache(args.cache)
    try:
        with store.using(cache):
            claims = args.run(args)
    except (SpecfunDomainError, ValueError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        cache.save()
    status = "PASS" if all(claim.status is Status.PASS for claim in claims) else "FAIL"
    # the output format does not affect computed values, so the digest leaves it out
    config = {"radius": _radius(args), "grid_step": getattr(args, "step", 0.01)}
    report = {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": {**config, "output_format": args.format},
        "config_digest": hashlib.sha256(_canonical_json(config).encode()).hexdigest(),
        "entries": [_entry(claim) for claim in claims],
        "status": status,
    }
    _emit(report, args.format)
    return 0 if status == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
