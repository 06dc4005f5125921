"""Expected outcome of every benchmark command.

An outcome differs from the expected one if the command raised, returned
the wrong exit code, or gave a wrong verdict, split or value.  References:

- the golden tables and the hierarchy splits that tests/test_acceptance.py
  asserts; ``reproduce --table p4-truncations`` exits 1 with the
  (d=3, k=4) row as its only FAIL;
- the independent Simpson oracle of tests/oracles.py for every finite-p
  norm and cross integral;
- a fine-grid maximum computed here, sharing no code with the package, for
  every sup norm.

Oracle values are computed once per identity and outside the timed worker.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import jv

from besselnorms import golden
from besselnorms.norms import default_radius

from oracles import simpson_cross_term, simpson_weighted_power

# first degree dominated by the U bound, as tests/test_acceptance.py asserts
P4_SPLIT = {3: 5, 4: 3, 5: 2, 6: 2, 7: 2, 8: 2, 9: 3, 10: 3}
PST_SPLIT = {4: 4, 5: 3, 6: 3, 7: 3, 8: 3, 9: 3, 10: 3}
DISCREPANT_P4_ROW = (3, 4)
# relative allowance of the fine-grid sup against the reported enclosure
SUP_RTOL = 1e-9


def _flags(argv: list[str]) -> dict[str, str]:
    start = 2 if argv[0] == "verify" else 1
    return dict(zip(argv[start::2], argv[start + 1 :: 2]))


def _p(raw: str) -> float:
    return math.inf if raw == "inf" else float(raw)


def _encloses(enc: dict, value: float, allowance: float) -> bool:
    return float(enc["lower"]) - allowance <= value <= float(enc["upper"]) + allowance


def fine_grid_sup(d: int, k: int) -> float:
    """max over r > 0 of |J_nu(r)| r^(1-d/2), nu = d/2 - 1 + k: a 1e-3 grid
    up to 3 nu + 30, then a bounded Brent refinement around the grid peak."""
    nu = d / 2.0 - 1.0 + k

    def profile(r):
        return np.abs(jv(nu, r)) * np.power(r, 1.0 - d / 2.0)

    grid = np.concatenate([[1e-8], np.arange(1e-3, 3.0 * nu + 30.0, 1e-3)])
    values = profile(grid)
    i = int(np.argmax(values))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    refined = minimize_scalar(lambda r: -profile(r), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-13})
    return max(float(values[i]), float(-refined.fun))


class Checker:
    """Checks command outcomes; caches oracle values by identity."""

    def __init__(self):
        self._oracles: dict = {}

    def _oracle(self, fn, *args):
        key = (fn.__name__, *args)
        if key not in self._oracles:
            self._oracles[key] = fn(*args)
        return self._oracles[key]

    def check(self, argv: list[str], outcome: dict) -> str | None:
        """None if the outcome is the expected one, else the reason."""
        if outcome["error"] is not None:
            return f"raised {outcome['error']}"
        try:
            report = json.loads(outcome["stdout"])
        except ValueError:
            return f"exit {outcome['code']} without a JSON report: {outcome['stderr'].strip()[:200]}"
        flags = _flags(argv)
        if argv[0] == "norm":
            return self._norm(flags, outcome["code"], report)
        if argv[0] == "reproduce":
            return self._reproduce(flags["--table"], outcome["code"], report)
        if argv[0] == "sweep":
            return self._sweep(int(flags["--d"]), outcome["code"], report)
        return self._verify(argv[1], flags, outcome["code"], report)

    @staticmethod
    def _passed(code, report) -> str | None:
        if code != 0:
            return f"exit code {code}, expected 0"
        if report["status"] != "PASS":
            return f"status {report['status']}, expected PASS"
        return None

    def _norm(self, flags, code, report) -> str | None:
        bad = self._passed(code, report)
        if bad:
            return bad
        d, p, k = int(flags["--d"]), _p(flags["--p"]), int(flags["--k"])
        entry = report["entries"][0]
        lower, upper = float(entry["value_lower"]), float(entry["value_upper"])
        if math.isinf(p):
            ref = self._oracle(fine_grid_sup, d, k)
            if not lower - SUP_RTOL * ref <= ref <= upper + SUP_RTOL * ref:
                return f"sup norm [{lower}, {upper}] misses fine-grid maximum {ref}"
            return None
        R = float(entry["params"]["R"])
        expected_R = float(flags["--R"]) if "--R" in flags else default_radius(d, k)
        if R != expected_R:
            return f"R_used {R}, expected {expected_R}"
        value, allowance = self._oracle(simpson_weighted_power, d, p, k, R)
        if not lower**p - allowance <= value <= upper**p + allowance:
            return f"[{lower}^p, {upper}^p] misses Simpson value {value}"
        return None

    def _reproduce(self, table, code, report) -> str | None:
        expected_code = 1 if table == "p4-truncations" else 0
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        rows = {}
        for entry in report["entries"]:
            params = entry["params"]
            rows[(params["d"], params.get("k"), params.get("R"))] = entry
        expected = {}  # (d, k, R) -> (reference, expected status)
        if table == "sup-values":
            expected = {(d, 1, None): (ref, "PASS") for d, ref in golden.SUP_NORM_DEGREE_ONE.items()}
        elif table == "p4-truncations":
            expected = {(d, 1, 40): (ref, "PASS") for d, ref in golden.P4_TRUNCATED_40_K1.items()}
            for (d, k), ref in golden.P4_TRUNCATED_200.items():
                if (d, k) == DISCREPANT_P4_ROW:
                    expected[(d, k, 200)] = (golden.P4_TRUNCATED_200_RECOMPUTED[(d, k)], "FAIL")
                else:
                    expected[(d, k, 200)] = (ref, "PASS")
        elif table == "pst-truncations":
            expected = {(d, 1, 50): (ref, "PASS") for d, ref in golden.PST_TRUNCATED_50_K1.items()}
            expected.update({(d, k, 200): (ref, "PASS") for (d, k), ref in golden.PST_TRUNCATED_200.items()})
            expected.update({(d, 0, 50): (ref, "PASS") for d, ref in golden.PST_TRUNCATED_50_K0.items()})
        else:
            expected = {(d, None, None): (ref, "PASS") for d, ref in golden.THRESHOLDS.items()}
        if set(rows) != set(expected):
            return f"rows {sorted(rows, key=str)} differ from the expected {sorted(expected, key=str)}"
        for key, (ref, status) in expected.items():
            entry = rows[key]
            if entry["status"] != status:
                return f"row {key} has status {entry['status']}, expected {status}"
            value = float(entry["value_lower"])
            ok = value <= ref + 1e-12 if table == "thresholds" else golden.matches_6sf(value, ref)
            if not ok:
                return f"row {key} value {value} does not match {ref}"
        return None

    def _sweep(self, d, code, report) -> str | None:
        bad = self._passed(code, report)
        if bad:
            return bad
        summary = report["entries"][-1]
        threshold = summary["certified_threshold"]
        if summary["id"] != "p0-threshold" or threshold > golden.THRESHOLDS[d] + 1e-12:
            return f"certified threshold {threshold} above the published {golden.THRESHOLDS[d]}"
        return None

    def _verify(self, claim, flags, code, report) -> str | None:
        bad = self._passed(code, report)
        if bad:
            return bad
        entry = report["entries"][0]
        d = int(flags["--d"])
        witnesses = {w["description"]: w["value"] for w in entry["witnesses"]}
        if claim == "p4" or claim == "pst":
            split = (P4_SPLIT if claim == "p4" else PST_SPLIT)[d]
            if entry["k_dominated_from"] != split:
                return f"split {entry['k_dominated_from']}, expected {split}"
            return None
        if claim == "sup-monotone":
            encs = [w["value"]["enclosure"] for w in entry["witnesses"]]
            if len(encs) != int(flags["--K"]) + 1:
                return f"{len(encs)} sup norms, expected {int(flags['--K']) + 1}"
            for k in range(1, len(encs)):
                if not float(encs[k - 1]["lower"]) > float(encs[k]["upper"]):
                    return f"sup norms not strictly decreasing at k={k}"
            sup1 = 0.5 * (float(encs[1]["lower"]) + float(encs[1]["upper"]))
            if not golden.matches_6sf(sup1, golden.SUP_NORM_DEGREE_ONE[d]):
                return f"degree-one sup norm {sup1} does not match {golden.SUP_NORM_DEGREE_ONE[d]}"
            return None
        p = _p(flags["--p"])
        if claim == "holder-chain":
            k = int(flags["--k"])
            checks = [(k, witnesses["cross norm M(k)"], witnesses["degree-0 power L0^p"])]
        else:
            coeffs = [witnesses[f"coefficients at k={k}"] for k in range(1, int(flags["--K"]) + 1)]
            checks = [(k, c["cross_norm"], c["lambda0_p"]) for k, c in enumerate(coeffs, start=1)]
        lam0p = self._oracle(simpson_weighted_power, d, p, 0, default_radius(d, 0))
        for k, cross, power0 in checks:
            m = self._oracle(simpson_cross_term, d, p, k, default_radius(d, k))
            for enc, (ref, allowance), what in ((cross, m, f"M({k})"), (power0, lam0p, "L0^p")):
                if not _encloses(enc, ref, allowance):
                    return f"{what} enclosure [{enc['lower']}, {enc['upper']}] misses Simpson value {ref}"
        return None
