"""Acceptance suite: one test per published acceptance criterion, named so
the verbose pytest report reads as a per-criterion pass/fail checklist.

Criterion 3 is split in two: the published (d=3, k=4) figure is inconsistent
with two independent computations (panel quadrature and a fine-grid Simpson
check agree on 0.0615959, not 0.0615859), so that single entry is asserted
as published under a strict expected-failure marker; everything else must
match outright.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import jv

from besselnorms import golden
from besselnorms.cli import main
from besselnorms.norms import (
    NormKey,
    lambda4_zero,
    lambda_power,
    stein_tomas_exponent,
    upper_bound_U,
)
from besselnorms.quadrature import integrate_weighted_power, tail_bound

from oracles import simpson_weighted_power, weighted_l2_identity

LOCAL_PAIRS = [(2, 6.0), (3, 4.0), (4, 10.0 / 3.0), (5, 3.0)]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-cache")


def run_cli(capsys, cache_dir, *argv):
    code = main([*argv, "--format", "json", "--cache", str(cache_dir / "cache.json")])
    return code, json.loads(capsys.readouterr().out)


def test_criterion_01_sup_norm_table(capsys, cache_dir):
    start = time.monotonic()
    code, report = run_cli(capsys, cache_dir, "reproduce", "--table", "sup-values")
    elapsed = time.monotonic() - start
    assert code == 0
    assert len(report["entries"]) == 9
    assert all(entry["status"] == "PASS" for entry in report["entries"])
    assert elapsed < 5.0, f"sup-value table took {elapsed:.2f}s (budget 5s)"


def test_criterion_02_p4_truncated_degree_one(cache_dir):
    start = time.monotonic()
    for d, reference in golden.P4_TRUNCATED_40_K1.items():
        value = integrate_weighted_power(d, 4.0, 1, 40.0).midpoint
        assert golden.matches_6sf(value, reference), (d, value, reference)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"p=4 degree-one table took {elapsed:.2f}s (budget 30s)"


def test_criterion_03_p4_truncated_200():
    discrepant = set(golden.P4_TRUNCATED_200_RECOMPUTED)
    for (d, k), reference in golden.P4_TRUNCATED_200.items():
        if (d, k) in discrepant:
            continue
        value = integrate_weighted_power(d, 4.0, k, 200.0).midpoint
        assert golden.matches_6sf(value, reference), (d, k, value, reference)


@pytest.mark.xfail(
    strict=True,
    reason="published figure 0.0615859 for (d=3, k=4) disagrees with two "
    "independent computations, which both give 0.0615959",
)
def test_criterion_03_known_discrepant_entry():
    value = integrate_weighted_power(3, 4.0, 4, 200.0).midpoint
    assert golden.matches_6sf(value, golden.P4_TRUNCATED_200[(3, 4)])


def test_criterion_03_discrepant_entry_recomputed_value_confirmed():
    value = integrate_weighted_power(3, 4.0, 4, 200.0).midpoint
    simpson, allowance = simpson_weighted_power(3, 4.0, 4, 200.0)
    assert golden.matches_6sf(value, golden.P4_TRUNCATED_200_RECOMPUTED[(3, 4)])
    assert abs(value - simpson) <= allowance + 1e-10


def test_criterion_04_stein_tomas_truncations():
    for d, reference in golden.PST_TRUNCATED_50_K1.items():
        value = integrate_weighted_power(d, stein_tomas_exponent(d), 1, 50.0).midpoint
        assert golden.matches_6sf(value, reference), ("k1", d, value, reference)
    for (d, k), reference in golden.PST_TRUNCATED_200.items():
        value = integrate_weighted_power(d, stein_tomas_exponent(d), k, 200.0).midpoint
        assert golden.matches_6sf(value, reference), ("200", d, k, value, reference)
    for d, reference in golden.PST_TRUNCATED_50_K0.items():
        value = integrate_weighted_power(d, stein_tomas_exponent(d), 0, 50.0).midpoint
        assert golden.matches_6sf(value, reference), ("k0", d, value, reference)


def test_criterion_05_hierarchy_verifiers(capsys, cache_dir):
    p4_split = {3: 5, 4: 3, 5: 2, 6: 2, 7: 2, 8: 2, 9: 3, 10: 3}
    pst_split = {4: 4, 5: 3, 6: 3, 7: 3, 8: 3, 9: 3, 10: 3}
    for d in range(2, 11):
        code, report = run_cli(
            capsys, cache_dir, "verify", "sup-monotone", "--d", str(d), "--K", "30"
        )
        assert code == 0 and report["status"] == "PASS", ("sup-monotone", d)
    for d in range(3, 11):
        code, report = run_cli(capsys, cache_dir, "verify", "p4", "--d", str(d))
        assert code == 0, ("p4", d)
        assert report["entries"][0]["k_dominated_from"] == p4_split[d], ("p4 split", d)
    for d in range(4, 11):
        code, report = run_cli(capsys, cache_dir, "verify", "pst", "--d", str(d))
        assert code == 0, ("pst", d)
        assert report["entries"][0]["k_dominated_from"] == pst_split[d], ("pst split", d)


def test_criterion_06_thresholds(capsys, cache_dir):
    start = time.monotonic()
    for d in range(2, 11):
        code, report = run_cli(capsys, cache_dir, "sweep", "--d", str(d))
        assert code == 0, ("sweep", d)
        summary = report["entries"][-1]
        assert summary["certified_threshold"] <= golden.THRESHOLDS[d] + 1e-12, (
            d,
            summary["certified_threshold"],
        )
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"threshold sweeps took {elapsed:.2f}s (budget 300s)"


def test_criterion_07_closed_form_oracles():
    assert abs(weighted_l2_identity(1, 1.0) - 1.0) < 1e-12
    assert abs(lambda4_zero(3) ** 4 - 1.0 / math.pi) < 1e-10
    enclosure = lambda_power(NormKey(3, 4.0, 0))
    assert enclosure.lower <= 1.0 / math.pi <= enclosure.upper


def test_criterion_08_local_maximizer_suite(capsys, cache_dir):
    for d, p in LOCAL_PAIRS:
        for k in range(1, 9):
            code, report = run_cli(
                capsys, cache_dir,
                "verify", "holder-chain", "--d", str(d), "--p", repr(p), "--k", str(k),
            )
            assert code == 0 and report["status"] == "PASS", ("holder-chain", d, p, k)
        code, report = run_cli(
            capsys, cache_dir,
            "verify", "local-coefficients", "--d", str(d), "--p", repr(p), "--K", "8",
        )
        assert code == 0 and report["status"] == "PASS", ("local-coefficients", d, p)


def test_criterion_09_property_suite():
    rng = np.random.default_rng(20240817)

    # Bessel recurrence residuals
    for _ in range(50):
        nu = rng.integers(0, 41) / 2.0
        r = rng.uniform(0.05, 250.0)
        lhs = (2.0 * nu / r) * jv(nu, r)
        rhs = jv(nu - 1.0, r) + jv(nu + 1.0, r)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    # normalization identity
    for r in (1.0, 13.7, 90.0):
        total = jv(0, r) ** 2 + 2.0 * sum(jv(m, r) ** 2 for m in range(1, int(2 * r) + 40))
        assert abs(total - 1.0) < 1e-9

    # U monotone in the degree
    for d in range(2, 11):
        p = stein_tomas_exponent(d) if d >= 4 else (6.0 if d == 2 else 4.0)
        values = [upper_bound_U(d, p, k) for k in range(1, 41)]
        assert values == sorted(values, reverse=True), d

    # tail bound monotone in the radius
    for d, p, k in [(3, 4.0, 1), (5, 3.0, 2), (10, 4.0, 3)]:
        bounds = [tail_bound(d, p, k, R) for R in (40.0, 100.0, 200.0, 500.0)]
        assert bounds == sorted(bounds, reverse=True)

    # enclosure soundness against the Simpson oracle, 20 random cases
    checked = 0
    while checked < 20:
        d = int(rng.integers(2, 9))
        k = int(rng.integers(0, 5))
        p = 2.0 * d / (d - 1) + float(rng.uniform(0.2, 4.0))
        R = float(rng.uniform(15.0, 60.0))
        enc = integrate_weighted_power(d, p, k, R)
        value, allowance = simpson_weighted_power(d, p, k, R)
        assert enc.lower - allowance <= value <= enc.upper + allowance, (d, p, k, R)
        checked += 1
