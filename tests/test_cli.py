import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

import besselnorms
import besselnorms.local as local
import besselnorms.norms as norms
import besselnorms.quadrature as quadrature
import besselnorms.store as store
import besselnorms.sweep as sweep
from besselnorms.cli import ResultCache, fmt, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name so that each call appends its arguments to the returned list."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or original(*a, **kw))
    return calls


@pytest.fixture()
def cache_file(tmp_path):
    return str(tmp_path / "results.json")


class TestFmt:
    def test_seventeen_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.33333333333333331"
        assert float(fmt(0.1)) == 0.1


class TestNormCommand:
    def test_finite_norm(self, capsys, cache_file):
        code, report = run_json(
            capsys, "norm", "--d", "3", "--p", "4", "--k", "1", "--R", "40", "--cache", cache_file
        )
        assert code == 0
        entry = report["entries"][0]
        lower, upper = float(entry["value_lower"]), float(entry["value_upper"])
        # norm enclosure must contain the fourth root of truncated value + tail
        assert lower < (0.144681 + 1.0 / 40.0) ** 0.25 < upper + 0.01
        assert lower < upper

    def test_sup_norm(self, capsys, cache_file):
        code, report = run_json(capsys, "norm", "--d", "2", "--p", "inf", "--k", "1", "--cache", cache_file)
        assert code == 0
        entry = report["entries"][0]
        assert float(entry["value_lower"]) == pytest.approx(0.581865, abs=5e-7)
        assert entry["params"]["p"] == "inf"
        assert entry["method"] == "CRITICAL_POINT"

    def test_inadmissible_exponent_exits_2(self, capsys, cache_file):
        code, _ = run(capsys, "norm", "--d", "2", "--p", "3", "--k", "0", "--cache", cache_file)
        assert code == 2

    def test_unparseable_exponent_exits_2(self, capsys, cache_file):
        code, _ = run(capsys, "norm", "--d", "2", "--p", "abc", "--k", "0", "--cache", cache_file)
        assert code == 2

    @pytest.mark.parametrize("exponent", ["-inf", "-Infinity", "-1e400"])
    def test_negative_infinite_exponent_exits_2(self, capsys, cache_file, exponent):
        # only +inf selects the sup norm; -inf is an inadmissible exponent
        code = main(["norm", "--d", "3", f"--p={exponent}", "--k", "1", "--cache", cache_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "inadmissible exponent p=-inf" in captured.err

    def test_sup_order_beyond_accuracy_limit_exits_2(self, capsys, cache_file):
        code, _ = run(capsys, "norm", "--d", "3", "--p", "inf", "--k", "60", "--cache", cache_file)
        assert code == 2

    def test_sup_search_order_beyond_accuracy_limit_exits_2(self, capsys, cache_file):
        # J_60 is admitted, but the critical-point search needs J_61
        code, _ = run(capsys, "norm", "--d", "2", "--p", "inf", "--k", "60", "--cache", cache_file)
        assert code == 2


class TestVerifyCommand:
    def test_p4_passes(self, capsys, cache_file):
        code, report = run_json(capsys, "verify", "p4", "--d", "5", "--cache", cache_file)
        assert code == 0
        assert report["status"] == "PASS"
        assert report["entries"][0]["k_dominated_from"] == 2

    def test_pst_passes(self, capsys, cache_file):
        code, report = run_json(capsys, "verify", "pst", "--d", "4", "--cache", cache_file)
        assert code == 0
        assert report["entries"][0]["k_dominated_from"] == 4

    def test_sup_monotone_past_the_order_limit_exits_2(self, capsys, cache_file):
        # degree 60 at d = 10 needs 2 nu = 128 > MAX_TWICE_NU; the batch is rejected whole
        code = main(["verify", "sup-monotone", "--d", "10", "--K", "60", "--cache", cache_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "exceeds MAX_TWICE_NU" in captured.err

    def test_sup_monotone_beyond_published_range_notes_extension(self, capsys, cache_file):
        code, report = run_json(
            capsys, "verify", "sup-monotone", "--d", "11", "--K", "3", "--cache", cache_file
        )
        assert code == 0
        assert any("engine extension" in n for n in report["entries"][0]["notes"])

    def test_holder_chain(self, capsys, cache_file):
        code, report = run_json(
            capsys, "verify", "holder-chain", "--d", "3", "--p", "4", "--k", "1", "--cache", cache_file
        )
        assert code == 0
        assert report["entries"][0]["status"] == "PASS"

    def test_holder_chain_overlap_is_inconclusive(self, capsys, cache_file):
        # at R = 10 the Holder product [0.2015, 0.3070] overlaps L0^p
        # [0.3023, 0.4023]: nothing is refuted, and the report still exits 1
        code, report = run_json(
            capsys, "verify", "holder-chain", "--d", "3", "--p", "4", "--k", "1", "--R", "10", "--cache", cache_file
        )
        assert code == 1 and report["status"] == "FAIL"
        assert report["entries"][0]["status"] == "INCONCLUSIVE"

    def test_local_coefficients(self, capsys, cache_file):
        code, report = run_json(
            capsys, "verify", "local-coefficients", "--d", "3", "--K", "2", "--cache", cache_file
        )
        assert code == 0
        assert report["entries"][0]["id"] == "SECOND_ORDER_POSITIVITY"
        assert report["entries"][0]["k_dominated_from"] == 1

    def test_bad_dimension_exits_2(self, capsys, cache_file):
        code, _ = run(capsys, "verify", "p4", "--d", "2", "--cache", cache_file)
        assert code == 2


class TestSweepCommand:
    def test_d3(self, capsys, cache_file):
        code, report = run_json(capsys, "sweep", "--d", "3", "--cache", cache_file)
        assert code == 0
        summary = report["entries"][-1]
        assert summary["id"] == "p0-threshold"
        assert summary["certified_threshold"] <= summary["published_threshold"]

    @pytest.mark.parametrize(
        "argv",
        [("sweep", "--d", "3"), ("reproduce", "--table", "thresholds")],
        ids=["sweep", "reproduce-thresholds"],
    )
    @pytest.mark.parametrize("step", ["0", "-0.01", "nan", "inf"])
    def test_step_not_finite_and_positive_exits_2(self, capsys, cache_file, argv, step):
        code = main([*argv, "--step", step, "--cache", cache_file])
        assert code == 2
        assert "need a finite grid step > 0" in capsys.readouterr().err


class TestOutsideInputs:
    """Inputs that once ended in a traceback: each now exits with a report or 2."""

    def test_degree_search_past_the_order_limit_exits_2(self, capsys, cache_file):
        # near the strip end p = 3.2, U first falls below L0 beyond 2 nu = 120
        code = main(["verify", "holder-chain", "--d", "3", "--p", "3.21", "--k", "1", "--cache", cache_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "no domination degree for d=3, p=3.21" in captured.err

    @pytest.mark.parametrize("claim", ["holder-chain", "local-coefficients"])
    def test_dimension_one_exits_2(self, capsys, cache_file, claim):
        # the default exponent p_st(1) divides by d - 1, so the dimension is checked first
        code = main(["verify", claim, "--d", "1", "--cache", cache_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "need d >= 2" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--d", "3", "--p", "4", "--k", "1", "--R", "inf"),
            ("norm", "--d", "3", "--p", "4", "--k", "1", "--R", "nan"),
            ("norm", "--d", "3", "--p", "4", "--k", "1", "--R", "1e300"),
            ("verify", "holder-chain", "--d", "3", "--p", "4", "--k", "1", "--R", "inf"),
        ],
        ids=["norm-inf", "norm-nan", "norm-1e300", "holder-chain-inf"],
    )
    def test_radius_beyond_the_argument_limit_exits_2(self, capsys, cache_file, argv):
        code = main([*argv, "--cache", cache_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "truncation radius must lie in (0, MAX_ARGUMENT=1000.0]" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("holder-chain", "--d", "3", "--k", "0"),
            ("holder-chain", "--d", "2", "--k", "0"),
            ("holder-chain", "--d", "5", "--p", "3", "--k", "0"),
            ("holder-chain", "--d", "3", "--k", "-1"),
            ("local-coefficients", "--d", "3", "--K", "0"),
            ("local-coefficients", "--d", "3", "--K", "-2"),
        ],
        ids=["holder-d3", "holder-d2", "holder-d5-p3", "holder-negative", "local-K0", "local-K-2"],
    )
    def test_degenerate_local_check_exits_2(self, capsys, monkeypatch, cache_file, argv):
        # at k = 0, M(0) = L0^p and the chain cannot separate; K < 1 leaves no
        # degree to check: both are usage errors, rejected before any integral
        searches = count_calls(monkeypatch, local, "best_k")
        code = main(["verify", *argv, "--cache", cache_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "need" in captured.err and ">= 1" in captured.err
        assert searches == []

    @pytest.mark.parametrize(
        "argv",
        [("sweep", "--d", "3", "--step", "1e-9"), ("reproduce", "--table", "thresholds", "--step", "1e-9")],
        ids=["sweep", "reproduce"],
    )
    def test_grid_past_the_point_limit_exits_2(self, capsys, monkeypatch, cache_file, argv):
        # 5.6e10 points would take 417 GiB: the grid is refused before any allocation
        anchors = count_calls(monkeypatch, sweep, "lambda_power")
        code = main([*argv, "--cache", cache_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "more than MAX_GRID_POINTS=1000000 points" in captured.err
        assert anchors == []

    def test_jacobi_weight_past_the_gamma_range_exits_2(self, capsys, cache_file):
        # the end weight (1 - x^2)^99.5 of a kinked panel needs Gamma(201) for
        # its mu_0, past the float range: one error line, no report
        code = main(["norm", "--d", "2", "--p", "99.5", "--k", "3", "--cache", cache_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            "error: Gauss-Jacobi weight exponents (99.5, 99.5) too large: mu_0 overflows"
        ]

    def test_quadrature_past_the_refinement_cap_exits_2(self, capsys, monkeypatch, cache_file):
        # norm --d 2 --p 1000 --k 3 halves panels until the cap, about 15 s;
        # a stand-in for panel_integrate raises the same error at once
        message = "remainder 1.0e-300 above tolerance 0.0e+00 after 30 refinements (516630 panels)"

        def capped(*args, **kwargs):
            raise quadrature.QuadratureError(message)

        monkeypatch.setattr(quadrature, "panel_integrate", capped)
        code = main(["norm", "--d", "2", "--p", "1000", "--k", "3", "--cache", cache_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_zero_evaluation_target_exits_2_before_any_halving(self, capsys, cache_file):
        # |A_3|^1000 r underflows to 0 at every starting node, so the target is
        # 0 while the proven remainder is positive; the 32 starting panels of
        # 2 pi on [0, 200] are refused as they are, in well under a second
        code = main(["norm", "--d", "2", "--p", "1000", "--k", "3", "--cache", cache_file])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: integrand underflows to 0 at every node of 32 panels: remainder ")
        assert line.endswith(" above tolerance 0")

    def test_sweep_certifying_nothing_fails(self, capsys, cache_file):
        code, report = run_json(capsys, "sweep", "--d", "10", "--step", "100", "--cache", cache_file)
        assert code == 1 and report["status"] == "FAIL"
        summary = report["entries"][-1]
        assert summary["id"] == "p0-threshold" and summary["status"] == "FAIL"
        assert summary["certified_threshold"] is summary["value_lower"] is summary["value_upper"] is None

    def test_threshold_table_row_certifying_nothing_fails(self, capsys, cache_file):
        code, report = run_json(capsys, "reproduce", "--table", "thresholds", "--step", "100", "--cache", cache_file)
        assert code == 1 and report["status"] == "FAIL"
        empty = [e["params"]["d"] for e in report["entries"] if e["value_lower"] is None]
        assert empty == [9, 10]
        assert all(e["status"] == "FAIL" for e in report["entries"] if e["params"]["d"] in empty)


class TestReproduceCommand:
    def test_sup_values_all_match(self, capsys, cache_file):
        code, report = run_json(capsys, "reproduce", "--table", "sup-values", "--cache", cache_file)
        assert code == 0
        assert len(report["entries"]) == 9
        assert all(e["status"] == "PASS" for e in report["entries"])

    def test_p4_truncations_flags_known_discrepant_row(self, capsys, cache_file):
        # the published (d=3, k=4) figure disagrees with two independent
        # computations; the reproduction must report exactly that one mismatch
        code, report = run_json(capsys, "reproduce", "--table", "p4-truncations", "--cache", cache_file)
        assert code == 1
        failing = [e for e in report["entries"] if e["status"] == "FAIL"]
        assert [e["params"] for e in failing] == [{"d": 3, "k": 4, "R": 200}]
        assert float(failing[0]["value_lower"]) == pytest.approx(0.0615959, abs=5e-8)


def _csv_rows(out: str) -> list[tuple]:
    header, *rows = csv.reader(out.splitlines())
    assert header == ["id", "params", "value_lower", "value_upper", "status"]
    return [(i, json.loads(params), lower or None, upper or None, status) for i, params, lower, upper, status in rows]


def _text_rows(out: str) -> tuple[list[tuple], str]:
    *lines, overall = out.splitlines()
    rows = []
    for line in lines:
        if line.startswith("    note: "):
            continue
        i, params, status, *ends = line.split("  ")
        lower, upper = ends[0].strip("[]").split(", ") if ends else (None, None)
        rows.append((i, json.loads(params), lower, upper, status))
    assert overall.startswith("overall: ")
    return rows, overall.removeprefix("overall: ")


class TestOneReportThreeFormats:
    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--d", "3", "--p", "4", "--k", "1", "--R", "40"),
            ("verify", "holder-chain", "--d", "3", "--p", "4", "--k", "1"),
            ("sweep", "--d", "3"),
            ("sweep", "--d", "10", "--step", "100"),
            ("reproduce", "--table", "sup-values"),
            ("reproduce", "--table", "p4-truncations"),
        ],
        ids=["norm", "verify", "sweep", "sweep-fail", "reproduce", "reproduce-fail"],
    )
    def test_csv_and_text_carry_the_json_entries(self, capsys, cache_file, argv):
        json_code, report = run_json(capsys, *argv, "--cache", cache_file)
        expected = [(e["id"], e["params"], e["value_lower"], e["value_upper"], e["status"]) for e in report["entries"]]
        csv_code, csv_out = run(capsys, *argv, "--cache", cache_file, "--format", "csv")
        text_code, text_out = run(capsys, *argv, "--cache", cache_file, "--format", "text")
        text_rows, overall = _text_rows(text_out)
        assert _csv_rows(csv_out) == text_rows == expected
        assert overall == report["status"]
        assert json_code == csv_code == text_code == (0 if report["status"] == "PASS" else 1)
        notes = [n for e in report["entries"] for n in e["notes"]]
        assert [line.removeprefix("    note: ") for line in text_out.splitlines() if line.startswith("    note: ")] == notes


class TestReportSchema:
    """The keys of every entry kind and the JSON type of each field: numbers
    for parameters and thresholds, 17-digit strings for values, ints for
    degree splits."""

    COMMON = {"id", "params", "status", "value_lower", "value_upper", "notes"}
    VERIFY = COMMON | {"witnesses", "k_explicit", "k_dominated_from"}
    THRESHOLDS = COMMON | {"certified_threshold", "published_threshold"}

    @staticmethod
    def is_number(value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    @classmethod
    def check_types(cls, entry):
        assert isinstance(entry["id"], str) and entry["status"] in ("PASS", "FAIL", "INCONCLUSIVE")
        assert all(isinstance(note, str) for note in entry["notes"])
        assert all(cls.is_number(v) or (key, v) == ("p", "inf") for key, v in entry["params"].items())
        for key in ("certified_threshold", "published_threshold"):
            assert key not in entry or cls.is_number(entry[key])
        for key in ("value_lower", "value_upper", "limit_margin", "reference"):
            value = entry.get(key)
            assert value is None or isinstance(value, str) and fmt(float(value)) == value
        for key in ("k_explicit", "k_dominated_from"):
            assert entry.get(key) is None or type(entry[key]) is int
        for witness in entry.get("witnesses", []):
            assert set(witness) == {"description", "value"} and isinstance(witness["description"], str)
            leaves = [witness["value"]]
            while leaves:
                leaf = leaves.pop()
                if isinstance(leaf, dict):
                    leaves.extend(leaf.values())
                else:
                    assert isinstance(leaf, str)

    @pytest.mark.parametrize(
        "argv,keys",
        [
            (("norm", "--d", "3", "--p", "4", "--k", "1"), [COMMON | {"method"}]),
            (("norm", "--d", "3", "--p", "inf", "--k", "1"), [COMMON | {"method"}]),
            (("verify", "sup-monotone", "--d", "3", "--K", "3"), [VERIFY]),
            (("verify", "p4", "--d", "3"), [VERIFY]),
            (("verify", "pst", "--d", "4"), [VERIFY]),
            (("verify", "holder-chain", "--d", "3", "--k", "1"), [VERIFY]),
            (("verify", "local-coefficients", "--d", "3", "--K", "2"), [VERIFY]),
            (("sweep", "--d", "5"), [THRESHOLDS | {"limit_margin"}] * 2 + [THRESHOLDS]),
            (("reproduce", "--table", "sup-values"), [COMMON | {"reference"}] * 9),
        ],
        ids=["norm", "norm-inf", "sup-monotone", "p4", "pst", "holder-chain", "local-coefficients", "sweep", "reproduce"],
    )
    def test_keys_and_types(self, capsys, cache_file, argv, keys):
        code, report = run_json(capsys, *argv, "--cache", cache_file)
        assert code == 0
        assert [set(entry) for entry in report["entries"]] == keys
        for entry in report["entries"]:
            self.check_types(entry)
        if argv[0] == "verify":
            assert report["entries"][0]["witnesses"]


class TestOutputFormats:
    def test_csv(self, capsys, cache_file):
        code, out = run(
            capsys, "norm", "--d", "2", "--p", "inf", "--k", "1", "--cache", cache_file, "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,params,value_lower,value_upper,status"
        assert lines[1].startswith("norm,")

    def test_text_overall_line(self, capsys, cache_file):
        code, out = run(capsys, "verify", "p4", "--d", "5", "--cache", cache_file)
        assert code == 0
        assert out.strip().endswith("overall: PASS")

    def test_json_deterministic_modulo_timestamp(self, capsys, cache_file):
        _, first = run_json(capsys, "verify", "p4", "--d", "5", "--cache", cache_file)
        _, second = run_json(capsys, "verify", "p4", "--d", "5", "--cache", cache_file)
        first.pop("timestamp"), second.pop("timestamp")
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--d", "3", "--p", "4", "--k", "1", "--R", "40"),
            ("norm", "--d", "3", "--p", "inf", "--k", "2"),
            ("verify", "p4", "--d", "5"),
            ("verify", "pst", "--d", "6"),
            ("verify", "holder-chain", "--d", "3", "--p", "4", "--k", "1"),
            ("verify", "local-coefficients", "--d", "3", "--K", "2"),
            ("sweep", "--d", "2"),
            ("sweep", "--d", "5"),
            ("reproduce", "--table", "p4-truncations"),
        ],
        ids=["norm", "norm-inf", "p4", "pst", "holder-chain", "local-coefficients", "sweep-d2", "sweep-d5", "p4-table"],
    )
    def test_warm_report_body_equals_cold(self, capsys, cache_file, monkeypatch, argv):
        cold_code, cold = run_json(capsys, *argv, "--cache", cache_file)
        # the warm run may read only the cache file, not what this process kept
        norms.clear_memo_cache()
        integrals = count_calls(monkeypatch, quadrature, "panel_integrate")
        warm_code, warm = run_json(capsys, *argv, "--cache", cache_file)
        cold.pop("timestamp"), warm.pop("timestamp")
        assert (warm_code, warm) == (cold_code, cold)
        assert integrals == []


class TestCache:
    def test_hit_returns_identical_enclosure(self, capsys, cache_file):
        args = ("norm", "--d", "4", "--p", "4", "--k", "1", "--R", "40", "--cache", cache_file)
        _, first = run_json(capsys, *args)
        _, second = run_json(capsys, *args)
        assert first["entries"][0]["value_lower"] == second["entries"][0]["value_lower"]
        assert first["entries"][0]["value_upper"] == second["entries"][0]["value_upper"]

    def test_corrupt_cache_is_ignored(self, capsys, cache_file, tmp_path):
        with open(cache_file, "w") as fh:
            fh.write("{not json")
        code, report = run_json(
            capsys, "norm", "--d", "4", "--p", "4", "--k", "1", "--R", "40", "--cache", cache_file
        )
        assert code == 0
        assert report["status"] == "PASS"

    def test_other_engine_version_is_never_returned(self, capsys, cache_file, monkeypatch):
        args = ("norm", "--d", "4", "--p", "4", "--k", "1", "--R", "40", "--cache", cache_file)
        _, fresh = run_json(capsys, *args)
        (key,) = ResultCache(cache_file).data
        # a wrong value under the right key, in a journal stamped by another engine version
        stale = ResultCache(cache_file, "0.0.0")
        stale.data[key] = "[1.0, 1.0, 0.0, 0.0]"
        stale.added.append(key)
        stale.save()
        assert Path(cache_file).read_text() == f"0.0.0\n{key}\t[1.0, 1.0, 0.0, 0.0]"
        norms.clear_memo_cache()
        integrals = count_calls(monkeypatch, norms, "integrate_weighted_power")
        _, again = run_json(capsys, *args)
        assert len(integrals) == 1
        assert again["entries"] == fresh["entries"]

    def test_entry_key_is_pinned(self, capsys, cache_file):
        # repr(("power", d, p, k, R)) since 0.7.0; the plan that computed the
        # entries is named once, in the stamp after the engine version:
        # EVEN_PANEL_LENGTH, EVEN_GAUSS_ORDER, then the kinked panel length,
        # orders and target
        run_json(capsys, "norm", "--d", "4", "--p", "4", "--k", "1", "--R", "40", "--cache", cache_file)
        stamp, line = Path(cache_file).read_text().split("\n")
        key, _ = line.split("\t")
        assert stamp == f"{besselnorms.__version__} (6.283185307179586, 32, 1.5707963267948966, 16, 8, 1e-11)"
        assert key == "('power', 4, 4.0, 1, 40.0)"

    def test_file_from_engine_0_1_0_is_discarded(self, cache_file):
        # 0.1.0 stored the (d=5, p=3) cross integrals without edges at the zeros,
        # e.g. M(1) on [0, 200] some 6,700 error estimates below its true value;
        # 0.2.0 stored every non-even-p enclosure before the Gauss-Jacobi panels,
        # e.g. the (d=4, p=10/3) M(1) on [0, 200], under the same QuadConfig key;
        # 0.3.0 split every non-even-p integral at bisected zeros of J_nu; at the
        # Newton zeros the same M(1) has an error estimate 4.8e-19 larger
        stale_files = {
            "0.1.0": ("M(1)", [0.10531172276898517, 0.10531172277929292, 0.0, 5.153875483633352e-12]),
            "0.2.0": ("M(1)", [0.1102204273214045, 0.11022042732679069, 0.0, 2.6930935622678456e-12]),
            "0.3.0": ("M(1)", [0.11022042732296254, 0.11022042732547645, 0.0, 1.2569572750298233e-12]),
        }
        for version, (key, entry) in stale_files.items():
            # the one-document file those versions wrote
            Path(cache_file).write_text(json.dumps({"config_digest": version, "entries": {key: entry}}, sort_keys=True))
            assert ResultCache(cache_file).data == {}, version

    def test_corrupt_entry_is_dropped(self, capsys, cache_file):
        args = ("norm", "--d", "4", "--p", "4", "--k", "1", "--R", "40", "--cache", cache_file)
        _, fresh = run_json(capsys, *args)
        cache = ResultCache(cache_file)
        (key,) = cache.data
        for bad in ("[2.0, 1.0, 0.0, 0.0]", "[NaN, 1.0, 1.0, 0.0]", '["0.1", 0.1, 0.0, 0.0]', "[1.0]", '"1234"', "[0.1, 0.2"):
            cache.data[key] = bad
            assert cache.get_enclosure(key) is None
            assert key not in cache.data
        with open(cache_file, "a") as fh:
            fh.write(f"\n{key}\t[2.0, 1.0, 0.0, 0.0]")
        _, again = run_json(capsys, *args)
        assert again["entries"] == fresh["entries"]

    def test_alternating_radius_keeps_every_entry(self, capsys, cache_file, monkeypatch):
        queries = [("norm", "--d", "3", "--p", "4", "--k", str(k), "--R", R) for k in (1, 2) for R in ("40", "200")]
        for argv in queries:
            run_json(capsys, *argv, "--cache", cache_file)
        looked_up = []
        get = ResultCache.get_enclosure
        monkeypatch.setattr(
            ResultCache, "get_enclosure", lambda self, key: looked_up.append(get(self, key)) or looked_up[-1]
        )
        for argv in queries:
            run_json(capsys, *argv, "--cache", cache_file)
        assert len(looked_up) == len(queries)
        assert all(enc is not None for enc in looked_up)

    def test_local_coefficients_reuse_holder_chain_cross_norms(self, capsys, cache_file, monkeypatch):
        # the store passes (d, p, k, R, cfg, kind, memo)
        integrals = count_calls(monkeypatch, norms, "integrate_weighted_power")
        cross_degrees = lambda: [args[2] for args in integrals if args[5] == "cross"]
        for k in ("1", "2"):
            code, _ = run_json(capsys, "verify", "holder-chain", "--d", "3", "--p", "4", "--k", k, "--cache", cache_file)
            assert code == 0
        assert cross_degrees() == [1, 2]
        integrals.clear()
        code, _ = run_json(capsys, "verify", "local-coefficients", "--d", "3", "--K", "2", "--cache", cache_file)
        assert code == 0
        assert cross_degrees() == []

    def test_no_file_without_cache_flag(self, capsys, tmp_path, monkeypatch):
        # neither the home directory nor the former environment variable names a default file
        home, env = tmp_path / "home", tmp_path / "env"
        home.mkdir(), env.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.setenv("BESSELNORMS_CACHE", str(env / "results.json"))
        code, _ = run_json(capsys, "norm", "--d", "4", "--p", "4", "--k", "1", "--R", "40")
        assert code == 0
        assert list(home.iterdir()) == list(env.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [("cache", "clear"), ("norm", "--d", "3", "--p", "4", "--k", "1", "--precision", "fast")],
        ids=["cache-clear", "precision"],
    )
    def test_removed_knobs_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestJournal:
    """The --cache file: a stamp line, then one appended line per computed entry."""

    ARGS = ("norm", "--d", "4", "--p", "4", "--k", "1", "--R", "40")
    OTHER = ("norm", "--d", "4", "--p", "4", "--k", "2", "--R", "40")

    def test_warm_repeat_leaves_the_file_untouched(self, capsys, cache_file):
        run_json(capsys, *self.ARGS, "--cache", cache_file)
        before = Path(cache_file).read_bytes(), Path(cache_file).stat().st_mtime_ns
        norms.clear_memo_cache()
        run_json(capsys, *self.ARGS, "--cache", cache_file)
        assert (Path(cache_file).read_bytes(), Path(cache_file).stat().st_mtime_ns) == before

    def test_one_miss_appends_one_line(self, capsys, cache_file):
        run_json(capsys, *self.ARGS, "--cache", cache_file)
        before = Path(cache_file).read_text()
        run_json(capsys, *self.OTHER, "--cache", cache_file)
        after = Path(cache_file).read_text()
        assert after.startswith(before)
        added = after[len(before) :]
        assert added.startswith("\n") and added.count("\n") == 1
        key, _ = added[1:].split("\t")
        assert ResultCache(cache_file).get_enclosure(key) is not None

    def test_one_document_file_is_replaced_by_a_journal(self, capsys, cache_file, monkeypatch):
        _, fresh = run_json(capsys, *self.ARGS, "--cache", cache_file)
        (key,) = ResultCache(cache_file).data
        # the file 0.5.0 wrote before the journal, with a wrong value under the right key
        document = {"config_digest": besselnorms.__version__, "entries": {key: [1.0, 1.0, 0.0, 0.0]}}
        Path(cache_file).write_text(json.dumps(document, sort_keys=True))
        norms.clear_memo_cache()
        integrals = count_calls(monkeypatch, norms, "integrate_weighted_power")
        _, again = run_json(capsys, *self.ARGS, "--cache", cache_file)
        assert len(integrals) == 1 and again["entries"] == fresh["entries"]
        stamp, line = Path(cache_file).read_text().split("\n")
        assert stamp == store.stamp() and line.startswith(f"{key}\t[")

    # one other value for each plan constant
    PLAN_VARIANTS = {
        "EVEN_PANEL_LENGTH": math.pi,
        "EVEN_GAUSS_ORDER": 20,
        "KINKED_PANEL_LENGTH": math.pi / 4.0,
        "KINKED_GAUSS_ORDER_HIGH": 20,
        "KINKED_GAUSS_ORDER_LOW": 10,
        "KINKED_ABS_TOL": 1e-12,
    }

    @pytest.mark.parametrize("name", sorted(PLAN_VARIANTS))
    def test_journal_of_another_plan_is_discarded_whole(self, capsys, cache_file, monkeypatch, name):
        # the engine version stays; only the plan moves, and no entry of the
        # old plan is served
        run_json(capsys, *self.ARGS, "--cache", cache_file)
        run_json(capsys, *self.OTHER, "--cache", cache_file)
        old_stamp = Path(cache_file).read_text().split("\n")[0]
        monkeypatch.setattr(quadrature, name, self.PLAN_VARIANTS[name])
        assert ResultCache(cache_file).data == {}
        norms.clear_memo_cache()
        integrals = count_calls(monkeypatch, norms, "integrate_weighted_power")
        run_json(capsys, *self.ARGS, "--cache", cache_file)
        assert len(integrals) == 1
        # the save replaces the file whole, under the new stamp
        stamp, line = Path(cache_file).read_text().split("\n")
        assert stamp == store.stamp() != old_stamp
        assert stamp.startswith(f"{besselnorms.__version__} ") and line.startswith("('power', 4, 4.0, 1, 40.0)\t[")

    def test_torn_last_line_loses_only_its_entry(self, capsys, cache_file, monkeypatch):
        _, first = run_json(capsys, *self.ARGS, "--cache", cache_file)
        _, second = run_json(capsys, *self.OTHER, "--cache", cache_file)
        text = Path(cache_file).read_text()
        torn = text[: text.rindex(", ")]
        Path(cache_file).write_text(torn)
        norms.clear_memo_cache()
        integrals = count_calls(monkeypatch, norms, "integrate_weighted_power")
        _, again_first = run_json(capsys, *self.ARGS, "--cache", cache_file)
        assert integrals == [] and again_first["entries"] == first["entries"]
        _, again_second = run_json(capsys, *self.OTHER, "--cache", cache_file)
        assert len(integrals) == 1 and again_second["entries"] == second["entries"]
        # the append starts a new line, so the torn one stays apart and the entry is served again
        assert Path(cache_file).read_text() == torn + text[text.rindex("\n") :]
        norms.clear_memo_cache()
        run_json(capsys, *self.OTHER, "--cache", cache_file)
        assert len(integrals) == 1

    def test_later_line_wins_over_an_earlier_malformed_one(self, capsys, cache_file, monkeypatch):
        _, fresh = run_json(capsys, *self.ARGS, "--cache", cache_file)
        stamp, line = Path(cache_file).read_text().split("\n")
        key, value = line.split("\t")
        Path(cache_file).write_text(f"{stamp}\n{key}\t[2.0, 1.0, 0.0, 0.0]\n{key}\t{value}")
        before = Path(cache_file).read_bytes()
        norms.clear_memo_cache()
        integrals = count_calls(monkeypatch, norms, "integrate_weighted_power")
        _, again = run_json(capsys, *self.ARGS, "--cache", cache_file)
        assert integrals == [] and again["entries"] == fresh["entries"]
        assert Path(cache_file).read_bytes() == before


class TestVerifyFlags:
    """Each verify claim takes only the flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("p4", "--d", "3", "--p", "5"),
            ("p4", "--d", "3", "--k", "7"),
            ("p4", "--d", "3", "--R", "5"),
            ("pst", "--d", "4", "--R", "50"),
            ("pst", "--d", "4", "--K", "3"),
            ("sup-monotone", "--d", "3", "--p", "3"),
            ("sup-monotone", "--d", "3", "--K", "4", "--R", "5"),
            ("holder-chain", "--d", "3", "--K", "9"),
            ("local-coefficients", "--d", "3", "--k", "2"),
        ],
        ids=["p4-p", "p4-k", "p4-R", "pst-R", "pst-K", "sup-monotone-p", "sup-monotone-R", "holder-chain-K", "local-k"],
    )
    def test_flag_the_claim_does_not_read_exits_2(self, capsys, monkeypatch, argv):
        searches = count_calls(monkeypatch, norms, "lambda_power")
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == "" and searches == []

    @pytest.mark.parametrize(
        "argv",
        [("verify", "p4", "--d", "3", "--p", "5"), ("verify", "holder-chain", "--d", "3", "--K", "9")],
        ids=["p4-p", "holder-chain-K"],
    )
    def test_unread_flag_is_reported_under_the_claims_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        prog = " ".join(["besselnorms", *argv[:2]])
        assert exc.value.code == 2
        assert err.startswith(f"usage: {prog} [-h]") and "--d D" in err
        assert err.endswith(f"{prog}: error: unrecognized arguments: {' '.join(argv[-2:])}\n")

    def test_shared_flags_follow_the_claim(self, capsys):
        code, report = run_json(capsys, "verify", "sup-monotone", "--d", "3", "--K", "4")
        assert code == 0 and report["entries"][0]["params"] == {"d": 3, "K": 4}
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--format", "json", "sup-monotone", "--d", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,params",
        [
            (("sup-monotone", "--d", "3"), {"d": 3, "K": 10}),
            (("holder-chain", "--d", "3"), {"d": 3, "p": 4.0, "k": 1}),
            (("local-coefficients", "--d", "2", "--K", "1"), {"d": 2, "p": 6.0, "K": 1}),
        ],
        ids=["sup-monotone", "holder-chain", "local-coefficients"],
    )
    def test_defaults(self, capsys, argv, params):
        code, report = run_json(capsys, "verify", *argv)
        assert code == 0 and report["entries"][0]["params"] == params


class TestReportConfig:
    def test_digest_ignores_output_format(self, capsys, cache_file):
        args = ("norm", "--d", "4", "--p", "4", "--k", "1", "--R", "40", "--cache", cache_file)
        _, default = run_json(capsys, *args)
        _, wider = run_json(capsys, *args, "--R", "50")
        config = dict(default["config"])
        assert "precision" not in config
        assert config.pop("output_format") == "json"
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
        assert default["config_digest"] == hashlib.sha256(canonical.encode()).hexdigest()
        assert wider["config_digest"] != default["config_digest"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--d", "2", "--p", "inf", "--k", "0"),
            ("norm", "--d", "3", "--p", "Infinity", "--k", "1"),
            ("norm", "--d", "4", "--p", "1e400", "--k", "1"),
            ("norm", "--d", "3", "--p", "inf", "--k", "2"),
        ],
    )
    def test_radius_a_command_never_reads_is_not_recorded(self, capsys, argv):
        _, plain = run_json(capsys, *argv)
        _, with_radius = run_json(capsys, *argv, "--R", "5")
        assert plain["config"]["radius"] is None
        for report in (plain, with_radius):
            report.pop("timestamp")
        assert with_radius == plain
