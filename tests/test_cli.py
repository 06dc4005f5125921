import csv
import hashlib
import json
from pathlib import Path

import pytest

import besselnorms.local as local
import besselnorms.norms as norms
import besselnorms.quadrature as quadrature
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
        (key,) = json.loads(Path(cache_file).read_text())["entries"]
        # a wrong value under the right key, stamped by another engine version
        stale = ResultCache(cache_file, "0.0.0")
        stale.data[key] = [1.0, 1.0, 0.0, 0.0]
        stale.dirty = True
        stale.save()
        norms.clear_memo_cache()
        integrals = count_calls(monkeypatch, norms, "integrate_weighted_power")
        _, again = run_json(capsys, *args)
        assert len(integrals) == 1
        assert again["entries"] == fresh["entries"]

    def test_entry_key_is_pinned(self, capsys, cache_file):
        # repr(("power", d, p, k, R, QuadConfig().key())): a file written by 0.3.0 stays valid
        run_json(capsys, "norm", "--d", "4", "--p", "4", "--k", "1", "--R", "40", "--cache", cache_file)
        (key,) = json.loads(Path(cache_file).read_text())["entries"]
        assert key == "('power', 4, 4.0, 1, 40.0, (1.5707963267948966, 16, 8, 1e-11, 12))"

    def test_file_from_engine_0_1_0_is_discarded(self, cache_file):
        # 0.1.0 stored the (d=5, p=3) cross integrals without edges at the zeros,
        # e.g. M(1) on [0, 200] some 6,700 error estimates below its true value;
        # 0.2.0 stored every non-even-p enclosure before the Gauss-Jacobi panels,
        # e.g. the (d=4, p=10/3) M(1) on [0, 200], under the same QuadConfig key
        stale_files = {
            "0.1.0": ("M(1)", [0.10531172276898517, 0.10531172277929292, 0.0, 5.153875483633352e-12]),
            "0.2.0": ("M(1)", [0.1102204273214045, 0.11022042732679069, 0.0, 2.6930935622678456e-12]),
        }
        for version, (key, entry) in stale_files.items():
            stale = ResultCache(cache_file, version)
            stale.data[key] = entry
            stale.dirty = True
            stale.save()
            assert ResultCache(cache_file).data == {}, version

    def test_corrupt_entry_is_dropped(self, capsys, cache_file):
        args = ("norm", "--d", "4", "--p", "4", "--k", "1", "--R", "40", "--cache", cache_file)
        _, fresh = run_json(capsys, *args)
        cache = ResultCache(cache_file)
        (key,) = cache.data
        for bad in ([2.0, 1.0, 0.0, 0.0], [float("nan"), 1.0, 1.0, 0.0], ["0.1", 0.1, 0.0, 0.0], [1.0], "1234"):
            cache.data[key] = bad
            assert cache.get_enclosure(key) is None
            assert key not in cache.data
        cache.data[key] = [2.0, 1.0, 0.0, 0.0]
        cache.dirty = True
        cache.save()
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
        for k in ("1", "2"):
            code, _ = run_json(capsys, "verify", "holder-chain", "--d", "3", "--p", "4", "--k", k, "--cache", cache_file)
            assert code == 0
        cross_integrals = count_calls(monkeypatch, local, "integrate_cross_term")
        code, _ = run_json(capsys, "verify", "local-coefficients", "--d", "3", "--K", "2", "--cache", cache_file)
        assert code == 0
        assert cross_integrals == []

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
