import csv
from dataclasses import replace

import pytest

from rts_secrecy import analytics, cli
from rts_secrecy.cli import CSV_HEADER, main, read_config
from rts_secrecy.params import KnowledgeMode, Scheme, SystemParams
from rts_secrecy.simulator import simulate_point


def run(argv, capsys=None):
    code = main(argv)
    if capsys is None:
        return code, None
    return code, capsys.readouterr()


def read_rows(path):
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def test_sweep_row_count_and_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--k", "2,3", "--delta", "0.5", "--snr-db", "0:20:10",
        "--scheme", "rts", "--mode", "available", "--metric", "nzr,sop",
        "--trials", "2000", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert CSV_HEADER in text
    rows = read_rows(out)
    # 2 k * 1 delta * 3 snr * 1 scheme * 1 mode * 2 metrics
    assert len(rows) == 12
    assert rows[0]["snr_db"] == "0.0"
    assert {r["metric"] for r in rows} == {"nzr", "sop"}
    for r in rows:
        assert r["analytic"] != ""
        assert r["asymptote"] != ""
        assert r["trials"] == "2000"
        # provenance names the route: NZR is exact, SOP is quadrature
        source = "exact" if r["metric"] == "nzr" else "quadrature"
        assert f"analytic={source}" in r["flags"].split(";")


def test_sweep_grid_order_is_nested(tmp_path):
    out = tmp_path / "sweep.csv"
    main([
        "sweep", "--k", "1,2", "--delta", "0.2,0.9", "--snr-db", "5",
        "--scheme", "rts", "--mode", "available", "--metric", "nzr",
        "--trials", "500", "--out", str(out),
    ])
    rows = read_rows(out)
    assert [(r["k"], r["delta"]) for r in rows] == [
        ("1", "0.2"), ("1", "0.9"), ("2", "0.2"), ("2", "0.9"),
    ]


def test_sweep_reruns_are_byte_identical(tmp_path):
    args = [
        "sweep", "--k", "2", "--delta", "0.5", "--snr-db", "0:20:10",
        "--trials", "3000",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_check_passes_against_oracle(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--k", "3", "--delta", "0.9", "--snr-db", "10",
        "--trials", "50000", "--out", str(out), "--check",
    ])
    assert code == 0
    for row in read_rows(out):
        assert "check=pass" in row["flags"]


def test_non_rts_rows_have_no_analytic_column(tmp_path):
    out = tmp_path / "sweep.csv"
    main([
        "sweep", "--k", "2", "--delta", "0.5", "--snr-db", "10",
        "--scheme", "tts,min-es", "--mode", "available", "--metric", "sop",
        "--trials", "1000", "--out", str(out),
    ])
    for row in read_rows(out):
        assert row["analytic"] == ""
        assert row["asymptote"] == ""
        assert row["flags"] == ""


def test_empty_scheme_list_is_usage_error(capsys):
    code, captured = run(["sweep", "--scheme", "", "--trials", "10"], capsys)
    assert code == 1
    assert "scheme" in captured.err


def test_bad_snr_range_is_usage_error(capsys):
    code, captured = run(["sweep", "--snr-db", "0:60", "--trials", "10"], capsys)
    assert code == 1
    assert "snr-db" in captured.err


def test_zero_trials_is_usage_error(capsys):
    code, captured = run(["sweep", "--trials", "0"], capsys)
    assert code == 1
    assert "trials" in captured.err


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_seed_outside_philox_key_range_is_usage_error(capsys, seed):
    code, captured = run(["point", f"--seed={seed}", "--trials", "10"], capsys)
    assert code == 1
    assert "seed" in captured.err


def test_largest_seed_is_accepted(capsys):
    code, _ = run(
        ["sweep", "--k", "1", "--snr-db", "10", "--mode", "available",
         "--metric", "nzr", "--trials", "10", f"--seed={2**128 - 1}"],
        capsys,
    )
    assert code == 0


def test_unknown_subcommand_is_usage_error(capsys):
    code, captured = run(["frobnicate"], capsys)
    assert code == 1


def test_config_file_defaults_and_flag_precedence(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# comment line\n"
        "\n"
        "k = 4\n"
        "delta = 0.5\n"
        "snr-db = 10\n"
        "trials = 700\n"
        "scheme = rts\n"
        "mode = available\n"
        "metric = nzr\n"
    )
    out = tmp_path / "out.csv"
    code = main(["sweep", "--config", str(config), "--k", "2", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    # flag --k beats the config; config beats built-in defaults
    assert {r["k"] for r in rows} == {"2"}
    assert rows[0]["trials"] == "700"
    assert "# k = 2" in out.read_text()


def test_config_unknown_key_reports_line(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("k = 2\nbogus = 7\n")
    code, captured = run(["sweep", "--config", str(config)], capsys)
    assert code == 1
    assert "bogus" in captured.err
    assert ":2:" in captured.err


def test_config_bad_syntax_reports_line(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("k 2\n")
    code, captured = run(["sweep", "--config", str(config)], capsys)
    assert code == 1
    assert ":1:" in captured.err


def test_read_config_round_trip(tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text("k = 3\nseed = 9\n")
    assert read_config(str(config)) == {"k": "3", "seed": "9"}


def test_missing_config_file_is_usage_error(capsys):
    code, captured = run(["sweep", "--config", "/nonexistent/x.cfg"], capsys)
    assert code == 1
    assert "config" in captured.err


def test_validate_report_and_exit(tmp_path):
    out = tmp_path / "validate.csv"
    code = main([
        "validate", "--k", "1,2", "--delta", "0.5", "--snr-db", "10,30",
        "--trials", "4000", "--out", str(out), "--check",
    ])
    assert code == 0  # every deviation cell is a documented one
    text = out.read_text()
    assert "# validation summary: match=" in text
    assert "undocumented=0" in text
    rows = read_rows(out)
    assert len(rows) == 2 * 1 * 2 * 4
    verdicts = {r["verdict"] for r in rows}
    assert "MATCH" in verdicts
    assert "MISMATCH" in verdicts
    for r in rows:
        assert r["documented"] == "yes"
        assert r["simulated"] != ""


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_validate_check_fails_on_an_unconverged_oracle(tmp_path, monkeypatch):
    monkeypatch.setattr(analytics, "_QUAD_LIMIT", 10)
    analytics.sop_oracle.cache_clear()
    try:
        out = tmp_path / "validate.csv"
        code = main([
            "validate", "--k", "3", "--delta", "0.9", "--snr-db", "20",
            "--trials", "1000", "--out", str(out), "--check",
        ])
    finally:
        analytics.sop_oracle.cache_clear()
    assert code == 2
    text = out.read_text()
    assert "undocumented=2" in text
    assert "# check failures = 2" in text
    for r in read_rows(out):
        if r["metric"] == "sop":
            assert r["documented"] == "NO"
            assert "oracle: " in r["note"]
            assert "maximum number of subdivisions (10)" in r["note"]
        else:
            assert r["documented"] == "yes"
            assert "oracle" not in r["note"]


def test_validate_match_cells_land_where_adjudicated(tmp_path):
    out = tmp_path / "validate.csv"
    main([
        "validate", "--k", "1,2,3", "--delta", "0.5", "--snr-db", "10",
        "--trials", "1000", "--out", str(out),
    ])
    cells = {
        (r["metric"], r["mode"], r["k"]): r["verdict"] for r in read_rows(out)
    }
    assert cells[("nzr", "available", "1")] == "MATCH"
    assert cells[("nzr", "available", "2")] == "MATCH"
    assert cells[("nzr", "available", "3")] != "MATCH"
    assert cells[("nzr", "unavailable", "1")] == "MISMATCH"
    assert cells[("nzr", "unavailable", "2")] == "MATCH"
    assert cells[("sop", "available", "1")] == "MATCH"
    assert cells[("sop", "available", "2")] != "MATCH"
    assert cells[("sop", "unavailable", "1")] != "MATCH"


def test_compare_emits_all_schemes(tmp_path):
    out = tmp_path / "compare.csv"
    code = main([
        "compare", "--snr-db", "10,30", "--trials", "2000", "--out", str(out),
    ])
    assert code == 0
    rows = read_rows(out)
    # defaults: 4 schemes, sop metric, available mode, 2 snr points
    assert len(rows) == 8
    assert {r["scheme"] for r in rows} == {"rts", "tts", "min-es", "optimal"}
    assert {r["metric"] for r in rows} == {"sop"}
    assert {r["mode"] for r in rows} == {"available"}


def test_compare_check_flags_ordering_violation(tmp_path):
    # reproducible counterexample to the claimed rts-over-tts ordering
    out = tmp_path / "compare.csv"
    code = main([
        "compare", "--snr-db", "10", "--trials", "30000",
        "--out", str(out), "--check",
    ])
    assert code == 2
    text = out.read_text()
    assert "# order check failed" in text
    assert "rts<=tts" in text


def test_compare_check_passes_when_eavesdropper_noise_is_low(tmp_path):
    out = tmp_path / "compare.csv"
    code = main([
        "compare", "--snr-db", "30", "--sigma-d-db", "10", "--sigma-e-db", "1",
        "--trials", "30000", "--out", str(out), "--check",
    ])
    assert code == 0
    assert "# order check failed" not in out.read_text()


def test_compare_check_needs_rts(capsys):
    code, captured = run(
        ["compare", "--scheme", "tts", "--snr-db", "10", "--trials", "100", "--check"],
        capsys,
    )
    assert code == 1
    assert "rts" in captured.err


def test_compare_rejects_multiple_k(capsys):
    code, captured = run(
        ["compare", "--k", "2,3", "--snr-db", "10", "--trials", "100"], capsys
    )
    assert code == 1


def test_point_prints_all_sources(capsys):
    code, captured = run(
        ["point", "--k", "2", "--delta", "0.5", "--snr-db", "10", "--trials", "5000"],
        capsys,
    )
    assert code == 0
    assert "series" in captured.out
    assert "quadrature" in captured.out
    assert "asymptote" in captured.out
    assert "simulated" in captured.out


def test_point_check_passes_at_a_proportion_of_one(capsys):
    # simulated 1.0 +- 0.0 against an exact 0.99999951: a zero-width Wald
    # interval would fail this correct estimate
    code, captured = run(
        ["point", "--k", "3", "--delta", "1.0", "--snr-db", "20", "--mode", "available",
         "--metric", "nzr", "--check", "--trials", "100000"],
        capsys,
    )
    assert "simulated = 1.0 +- 0.0" in captured.out
    assert "check      = pass" in captured.out
    assert code == 0


def test_point_check_fails_far_from_the_oracle(capsys, monkeypatch):
    real = analytics.oracle

    def shifted(p, metric, mode):
        value = real(p, metric, mode)
        return replace(value, value=value.value + 0.05)

    monkeypatch.setattr(analytics, "oracle", shifted)
    code, captured = run(
        ["point", "--k", "2", "--snr-db", "10", "--metric", "sop", "--mode", "available",
         "--check", "--trials", "20000"],
        capsys,
    )
    assert "check      = fail" in captured.out
    assert code == 2


def test_point_makes_one_engine_call(capsys, monkeypatch):
    calls = []
    real = cli.simulate_grid

    def counting(points, *args, **kwargs):
        calls.append(list(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(cli, "simulate_grid", counting)
    code, captured = run(
        ["point", "--k", "3", "--delta", "0.6", "--snr-db", "15", "--trials", "3000",
         "--scheme", "rts,tts,optimal", "--mode", "available,unavailable"],
        capsys,
    )
    assert code == 0
    assert len(calls) == 1 and len(calls[0]) == 6
    p = SystemParams.from_db(k=3, delta=0.6, snr_db=15.0)
    for scheme in (Scheme.RTS, Scheme.TTS, Scheme.OPTIMAL):
        for mode in KnowledgeMode:
            for metric, est in simulate_point(p, scheme, mode, 3000, seed=1).items():
                line = (
                    f"{scheme.value} {mode.value} {metric.value}: "
                    f"simulated = {est.value!r} +- {est.std_err!r}\n"
                )
                assert line in captured.out


def test_point_rejects_grid(capsys):
    code, _ = run(["point", "--snr-db", "10,20", "--trials", "100"], capsys)
    assert code == 1


def test_stdout_output(capsys):
    code, captured = run(
        ["sweep", "--k", "1", "--delta", "0.5", "--snr-db", "10",
         "--metric", "nzr", "--mode", "available", "--trials", "200"],
        capsys,
    )
    assert code == 0
    assert CSV_HEADER in captured.out
