import ast
import contextlib
import csv
import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rts_secrecy import analytics, cli
from rts_secrecy.cli import CSV_HEADER, main, read_config
from rts_secrecy.params import KnowledgeMode, Metric, Scheme, SystemParams
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
        # provenance names the route: both oracles are exact
        assert "analytic=exact" in r["flags"].split(";")


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


def assert_one_error_line(captured, flag):
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert flag in lines[0]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("lambda-e-db", "-inf"),
        ("snr-db", "-4000"),
        ("snr-db", "4000"),
        ("sigma-e-db", "4000"),
        ("snr-db", "0:nan:1"),
        ("snr-db", "0:10:inf"),
        ("snr-db", "0:1e300:1e-300"),
        ("lambda-e-db", "8,50"),
        ("rth", "2000"),
    ],
)
def test_bad_value_is_one_error_line_naming_the_flag(capsys, flag, value):
    code, captured = run(["point", f"--{flag}={value}", "--trials", "10"], capsys)
    assert code == 1
    assert_one_error_line(captured, flag)


@pytest.mark.parametrize("flag", ["sigma-d-db", "sigma-e-db", "rth", "trials", "seed"])
def test_scalar_flag_rejects_a_list(capsys, flag):
    # the last --trials wins, so the list under test comes after the small trial count
    code, captured = run(["point", "--trials", "10", f"--{flag}=1,2"], capsys)
    assert code == 1
    assert_one_error_line(captured, f"{flag} takes a single value")


def test_scalar_config_key_rejects_a_list(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("rth = 1,3\n")
    code, captured = run(["point", "--config", str(config), "--trials", "10"], capsys)
    assert code == 1
    assert_one_error_line(captured, "rth takes a single value")


def test_unwritable_out_path_is_one_error_line(tmp_path, capsys, monkeypatch):
    out = tmp_path / "missing" / "x.csv"
    monkeypatch.setattr(cli, "simulate_grid", None)  # the path fails before anything is simulated
    code, captured = run(["point", "--trials", "10", "--out", str(out)], capsys)
    assert code == 1
    assert_one_error_line(captured, str(out))


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--k", "2,3", "--trials", "10"],  # compare takes one k: raised inside the command
        ["validate", "--scheme", "tts", "--trials", "10"],  # validate simulates rts only
    ],
)
def test_usage_error_in_a_command_keeps_an_existing_out_file(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    out.write_bytes(b"keep\n")
    code, captured = run([*argv, "--out", str(out)], capsys)
    assert code == 1
    assert_one_error_line(captured, argv[0])
    assert out.read_bytes() == b"keep\n"


def test_out_may_be_a_device():
    # the output is buffered, then written through one plain open, so a device or pipe still takes it
    assert main(["point", "--trials", "10", "--out", os.devnull]) == 0


def test_snr_range_is_capped_on_its_count(capsys):
    # 10^12 + 1 points: the cap must fire before any list is built
    code, captured = run(["point", "--snr-db", "0:1e12:1", "--trials", "10"], capsys)
    assert code == 1
    assert_one_error_line(captured, "more than 1000000 points")


@pytest.mark.parametrize(
    "extra",
    [
        ["--k", "64"],
        ["--rth", "0"],
        ["--rth", "1023"],
        ["--delta", "0"],
        ["--delta", "1"],
        ["--snr-db", "3000", "--lambda-e-db=-3000"],
        ["--snr-db=-3000", "--sigma-d-db", "3000", "--sigma-e-db=-3000"],
        # both gain terms of a link's rate overflow to inf (inf / inf) with probability about 1/36
        ["--snr-db", "3080", "--lambda-e-db", "3080", "--scheme", "rts,tts,min-es,optimal",
         "--k", "3", "--trials", "2000"],
    ],
)
def test_valid_extremes_run(capsys, extra):
    code, captured = run(["point", "--trials", "10", *extra], capsys)
    assert (code, captured.err) == (0, "")


@pytest.mark.parametrize(
    "extra",
    [["--snr-db", "3000", "--sigma-d-db=-3000"], ["--lambda-e-db", "3000", "--sigma-e-db=-3000"]],
)
def test_rate_terms_past_the_float_range_run_without_warnings(capsys, extra):
    # a mean gain about 3080 dB above its noise power overflows to a rate of +-inf
    code, captured = run(["point", "--trials", "10", *extra], capsys)
    assert (code, captured.err) == (0, "")


def test_sop_is_one_where_sigma_d_lambda_d_overflows(capsys):
    # every gate is dead (delta = 0) and r_th = 0: SOP is exactly 1, although
    # lambda_d sigma_d = 1e330 overflows and rho - 1 is 0
    code, captured = run(
        ["point", "--trials", "5", "--snr-db=-300", "--lambda-e-db=30", "--sigma-d-db=3000",
         "--sigma-e-db=3000", "--rth=0", "--k=3", "--delta=0"],
        capsys,
    )
    assert (code, captured.err) == (0, "")
    blocks = captured.out.split("rts ")[1:]
    sop = [block for block in blocks if block.split(":")[0].endswith(" sop")]
    assert len(sop) == 2  # both modes
    for block in sop:
        assert "  exact      = 1.0\n" in block


@pytest.mark.parametrize("trials", ["2000", "20000"])
def test_simulator_gain_over_noise_past_lambda_overflow_passes_check(capsys, trials):
    # e_d / lambda_d overflows for e_d > 1.8, while the gain over noise
    # e_d / lambda_d / sigma_d is about 1e298 e_d; the simulator scales it as
    # the oracles do (see tests/test_analytics.py), so the check passes
    code, captured = run(
        ["point", "--trials", trials, "--snr-db", "3080", "--sigma-d-db", "100", "--sigma-e-db=-3000",
         "--rth", "1", "--delta", "1", "--k", "3", "--check"],
        capsys,
    )
    assert (code, captured.err) == (0, "")
    assert captured.out.count("  check      = pass\n") == 4  # nzr and sop, both modes


@pytest.mark.parametrize("r_th", ["0", "1"])
def test_simulator_gains_over_noise_below_one_ulp_pass_check(capsys, r_th):
    # at -3000 dB both gains over noise are about 1e-300, so 1 + g_d / sigma_d and
    # 1 + g_e / sigma_e round to 1; the simulator decides on g_d / sigma_d against
    # g_e / sigma_e, and NZR is about 0.99 (available) and 0.90 (unavailable)
    code, captured = run(
        ["point", "--trials", "2000", "--snr-db=-3000", "--lambda-e-db=-3000", "--rth", r_th, "--k", "3", "--check"],
        capsys,
    )
    assert (code, captured.err) == (0, "")
    assert captured.out.count("  check      = pass\n") == 4  # nzr and sop, both modes


@pytest.mark.parametrize("db", ["3080", "-3080"])
def test_simulator_gains_over_noise_past_the_float_range_pass_check(capsys, db):
    # mean gains of 10^(db/10) over noise powers of 10^(-db/10): both gains over noise
    # overflow (3080) or underflow (-3080), yet g_d / sigma_d against g_e / sigma_e
    # decides NZR, about 0.54 (available) and 0.33 (unavailable)
    minus = str(-int(db))
    code, captured = run(
        ["point", "--trials", "2000", f"--snr-db={db}", f"--lambda-e-db={db}", f"--sigma-d-db={minus}",
         f"--sigma-e-db={minus}", "--k", "4", "--delta", "0.35", "--check"],
        capsys,
    )
    assert (code, captured.err) == (0, "")
    assert captured.out.count("  check      = pass\n") == 4  # nzr and sop, both modes


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


def test_validate_check_fails_on_an_unconverged_oracle(tmp_path, monkeypatch):
    def not_ok(p, mode):
        return analytics.MetricValue(0.5, "exact", False, "forced not ok")

    monkeypatch.setattr(analytics, "sop_oracle", not_ok)
    out = tmp_path / "validate.csv"
    code = main([
        "validate", "--k", "3", "--delta", "0.9", "--snr-db", "20",
        "--trials", "1000", "--out", str(out), "--check",
    ])
    assert code == 2
    text = out.read_text()
    assert "undocumented=2" in text
    assert "# check failures = 2" in text
    for r in read_rows(out):
        if r["metric"] == "sop":
            assert r["documented"] == "NO"
            assert "oracle: forced not ok" in r["note"]
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


@pytest.mark.parametrize(
    "extra",
    [
        # every gain over noise lies below 2^-53, where each X' = (1 + a) / (1 + b) rounds to 1
        ["--snr-db=-200", "--lambda-e-db=-200", "--rth", "0", "--k", "3"],
        # every gain over noise overflows, where each X' is inf / inf
        ["--snr-db", "3080", "--lambda-e-db", "3080", "--sigma-d-db=-3080", "--sigma-e-db=-3080", "--k", "4",
         "--delta", "1", "--scheme", "rts,optimal"],
    ],
)
def test_optimal_rule_bounds_rts_where_its_ratio_leaves_the_float_range(capsys, extra):
    # the optimal rule picks on S = X - 1, so it orders the links where X' cannot
    code, captured = run(["compare", "--check", "--metric", "nzr,sop", "--trials", "20000", *extra], capsys)
    assert (code, captured.err) == (0, "")
    assert "# order check failed" not in captured.out


@pytest.mark.parametrize("command", ["sweep", "compare", "point"])
def test_check_needs_rts(capsys, command):
    # --check compares rts with its oracle; without rts it would check nothing and pass
    argv = [command, "--check", "--scheme", "tts", "--trials", "100", "--k", "3", "--delta", "0.9", "--snr-db", "10"]
    code, captured = run(argv, capsys)
    assert code == 1
    assert captured.err == f"error: {command} --check needs the rts scheme in --scheme\n"
    assert captured.out == ""


def test_validate_rejects_a_scheme_it_does_not_simulate(capsys):
    # validate simulates rts only, so echoing another --scheme would misstate the run
    argv = ["validate", "--scheme", "tts,min-es", "--trials", "100", "--k", "2", "--delta", "0.9", "--snr-db", "10"]
    code, captured = run(argv, capsys)
    assert code == 1
    assert captured.err == "error: validate simulates the rts scheme only, got --scheme tts,min-es\n"
    assert captured.out == ""


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
    assert "exact" in captured.out
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


def fresh_value(statement, expr):
    """`expr`, printed as a literal, after `statement` in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = f"import gc, sys\n{statement}\nprint(repr({expr}))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return ast.literal_eval(done.stdout.splitlines()[-1])


def freeze_count_after(statement):
    """gc.get_freeze_count() after `statement` in a fresh interpreter."""
    return fresh_value(statement, "gc.get_freeze_count()")


def test_cli_import_freezes_the_imported_heap():
    assert freeze_count_after("import rts_secrecy.cli") > 0


def test_library_import_leaves_the_heap_unfrozen():
    assert freeze_count_after("import rts_secrecy") == 0


_SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_no_command_loads_scipy_submodules():
    """Commands load only what a bare `import scipy` loads; the quadrature and special functions stay out.

    A fresh interpreter is needed: pytest's warning filters import scipy.integrate here.
    """
    bare = set(fresh_value("import scipy", _SCIPY_MODULES))
    for argv in (["compare", "--trials", "200"], ["validate", "--trials", "100"]):
        statement = (
            "import contextlib, io\nfrom rts_secrecy import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) in (0, 2)"
        )
        loaded = set(fresh_value(statement, _SCIPY_MODULES))
        assert "scipy" in loaded and loaded <= bare, (argv, loaded - bare)
        assert not loaded & {"scipy.integrate", "scipy.special", "scipy.linalg"}


def test_analytics_integrate_is_scipy_integrate_on_access():
    # profilers read and rebind `analytics.integrate` by name
    import scipy.integrate

    assert analytics.integrate is scipy.integrate
    with pytest.raises(AttributeError):
        analytics.no_such_name


# A small grammar of flag values (MacIver et al., "Hypothesis: A new approach
# to property-based testing", JOSS 4(43), 2019): numbers with nan, +-inf and
# huge exponents, short and empty lists, bad enums and bad lo:hi:step ranges.
# A valid range holds 3 points, so no run builds a large list.
_NUMBERS = st.sampled_from([
    "0", "1", "10", "-30", "1023", "2000", "3000", "-3000", "3080", "4000", "-4000",
    "1e300", "1e-300", "1e400", "nan", "inf", "-inf", "x", "",
])
_RANGES = st.builds(
    "{}:{}:{}".format,
    st.sampled_from(["0", "nan", "a"]),
    st.sampled_from(["60", "1e300", "inf"]),
    st.sampled_from(["30", "1e-300", "0", "nan"]),
)


def _lists(tokens):
    return st.lists(tokens, min_size=1, max_size=2).map(",".join)


def _enum_lists(enum):
    return _lists(st.sampled_from([member.value for member in enum] + ["bogus", "RTS", " "]))


_FLAG_VALUES = {
    "k": _lists(st.sampled_from(["1", "2", "3", "0", "65", "-1", "1.5", "nan", "x"])),
    "delta": _lists(_NUMBERS),
    "snr-db": st.one_of(_RANGES, _lists(_NUMBERS), st.sampled_from(["0:60", "1:2:3:4"])),
    "lambda-e-db": _lists(_NUMBERS),
    "sigma-d-db": _lists(_NUMBERS),
    "sigma-e-db": _lists(_NUMBERS),
    "rth": _lists(_NUMBERS),
    "scheme": _enum_lists(Scheme),
    "mode": _enum_lists(KnowledgeMode),
    "metric": _enum_lists(Metric),
    "seed": st.sampled_from(["0", "7", str(2**128 - 1), str(2**128), "-1", "1,2", "x", ""]),
}
_SCALARS = ("lambda-e-db", "sigma-d-db", "sigma-e-db", "rth", "trials", "seed")


@st.composite
def _command_lines(draw):
    """(command, {flag: value}, --check given)."""
    # snr-db and rth are drawn more often: their ranges and overflows need rarer values
    names = st.sampled_from(sorted(_FLAG_VALUES) + ["snr-db", "snr-db", "rth"])
    flags = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    values = {name: draw(_FLAG_VALUES[name]) for name in flags}
    # always given, so a run never falls back to the default 10^6 trials
    trials = ["1", "7", "20", "1", "7", "20", "0", "2.5", "", "5,5", "nan"]
    values["trials"] = draw(st.sampled_from(trials))
    command = draw(st.sampled_from(["point", "sweep", "compare", "validate"]))
    return command, values, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_command_lines())
@example(("point", {"lambda-e-db": "-inf", "trials": "1"}, False))
@example(("point", {"snr-db": "4000", "trials": "1"}, False))
@example(("point", {"snr-db": "0:nan:1", "trials": "1"}, False))
@example(("point", {"snr-db": "0:1e300:1e-300", "trials": "1"}, False))
@example(("point", {"lambda-e-db": "8,50", "trials": "1"}, False))
@example(("point", {"rth": "2000", "trials": "1"}, False))
@example(("compare", {"snr-db": "3000", "sigma-d-db": "-3000", "trials": "1"}, True))
@example(("sweep", {"lambda-e-db": "3000", "sigma-e-db": "-3000", "trials": "1"}, False))
@example(("point", {"snr-db": "3080", "sigma-d-db": "100", "sigma-e-db": "-3000", "rth": "1", "delta": "1",
                    "k": "3", "trials": "2000"}, False))
@example(("point", {"snr-db": "3080", "lambda-e-db": "3080", "scheme": "rts,tts,min-es,optimal", "k": "3",
                    "trials": "2000"}, False))
def test_any_command_line_exits_cleanly(case):
    command, values, check = case
    argv = [command] + [f"--{name}={value}" for name, value in values.items()] + ["--check"] * check
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
    # a scalar flag given two values is refused, never read as its first
    if any(len([part for part in values[name].split(",") if part.strip()]) > 1
           for name in _SCALARS if name in values):
        assert code == 1
