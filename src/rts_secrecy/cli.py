"""Command-line front end: sweeps, scheme comparisons, validation, points.

Output is deterministic byte for byte: rows follow the nested grid order
(k, then backhaul reliability, then SNR, then scheme, mode, metric),
floats are written with repr, and the resolved configuration is echoed as
comment lines so a stored file records how it was produced.  Exit status
is 0 on success, 1 on usage errors, 2 when a requested --check fails.

Importing this module freezes the heap imported so far (`gc.freeze`): it
lives until exit anyway, and frozen objects are never traversed again,
not even by the collections at interpreter shutdown.
"""
from __future__ import annotations

import argparse
import csv
import gc
import math
import sys
from dataclasses import replace
from typing import Sequence, TextIO

from . import analytics
from .params import KnowledgeMode, Metric, Scheme, SystemParams
# simulate_point is not called here; it stays a cli attribute for profilers
# that wrap it by name
from .simulator import MetricEstimate, simulate_grid, simulate_point  # noqa: F401

# the imported heap lives until exit: no collection, not even at shutdown, walks it
gc.freeze()

CSV_HEADER = (
    "snr_db,k,delta,scheme,mode,metric,analytic,asymptote,"
    "simulated,std_err,trials,seed,flags"
)

DEFAULTS = {
    "k": "3,5",
    "delta": "0.9,0.2",
    "snr-db": "0:60:5",
    "lambda-e-db": "8",
    "sigma-d-db": "1",
    "sigma-e-db": "10",
    "rth": "1",
    "scheme": "rts",
    "mode": "available,unavailable",
    "metric": "nzr,sop",
    "trials": "1000000",
    "seed": "1",
    "out": "-",
}

_VALIDATE_OVERRIDES = {
    "k": "1,2,3,4,5",
    "delta": "0.2,0.5,0.9",
    "snr-db": "10,30,50",
}

_COMPARE_OVERRIDES = {
    "k": "5",
    "delta": "0.9",
    "scheme": "rts,tts,min-es,optimal",
    "metric": "sop",
    "mode": "available",
}

_POINT_OVERRIDES = {
    "k": "5",
    "delta": "0.9",
    "snr-db": "10",
}


# the seed is the Philox key: two 64-bit words
_SEED_LIMIT = 2**128

# width, in standard errors, of the rts-vs-oracle --check interval
_CHECK_Z = 5.0


class UsageError(Exception):
    """Bad flags, bad config, or bad value formats."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _parse_list(text: str, name: str, kind: type = float) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad {name} value {text!r}: {exc}") from None
    if not values:
        raise UsageError(f"{name} needs at least one value, got {text!r}")
    return values


def _parse_snr_values(text: str) -> list[float]:
    """Either lo:hi:step (hi inclusive when hit exactly) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"snr-db range must be lo:hi:step, got {text!r}")
        try:
            lo, hi, step = (float(part) for part in parts)
        except ValueError as exc:
            raise UsageError(f"bad snr-db range {text!r}: {exc}") from None
        if step <= 0:
            raise UsageError(f"snr-db step must be positive, got {step}")
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        if count < 1:
            raise UsageError(f"empty snr-db range {text!r}")
        return [lo + i * step for i in range(count)]
    return _parse_list(text, "snr-db")


def _parse_enum_list(text: str, enum_cls, name: str) -> list:
    values = []
    for part in text.split(","):
        part = part.strip()
        if part == "":
            continue
        try:
            values.append(enum_cls(part))
        except ValueError:
            allowed = ", ".join(member.value for member in enum_cls)
            raise UsageError(f"bad {name} value {part!r}; allowed: {allowed}") from None
    if not values:
        raise UsageError(f"{name} needs at least one value, got {text!r}")
    return values


def read_config(path: str) -> dict[str, str]:
    """Flat key = value file; keys must be known flag names."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", help="transmitter counts, comma separated")
    parser.add_argument("--delta", help="backhaul reliabilities, comma separated")
    parser.add_argument("--snr-db", help="destination SNR grid: lo:hi:step or comma list")
    parser.add_argument("--lambda-e-db", help="mean eavesdropper channel gain in dB")
    parser.add_argument("--sigma-d-db", help="destination noise power in dB")
    parser.add_argument("--sigma-e-db", help="eavesdropper noise power in dB")
    parser.add_argument("--rth", help="target secrecy rate in bits per channel use")
    parser.add_argument("--scheme", help="selection schemes, comma separated")
    parser.add_argument("--mode", help="gate-knowledge modes, comma separated")
    parser.add_argument("--metric", help="metrics to report, comma separated")
    parser.add_argument("--trials", help="Monte Carlo trials per point")
    parser.add_argument("--seed", help="stream seed")
    parser.add_argument("--out", help="output path, - for stdout")
    parser.add_argument("--config", help="key = value file supplying defaults")
    parser.add_argument(
        "--check",
        action="store_true",
        help="enable the command's consistency assertions (exit 2 on failure)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="rts-secrecy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "metric estimates over a parameter grid"),
        ("compare", "selection schemes side by side at one point"),
        ("validate", "series closed forms against the oracle"),
        ("point", "all analytic and simulated values at one point"),
    ):
        _add_common_flags(sub.add_parser(name, help=help_text))
    return parser


def resolve_settings(args: argparse.Namespace, overrides: dict[str, str]) -> dict[str, str]:
    """Merge flag > config-file > per-command default > global default."""
    config = read_config(args.config) if args.config else {}
    settings = {}
    for key, fallback in DEFAULTS.items():
        flag_value = getattr(args, key.replace("-", "_"))
        if flag_value is not None:
            settings[key] = flag_value
        elif key in config:
            settings[key] = config[key]
        else:
            settings[key] = overrides.get(key, fallback)
    return settings


def _typed(settings: dict[str, str]) -> dict:
    trials_list = _parse_list(settings["trials"], "trials", int)
    seed_list = _parse_list(settings["seed"], "seed", int)
    if len(trials_list) != 1 or len(seed_list) != 1:
        raise UsageError("trials and seed take a single value")
    trials, seed = trials_list[0], seed_list[0]
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < _SEED_LIMIT:
        raise UsageError(f"seed must be in [0, 2**128), got {seed}")
    return {
        "ks": _parse_list(settings["k"], "k", int),
        "deltas": _parse_list(settings["delta"], "delta"),
        "snrs": _parse_snr_values(settings["snr-db"]),
        "lambda_e_db": _parse_list(settings["lambda-e-db"], "lambda-e-db")[0],
        "sigma_d_db": _parse_list(settings["sigma-d-db"], "sigma-d-db")[0],
        "sigma_e_db": _parse_list(settings["sigma-e-db"], "sigma-e-db")[0],
        "r_th": _parse_list(settings["rth"], "rth")[0],
        "schemes": _parse_enum_list(settings["scheme"], Scheme, "scheme"),
        "modes": _parse_enum_list(settings["mode"], KnowledgeMode, "mode"),
        "metrics": _parse_enum_list(settings["metric"], Metric, "metric"),
        "trials": trials,
        "seed": seed,
    }


def _echo_settings(stream: TextIO, command: str, settings: dict[str, str]) -> None:
    # `out` is excluded so the bytes do not depend on where they are written
    stream.write(f"# command = {command}\n")
    for key in sorted(settings):
        if key != "out":
            stream.write(f"# {key} = {settings[key]}\n")


def _params(cfg: dict, k: int, delta: float, snr_db: float) -> SystemParams:
    try:
        return SystemParams.from_db(
            k=k,
            delta=delta,
            snr_db=snr_db,
            lambda_e_db=cfg["lambda_e_db"],
            sigma_d_db=cfg["sigma_d_db"],
            sigma_e_db=cfg["sigma_e_db"],
            r_th=cfg["r_th"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _grid(cfg: dict):
    """(k, delta, snr_db, params) over the grid, in output row order."""
    for k in cfg["ks"]:
        for delta in cfg["deltas"]:
            for snr_db in cfg["snrs"]:
                yield k, delta, snr_db, _params(cfg, k, delta, snr_db)


def _simulate(cfg: dict, schemes: Sequence[Scheme], modes: Sequence[KnowledgeMode]) -> dict:
    """Estimates keyed by (params, scheme, mode); one stream pass per k."""
    by_k: dict[int, dict] = {}
    for k, _, _, p in _grid(cfg):
        points = by_k.setdefault(k, {})
        for scheme in schemes:
            for mode in modes:
                points[(p, scheme, mode)] = None
    estimates = {}
    for points in by_k.values():
        estimates.update(zip(points, simulate_grid(list(points), cfg["trials"], cfg["seed"])))
    return estimates


def _agrees(est: MetricEstimate, value: float) -> bool:
    """Whether `value` lies in the estimate's Wilson interval at _CHECK_Z.

    Unlike value +- z std_err, the Wilson score interval keeps a nonzero
    width when the estimate is 0 or 1.
    """
    lo, hi = est.wilson_interval(_CHECK_Z)
    return lo - 1e-12 <= value <= hi + 1e-12


def _grid_rows(cfg: dict, check: bool, estimates: dict) -> tuple[list[list[str]], int]:
    """Sweep/compare rows; returns (rows, failed check count)."""
    rows: list[list[str]] = []
    failures = 0
    for k, delta, snr_db, p in _grid(cfg):
        for scheme in cfg["schemes"]:
            for mode in cfg["modes"]:
                for metric in cfg["metrics"]:
                    est = estimates[(p, scheme, mode)][metric]
                    analytic = ""
                    asymptote = ""
                    flags = []
                    if scheme is Scheme.RTS:
                        orc = analytics.oracle(p, metric, mode)
                        analytic = repr(orc.value)
                        asymptote = repr(analytics.asymptote(metric, mode, k, delta).value)
                        flags.append(f"analytic={orc.source}")
                        if not orc.ok:
                            flags.append("analytic_unconverged")
                        if check:
                            passed = _agrees(est, orc.value)
                            flags.append("check=pass" if passed else "check=fail")
                            if not passed:
                                failures += 1
                    rows.append(
                        [
                            repr(float(snr_db)),
                            str(k),
                            repr(float(delta)),
                            scheme.value,
                            mode.value,
                            metric.value,
                            analytic,
                            asymptote,
                            repr(est.value),
                            repr(est.std_err),
                            str(est.trials),
                            str(est.seed),
                            ";".join(flags),
                        ]
                    )
    return rows, failures


def _write_csv(stream: TextIO, command: str, settings: dict[str, str], rows: list[list[str]]) -> None:
    _echo_settings(stream, command, settings)
    stream.write(CSV_HEADER + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerows(rows)


def cmd_sweep(settings: dict[str, str], check: bool, stream: TextIO) -> int:
    cfg = _typed(settings)
    estimates = _simulate(cfg, cfg["schemes"], cfg["modes"])
    rows, failures = _grid_rows(cfg, check, estimates)
    _write_csv(stream, "sweep", settings, rows)
    if failures:
        stream.write(f"# check failures = {failures}\n")
    return 2 if failures else 0


def cmd_compare(settings: dict[str, str], check: bool, stream: TextIO) -> int:
    cfg = _typed(settings)
    if len(cfg["ks"]) != 1 or len(cfg["deltas"]) != 1:
        raise UsageError("compare takes a single k and delta value")
    if check and Scheme.RTS not in cfg["schemes"]:
        raise UsageError("compare --check needs the rts scheme in --scheme")
    estimates = _simulate(cfg, cfg["schemes"], cfg["modes"])
    rows, failures = _grid_rows(cfg, check, estimates)
    _write_csv(stream, "compare", settings, rows)
    if check:
        failures += _compare_order_failures(cfg, stream, estimates)
    if failures:
        stream.write(f"# check failures = {failures}\n")
    return 2 if failures else 0


def _compare_order_failures(cfg: dict, stream: TextIO, estimates: dict) -> int:
    """Scheme ordering assertions at 3 combined standard errors.

    The instantaneous-best scheme must do at least as well as ratio
    selection, and ratio selection at least as well as the single-channel
    schemes, at every grid point for every metric and mode in the run.
    """
    failures = 0
    for _, _, snr_db, p in _grid(cfg):
        for mode in cfg["modes"]:
            by_scheme = {scheme: estimates[(p, scheme, mode)] for scheme in cfg["schemes"]}
            for metric in cfg["metrics"]:
                ref = by_scheme[Scheme.RTS][metric]
                sign = 1.0 if metric is Metric.SOP else -1.0
                pairs = []
                if Scheme.OPTIMAL in by_scheme:
                    pairs.append((by_scheme[Scheme.OPTIMAL][metric], ref, "optimal<=rts"))
                for weaker in (Scheme.TTS, Scheme.MIN_ES):
                    if weaker in by_scheme:
                        pairs.append((ref, by_scheme[weaker][metric], f"rts<={weaker.value}"))
                for better, worse, label in pairs:
                    slack = 3.0 * math.hypot(better.std_err, worse.std_err)
                    if sign * (better.value - worse.value) > slack:
                        failures += 1
                        stream.write(
                            f"# order check failed: snr_db={snr_db!r} {metric.value} "
                            f"{mode.value} {label} ({better.value!r} vs {worse.value!r}, "
                            f"slack {slack!r})\n"
                        )
    return failures


def cmd_validate(settings: dict[str, str], check: bool, stream: TextIO) -> int:
    cfg = _typed(settings)
    estimates = _simulate(cfg, [Scheme.RTS], cfg["modes"])
    rows = []
    for _, _, snr_db, p in _grid(cfg):
        for row in analytics.validate_point(p, snr_db):
            if row.metric not in cfg["metrics"] or row.mode not in cfg["modes"]:
                continue
            est = estimates[(p, Scheme.RTS, row.mode)][row.metric]
            rows.append(replace(row, simulated=est.value, std_err=est.std_err))
    _echo_settings(stream, "validate", settings)
    analytics.write_validation_report(rows, stream)
    undocumented = sum(1 for row in rows if not row.documented)
    if check and undocumented:
        stream.write(f"# check failures = {undocumented}\n")
        return 2
    return 0


def cmd_point(settings: dict[str, str], check: bool, stream: TextIO) -> int:
    cfg = _typed(settings)
    if len(cfg["ks"]) != 1 or len(cfg["deltas"]) != 1 or len(cfg["snrs"]) != 1:
        raise UsageError("point takes a single k, delta, and snr-db value")
    k, delta, snr_db = cfg["ks"][0], cfg["deltas"][0], cfg["snrs"][0]
    p = _params(cfg, k, delta, snr_db)
    _echo_settings(stream, "point", settings)
    estimates = _simulate(cfg, cfg["schemes"], cfg["modes"])
    failures = 0
    for scheme in cfg["schemes"]:
        for mode in cfg["modes"]:
            for metric in cfg["metrics"]:
                est = estimates[(p, scheme, mode)][metric]
                stream.write(
                    f"{scheme.value} {mode.value} {metric.value}: "
                    f"simulated = {est.value!r} +- {est.std_err!r}\n"
                )
                if scheme is not Scheme.RTS:
                    continue
                series = analytics.closed_form(p, metric, mode)
                orc = analytics.oracle(p, metric, mode)
                asym = analytics.asymptote(metric, mode, k, delta)
                series_note = f"  [{series.note}]" if not series.ok else ""
                stream.write(f"  series     = {series.value!r}{series_note}\n")
                stream.write(f"  {orc.source:<10} = {orc.value!r}\n")
                stream.write(f"  asymptote  = {asym.value!r}\n")
                if check:
                    passed = _agrees(est, orc.value)
                    stream.write(f"  check      = {'pass' if passed else 'fail'}\n")
                    if not passed:
                        failures += 1
    return 2 if failures else 0


_COMMANDS = {
    "sweep": (cmd_sweep, {}),
    "compare": (cmd_compare, _COMPARE_OVERRIDES),
    "validate": (cmd_validate, _VALIDATE_OVERRIDES),
    "point": (cmd_point, _POINT_OVERRIDES),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler, overrides = _COMMANDS[args.command]
        settings = resolve_settings(args, overrides)
        out_path = settings["out"]
        if out_path == "-":
            return handler(settings, args.check, sys.stdout)
        with open(out_path, "w", encoding="utf-8", newline="") as stream:
            return handler(settings, args.check, stream)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
