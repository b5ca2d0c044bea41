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
import io
import math
import os
import sys
from dataclasses import replace
from enum import EnumMeta
from pathlib import Path
from typing import Sequence, TextIO

from . import analytics, params
from .params import MAX_R_TH, KnowledgeMode, Metric, Scheme, SystemParams
# simulate_point is not called here; it stays a cli attribute for profilers that wrap it by name
from .simulator import MetricEstimate, simulate_grid, simulate_point  # noqa: F401

# the imported heap lives until exit: no collection, not even at shutdown, walks it
gc.freeze()

CSV_HEADER = (
    "snr_db,k,delta,scheme,mode,metric,analytic,asymptote,"
    "simulated,std_err,trials,seed,flags"
)

# the seed is the Philox key: two 64-bit words
_SEED_LIMIT = 2**128

# most points a lo:hi:step range may hold, far above any real grid
_MAX_RANGE_POINTS = 10**6

# width, in standard errors, of the rts-vs-oracle --check interval
_CHECK_Z = 5.0


class UsageError(Exception):
    """Bad flags, bad config, or bad value formats."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _values(kind, check=lambda value: True, domain: str = ""):
    """Parser of a comma list of `kind` values (a number type or an Enum).

    With `check`, every value must pass it; `domain` describes what passes.
    """

    def parse(text: str, name: str) -> list:
        values = []
        for part in filter(None, (part.strip() for part in text.split(","))):
            try:
                values.append(kind(part))
            except ValueError as exc:
                if isinstance(kind, EnumMeta):
                    allowed = ", ".join(member.value for member in kind)
                    raise UsageError(f"bad {name} value {part!r}; allowed: {allowed}") from None
                raise UsageError(f"bad {name} value {part!r}: {exc}") from None
        if not values:
            raise UsageError(f"{name} needs at least one value, got {text!r}")
        return _checked(values, name, check, domain)

    return parse


def _checked(values: list, name: str, check, domain: str) -> list:
    for value in values:
        if not check(value):
            raise UsageError(f"{name} must be {domain}, got {value!r}")
    return values


def _single(kind, check, domain: str):
    """Parser of one `kind` value that passes `check`, described by `domain`."""
    listed = _values(kind, check, domain)

    def parse(text: str, name: str):
        values = listed(text, name)
        if len(values) != 1:
            raise UsageError(f"{name} takes a single value, got {text!r}")
        return values[0]

    return parse


# the dB flags' check and its description
_DB = (params.has_linear_value, params.DB_DOMAIN)


def _snr_values(text: str, name: str) -> list[float]:
    """Either lo:hi:step (hi inclusive when hit exactly) or a comma list."""
    if ":" not in text:
        return _values(float, *_DB)(text, name)
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{name} range must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(part) for part in parts)
    except ValueError as exc:
        raise UsageError(f"bad {name} range {text!r}: {exc}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise UsageError(f"{name} range needs a finite lo, hi and step, got {text!r}")
    if step <= 0:
        raise UsageError(f"{name} step must be positive, got {step}")
    # the cap is checked on the float quotient, before any list exists
    quotient = (hi - lo) / step + 1e-9
    if quotient >= _MAX_RANGE_POINTS:
        raise UsageError(f"{name} range {text!r} holds more than {_MAX_RANGE_POINTS} points")
    count = int(math.floor(quotient)) + 1
    if count < 1:
        raise UsageError(f"empty {name} range {text!r}")
    return _checked([lo + i * step for i in range(count)], name, *_DB)


# flag name -> (default, help, parser); a parser maps (text, flag name) to
# the typed value or raises UsageError
_FLAGS = {
    "k": ("3,5", "transmitter counts, comma separated", _values(int)),
    "delta": ("0.9,0.2", "backhaul reliabilities, comma separated", _values(float)),
    "snr-db": ("0:60:5", "destination SNR grid: lo:hi:step or comma list", _snr_values),
    "lambda-e-db": ("8", "mean eavesdropper channel gain in dB", _single(float, *_DB)),
    "sigma-d-db": ("1", "destination noise power in dB", _single(float, *_DB)),
    "sigma-e-db": ("10", "eavesdropper noise power in dB", _single(float, *_DB)),
    "rth": ("1", "target secrecy rate in bits per channel use",
            _single(float, lambda rth: 0.0 <= rth < MAX_R_TH, f"in [0, {MAX_R_TH:g})")),
    "scheme": ("rts", "selection schemes, comma separated", _values(Scheme)),
    "mode": ("available,unavailable", "gate-knowledge modes, comma separated",
             _values(KnowledgeMode)),
    "metric": ("nzr,sop", "metrics to report, comma separated", _values(Metric)),
    "trials": ("1000000", "Monte Carlo trials per point", _single(int, lambda n: n >= 1, ">= 1")),
    "seed": ("1", "stream seed", _single(int, lambda s: 0 <= s < _SEED_LIMIT, "in [0, 2**128)")),
    "out": ("-", "output path, - for stdout", lambda text, name: text),
}


def read_config(path: str) -> dict[str, str]:
    """Flat key = value file; keys must be known flag names."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FLAGS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="rts-secrecy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in _COMMANDS.items():
        flags = sub.add_parser(command, help=help_text)
        for name, (_, flag_help, _) in _FLAGS.items():
            flags.add_argument(f"--{name}", help=flag_help)
        flags.add_argument("--config", help="key = value file supplying defaults")
        flags.add_argument(
            "--check",
            action="store_true",
            help="enable the command's consistency assertions (exit 2 on failure)",
        )
    return parser


def resolve_settings(args: argparse.Namespace, overrides: dict[str, str]) -> dict[str, str]:
    """Merge flag > config-file > per-command default > global default."""
    config = read_config(args.config) if args.config else {}
    settings = {name: default for name, (default, _, _) in _FLAGS.items()} | overrides | config
    flags = {name: getattr(args, name.replace("-", "_")) for name in _FLAGS}
    return settings | {name: value for name, value in flags.items() if value is not None}


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
            lambda_e_db=cfg["lambda-e-db"],
            sigma_d_db=cfg["sigma-d-db"],
            sigma_e_db=cfg["sigma-e-db"],
            r_th=cfg["rth"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _grid(cfg: dict):
    """(k, delta, snr_db, params) over the grid, in output row order."""
    for k in cfg["k"]:
        for delta in cfg["delta"]:
            for snr_db in cfg["snr-db"]:
                yield k, delta, snr_db, _params(cfg, k, delta, snr_db)


def _simulate(cfg: dict) -> dict:
    """Estimates of the run's metrics keyed by (params, scheme, mode); one stream pass per k."""
    by_k: dict[int, dict] = {}
    for k, _, _, p in _grid(cfg):
        points = by_k.setdefault(k, {})
        for scheme in cfg["scheme"]:
            for mode in cfg["mode"]:
                points[(p, scheme, mode)] = None
    estimates = {}
    for points in by_k.values():
        estimates.update(zip(points, simulate_grid(list(points), cfg["trials"], cfg["seed"], metrics=cfg["metric"])))
    return estimates


def _agrees(est: MetricEstimate, value: float) -> bool:
    """Whether `value` lies in the estimate's Wilson interval at _CHECK_Z.

    Unlike value +- z std_err, the Wilson score interval keeps a nonzero
    width when the estimate is 0 or 1.
    """
    lo, hi = est.wilson_interval(_CHECK_Z)
    return lo - 1e-12 <= value <= hi + 1e-12


def _write_csv(stream: TextIO, rows: list[list[str]]) -> None:
    stream.write(CSV_HEADER + "\n")
    csv.writer(stream, lineterminator="\n").writerows(rows)


def cmd_sweep(cfg: dict, check: bool, stream: TextIO, compare: bool = False) -> int:
    """CSV rows over the grid; `compare` takes one k and delta, and its --check also asserts the scheme order."""
    if compare and (len(cfg["k"]) != 1 or len(cfg["delta"]) != 1):
        raise UsageError("compare takes a single k and delta value")
    estimates = _simulate(cfg)
    rows: list[list[str]] = []
    failures = 0
    for k, delta, snr_db, p in _grid(cfg):
        for scheme in cfg["scheme"]:
            for mode in cfg["mode"]:
                for metric in cfg["metric"]:
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
    _write_csv(stream, rows)
    if compare and check:
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
        for mode in cfg["mode"]:
            by_scheme = {scheme: estimates[(p, scheme, mode)] for scheme in cfg["scheme"]}
            for metric in cfg["metric"]:
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


def cmd_validate(cfg: dict, check: bool, stream: TextIO) -> int:
    if cfg["scheme"] != [Scheme.RTS]:  # the echoed settings must say what ran
        got = ",".join(scheme.value for scheme in cfg["scheme"])
        raise UsageError(f"validate simulates the rts scheme only, got --scheme {got}")
    estimates = _simulate(cfg)
    rows = []
    for _, _, snr_db, p in _grid(cfg):
        for row in analytics.validate_point(p, snr_db):
            if row.metric not in cfg["metric"] or row.mode not in cfg["mode"]:
                continue
            est = estimates[(p, Scheme.RTS, row.mode)][row.metric]
            rows.append(replace(row, simulated=est.value, std_err=est.std_err))
    analytics.write_validation_report(rows, stream)
    undocumented = sum(1 for row in rows if not row.documented)
    if check and undocumented:
        stream.write(f"# check failures = {undocumented}\n")
        return 2
    return 0


def cmd_point(cfg: dict, check: bool, stream: TextIO) -> int:
    if len(cfg["k"]) != 1 or len(cfg["delta"]) != 1 or len(cfg["snr-db"]) != 1:
        raise UsageError("point takes a single k, delta, and snr-db value")
    ((k, delta, _, p),) = _grid(cfg)
    estimates = _simulate(cfg)
    failures = 0
    for scheme in cfg["scheme"]:
        for mode in cfg["mode"]:
            for metric in cfg["metric"]:
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


# command -> (handler, help, defaults that override the flag table's)
_COMMANDS = {
    "sweep": (cmd_sweep, "metric estimates over a parameter grid", {}),
    "compare": (lambda cfg, check, stream: cmd_sweep(cfg, check, stream, compare=True),
                "selection schemes side by side at one point", {
        "k": "5", "delta": "0.9", "scheme": "rts,tts,min-es,optimal",
        "metric": "sop", "mode": "available",
    }),
    "validate": (cmd_validate, "series closed forms against the oracle", {
        "k": "1,2,3,4,5", "delta": "0.2,0.5,0.9", "snr-db": "10,30,50",
    }),
    "point": (cmd_point, "all analytic and simulated values at one point", {
        "k": "5", "delta": "0.9", "snr-db": "10",
    }),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    created = None  # an --out file this run makes, removed again if the run fails
    try:
        args = parser.parse_args(argv)
        handler, _, overrides = _COMMANDS[args.command]
        settings = resolve_settings(args, overrides)
        cfg = {name: parse(settings[name], name) for name, (_, _, parse) in _FLAGS.items()}
        if args.check and Scheme.RTS not in cfg["scheme"]:  # every check reads the rts rows
            raise UsageError(f"{args.command} --check needs the rts scheme in --scheme")
        if cfg["out"] != "-":  # an unwritable path fails before the run; appending keeps an old file's bytes
            fresh = not os.path.lexists(cfg["out"])
            open(cfg["out"], "a", encoding="utf-8").close()
            created = Path(cfg["out"]) if fresh else None
        buffer = io.StringIO()  # the output is written only once the command has returned 0 or 2
        _echo_settings(buffer, args.command, settings)
        code = handler(cfg, args.check, buffer)
        if cfg["out"] == "-":
            sys.stdout.write(buffer.getvalue())
        else:
            Path(cfg["out"]).write_text(buffer.getvalue(), encoding="utf-8", newline="")
        return code
    except (UsageError, OSError) as exc:  # OSError: an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        if created:
            created.unlink(missing_ok=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
