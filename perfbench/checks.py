"""Correctness check of one command's output; one output row is one operation.

The reference for each workload is the command's output at DEFAULT_SEED,
stored in reference/<workload>.txt.  A row passes when:

* at DEFAULT_SEED, its simulated fields equal the reference byte for byte
  (the README's determinism contract);
* its oracle values (`analytic`, `oracle`) and asymptotes are within
  ORACLE_TOL of the reference, the oracle's own stated error budget;
* for ratio selection, the simulated hit count is not in either tail of the
  binomial law at the reference oracle value, at the two-sided level of Z
  standard errors.  The test is exact, so a run that observes a proportion of
  exactly 0 or 1, or a cell that expects far less than one hit, is judged by
  its true probability rather than by a standard error that is zero or
  meaningless there;
* for the other selection rules, which have no oracle, the simulated hit
  count agrees with the reference one (taken on another stream) by Fisher's
  exact test at the same level;
* the program's own check output (order-check lines, failure counts,
  validation summary) is consistent with its rows, and the exit code is the
  expected one.  A wrong exit code fails every row.
"""
from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

from workloads import DEFAULT_SEED, Workload

ORACLE_TOL = 1e-8  # analytics.ORACLE_ERR_BUDGET
Z = 5.0
ALPHA = 2.866515718791933e-07  # scipy.stats.norm.sf(Z): one tail at Z standard errors

SIMULATED_FIELDS = {
    "compare": ("simulated", "std_err", "trials", "seed"),
    "validate": ("simulated", "std_err"),
}


@dataclass
class Output:
    settings: dict[str, str] = field(default_factory=dict)
    rows: dict[tuple, dict[str, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


_SETTING = re.compile(r"# ([\w-]+) = (.*)")


def parse(kind: str, text: str) -> Output:
    out = Output()
    lines = text.splitlines()
    i = 0
    while i < len(lines) and (match := _SETTING.fullmatch(lines[i])):
        out.settings[match[1]] = match[2]
        i += 1
    body = lines[i:]
    out.notes = [line for line in body if line.startswith("#")]
    table = list(csv.reader(line for line in body if not line.startswith("#")))
    header = table[0]
    key_fields = (
        ("snr_db", "scheme", "mode", "metric") if kind == "compare"
        else ("metric", "mode", "k", "delta", "snr_db")
    )
    for values in table[1:]:
        if len(values) != len(header):
            raise ValueError(f"row has {len(values)} fields, header {len(header)}")
        row = dict(zip(header, values))
        out.rows[tuple(row[name] for name in key_fields)] = row
    return out


def _near(text: str, ref_text: str, tol: float) -> bool:
    return abs(float(text) - float(ref_text)) <= tol


def _hits(p_hat: float, trials: int) -> int:
    return round(p_hat * trials)


def _in_tails(cdf: float, sf: float) -> bool:
    """Whether an observation with these lower/upper tail masses is rejected."""
    return cdf <= ALPHA or sf <= ALPHA


def _binomial_test(p_hat: float, p0: float, trials: int) -> bool:
    """The hits behind `p_hat` are plausible under Binomial(trials, p0)."""
    # scipy is imported only once the children have run: a child's ru_maxrss
    # starts at its parent's resident size when it is forked.
    from scipy.stats import binom

    hits, p = _hits(p_hat, trials), min(max(p0, 0.0), 1.0)
    return not _in_tails(binom.cdf(hits, trials, p), binom.sf(hits - 1, trials, p))


def _two_sample(p1: float, p2: float, trials: int) -> bool:
    """Equal proportions are plausible, both from `trials` trials (Fisher)."""
    from scipy.stats import hypergeom

    h1, h2 = _hits(p1, trials), _hits(p2, trials)
    law = hypergeom(2 * trials, h1 + h2, trials)
    return not _in_tails(law.cdf(h1), law.sf(h1 - 1))


def _order_failures(rows: dict[tuple, dict[str, str]]) -> set[tuple]:
    """(snr_db, metric, mode, label) tuples the CLI's ordering rule rejects."""
    failed = set()
    for (snr, scheme, mode, metric), ref in rows.items():
        if scheme != "rts":
            continue
        sign = 1.0 if metric == "sop" else -1.0
        pairs = []
        if (opt := rows.get((snr, "optimal", mode, metric))) is not None:
            pairs.append((opt, ref, "optimal<=rts"))
        for weaker in ("tts", "min-es"):
            if (row := rows.get((snr, weaker, mode, metric))) is not None:
                pairs.append((ref, row, f"rts<={weaker}"))
        for better, worse, label in pairs:
            slack = 3.0 * math.hypot(float(better["std_err"]), float(worse["std_err"]))
            if sign * (float(better["simulated"]) - float(worse["simulated"])) > slack:
                failed.add((snr, metric, mode, label))
    return failed


_ORDER_LINE = re.compile(r"# order check failed: snr_db=(\S+) (\S+) (\S+) (\S+) \(.*")
_FAILURE_COUNT = re.compile(r"# check failures = (\d+)")


def _failure_count(notes: list[str]) -> int:
    counts = [int(m[1]) for line in notes if (m := _FAILURE_COUNT.fullmatch(line))]
    return counts[0] if len(counts) == 1 else 0 if not counts else -1


def _check_compare(out, ref, seed, trials, problems, whole) -> None:
    for key, row in out.rows.items():
        snr, scheme, mode, metric = key
        ref_row = ref.rows[key]
        errs = problems[key]
        if row["trials"] != str(trials) or row["seed"] != str(seed):
            errs.append("trials or seed field")
        simulated = float(row["simulated"])
        if scheme == "rts":
            if not _near(row["analytic"], ref_row["analytic"], ORACLE_TOL):
                errs.append("analytic differs from reference")
            if not _near(row["asymptote"], ref_row["asymptote"], ORACLE_TOL):
                errs.append("asymptote differs from reference")
            if not _binomial_test(simulated, float(ref_row["analytic"]), trials):
                errs.append("simulated hits in a binomial tail of the oracle")
        elif row["analytic"] or row["asymptote"]:
            errs.append("analytic column filled for a reference rule")
        elif seed != DEFAULT_SEED and not _two_sample(
            simulated, float(ref_row["simulated"]), trials
        ):
            errs.append("simulated disagrees with the reference stream")
        # optimal dominates ratio selection trial by trial on a shared stream
        rts = out.rows.get((snr, "rts", mode, metric))
        if scheme == "optimal" and rts is not None:
            sign = 1.0 if metric == "sop" else -1.0
            if sign * (simulated - float(rts["simulated"])) > 0.0:
                errs.append("optimal worse than rts on a shared stream")

    printed = {
        (m[1], m[2], m[3], m[4]) for line in out.notes if (m := _ORDER_LINE.fullmatch(line))
    }
    for snr, metric, mode, label in printed ^ _order_failures(out.rows):
        problems[(snr, "rts", mode, metric)].append(f"order line {label} inconsistent")
    flagged = sum("check=fail" in row["flags"].split(";") for row in out.rows.values())
    if _failure_count(out.notes) != flagged + len(printed):
        whole.append("check failure count inconsistent with rows")
    if seed == DEFAULT_SEED and out.notes != ref.notes:
        whole.append("check lines differ from the reference")


def _check_validate(out, ref, seed, trials, problems, whole) -> None:
    counts = {"match": 0, "mismatch": 0, "out_of_range": 0, "undocumented": 0}
    for key, row in out.rows.items():
        ref_row = ref.rows[key]
        errs = problems[key]
        counts[row["verdict"].lower()] += 1
        counts["undocumented"] += row["documented"] != "yes"
        if not _near(row["oracle"], ref_row["oracle"], ORACLE_TOL):
            errs.append("oracle differs from reference")
        if (row["verdict"], row["documented"]) != (ref_row["verdict"], ref_row["documented"]):
            errs.append("series verdict differs from reference")
        if not _binomial_test(float(row["simulated"]), float(ref_row["oracle"]), trials):
            errs.append("simulated hits in a binomial tail of the oracle")
    summary = "# validation summary: " + " ".join(f"{k}={v}" for k, v in counts.items())
    if summary not in out.notes:
        whole.append("validation summary inconsistent with rows")
    if _failure_count(out.notes) != counts["undocumented"]:
        whole.append("check failure count inconsistent with rows")


_CHECKERS = {"compare": _check_compare, "validate": _check_validate}


def check(workload: Workload, text: str, exit_code: int, seed: int, ref_text: str) -> dict:
    """Problems per output row (an empty list means the row passed)."""
    ref = parse(workload.kind, ref_text)
    problems: dict[tuple, list[str]] = {key: [] for key in ref.rows}
    whole = []
    if exit_code != workload.expected_exit:
        whole.append(f"exit code {exit_code}, expected {workload.expected_exit}")
    try:
        out = parse(workload.kind, text)
    except (ValueError, IndexError) as exc:
        out = None
        whole.append(f"unparseable output: {exc}")
    if out is not None:
        for key in out.rows.keys() - ref.rows.keys():
            problems[key] = ["row not in the reference"]
        for key in ref.rows.keys() - out.rows.keys():
            problems[key].append("row missing")
        out.rows = {key: row for key, row in out.rows.items() if key in ref.rows}
        if out.settings.get("seed") != str(seed):
            whole.append("seed not echoed")
        if seed == DEFAULT_SEED:
            for key, row in out.rows.items():
                for name in SIMULATED_FIELDS[workload.kind]:
                    if row.get(name) != ref.rows[key][name]:
                        problems[key].append(f"{name} differs from the reference bytes")
        try:
            _CHECKERS[workload.kind](out, ref, seed, workload.trials, problems, whole)
        except (KeyError, ValueError) as exc:
            whole.append(f"malformed row: {exc!r}")
    for errs in problems.values():
        errs.extend(whole)
    return problems
