"""Analytic routes to the two secrecy metrics under ratio-based selection.

Three independent sources are provided per metric and knowledge mode:

* series closed forms (fast finite sums; see the caveats below),
* a deterministic adaptive-quadrature oracle of the defining probability,
* high-SNR asymptotes (floors set by the backhaul gates alone).

The quadrature oracle is the ground truth this package trusts.  The series
forms reproduce a published derivation path term by term; cross-validation
shows several of them disagree with the defining integrals outside narrow
parameter ranges (see DOCUMENTED_SERIES_DEVIATIONS), so their outputs are
flagged rather than silently clamped, and `validate_grid` classifies every
comparison as MATCH / MISMATCH / OUT_OF_RANGE.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence, TextIO

from scipy import integrate

from .distributions import single_ratio_cdf
from .params import KnowledgeMode, Metric, SystemParams
from .specfun import (
    binomial,
    exp_integral_ei,
    lower_incomplete_gamma,
    upper_incomplete_gamma,
)

MATCH_TOL = 1e-6
ORACLE_ERR_BUDGET = 1e-8
_INNER_EPSABS = 1e-12
_INNER_EPSREL = 1e-10
_OUTER_EPSABS = 1e-11
_OUTER_EPSREL = 1e-10
_RANGE_SLACK = 1e-12

VERDICT_MATCH = "MATCH"
VERDICT_MISMATCH = "MISMATCH"
VERDICT_OUT_OF_RANGE = "OUT_OF_RANGE"


@dataclass(frozen=True)
class MetricValue:
    """One metric evaluation: raw value plus validity marker.

    `ok` is False when the value is non-finite, falls outside [0, 1], or
    the evaluator could not meet its error budget; `note` says why.  The
    raw value is preserved either way.
    """

    metric: Metric
    mode: KnowledgeMode
    value: float
    source: str
    ok: bool = True
    note: str = ""


def _flag_range(mv: MetricValue, slack: float = _RANGE_SLACK) -> MetricValue:
    """Mark a value outside [0, 1] by more than `slack` (or non-finite) not ok.

    Series values keep the fixed slack; an oracle value may also stray by
    its own error estimate, which is how far quadrature can miss an exact
    0 or 1.
    """
    if not mv.ok:
        return mv
    if not math.isfinite(mv.value):
        return replace(mv, ok=False, note="non-finite value")
    if mv.value < -slack or mv.value > 1.0 + slack:
        return replace(mv, ok=False, note="raw value outside [0, 1]")
    return mv


# ---------------------------------------------------------------------------
# asymptotes: high mean destination gain (1/lambda_d -> infinity)
# ---------------------------------------------------------------------------

def asymptote(metric: Metric, mode: KnowledgeMode, k: int, delta: float) -> MetricValue:
    """Floor reached as the mean destination gain grows without bound.

    Only the backhaul gates survive in that limit: with gate knowledge the
    metrics saturate at the all-gates-down probability, without it at the
    selected-gate-down probability.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dead_all = (1.0 - delta) ** k
    if metric is Metric.NZR:
        value = 1.0 - dead_all if mode is KnowledgeMode.AVAILABLE else delta
    else:
        value = dead_all if mode is KnowledgeMode.AVAILABLE else 1.0 - delta
    return MetricValue(metric, mode, value, source="asymptote")


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def _region_integral(p: SystemParams, m: int, x_bound: Callable[[float], float]) -> tuple[float, float]:
    """q-free core of both oracles.

    Integral over (x, y) of f_D(x) f_E(y) F1(x/y)^m on {x < x_bound(y)},
    where F1 is the single-pair ratio CDF and m counts competitor pairs.
    The outer variable is transformed by y = -ln(t)/lambda_e so both loops
    of the nested adaptive quadrature run on finite intervals.  Returns
    (value, error estimate).
    """
    lam_d, lam_e = p.lambda_d, p.lambda_e

    def inner(y: float) -> float:
        hi = x_bound(y)
        if hi <= 0.0:
            return 0.0
        val, _ = integrate.quad(
            lambda x: lam_d * math.exp(-lam_d * x) * single_ratio_cdf(x / y, lam_d, lam_e) ** m,
            0.0,
            hi,
            epsabs=_INNER_EPSABS,
            epsrel=_INNER_EPSREL,
            limit=200,
        )
        return val

    out = integrate.quad(
        lambda t: inner(-math.log(t) / lam_e),
        0.0,
        1.0,
        epsabs=_OUTER_EPSABS,
        epsrel=_OUTER_EPSREL,
        limit=200,
        full_output=1,
    )
    value, abserr = out[0], out[1]
    return value, abserr + _INNER_EPSABS


def _zero_rate_bound(p: SystemParams) -> Callable[[float], float]:
    c = p.ratio_threshold
    return lambda y: c * y


def _outage_bound(p: SystemParams) -> Callable[[float], float]:
    return p.outage_gain_bound


def _selected_event_probability(
    p: SystemParams, mode: KnowledgeMode, x_bound: Callable[[float], float]
) -> tuple[float, float]:
    """P[the ratio-selected link lands in the region] plus error estimate.

    Decomposes over the number q of live gates.  With gate knowledge q is
    Binomial(k, delta) and the all-dead atom counts as being in the region
    (no transmission); without it the competitor count is fixed at k-1 and
    the dead-selected-gate case is handled by the caller.
    """
    k, delta = p.k, p.delta
    if mode is KnowledgeMode.UNAVAILABLE:
        val, err = _region_integral(p, k - 1, x_bound)
        return k * val, k * err
    total = (1.0 - delta) ** k
    err_total = 0.0
    for q in range(1, k + 1):
        weight = binomial(k, q) * delta**q * (1.0 - delta) ** (k - q)
        if weight == 0.0:
            continue
        val, err = _region_integral(p, q - 1, x_bound)
        total += weight * q * val
        err_total += weight * q * err
    return total, err_total


@lru_cache(maxsize=4096)
def _nzr_oracle_cached(p: SystemParams, mode: KnowledgeMode) -> MetricValue:
    p_zero, err = _selected_event_probability(p, mode, _zero_rate_bound(p))
    if mode is KnowledgeMode.AVAILABLE:
        value = 1.0 - p_zero
    else:
        value = p.delta * (1.0 - p_zero)
        err *= p.delta
    ok = err <= ORACLE_ERR_BUDGET
    note = "" if ok else f"quadrature error estimate {err:.2e} exceeds budget"
    return _flag_range(
        MetricValue(Metric.NZR, mode, value, "quadrature", ok, note), _RANGE_SLACK + err
    )


@lru_cache(maxsize=4096)
def _sop_oracle_cached(p: SystemParams, mode: KnowledgeMode) -> MetricValue:
    p_region, err = _selected_event_probability(p, mode, _outage_bound(p))
    if mode is KnowledgeMode.AVAILABLE:
        value = p_region
    else:
        # dead selected gate forces a zero rate, which is an outage
        value = (1.0 - p.delta) + p.delta * p_region
        err *= p.delta
    ok = err <= ORACLE_ERR_BUDGET
    note = "" if ok else f"quadrature error estimate {err:.2e} exceeds budget"
    return _flag_range(
        MetricValue(Metric.SOP, mode, value, "quadrature", ok, note), _RANGE_SLACK + err
    )


def nzr_oracle(p: SystemParams, mode: KnowledgeMode) -> MetricValue:
    """Non-zero-rate probability by nested deterministic quadrature."""
    return _nzr_oracle_cached(p, mode)


def sop_oracle(p: SystemParams, mode: KnowledgeMode) -> MetricValue:
    """Outage probability by nested deterministic quadrature."""
    return _sop_oracle_cached(p, mode)


def oracle(p: SystemParams, metric: Metric, mode: KnowledgeMode) -> MetricValue:
    return nzr_oracle(p, mode) if metric is Metric.NZR else sop_oracle(p, mode)


# ---------------------------------------------------------------------------
# series closed forms
# ---------------------------------------------------------------------------

def _signed_factorial_ratio(n: int) -> float:
    """sum_{i=1}^{n} (-1)^(n-i) (n-i)! (i-1)! / n!, evaluated exactly."""
    total = Fraction(0)
    fact_n = math.factorial(n)
    for i in range(1, n + 1):
        total += Fraction((-1) ** (n - i) * math.factorial(n - i) * math.factorial(i - 1), fact_n)
    return float(total)


def _nzr_series_bracket(n: int, u: float, v: float) -> float:
    """Shared per-order term of both non-zero-rate series."""
    s_n = _signed_factorial_ratio(n)
    lead = (u**n - (u + v) ** n) / n
    tail = ((u + v) ** (n + 1) / u - u**n) * (s_n + (-1.0) ** n / (n + 1))
    return lead + tail


def nzr_closed_form(p: SystemParams, mode: KnowledgeMode) -> MetricValue:
    """Series closed form of the non-zero-rate probability.

    Exact against the oracle for k <= 2 with gate knowledge and for k >= 2
    without it; the remaining corners carry documented deviations.
    """
    u = p.sigma_e * p.lambda_e
    v = p.sigma_d * p.lambda_d
    k, delta = p.k, p.delta
    try:
        if mode is KnowledgeMode.AVAILABLE:
            p_zero = (1.0 - delta) ** k + k * delta * (1.0 - delta) ** (k - 1) * v / (u + v)
            for q in range(1, k + 1):
                for n in range(1, q):
                    p_zero += (
                        binomial(k, q)
                        * binomial(q - 1, n)
                        * (-1.0) ** (n + 1)
                        * n
                        * q
                        * delta ** (n + 1)
                        * u
                        / (u + v) ** (n + 1)
                        * _nzr_series_bracket(n, u, v)
                    )
            value = 1.0 - p_zero
        else:
            tail = 0.0
            for n in range(1, k):
                tail += (
                    binomial(k - 1, n)
                    * (-1.0) ** (n + 1)
                    * n
                    * u
                    / (u + v) ** (n + 1)
                    * _nzr_series_bracket(n, u, v)
                )
            value = delta * (1.0 - k * tail)
    except (OverflowError, ZeroDivisionError) as exc:
        return MetricValue(Metric.NZR, mode, math.nan, "series", False, f"series failed: {exc}")
    return _flag_range(MetricValue(Metric.NZR, mode, value, "series"))


@dataclass(frozen=True)
class SopSeriesVariant:
    """Reading choices for ambiguous pieces of the outage series.

    Each field picks one of two algebraically plausible readings; the
    defaults reproduce the derivation source verbatim for each knowledge
    mode.  Cross-validation against the quadrature oracle found no
    combination that matches the defining integral for k >= 2, so these
    switches exist to make that adjudication reproducible, not to offer a
    correct variant.

    a_rule:          constant `a`; "same-side" = (rho+1) sigma_d lambda_d,
                     "cross-side" = rho sigma_d lambda_d + sigma_e lambda_e.
    gamma_rule:      the bare gamma(n+1) factor; "complete" reads n!,
                     "truncated" reads the lower incomplete gamma at b.
    residual_weight: coefficient of the double factorial-gamma sum;
                     "d-linear" = sigma_d * lambda_d^(n+1) (gate-known
                     printing), "e-power" = (sigma_e lambda_e)^(n+1)
                     (gate-unknown printing).
    tail_rule:       how the (-1)^n / a^(n+1) term combines with the
                     exponential-integral block: "additive" or "product".
    depth_rule:      inner sum bound in the gate-known form: "full" = k-1,
                     "subset" = q-1.
    """

    a_rule: str = "same-side"
    gamma_rule: str = "complete"
    residual_weight: str = "d-linear"
    tail_rule: str = "additive"
    depth_rule: str = "full"

    def __post_init__(self) -> None:
        allowed = {
            "a_rule": ("same-side", "cross-side"),
            "gamma_rule": ("complete", "truncated"),
            "residual_weight": ("d-linear", "e-power"),
            "tail_rule": ("additive", "product"),
            "depth_rule": ("full", "subset"),
        }
        for field, options in allowed.items():
            if getattr(self, field) not in options:
                raise ValueError(f"{field} must be one of {options}")


SOP_SERIES_AVAILABLE_DEFAULT = SopSeriesVariant()
SOP_SERIES_UNAVAILABLE_DEFAULT = SopSeriesVariant(residual_weight="e-power", tail_rule="product")


def _sop_series_bracket(n: int, p: SystemParams, variant: SopSeriesVariant) -> float:
    u = p.sigma_e * p.lambda_e
    v = p.sigma_d * p.lambda_d
    rho = p.rho
    b = v * (rho - 1.0)
    a = (rho + 1.0) * v if variant.a_rule == "same-side" else rho * v + u

    t1 = _signed_factorial_ratio(n)
    if variant.gamma_rule == "complete":
        gamma_term = float(math.factorial(n))
    else:
        gamma_term = lower_incomplete_gamma(n + 1, b)
    t2 = (-1.0) ** n * gamma_term / (n + 1)

    if variant.residual_weight == "d-linear":
        res_coef = p.sigma_d * p.lambda_d ** (n + 1)
    else:
        res_coef = u ** (n + 1)
    double_sum = 0.0
    for r in range(1, n + 1):
        inner = 0.0
        for i in range(0, n + 1):
            inner += binomial(n, i) * (-b) ** (n - i) * upper_incomplete_gamma(i - r + 1, b)
        double_sum += math.factorial(r - 1) * (-1.0) ** (n - r) * inner
    t3 = -res_coef / (a ** (n + 1) * math.factorial(n)) * double_sum

    t4 = (-1.0) ** n / a ** (n + 1)
    ei_block = (-b) ** (n + 1) * exp_integral_ei(-b) - math.exp(-b) * sum(
        math.factorial(n - l) * (-b) ** l for l in range(0, n + 1)
    )
    t5 = u ** (n + 1) / math.factorial(n + 1) * ei_block
    mid = t4 + t5 if variant.tail_rule == "additive" else t4 * t5

    t6 = (
        u ** (n + 1)
        / (n * a ** (n + 1))
        * sum(
            binomial(n, q) * upper_incomplete_gamma(q - n + 1, b) / (a * (-b) ** (q - n))
            for q in range(0, n + 1)
        )
    )
    t7 = -math.exp(-b) / (n * a * u)
    return t1 + t2 + t3 + mid + t6 + t7


def sop_closed_form(
    p: SystemParams,
    mode: KnowledgeMode,
    variant: SopSeriesVariant | None = None,
) -> MetricValue:
    """Series closed form of the outage probability.

    Exact against the oracle only at k = 1 with gate knowledge (where it
    reduces to the all-dead atom plus the single-link outage term); every
    other cell carries a documented deviation whatever the variant.
    """
    if variant is None:
        variant = (
            SOP_SERIES_AVAILABLE_DEFAULT
            if mode is KnowledgeMode.AVAILABLE
            else SOP_SERIES_UNAVAILABLE_DEFAULT
        )
    if p.rho == 1.0:
        return MetricValue(
            Metric.SOP, mode, math.nan, "series", False,
            "series needs a positive threshold (zero-threshold collapse is 1 - NZR)",
        )
    u = p.sigma_e * p.lambda_e
    v = p.sigma_d * p.lambda_d
    k, delta, rho = p.k, p.delta, p.rho
    b = v * (rho - 1.0)
    try:
        single_link_outage = 1.0 - u * math.exp(-b) / (rho * v + u)
        if mode is KnowledgeMode.AVAILABLE:
            value = (1.0 - delta) ** k
            value += delta * (1.0 - delta) ** (k - 1) * k * single_link_outage
            for q in range(2, k + 1):
                depth = (k - 1) if variant.depth_rule == "full" else (q - 1)
                inner = 0.0
                for n in range(1, depth + 1):
                    inner += (
                        binomial(depth, n)
                        * (-1.0) ** (n + 1)
                        * delta ** (n + 1)
                        * n
                        * _sop_series_bracket(n, p, variant)
                    )
                value += binomial(k, q) * q * inner
        else:
            tail = 0.0
            for n in range(1, k):
                tail += (
                    binomial(k - 1, n)
                    * (-1.0) ** (n + 1)
                    * n
                    * _sop_series_bracket(n, p, variant)
                )
            value = (1.0 - delta) + delta * k * tail
    except (OverflowError, ZeroDivisionError) as exc:
        return MetricValue(Metric.SOP, mode, math.nan, "series", False, f"series failed: {exc}")
    return _flag_range(MetricValue(Metric.SOP, mode, value, "series"))


def closed_form(
    p: SystemParams, metric: Metric, mode: KnowledgeMode,
    sop_variant: SopSeriesVariant | None = None,
) -> MetricValue:
    if metric is Metric.NZR:
        return nzr_closed_form(p, mode)
    return sop_closed_form(p, mode, sop_variant)


# ---------------------------------------------------------------------------
# validation: series vs oracle with verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesDeviation:
    """One known defect class of the series closed forms."""

    metric: Metric
    mode: KnowledgeMode
    min_k: int
    max_k: int | None
    reason: str

    def applies(self, metric: Metric, mode: KnowledgeMode, k: int) -> bool:
        if metric is not self.metric or mode is not self.mode:
            return False
        return k >= self.min_k and (self.max_k is None or k <= self.max_k)


DOCUMENTED_SERIES_DEVIATIONS: tuple[SeriesDeviation, ...] = (
    SeriesDeviation(
        Metric.NZR,
        KnowledgeMode.AVAILABLE,
        3,
        None,
        "gate-known series overcounts the competitor expansion for k >= 3 "
        "(first spurious term scales like 3 delta^2 at k = 3); exact for k <= 2",
    ),
    SeriesDeviation(
        Metric.NZR,
        KnowledgeMode.UNAVAILABLE,
        1,
        1,
        "empty competitor sum at k = 1 drops the single-pair zero-rate factor "
        "sigma_e lambda_e / (sigma_e lambda_e + sigma_d lambda_d)",
    ),
    SeriesDeviation(
        Metric.SOP,
        KnowledgeMode.AVAILABLE,
        2,
        None,
        "outage bracket disagrees with its defining integral under every "
        "documented reading; only the k = 1 reduction is sound",
    ),
    SeriesDeviation(
        Metric.SOP,
        KnowledgeMode.UNAVAILABLE,
        1,
        None,
        "outage bracket disagrees with its defining integral under every "
        "documented reading, and the k = 1 sum is empty",
    ),
)


def documented_series_deviation(metric: Metric, mode: KnowledgeMode, k: int) -> str | None:
    """Reason text when (metric, mode, k) falls in a known defect class."""
    for dev in DOCUMENTED_SERIES_DEVIATIONS:
        if dev.applies(metric, mode, k):
            return dev.reason
    return None


@dataclass(frozen=True)
class ValidationRow:
    metric: Metric
    mode: KnowledgeMode
    k: int
    delta: float
    snr_db: float
    closed_form: float
    oracle: float
    abs_diff: float
    verdict: str
    documented: bool
    note: str = ""
    simulated: float | None = None
    std_err: float | None = None


def classify(series: MetricValue, oracle_value: MetricValue, tol: float = MATCH_TOL) -> str:
    """MATCH / MISMATCH / OUT_OF_RANGE verdict for one series-vs-oracle cell."""
    if not series.ok:
        return VERDICT_OUT_OF_RANGE
    diff = abs(series.value - oracle_value.value)
    return VERDICT_MATCH if diff <= tol else VERDICT_MISMATCH


def validate_point(p: SystemParams, snr_db: float, tol: float = MATCH_TOL) -> list[ValidationRow]:
    """Verdict rows for all four metric/mode cells at one parameter point."""
    rows = []
    for metric in (Metric.NZR, Metric.SOP):
        for mode in (KnowledgeMode.AVAILABLE, KnowledgeMode.UNAVAILABLE):
            series = closed_form(p, metric, mode)
            orc = oracle(p, metric, mode)
            verdict = classify(series, orc, tol)
            reason = documented_series_deviation(metric, mode, p.k)
            documented = verdict == VERDICT_MATCH or reason is not None
            note = series.note if not series.ok else ""
            if verdict != VERDICT_MATCH and reason is not None:
                note = (note + "; " if note else "") + reason
            diff = (
                abs(series.value - orc.value)
                if math.isfinite(series.value)
                else math.nan
            )
            rows.append(
                ValidationRow(
                    metric=metric,
                    mode=mode,
                    k=p.k,
                    delta=p.delta,
                    snr_db=snr_db,
                    closed_form=series.value,
                    oracle=orc.value,
                    abs_diff=diff,
                    verdict=verdict,
                    documented=documented,
                    note=note,
                )
            )
    return rows


def validate_grid(
    ks: Sequence[int],
    deltas: Sequence[float],
    snrs_db: Sequence[float],
    lambda_e_db: float = 8.0,
    sigma_d_db: float = 1.0,
    sigma_e_db: float = 10.0,
    r_th: float = 1.0,
    tol: float = MATCH_TOL,
) -> list[ValidationRow]:
    """Series-vs-oracle verdicts over the cartesian parameter grid."""
    rows: list[ValidationRow] = []
    for k in ks:
        for delta in deltas:
            for snr_db in snrs_db:
                p = SystemParams.from_db(
                    k=k,
                    delta=delta,
                    snr_db=snr_db,
                    lambda_e_db=lambda_e_db,
                    sigma_d_db=sigma_d_db,
                    sigma_e_db=sigma_e_db,
                    r_th=r_th,
                )
                rows.extend(validate_point(p, snr_db, tol))
    return rows


def summarize_validation(rows: Iterable[ValidationRow]) -> dict[str, int]:
    counts = {
        VERDICT_MATCH: 0,
        VERDICT_MISMATCH: 0,
        VERDICT_OUT_OF_RANGE: 0,
        "UNDOCUMENTED": 0,
    }
    for row in rows:
        counts[row.verdict] += 1
        if not row.documented:
            counts["UNDOCUMENTED"] += 1
    return counts


_REPORT_FIELDS = (
    "metric", "mode", "k", "delta", "snr_db", "closed_form", "oracle",
    "simulated", "std_err", "abs_diff", "verdict", "documented", "note",
)


def write_validation_report(rows: Sequence[ValidationRow], stream: TextIO) -> None:
    """CSV report, one row per comparison, with a count summary up front."""
    counts = summarize_validation(rows)
    stream.write(
        "# validation summary: "
        + " ".join(f"{key.lower()}={counts[key]}" for key in counts)
        + "\n"
    )
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_REPORT_FIELDS)
    for row in rows:
        writer.writerow(
            [
                row.metric.value,
                row.mode.value,
                row.k,
                repr(row.delta),
                repr(row.snr_db),
                repr(row.closed_form),
                repr(row.oracle),
                "" if row.simulated is None else repr(row.simulated),
                "" if row.std_err is None else repr(row.std_err),
                repr(row.abs_diff),
                row.verdict,
                "yes" if row.documented else "NO",
                row.note,
            ]
        )
