"""Analytic routes to the two secrecy metrics under ratio-based selection.

Three independent sources are provided per metric and knowledge mode:

* series closed forms (fast finite sums; see the caveats below),
* an oracle of the defining probability: exact for NZR, a closed form
  plus one 1-D adaptive quadrature for SOP,
* high-SNR asymptotes (floors set by the backhaul gates alone).

The oracle is the ground truth this package trusts.  The series
forms reproduce a published derivation path term by term; cross-validation
shows several of them disagree with the defining integrals outside narrow
parameter ranges (see DOCUMENTED_SERIES_DEVIATIONS), so their outputs are
flagged rather than silently clamped, and `validate_point` classifies every
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

from .params import KnowledgeMode, Metric, SystemParams
from .specfun import (
    binomial,
    exp_integral_ei,
    upper_incomplete_gamma,
)

MATCH_TOL = 1e-6
ORACLE_ERR_BUDGET = 1e-8
_EPSABS = 1e-13
_EPSREL = 1e-10
_QUAD_LIMIT = 200
_Z_CUT = 50.0
_RANGE_SLACK = 1e-12

VERDICT_MATCH = "MATCH"
VERDICT_MISMATCH = "MISMATCH"
VERDICT_OUT_OF_RANGE = "OUT_OF_RANGE"


@dataclass(frozen=True)
class MetricValue:
    """One metric evaluation: raw value plus validity marker.

    `ok` is False when the value is non-finite, falls outside [0, 1], or
    the evaluator could not meet its error budget; `note` says why.  The
    raw value is preserved either way.  `abserr` is the evaluator's error
    estimate: 0.0 for exact values and for series, which carry none.
    """

    metric: Metric
    mode: KnowledgeMode
    value: float
    source: str
    ok: bool = True
    note: str = ""
    abserr: float = 0.0


def _flag_range(mv: MetricValue) -> MetricValue:
    """Mark a value outside [0, 1] (or non-finite) not ok.

    The slack is a fixed rounding allowance plus the value's own error
    estimate, which is how far quadrature can miss an exact 0 or 1.
    """
    if not mv.ok:
        return mv
    if not math.isfinite(mv.value):
        return replace(mv, ok=False, note="non-finite value")
    slack = _RANGE_SLACK + mv.abserr
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
# oracle: exact NZR, one 1-D region integral for SOP
# ---------------------------------------------------------------------------

def _region_integral(p: SystemParams, gate_p: float) -> tuple[float, float, float, str]:
    """Region integral R = int_0^1 (1 - g + g w)^(k-1) P(w) dw, split at w1.

    x and y are the selected pair's destination and eavesdropper gains, F1
    the single-pair ratio CDF and g = gate_p the chance a competitor is
    live; (1 - g + g F1(x/y))^(k-1) is the chance none of the k-1
    competitors beats the ratio x/y.  With s = x/y and w = F1(s) =
    lambda_d s/(lambda_d s + lambda_e), the y-integral of f_D f_E over the
    outage region x < alpha + beta y is closed form: P(w) = 1 up to
    w_beta = F1(beta) and P(w) = 1 - e^-z (1 + z), z = c/(w - w_beta),
    above it, where alpha = sigma_d (rho - 1), beta = rho sigma_d/sigma_e
    and c = lambda_d lambda_e alpha/(lambda_e + lambda_d beta).

    Up to w1 = min(w_beta + c/_Z_CUT, 1) P is 1 within (1 + _Z_CUT)
    e^-_Z_CUT, so that head of R is closed form: (B - (1 - g)^k)/(g k)
    with B = (1 - g + g w1)^k.  The tail above w1 is one quadrature over
    tau = log((w - w_beta)/(w1 - w_beta)), in which P's rise near
    w - w_beta = c is O(1) wide at every SNR.  There is no tail when
    w1 = 1 (a certain outage) or c = 0 (r_th = 0: P = 0 above w_beta).

    Returns (B, tail, the tail's error estimate, quadpack's message when
    it did not converge, else "").
    """
    lam_d, lam_e = p.lambda_d, p.lambda_e
    beta = p.rho * p.sigma_d / p.sigma_e
    scale = lam_d * beta + lam_e
    above = lam_e / scale  # 1 - w_beta
    c = lam_d * lam_e * p.sigma_d * (p.rho - 1.0) / scale
    gap = c / _Z_CUT  # w1 - w_beta
    if gap >= above:
        return 1.0, 0.0, 0.0, ""
    g, m = gate_p, p.k - 1
    drop = g * (above - gap)  # 1 - (1 - g + g w1)
    if drop < 0.5:  # log1p keeps the digits of a B near 1
        power = math.exp(p.k * math.log1p(-drop))
    else:  # and w1 = w_beta + gap those of a small B
        power = (1.0 - g + g * (lam_d * beta / scale + gap)) ** p.k
    if gap == 0.0:
        return power, 0.0, 0.0, ""

    def integrand(tau: float) -> float:
        # d = w - w_beta is exactly gap at tau = 0, where the head ends, and
        # 1 - w = above - d keeps its digits near w = 1
        d = gap * math.exp(tau)
        z = c / d
        return (1.0 - g * (above - d)) ** m * (-math.expm1(-z) - z * math.exp(-z)) * d

    out = integrate.quad(
        integrand, 0.0, math.log(above / gap),
        epsabs=_EPSABS, epsrel=_EPSREL, limit=_QUAD_LIMIT, full_output=1,
    )
    message = " ".join(out[3].split()) if len(out) > 3 else ""
    return power, out[0], out[1], message


def nzr_oracle(p: SystemParams, mode: KnowledgeMode) -> MetricValue:
    """Non-zero-rate probability, exact.

    The rate is zero exactly when the selected ratio g_d/g_e is at most
    c = sigma_d/sigma_e, and t = lambda_e/(lambda_d c + lambda_e) is the
    chance one live pair's ratio exceeds c.  With gate knowledge the
    largest live ratio must exceed c: 1 - (1 - delta t)^k.  Without it the
    largest of all k ratios must, and its gate must be up:
    delta (1 - (1 - t)^k).  expm1/log1p keep the digits of small values.
    """
    c = p.ratio_threshold
    t = p.lambda_e / (p.lambda_d * c + p.lambda_e)
    gate_p, weight = (p.delta, 1.0) if mode is KnowledgeMode.AVAILABLE else (1.0, p.delta)
    live_t = gate_p * t
    value = weight * (1.0 if live_t >= 1.0 else -math.expm1(p.k * math.log1p(-live_t)))
    return MetricValue(Metric.NZR, mode, value, "exact")


@lru_cache(maxsize=4096)
def sop_oracle(p: SystemParams, mode: KnowledgeMode) -> MetricValue:
    """Outage probability: a closed-form head plus one 1-D quadrature tail.

    Transmitter j is selected and in outage with density f_D f_E times the
    chance no competitor beats it.  With gate knowledge j must be live and
    the all-dead atom (1 - delta)^k counts as outage; without it every
    competitor takes part and a dead selected gate, probability 1 - delta,
    forces a zero rate.  Either way the k symmetric choices of j add
    k delta times the region integral (`_region_integral`).  Its closed-form
    head joins the atom: (1 - delta + delta w1)^k with gate knowledge,
    1 - delta + delta w1^k without, both exactly 1 when w1 = 1.
    """
    k, delta = p.k, p.delta
    available = mode is KnowledgeMode.AVAILABLE
    power, tail, err, message = _region_integral(p, delta if available else 1.0)
    head = power if available else 1.0 - delta + delta * power
    err *= k * delta
    if message:
        ok, note = False, f"quadrature did not converge: {message}"
    elif err > ORACLE_ERR_BUDGET:
        ok, note = False, f"quadrature error estimate {err:.2e} exceeds budget"
    else:
        ok, note = True, ""
    return _flag_range(
        MetricValue(Metric.SOP, mode, head + k * delta * tail, "quadrature", ok, note, err)
    )


def oracle(p: SystemParams, metric: Metric, mode: KnowledgeMode) -> MetricValue:
    return nzr_oracle(p, mode) if metric is Metric.NZR else sop_oracle(p, mode)


# ---------------------------------------------------------------------------
# series closed forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
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
        bracket = {n: _nzr_series_bracket(n, u, v) for n in range(1, k)}
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
                        * bracket[n]
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
                    * bracket[n]
                )
            value = delta * (1.0 - k * tail)
    except (OverflowError, ZeroDivisionError) as exc:
        return MetricValue(Metric.NZR, mode, math.nan, "series", False, f"series failed: {exc}")
    return _flag_range(MetricValue(Metric.NZR, mode, value, "series"))


def _sop_series_bracket(n: int, p: SystemParams, mode: KnowledgeMode, upper: Callable[[int], float]) -> float:
    """Per-order term of both outage series; `upper(s)` is Gamma(s, b).

    Two pieces are printed differently in the two modes' series, and each
    mode reads its own printing verbatim: the coefficient of the double
    factorial-gamma sum is sigma_d lambda_d^(n+1) with gate knowledge and
    (sigma_e lambda_e)^(n+1) without, and the (-1)^n / a^(n+1) term is added
    to the exponential-integral block with gate knowledge and multiplies it
    without.  No other reading tried matches the oracle for k >= 2 (README
    "Known series defects").
    """
    available = mode is KnowledgeMode.AVAILABLE
    u = p.sigma_e * p.lambda_e
    v = p.sigma_d * p.lambda_d
    rho = p.rho
    b = v * (rho - 1.0)
    a = (rho + 1.0) * v

    t1 = _signed_factorial_ratio(n)
    t2 = (-1.0) ** n * float(math.factorial(n)) / (n + 1)

    res_coef = p.sigma_d * p.lambda_d ** (n + 1) if available else u ** (n + 1)
    double_sum = 0.0
    for r in range(1, n + 1):
        inner = 0.0
        for i in range(0, n + 1):
            inner += binomial(n, i) * (-b) ** (n - i) * upper(i - r + 1)
        double_sum += math.factorial(r - 1) * (-1.0) ** (n - r) * inner
    t3 = -res_coef / (a ** (n + 1) * math.factorial(n)) * double_sum

    t4 = (-1.0) ** n / a ** (n + 1)
    ei_block = (-b) ** (n + 1) * exp_integral_ei(-b) - math.exp(-b) * sum(
        math.factorial(n - l) * (-b) ** l for l in range(0, n + 1)
    )
    t5 = u ** (n + 1) / math.factorial(n + 1) * ei_block
    mid = t4 + t5 if available else t4 * t5

    t6 = (
        u ** (n + 1)
        / (n * a ** (n + 1))
        * sum(
            binomial(n, q) * upper(q - n + 1) / (a * (-b) ** (q - n))
            for q in range(0, n + 1)
        )
    )
    t7 = -math.exp(-b) / (n * a * u)
    return t1 + t2 + t3 + mid + t6 + t7


def sop_closed_form(p: SystemParams, mode: KnowledgeMode) -> MetricValue:
    """Series closed form of the outage probability.

    Exact against the oracle only at k = 1 with gate knowledge (where it
    reduces to the all-dead atom plus the single-link outage term); every
    other cell carries a documented deviation.
    """
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
        upper = lru_cache(maxsize=None)(lambda s: upper_incomplete_gamma(s, b))
        bracket = {n: _sop_series_bracket(n, p, mode, upper) for n in range(1, k)}
        if mode is KnowledgeMode.AVAILABLE:
            value = (1.0 - delta) ** k
            value += delta * (1.0 - delta) ** (k - 1) * k * single_link_outage
            for q in range(2, k + 1):
                inner = 0.0
                for n in range(1, k):
                    inner += (
                        binomial(k - 1, n)
                        * (-1.0) ** (n + 1)
                        * delta ** (n + 1)
                        * n
                        * bracket[n]
                    )
                value += binomial(k, q) * q * inner
        else:
            tail = 0.0
            for n in range(1, k):
                tail += (
                    binomial(k - 1, n)
                    * (-1.0) ** (n + 1)
                    * n
                    * bracket[n]
                )
            value = (1.0 - delta) + delta * k * tail
    except (OverflowError, ZeroDivisionError) as exc:
        return MetricValue(Metric.SOP, mode, math.nan, "series", False, f"series failed: {exc}")
    return _flag_range(MetricValue(Metric.SOP, mode, value, "series"))


def closed_form(p: SystemParams, metric: Metric, mode: KnowledgeMode) -> MetricValue:
    if metric is Metric.NZR:
        return nzr_closed_form(p, mode)
    return sop_closed_form(p, mode)


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
            # a verdict against an oracle that failed is not documented
            documented = orc.ok and (verdict == VERDICT_MATCH or reason is not None)
            notes = [series.note] if not series.ok else []
            if verdict != VERDICT_MATCH and reason is not None:
                notes.append(reason)
            if not orc.ok:
                notes.append(f"oracle: {orc.note}")
            note = "; ".join(filter(None, notes))
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
