"""Analytic routes to the two secrecy metrics under ratio-based selection.

Three independent sources are provided per metric and knowledge mode:

* series closed forms (fast finite sums; see the caveats below),
* an exact oracle of the defining probability: a product formula for NZR
  and a finite sum of non-negative terms for SOP,
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
from functools import lru_cache
from typing import Callable, Iterable, Sequence, TextIO

# not called here: profilers read sys.modules["scipy"] and wrap analytics.integrate by name,
# so a bare import (its submodules load lazily) and `__getattr__` keep both without the cost
import scipy  # noqa: F401

from .params import MAX_TRANSMITTERS, KnowledgeMode, Metric, SystemParams
from .specfun import exp1, expn, upper_incomplete_gamma

MATCH_TOL = 1e-6
_RANGE_SLACK = 1e-12

VERDICT_MATCH = "MATCH"
VERDICT_MISMATCH = "MISMATCH"
VERDICT_OUT_OF_RANGE = "OUT_OF_RANGE"


def __getattr__(name: str):
    if name == "integrate":
        import scipy.integrate

        return scipy.integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class MetricValue:
    """One metric evaluation: raw value plus validity marker.

    `ok` is False when the value is non-finite or falls outside [0, 1];
    `note` says why.  The raw value is preserved either way.
    """

    value: float
    source: str
    ok: bool = True
    note: str = ""


def _flag_range(mv: MetricValue) -> MetricValue:
    """Mark a value outside [0, 1], beyond a fixed rounding slack, or non-finite not ok."""
    if not math.isfinite(mv.value):
        return replace(mv, ok=False, note="non-finite value")
    if mv.value < -_RANGE_SLACK or mv.value > 1.0 + _RANGE_SLACK:
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
    return MetricValue(value, source="asymptote")


# ---------------------------------------------------------------------------
# oracle: exact NZR and SOP
# ---------------------------------------------------------------------------

def _scaled(expr: Callable[..., float], powers: Sequence[int], *values: float) -> float:
    """expr(*values), a product of the values raised to `powers`, with no intermediate out of range.

    expr runs on the binary mantissas (frexp) and the exponents are put back
    once (ldexp).  Scaling by 2^n commutes with rounding in the normal range,
    so where every operation of expr(*values) is normal this is its value
    bit for bit; only the final scaling can overflow (inf) or underflow.
    """
    parts = [math.frexp(v) for v in values]
    try:
        return math.ldexp(expr(*(m for m, _ in parts)), sum(n * e for n, (_, e) in zip(powers, parts)))
    except OverflowError:
        return math.inf


def nzr_oracle(p: SystemParams, mode: KnowledgeMode) -> MetricValue:
    """Non-zero-rate probability, exact.

    The rate is zero exactly when the selected ratio g_d/g_e is at most
    c = sigma_d/sigma_e, and t = lambda_e/(lambda_d c + lambda_e) is the
    chance one live pair's ratio exceeds c.  With gate knowledge the
    largest live ratio must exceed c: 1 - (1 - delta t)^k.  Without it the
    largest of all k ratios must, and its gate must be up:
    delta (1 - (1 - t)^k).  expm1/log1p keep the digits of small values,
    and `_scaled` those of lambda_d c where c alone is out of range, and of
    t = 1/(1 + lambda_d c/lambda_e) where lambda_d c + lambda_e is.
    """
    lam_dc = _scaled(lambda l, d, e: l * (d / e), (1, 1, -1), p.lambda_d, p.sigma_d, p.sigma_e)
    t = p.lambda_e / (lam_dc + p.lambda_e)
    if lam_dc + p.lambda_e == math.inf:
        scales = (p.lambda_d, p.sigma_d, p.sigma_e, p.lambda_e)
        t = 1.0 / (1.0 + _scaled(lambda l, d, e, f: l * (d / e) / f, (1, 1, -1, -1), *scales))
    gate_p, weight = (p.delta, 1.0) if mode is KnowledgeMode.AVAILABLE else (1.0, p.delta)
    live_t = gate_p * t
    value = weight * (1.0 if live_t >= 1.0 else -math.expm1(p.k * math.log1p(-live_t)))
    return MetricValue(value, "exact")


def _g_terms(m: int, x: float) -> list[float]:
    """G_j = x^j Gamma(1 - j, x) for j = 0..m and x > 0 with e^-x > 0.

    G_0 = e^-x and G_j = x E_j(x).  The recurrence G_(j-1) = e^-x - (j - 1)
    G_j/x is stable downward for j <= x only, and G_j = x (e^-x - G_(j-1))/
    (j - 1) upward for j >= x only (Gautschi, ACM TOMS 5(4), 1979; DLMF 8.8).
    So the anchor J = min(m, ceil(x)) comes from `expn`'s continued fraction,
    or from E1's series when x <= 1, and the other terms recur away from it.
    """
    emx = math.exp(-x)
    g = [emx] * (m + 1)
    top = min(m, math.ceil(x))
    if top:
        g[top] = x * (exp1(x) if top == 1 else expn(top, x))
    for j in range(top, 1, -1):
        g[j - 1] = emx - (j - 1) * g[j] / x
    for j in range(top + 1, m + 1):
        g[j] = x * (emx - g[j - 1]) / (j - 1)
    return g


def sop_oracle(p: SystemParams, mode: KnowledgeMode) -> MetricValue:
    """Outage probability, exact: a finite sum of non-negative terms.

    Transmitter i is selected and in outage with density f_D f_E times the
    chance none of the k - 1 competitors beats its ratio s = g_d/g_e:
    (1 - g + g F1(s))^(k-1), with F1 the single-pair ratio CDF and g the
    chance a competitor is live.  With gate knowledge (g = delta) i must be
    live and the all-dead atom (1 - delta)^k counts as outage, so SOP = T;
    without it (g = 1) a dead selected gate, probability 1 - delta, forces a
    zero rate, so SOP = 1 - delta + delta T.  In w = F1(s) the g_e-integral
    over the outage region g_d < alpha + beta g_e is closed form: 1 up to
    w_beta = F1(beta), above it P2(c/(w - w_beta)) with P2(z) = 1 - e^-z
    (1 + z), where alpha = sigma_d (rho - 1), beta = rho sigma_d/sigma_e and
    c = lambda_d lambda_e alpha/(lambda_e + lambda_d beta).  Expanding the
    weight in d = w - w_beta and integrating each power of d by parts gives,
    with D = 1 - w_beta, A = 1 - g D, x = c/D = lambda_d (rho - 1) sigma_d
    and G_j from `_g_terms`,

        T = P2(x) + e^-x (1 + x) A^k
            + g k c sum_{j<k} C(k-1, j) A^(k-1-j) (g D)^j G_j/(j + 1).

    T = A^k when x = 0 (r_th = 0), and T = 1 once e^-x underflows: the
    outage is then certain to double precision.  lambda_d beta and x are
    `_scaled`: beta or lambda_d (rho - 1) alone can leave the float range.
    """
    k, delta = p.k, p.delta
    available = mode is KnowledgeMode.AVAILABLE
    g = delta if available else 1.0
    lam_db = _scaled(  # lambda_d beta
        lambda l, r, d, e: l * (r * d / e), (1, 1, 1, -1), p.lambda_d, p.rho, p.sigma_d, p.sigma_e
    )
    above = p.lambda_e / (lam_db + p.lambda_e)  # D
    drop = g * above  # 1 - A
    if drop < 0.5:  # log1p keeps the digits of an A^k near 1
        a = 1.0 - drop
        power = math.exp(k * math.log1p(-drop))
    else:  # and w_beta, finite here, those of a small A
        a = 1.0 - g + g * lam_db / (lam_db + p.lambda_e)
        power = a**k
    x = _scaled(lambda l, r, d: l * r * d, (1, 1, 1), p.lambda_d, p.rho - 1.0, p.sigma_d)
    emx = math.exp(-x)
    if x == 0.0:
        t = power
    elif emx == 0.0:
        t = 1.0
    else:
        m = k - 1
        total = sum(
            math.comb(m, j) * a ** (m - j) * drop**j * gj / (j + 1)
            for j, gj in enumerate(_g_terms(m, x))
        )
        t = -math.expm1(-x) - x * emx + emx * (1.0 + x) * power + g * k * (x * above) * total
    value = t if available else 1.0 - delta + delta * t
    return _flag_range(MetricValue(value, "exact"))


def oracle(p: SystemParams, metric: Metric, mode: KnowledgeMode) -> MetricValue:
    return nzr_oracle(p, mode) if metric is Metric.NZR else sop_oracle(p, mode)


# ---------------------------------------------------------------------------
# series closed forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _signed_factorial_ratio(n: int) -> float:
    """sum_{i=1}^{n} (-1)^(n-i) (n-i)! (i-1)! / n!, summed exactly and rounded once (int / int)."""
    total = sum((-1) ** (n - i) * math.factorial(n - i) * math.factorial(i - 1) for i in range(1, n + 1))
    return total / math.factorial(n)


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
                        math.comb(k, q)
                        * math.comb(q - 1, n)
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
                    math.comb(k - 1, n)
                    * (-1.0) ** (n + 1)
                    * n
                    * u
                    / (u + v) ** (n + 1)
                    * bracket[n]
                )
            value = delta * (1.0 - k * tail)
    except (OverflowError, ZeroDivisionError) as exc:
        return MetricValue(math.nan, "series", False, f"series failed: {exc}")
    return _flag_range(MetricValue(value, "series"))


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
    coef = [math.comb(n, i) * (-b) ** (n - i) for i in range(0, n + 1)]  # the same for every r
    double_sum = 0.0
    for r in range(1, n + 1):
        inner = 0.0
        for i in range(0, n + 1):
            inner += coef[i] * upper(i - r + 1)
        double_sum += math.factorial(r - 1) * (-1.0) ** (n - r) * inner
    t3 = -res_coef / (a ** (n + 1) * math.factorial(n)) * double_sum

    t4 = (-1.0) ** n / a ** (n + 1)
    # Ei(-b) = -E1(b)
    ei_block = (-b) ** (n + 1) * -exp1(b) - math.exp(-b) * sum(
        math.factorial(n - l) * (-b) ** l for l in range(0, n + 1)
    )
    t5 = u ** (n + 1) / math.factorial(n + 1) * ei_block
    mid = t4 + t5 if available else t4 * t5

    t6 = (
        u ** (n + 1)
        / (n * a ** (n + 1))
        * sum(
            math.comb(n, q) * upper(q - n + 1) / (a * (-b) ** (q - n))
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
        note = "series needs a positive threshold (zero-threshold collapse is 1 - NZR)"
        return MetricValue(math.nan, "series", False, note)
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
            inner = 0.0  # the same for every q
            for n in range(1, k):
                inner += math.comb(k - 1, n) * (-1.0) ** (n + 1) * delta ** (n + 1) * n * bracket[n]
            for q in range(2, k + 1):
                value += math.comb(k, q) * q * inner
        else:
            tail = 0.0
            for n in range(1, k):
                tail += (
                    math.comb(k - 1, n)
                    * (-1.0) ** (n + 1)
                    * n
                    * bracket[n]
                )
            value = (1.0 - delta) + delta * k * tail
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        # ValueError: an infinite gamma argument b, where sigma_d lambda_d overflows
        return MetricValue(math.nan, "series", False, f"series failed: {exc}")
    return _flag_range(MetricValue(value, "series"))


def closed_form(p: SystemParams, metric: Metric, mode: KnowledgeMode) -> MetricValue:
    if metric is Metric.NZR:
        return nzr_closed_form(p, mode)
    return sop_closed_form(p, mode)


# ---------------------------------------------------------------------------
# validation: series vs oracle with verdicts
# ---------------------------------------------------------------------------

# known defect classes of the series closed forms:
# (metric, mode) -> (min_k, max_k, reason)
DOCUMENTED_SERIES_DEVIATIONS: dict[tuple[Metric, KnowledgeMode], tuple[int, int, str]] = {
    (Metric.NZR, KnowledgeMode.AVAILABLE): (
        3, MAX_TRANSMITTERS,
        "gate-known series overcounts the competitor expansion for k >= 3 "
        "(first spurious term scales like 3 delta^2 at k = 3); exact for k <= 2",
    ),
    (Metric.NZR, KnowledgeMode.UNAVAILABLE): (
        1, 1,
        "empty competitor sum at k = 1 drops the single-pair zero-rate factor "
        "sigma_e lambda_e / (sigma_e lambda_e + sigma_d lambda_d)",
    ),
    (Metric.SOP, KnowledgeMode.AVAILABLE): (
        2, MAX_TRANSMITTERS,
        "outage bracket disagrees with its defining integral under every "
        "documented reading; only the k = 1 reduction is sound",
    ),
    (Metric.SOP, KnowledgeMode.UNAVAILABLE): (
        1, MAX_TRANSMITTERS,
        "outage bracket disagrees with its defining integral under every "
        "documented reading, and the k = 1 sum is empty",
    ),
}


def documented_series_deviation(metric: Metric, mode: KnowledgeMode, k: int) -> str | None:
    """Reason text when (metric, mode, k) falls in a known defect class."""
    min_k, max_k, reason = DOCUMENTED_SERIES_DEVIATIONS[(metric, mode)]
    return reason if min_k <= k <= max_k else None


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


def classify(series: MetricValue, oracle_value: MetricValue) -> str:
    """MATCH / MISMATCH / OUT_OF_RANGE verdict for one series-vs-oracle cell."""
    if not series.ok:
        return VERDICT_OUT_OF_RANGE
    diff = abs(series.value - oracle_value.value)
    return VERDICT_MATCH if diff <= MATCH_TOL else VERDICT_MISMATCH


def validate_point(p: SystemParams, snr_db: float) -> list[ValidationRow]:
    """Verdict rows for all four metric/mode cells at one parameter point."""
    rows = []
    for metric in (Metric.NZR, Metric.SOP):
        for mode in (KnowledgeMode.AVAILABLE, KnowledgeMode.UNAVAILABLE):
            series = closed_form(p, metric, mode)
            orc = oracle(p, metric, mode)
            verdict = classify(series, orc)
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
