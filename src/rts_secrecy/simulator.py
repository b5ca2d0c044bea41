"""Seeded Monte Carlo estimation of the secrecy metrics.

Trials map to a counter-based random stream (Philox) in fixed-size blocks
of uniforms, so trial i always consumes the same stream slice no matter
how the run is partitioned.  Estimates are therefore bit-identical across
block sizes and across splitting a run into shards, which is what lets
long sweeps be resumed or distributed without drift.

Per-trial layout (stream order): k destination-channel uniforms, then k
eavesdropper-channel uniforms, then k backhaul-gate uniforms, padded to a
multiple of four because the counter advances in four-word steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox

from .params import KnowledgeMode, Metric, Scheme, SystemParams, secrecy_rate

DEFAULT_BLOCK = 1 << 14
_WORDS_PER_COUNTER_STEP = 4
_PIECE_WORDS = 1 << 15  # values per piece when a block's gains are transposed
# rts and tts picks made on unit gains are shared across these lambdas (see
# `_certified_choose`); outside them every point selects on its own gains
_SAFE_LAMBDA = (1e-100, 1e100)
_MARGIN = 1.0 + 2.0**-49  # 1 + 16u, u = 2^-53: certifies a unit-gain pick


def trial_stride(k: int) -> int:
    """Uniforms reserved per trial: 3k, rounded up to a counter boundary."""
    needed = 3 * k
    return -(-needed // _WORDS_PER_COUNTER_STEP) * _WORDS_PER_COUNTER_STEP


def uniform_block(seed: int, k: int, start: int, count: int) -> np.ndarray:
    """Uniforms for trials [start, start + count), shape (count, 3k).

    Each 64-bit draw consumes one stream word, so jumping to trial `start`
    is an exact counter advance; the per-trial padding is generated and
    discarded to keep trial boundaries aligned.
    """
    stride = trial_stride(k)
    bits = Philox(key=seed)
    bits.advance(start * stride // _WORDS_PER_COUNTER_STEP)
    u = Generator(bits).random(count * stride).reshape(count, stride)
    return u[:, : 3 * k]


@dataclass(frozen=True)
class ChannelRealization:
    """One trial's channel state: per-transmitter gains and gate states."""

    gain_d: tuple[float, ...]
    gain_e: tuple[float, ...]
    active: tuple[bool, ...]


@dataclass(frozen=True)
class SelectionOutcome:
    """Result of applying a selection scheme to one realization.

    `selected` is None when gate knowledge is available and every gate is
    down (nothing transmits).  `rate` is the achieved secrecy rate, zero
    whenever nothing is transmitted or the selected gate turns out dead.
    """

    selected: int | None
    transmitted: bool
    rate: float


@dataclass(frozen=True)
class MetricEstimate:
    metric: Metric
    value: float
    std_err: float
    trials: int
    seed: int

    def wilson_interval(self, z: float) -> tuple[float, float]:
        """Wilson score interval at z standard errors (Wilson 1927).

        `std_err` is the Wald error sqrt(value (1 - value) / trials), which
        is 0 at proportions of 0 and 1; this interval is not.
        """
        n, phat = self.trials, self.value
        w = z * z / n
        center = (phat + w / 2.0) / (1.0 + w)
        half = z * math.sqrt(phat * (1.0 - phat) / n + w / (4.0 * n)) / (1.0 + w)
        return center - half, center + half


def realization_from_uniforms(p: SystemParams, row: np.ndarray) -> ChannelRealization:
    """Map one trial's uniform row to gains and gates (inverse-CDF)."""
    k = p.k
    gain_d = tuple(-math.log1p(-u) / p.lambda_d for u in row[:k])
    gain_e = tuple(-math.log1p(-u) / p.lambda_e for u in row[k : 2 * k])
    active = tuple(bool(u < p.delta) for u in row[2 * k : 3 * k])
    return ChannelRealization(gain_d, gain_e, active)


def sample_realization(p: SystemParams, seed: int, trial: int) -> ChannelRealization:
    """Realization for one trial index on the given stream."""
    row = uniform_block(seed, p.k, trial, 1)[0]
    return realization_from_uniforms(p, row)


def _score(scheme: Scheme, p: SystemParams, g_d: float, g_e: float) -> float:
    if scheme is Scheme.RTS:
        return g_d / g_e if g_e > 0.0 else math.inf
    if scheme is Scheme.TTS:
        return g_d
    if scheme is Scheme.MIN_ES:
        return -g_e
    return secrecy_rate(g_d, g_e, p.sigma_d, p.sigma_e)


def select(
    p: SystemParams, scheme: Scheme, mode: KnowledgeMode, real: ChannelRealization
) -> SelectionOutcome:
    """Scalar reference selection; ties resolve to the lowest index."""
    indices = range(p.k)
    if mode is KnowledgeMode.AVAILABLE:
        candidates = [i for i in indices if real.active[i]]
        if not candidates:
            return SelectionOutcome(None, False, 0.0)
    else:
        candidates = list(indices)
    best = max(candidates, key=lambda i: _score(scheme, p, real.gain_d[i], real.gain_e[i]))
    if not real.active[best]:
        return SelectionOutcome(best, True, 0.0)
    rate = secrecy_rate(real.gain_d[best], real.gain_e[best], p.sigma_d, p.sigma_e)
    return SelectionOutcome(best, True, rate)


def _check_run(trials: int, block: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")


def _unit_gains(u: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-mean exponential gains (e_d, e_e) of a block, each (k, trials).

    log1p runs on (trials, k) row slices, as in `realization_from_uniforms`
    row by row; only its results are laid out transmitter-major.  The rows
    go in pieces of about _PIECE_WORDS values, each transposed while it is
    still in cache: at k = 64 one whole-block transpose costs more than
    the log1p.
    """
    trials = u.shape[0]
    e_d, e_e = np.empty((k, trials)), np.empty((k, trials))
    step = max(1, _PIECE_WORDS // k)
    for start in range(0, trials, step):
        rows = u[start : start + step]
        e_d[:, start : start + step] = -np.log1p(-rows[:, :k]).T
        e_e[:, start : start + step] = -np.log1p(-rows[:, k : 2 * k]).T
    return e_d, e_e


def _gates(u: np.ndarray, k: int, delta: float) -> np.ndarray:
    """Gate-up mask of a block, (k, trials)."""
    return np.ascontiguousarray((u[:, 2 * k : 3 * k] < delta).T)


def _penalty(active: np.ndarray) -> np.ndarray:
    """0 where a gate is up and -inf where it is down; added to scores."""
    return np.where(active, 0.0, -np.inf)


def _zeros(g_e: np.ndarray) -> np.ndarray | None:
    """Mask of g_e == 0 (where rts scores +inf), or None when there is none."""
    zero = g_e == 0.0
    return zero if zero.any() else None


def _first_argmax(score: np.ndarray, penalty: np.ndarray | None = None) -> np.ndarray:
    """Per trial (column) of a (k, trials) score, the lowest row index of its maximum.

    `penalty` (see `_penalty`) makes dead gates score -inf first.  Equal to
    np.argmax(scores, axis=1) on the (trials, k) gated scores, ties, +-inf
    and all-dead columns (pick 0) included, for NaN-free scores.  Instead of
    one short argmax per trial it runs contiguous passes over the k rows: a
    max-reduce, an equality test, and a max-reduce of the equal rows weighted
    k, k-1, ..., 1 that finds the first of them.
    """
    k = score.shape[0]
    if penalty is not None:
        with np.errstate(invalid="ignore"):
            score = score + penalty
    top = score.max(axis=0)
    if penalty is not None and np.isnan(top).any():  # +inf met a dead gate: inf - inf
        score[np.isnan(score)] = -np.inf
        top = score.max(axis=0)
    first = (score == top).view(np.uint8)
    first *= np.arange(k, 0, -1, dtype=np.uint8)[:, None]
    return k - first.max(axis=0).astype(np.intp)


def _choose(
    p: SystemParams,
    scheme: Scheme,
    g_d: np.ndarray,
    g_e: np.ndarray,
    zero: np.ndarray | None,
    penalty: np.ndarray | None,
    e_snr: np.ndarray | None = None,
) -> np.ndarray:
    """Selected transmitter per trial from (k, trials) gains; ties go to the lowest index.

    `zero` is `_zeros(g_e)`.  `penalty` is None without gate knowledge; with
    it dead transmitters score -inf, and when every gate is down the pick is
    index 0, which is dead and so never counts as live.  `e_snr` is the
    optimal rule's denominator 1 + g_e / sigma_e, computed here when None.
    """
    if scheme is Scheme.RTS:
        with np.errstate(divide="ignore", invalid="ignore"):
            score = g_d / g_e
        if zero is not None:
            score[zero] = np.inf  # as in `_score`, 0/0 included
    elif scheme is Scheme.TTS:
        score = g_d
    elif scheme is Scheme.MIN_ES:
        score = -g_e
    else:
        if e_snr is None:
            e_snr = 1.0 + g_e / p.sigma_e
        score = np.maximum(np.log2((1.0 + g_d / p.sigma_d) / e_snr), 0.0)
    return _first_argmax(score, penalty)


def _selected_link(
    p: SystemParams, g_d: np.ndarray, g_e: np.ndarray, active: np.ndarray, sel: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(unclamped secrecy rate, gate is up) of the selected link per trial.

    The arrays are (k, trials), as everywhere in the selection kernel.
    """
    trials = sel.shape[0]
    pick = sel * trials + np.arange(trials)  # flat index of [sel, trial]
    raw = np.log2((1.0 + g_d.take(pick) / p.sigma_d) / (1.0 + g_e.take(pick) / p.sigma_e))
    return raw, active.take(pick)


def _gather(sel: np.ndarray, e_d: np.ndarray, e_e: np.ndarray, cols: np.ndarray) -> tuple:
    """(flat index, e_d, e_e) of the selected link per trial; `cols` is arange(trials).

    A point scales the gathered unit gains by its own 1/lambda, which is
    bit for bit the gather of its scaled gains.
    """
    pick = sel * cols.size + cols
    return pick, e_d.take(pick), e_e.take(pick)


def _certified_choose(
    scheme: Scheme, e_d: np.ndarray, e_e: np.ndarray, zero: np.ndarray | None, penalty: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """rts or tts pick per trial on unit gains, and the trials it is not certified for.

    `zero` is `_zeros(e_e)` and `penalty` as in `_choose`.  Both rules are
    scale-free: g = e / lambda scales every score of a trial by one
    constant, so in exact arithmetic the pick is the same at every lambda.
    In floating point the unit rts score is s = fl(e_d / e_e) and the scaled
    one S = fl(fl(e_d / lambda_d) / fl(e_e / lambda_e)).  With each result
    normal, every fl has relative error at most u = 2^-53, so

        S = s (lambda_e / lambda_d) (1 + eta),  (1 - u)^2 / (1 + u)^2 <= 1 + eta <= (1 + u)^2 / (1 - u)^2,

    |eta| <= 4u + O(u^2), with one constant lambda_e / lambda_d for the whole
    trial (tts: S = fl(e_d / lambda_d), |eta| <= 2u + O(u^2)).  A trial is
    certified when its best live score s1 beats every other live score s by
    s1 > fl(s * _MARGIN) >= s (1 + 16u)(1 - u) > s (1 + u)^4 / (1 - u)^4:
    then S1 > S strictly, and the scaled first argmax is the same row.  Also
    certified: a single live link, an all-dead trial (pick 0 either way), and
    a unique +inf (e_e == 0, which holds exactly when g_e == 0).  Not
    certified: exact finite ties, a top score of 0 and several +inf.

    Normal results: Philox uniforms are multiples of 2^-53 in [0, 1), so a
    unit gain is 0 or in [2^-53, 53 ln 2] = [1.1e-16, 36.74], s is 0, +inf or
    in [3.0e-18, 3.3e17], and s * _MARGIN cannot overflow.  g is normal for
    lambda in [2.0e-307, 5.0e291] and S for lambda_e / lambda_d in
    [7.4e-291, 5.4e290], which holds for both lambdas in [1/L, L] with
    L <= 1.17e145; `_SAFE_LAMBDA` takes L = 1e100.  g_e then underflows to 0
    only where e_e is 0, and S overflows nowhere.
    """
    if scheme is Scheme.RTS:
        with np.errstate(divide="ignore", invalid="ignore"):
            score = e_d / e_e
        if zero is not None:
            score[zero] = np.inf  # as in `_choose`
    else:
        score = e_d
    if penalty is not None:
        with np.errstate(invalid="ignore"):
            score = score + penalty
    top = score.max(axis=0)
    if penalty is not None and np.isnan(top).any():  # +inf met a dead gate: inf - inf
        score[np.isnan(score)] = -np.inf
        top = score.max(axis=0)
    near = np.count_nonzero(score * _MARGIN >= top, axis=0)  # the top row counts itself
    return _first_argmax(score), np.flatnonzero((near > 1) & (top > -np.inf))


def _block_outcomes(
    p: SystemParams, scheme: Scheme, mode: KnowledgeMode, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial outcomes of one point over a block of uniform rows.

    Returns (rates, transmitted, outage).  Mirrors `select` exactly: same
    gain mapping, same scores, and argmax ties resolving to the lowest
    index.  The outage indicator compares the unclamped rate to the
    threshold, so equality at the clamp (an atom when the threshold is
    zero) stays a measure-zero boundary; dead or silent trials always
    count as outages.
    """
    k = p.k
    e_d, e_e = _unit_gains(u, k)
    g_d, g_e = e_d / p.lambda_d, e_e / p.lambda_e
    active = _gates(u, k, p.delta)
    if mode is KnowledgeMode.AVAILABLE:
        transmitted = active.any(axis=0)
        penalty = _penalty(active)
    else:
        transmitted = np.ones(u.shape[0], dtype=bool)
        penalty = None
    sel = _choose(p, scheme, g_d, g_e, _zeros(g_e), penalty)
    raw, live = _selected_link(p, g_d, g_e, active, sel)
    rate = np.where(live, np.maximum(raw, 0.0), 0.0)
    outage = np.where(live, raw < p.r_th, True)
    return rate, transmitted, outage


def _all_outcomes(
    p: SystemParams,
    scheme: Scheme,
    mode: KnowledgeMode,
    trials: int,
    seed: int,
    block: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    _check_run(trials, block)
    rates = np.empty(trials)
    transmitted = np.empty(trials, dtype=bool)
    outage = np.empty(trials, dtype=bool)
    for start in range(0, trials, block):
        count = min(block, trials - start)
        u = uniform_block(seed, p.k, start, count)
        r, t, o = _block_outcomes(p, scheme, mode, u)
        rates[start : start + count] = r
        transmitted[start : start + count] = t
        outage[start : start + count] = o
    return rates, transmitted, outage


def trial_outcomes(
    p: SystemParams,
    scheme: Scheme,
    mode: KnowledgeMode,
    trials: int,
    seed: int,
    block: int = DEFAULT_BLOCK,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (rates, transmitted) arrays for `trials` trials."""
    rates, transmitted, _ = _all_outcomes(p, scheme, mode, trials, seed, block)
    return rates, transmitted


def outage_indicators(
    p: SystemParams,
    scheme: Scheme,
    mode: KnowledgeMode,
    trials: int,
    seed: int,
    block: int = DEFAULT_BLOCK,
) -> np.ndarray:
    """Per-trial outage indicator array (dead or silent trials included)."""
    return _all_outcomes(p, scheme, mode, trials, seed, block)[2]


def _selection_key(p: SystemParams, scheme: Scheme, mode: KnowledgeMode) -> tuple:
    """Everything the selection of `scheme` reads, as exact float values.

    Points with equal keys share one selection.  rts and tts are scale-free:
    while the lambdas they read lie in `_SAFE_LAMBDA` their key holds no
    lambda (None), and the engine picks once on the unit gains, certified
    per trial by a relative margin (`_certified_choose`); each point
    re-selects the trials that fail it on its own scaled gains.  Other keys
    share only bit-identical scores: outside that range rounding
    E_d / lambda_d could turn a strict order into a tie and move the
    lowest-index argmax.
    """
    reads = {
        Scheme.RTS: (p.lambda_d, p.lambda_e),
        Scheme.TTS: (p.lambda_d,),
        Scheme.MIN_ES: (p.lambda_e,),
        Scheme.OPTIMAL: (p.lambda_d, p.lambda_e, p.sigma_d, p.sigma_e),
    }[scheme]
    low, high = _SAFE_LAMBDA
    if scheme in (Scheme.RTS, Scheme.TTS) and all(low <= lam <= high for lam in reads):
        reads = None
    gate = p.delta if mode is KnowledgeMode.AVAILABLE else None
    return scheme, mode, reads, gate


def _estimates(nzr_hits: int, sop_hits: int, trials: int, seed: int) -> dict[Metric, MetricEstimate]:
    out = {}
    for metric, hits in ((Metric.NZR, nzr_hits), (Metric.SOP, sop_hits)):
        value = hits / trials
        std_err = math.sqrt(value * (1.0 - value) / trials)
        out[metric] = MetricEstimate(metric, value, std_err, trials, seed)
    return out


def simulate_grid(
    points: Sequence[tuple[SystemParams, Scheme, KnowledgeMode]],
    trials: int,
    seed: int,
    block: int = DEFAULT_BLOCK,
) -> list[dict[Metric, MetricEstimate]]:
    """Both metric estimates for every (params, scheme, mode) point, in order.

    All points must share k, so they read one stream (seed, k), which is
    walked once.  Per block the uniforms are generated once, mapped to
    unit-mean exponential gains once per side and to a gate mask and score
    penalty once per distinct delta, all in (k, block) layout, and the
    optimal rule's 1 + g_e / sigma_e once per (lambda_e, sigma_e).  Points
    with equal `_selection_key` share one selection and its gathered unit
    gains; each point adds only its 1/lambda scaling of those, its gate
    states and its hit counts.  Scaled gains are made only for the points
    that select on them.  Memory is O(block) whatever `trials` and the
    number of points, and every estimate equals `simulate_point` on that
    point alone, at any block size.
    """
    _check_run(trials, block)
    ks = {p.k for p, _, _ in points}
    if len(ks) != 1:
        raise ValueError(f"points must share one k, got {sorted(ks)}")
    (k,) = ks
    # grouped by lambda_d so that one scaled g_d is alive at a time
    order = sorted(range(len(points)), key=lambda i: points[i][0].lambda_d)
    keys = [_selection_key(*point) for point in points]
    last_use = {keys[i]: i for i in order}
    nzr_hits = [0] * len(points)
    sop_hits = [0] * len(points)
    for start in range(0, trials, block):
        count = min(block, trials - start)
        u = uniform_block(seed, k, start, count)
        e_d, e_e = _unit_gains(u, k)
        cols = np.arange(count)
        unit_zero = _zeros(e_e)
        gates: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        g_ds: dict[float, np.ndarray] = {}
        scaled_e: dict[float, tuple[np.ndarray, np.ndarray | None]] = {}
        e_snrs: dict[tuple[float, float], np.ndarray] = {}
        chosen: dict[tuple, tuple] = {}

        def scaled(p: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
            """(g_d, g_e, `_zeros(g_e)`) of a point, made on first use."""
            if p.lambda_d not in g_ds:
                g_ds.clear()  # points come grouped by lambda_d
                g_ds[p.lambda_d] = e_d / p.lambda_d
            if p.lambda_e not in scaled_e:
                g_e = e_e / p.lambda_e
                scaled_e[p.lambda_e] = g_e, _zeros(g_e)
            return (g_ds[p.lambda_d], *scaled_e[p.lambda_e])

        for i in order:
            p, scheme, mode = points[i]
            if p.delta not in gates:
                active = _gates(u, k, p.delta)
                gates[p.delta] = active, _penalty(active)
            active, penalty = gates[p.delta]
            if mode is KnowledgeMode.UNAVAILABLE:
                penalty = None
            key = keys[i]
            if key not in chosen:
                if key[2] is None:  # scale-free rule: one pick on the unit gains
                    sel, redo = _certified_choose(scheme, e_d, e_e, unit_zero, penalty)
                else:
                    g_d, g_e, zero = scaled(p)
                    e_key = p.lambda_e, p.sigma_e
                    if scheme is Scheme.OPTIMAL and e_key not in e_snrs:
                        e_snrs[e_key] = 1.0 + g_e / p.sigma_e
                    sel, redo = _choose(p, scheme, g_d, g_e, zero, penalty, e_snrs.get(e_key)), cols[:0]
                chosen[key] = (sel, redo, None) if redo.size else (None, None, _gather(sel, e_d, e_e, cols))
            sel, redo, gathered = chosen.pop(key) if last_use[key] == i else chosen[key]
            if gathered is None:  # trials the unit pick does not certify: this point's own pick
                g_d, g_e, zero = scaled(p)
                sel = sel.copy()
                sel[redo] = _choose(
                    p,
                    scheme,
                    g_d[:, redo],
                    g_e[:, redo],
                    None if zero is None else zero[:, redo],
                    None if penalty is None else penalty[:, redo],
                )
                gathered = _gather(sel, e_d, e_e, cols)
            pick, sel_d, sel_e = gathered
            raw = np.log2((1.0 + sel_d / p.lambda_d / p.sigma_d) / (1.0 + sel_e / p.lambda_e / p.sigma_e))
            live = active.take(pick)
            nzr_hits[i] += int(np.count_nonzero(live & (raw > 0.0)))
            sop_hits[i] += int(np.count_nonzero(~live | (raw < p.r_th)))
    return [
        _estimates(nzr, sop, trials, seed) for nzr, sop in zip(nzr_hits, sop_hits)
    ]


def simulate_point(
    p: SystemParams,
    scheme: Scheme,
    mode: KnowledgeMode,
    trials: int,
    seed: int,
    block: int = DEFAULT_BLOCK,
) -> dict[Metric, MetricEstimate]:
    """Both metric estimates for one point; a one-point `simulate_grid`."""
    return simulate_grid([(p, scheme, mode)], trials, seed, block)[0]

