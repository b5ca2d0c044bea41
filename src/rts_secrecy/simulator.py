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
# rts and tts picks made on unit gains, and optimal picks, are shared across
# these lambdas (and noise powers); outside them every point selects on its
# own gains (see `_certified_choose` and `_ratio_top`)
_SAFE_LAMBDA = (1e-100, 1e100)
_MARGIN = 1.0 + 2.0**-49  # 1 + 16u, u = 2^-53: certifies a unit-gain pick
_RATIO_MARGIN = 1.0 + 2.0**-30  # certifies an optimal pick along the lambda_d axis
_LOG2_ERROR = 2.0**-40  # assumed bound on |numpy log2(x) - log2(x)|, x a positive normal
# bisect a run of the optimal rule's SNR axis while its inner points would re-select
# more than block / _ANCHOR_COST trials in all (2 to 16 time alike on the compare grid)
_ANCHOR_COST = 2


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


def _first_argmax(
    score: np.ndarray, penalty: np.ndarray | None = None, margin: float | None = None
) -> np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per trial (column) of a (k, trials) score, the lowest row index (uint8) of its maximum.

    `penalty` (see `_penalty`) makes dead gates score -inf first.  Equal to
    np.argmax(scores, axis=1) on the (trials, k) gated scores, ties, +-inf
    and all-dead columns (pick 0) included, for NaN-free scores.  Instead of
    one short argmax per trial it runs contiguous passes over the k rows: a
    max-reduce, an equality test, and a max-reduce of the equal rows weighted
    k, k-1, ..., 1 that finds the first of them.  With a `margin` M > 1 it
    returns (pick, unique, top): `top` is the column maximum, and `unique`
    says exactly one row has score >= fl(top / M); for top >= 0 that is the
    top row itself and no other (see `_certified_choose`).
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
    pick = k - first.max(axis=0)
    if margin is None:
        return pick
    np.greater_equal(score, top / margin, out=first.view(bool))  # the top row counts itself
    return pick, first.sum(axis=0, dtype=np.uint8) == 1, top


def _scores(
    p: SystemParams | None, scheme: Scheme, g_d: np.ndarray, g_e: np.ndarray, zero: np.ndarray | None
) -> np.ndarray:
    """Per-link scores of `scheme` from (k, trials) gains, as `_score` computes them.

    `zero` is `_zeros(g_e)`; only the optimal rule reads `p` (its noise powers).
    """
    if scheme is Scheme.RTS:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            score = g_d / g_e  # an overflow scores +inf and ties, as in `_score`
        if zero is not None:
            score[zero] = np.inf  # as in `_score`, 0/0 included
        return score
    if scheme is Scheme.TTS:
        return g_d
    if scheme is Scheme.MIN_ES:
        return -g_e
    return np.maximum(np.log2((1.0 + g_d / p.sigma_d) / (1.0 + g_e / p.sigma_e)), 0.0)


def _choose(
    p: SystemParams,
    scheme: Scheme,
    g_d: np.ndarray,
    g_e: np.ndarray,
    zero: np.ndarray | None,
    penalty: np.ndarray | None,
) -> np.ndarray:
    """Selected transmitter per trial from (k, trials) gains; ties go to the lowest index.

    `zero` is `_zeros(g_e)`.  `penalty` is None without gate knowledge; with
    it dead transmitters score -inf, and when every gate is down the pick is
    index 0, which is dead and so never counts as live.
    """
    return _first_argmax(_scores(p, scheme, g_d, g_e, zero), penalty)


class _Selection:
    """Picked links of a block's trials, and what points read of them.

    `sel` is the picked row of each trial in `trials` (default: every trial
    of the (k, block) gains).  The unit gains of the picked links are
    gathered once (a point scales them by its own 1/lambda, which is bit
    for bit the gather of its scaled gains), and the rate denominator
    1 + e_e / lambda_e / sigma_e and the picked gate states are made once
    per (lambda_e, sigma_e) and per delta.
    """

    def __init__(self, sel: np.ndarray, e_d: np.ndarray, e_e: np.ndarray, trials: np.ndarray | None = None):
        trials = np.arange(sel.size) if trials is None else trials
        self.pick = np.asarray(sel, dtype=np.intp) * e_d.shape[1] + trials  # flat [sel, trial]
        self.e_d, self.e_e = e_d.take(self.pick), e_e.take(self.pick)
        self._dens: dict[tuple[float, float], np.ndarray] = {}
        self._lives: dict[float, np.ndarray] = {}

    def rate(self, p: SystemParams) -> np.ndarray:
        """Unclamped secrecy rate of each picked link at point `p`."""
        key = p.lambda_e, p.sigma_e
        if key not in self._dens:
            self._dens[key] = 1.0 + self.e_e / p.lambda_e / p.sigma_e
        return np.log2((1.0 + self.e_d / p.lambda_d / p.sigma_d) / self._dens[key])

    def live(self, delta: float, active: np.ndarray) -> np.ndarray:
        if delta not in self._lives:
            self._lives[delta] = active.take(self.pick)
        return self._lives[delta]


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
    certified when every live score s other than its best s1 lies below
    fl(s1 / _MARGIN), so s < s1 (1 + u) / (1 + 16u) and
    s1 > s (1 + 16u) / (1 + u) > s (1 + u)^4 / (1 - u)^4 (the ratio of the
    two sides is 1 + 7u + O(u^2)): then S1 > S strictly, and the scaled
    first argmax is the same row.  Also certified: a single live link, an
    all-dead trial (pick 0 either way), and a unique +inf (e_e == 0, which
    holds exactly when g_e == 0).  Not certified: exact finite ties, a top
    score of 0 and several +inf.

    Normal results: Philox uniforms are multiples of 2^-53 in [0, 1), so a
    unit gain is 0 or in [2^-53, 53 ln 2] = [1.1e-16, 36.74], s is 0, +inf or
    in [3.0e-18, 3.3e17], and s1 / _MARGIN is normal.  g is normal for
    lambda in [2.0e-307, 5.0e291] and S for lambda_e / lambda_d in
    [7.4e-291, 5.4e290], which holds for both lambdas in [1/L, L] with
    L <= 1.17e145; `_SAFE_LAMBDA` takes L = 1e100.  g_e then underflows to 0
    only where e_e is 0, and S overflows nowhere.
    """
    sel, unique, top = _first_argmax(_scores(None, scheme, e_d, e_e, zero), penalty, _MARGIN)
    return sel, np.flatnonzero(~unique & (top > -np.inf))


def _inverse_snr(e_e: np.ndarray, p: SystemParams, penalty: np.ndarray | None) -> np.ndarray:
    """1 / (1 + e_e / lambda_e / sigma_e) of a point, -inf on dead links under `penalty`."""
    inv = 1.0 / (1.0 + e_e / p.lambda_e / p.sigma_e)
    if penalty is not None:
        inv += penalty
    return inv


def _ratio_top(
    e_d: np.ndarray, lambda_d: float, sigma_d: float, inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The optimal rule's unclamped rate ratio at one lambda_d: (top, unique, clamped) per trial.

    `inv` is `_inverse_snr` of the point; `top` is the first live link of
    the largest ratio, `unique` says no other live link is within the
    margin below it, and `clamped` that every live ratio lies below 1 by
    the margin (all-dead trials included).

    The exact ratio of a link is R = (1 + a e_d) / c, with
    a = 1 / (lambda_d sigma_d) and c = 1 + e_e / (lambda_e sigma_e).  Here it
    is computed as X = fl(fl(1 + fl(e_d fl(1 / fl(lambda_d sigma_d)))) fl(1 / c)),
    and `_choose` and the engine compute X' = fl(N / D) with
    N = fl(1 + fl(fl(e_d / lambda_d) / sigma_d)), D = fl(1 + fl(fl(e_e / lambda_e) / sigma_e)).
    With u = 2^-53 and the four lambdas and noise powers in `_SAFE_LAMBDA`,
    nothing overflows and an underflow costs at most 1e-220 against the 1
    it is added to, so X = R (1 + eta) with |eta| < 9.1u, and X' with
    |eta| < 7.1u.  `unique`: every other live X lies below
    fl(X_top / _RATIO_MARGIN), so R_top > R (1 + m) with m = 2^-30 - 20u.
    `clamped`: fl(X_top * _RATIO_MARGIN) < 1, so every live R < 1 / (1 + m).

    R is affine and non-decreasing in a.  So R_top - (1 + m) R > 0 at two
    lambda_d holds at every lambda_d between them, where X'_top > X' (1 + 2^-31)
    and log2 X'_top - log2 X' > 2^-31; and R < 1 / (1 + m) at one lambda_d
    holds at every larger one, where log2 X' < -2^-31.  numpy's log2 keeps
    both strict while its error stays below _LOG2_ERROR = 2^-40 (one ulp of
    a result below 1024 in magnitude is at most 2^-43; the tests check the
    bound).  Hence where the top link's computed rate is positive `_choose`
    picks it, and where it is <= 0, or every rate is clamped, every
    candidate scores 0 and `_choose` picks the first candidate.
    """
    ratio = e_d * (1.0 / (lambda_d * sigma_d))
    ratio += 1.0
    ratio *= inv
    top, unique, best = _first_argmax(ratio, margin=_RATIO_MARGIN)
    return top, unique, best * _RATIO_MARGIN < 1.0


def _anchored_plan(
    e_d: np.ndarray, lambdas: list[float], sigma_d: float, inv: np.ndarray, fallback: np.ndarray | int
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per position of a lambda_d axis sorted upward: (anchor, its picks, trials to re-select).

    Anchors are `_ratio_top` at one position, and `fallback` is the pick where
    every candidate's clamped score is 0: the first live link, or 0.  An
    anchor picks its unique top link, or the fallback where it is clamped,
    and re-selects the other trials.  The two ends are anchors.  Between two
    anchors a < b the lower anchor's picks hold for the trials with one
    unique top link at both, or clamped at a (the higher SNR); the rest are
    re-selected at every inner position.  A run is bisected while that
    share, times its inner positions and _ANCHOR_COST, exceeds one block.
    """
    size = len(lambdas)
    tops = {t: _ratio_top(e_d, lambdas[t], sigma_d, inv) for t in {0, size - 1}}
    runs = [(0, size - 1)] if size > 2 else []
    redo = {}
    while runs:
        a, b = runs.pop()
        (top_a, unique_a, clamped_a), (top_b, unique_b, _) = tops[a], tops[b]
        miss = np.flatnonzero(~((unique_a & unique_b & (top_a == top_b)) | clamped_a))
        if (b - a - 1) * miss.size * _ANCHOR_COST > top_a.size:
            mid = (a + b) // 2
            tops[mid] = _ratio_top(e_d, lambdas[mid], sigma_d, inv)
            runs += [run for run in ((a, mid), (mid, b)) if run[1] - run[0] > 1]
        else:
            redo[a] = miss
    plan = []
    for t in range(size):
        if t in tops:
            anchor = t
            top_t, unique, clamped = tops[t]
            sel = np.where(clamped, fallback, top_t)
            plan.append((t, sel, np.flatnonzero(~(unique | clamped))))
        else:
            plan.append((anchor, sel, redo[anchor]))
    return plan


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
    link = _Selection(_choose(p, scheme, g_d, g_e, _zeros(g_e), penalty), e_d, e_e)
    raw, live = link.rate(p), link.live(p.delta, active)
    rate = np.where(live, np.maximum(raw, 0.0), 0.0)
    outage = np.where(live, raw < p.r_th, True)
    return rate, transmitted, outage


def _all_outcomes(
    p: SystemParams,
    scheme: Scheme,
    mode: KnowledgeMode,
    trials: int,
    seed: int,
    block: int = DEFAULT_BLOCK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (rates, transmitted, outage) arrays for `trials` trials: the reference of `simulate_grid`."""
    _check_run(trials, block)
    blocks = [
        _block_outcomes(p, scheme, mode, uniform_block(seed, p.k, start, min(block, trials - start)))
        for start in range(0, trials, block)
    ]
    rates, transmitted, outage = (np.concatenate(parts) for parts in zip(*blocks))
    return rates, transmitted, outage


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
    re-selects the trials that fail it on its own scaled gains.  The optimal
    rule's key holds None for lambda_d while its lambdas and noise powers
    lie in that range: its points share picks along the lambda_d axis,
    certified at anchor lambda_d (`_ratio_top`, `_anchored_plan`).  Other
    keys share only bit-identical scores: outside that range rounding
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
    if all(low <= x <= high for x in reads):
        if scheme in (Scheme.RTS, Scheme.TTS):
            reads = None
        elif scheme is Scheme.OPTIMAL:
            reads = (None, *reads[1:])
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
    penalty once per distinct delta, all in (k, block) layout.  Points
    with equal `_selection_key` share one plan: an (anchor, picks, trials
    to re-select) per position on the key's lambda_d axis, which has one
    position unless the key is an optimal one (`_anchored_plan`), and each
    anchor's picks make one `_Selection`.  Each point adds only its rate
    numerator, its re-selection of the trials its shared pick does not
    certify, and its hit counts.  Memory is O(block)
    whatever `trials` and the number of points, and every estimate equals
    `simulate_point` on that point alone, at any block size.
    """
    _check_run(trials, block)
    ks = {p.k for p, _, _ in points}
    if len(ks) != 1:
        raise ValueError(f"points must share one k, got {sorted(ks)}")
    (k,) = ks
    # sorted by lambda_d: an optimal key walks its axis upward
    order = sorted(range(len(points)), key=lambda i: points[i][0].lambda_d)
    keys = [_selection_key(*point) for point in points]
    last_use = {keys[i]: i for i in order}
    axes: dict[tuple, dict] = {}  # per key: its sorted lambda_d axis (None: one pick) -> position
    spot = {}
    for i in order:
        axis = axes.setdefault(keys[i], {})
        anchored = keys[i][2] is not None and keys[i][2][0] is None  # optimal, lambdas in range
        spot[i] = axis.setdefault(points[i][0].lambda_d if anchored else None, len(axis))
    deltas = {p.delta for p, _, _ in points}
    nzr_hits = [0] * len(points)
    sop_hits = [0] * len(points)
    no_redo = np.empty(0, dtype=np.intp)
    for start in range(0, trials, block):
        count = min(block, trials - start)
        u = uniform_block(seed, k, start, count)
        e_d, e_e = _unit_gains(u, k)
        gates = {delta: _gates(u, k, delta) for delta in deltas}
        del u  # the largest array of a block, not needed past this point
        penalties = {delta: _penalty(active) for delta, active in gates.items()}
        unit_zero = _zeros(e_e)
        chosen: dict[tuple, tuple] = {}  # key -> (plan: (anchor, sel, redo) per position, fallback, built)
        for i in order:
            p, scheme, mode = points[i]
            active = gates[p.delta]
            penalty = penalties[p.delta] if mode is KnowledgeMode.AVAILABLE else None
            key = keys[i]
            if key not in chosen:
                fallback = None
                if key[2] is None:  # scale-free rule: one pick on the unit gains
                    plan = [(0, *_certified_choose(scheme, e_d, e_e, unit_zero, penalty))]
                elif key[2][0] is None:  # optimal: picks certified at anchor lambda_d
                    fallback = 0 if penalty is None else active.argmax(axis=0).astype(np.uint8)
                    inv = _inverse_snr(e_e, p, penalty)  # (k, block), freed once the anchors are made
                    plan = _anchored_plan(e_d, list(axes[key]), p.sigma_d, inv, fallback)
                    del inv
                else:  # min-es, and lambdas outside the safe range: the point's own scaled gains
                    g_e = e_e / p.lambda_e
                    plan = [(0, _choose(p, scheme, e_d / p.lambda_d, g_e, _zeros(g_e), penalty), no_redo)]
                chosen[key] = plan, fallback, {}
            plan, fallback, built = chosen.pop(key) if last_use[key] == i else chosen[key]
            anchor, sel, redo = plan[spot[i]]
            if anchor not in built:
                built.clear()  # points come in lambda_d order: earlier anchors are done
                built[anchor] = _Selection(sel, e_d, e_e)
            shared = built[anchor]
            raw, live = shared.rate(p), shared.live(p.delta, active)
            if fallback is not None and p.r_th == 0.0:  # at a shared rate of exactly 0 the clamp picks
                # the fallback link (see `_anchored_plan`), which is dead or has a rate below 0: an outage
                raw[(sel != fallback) & (raw == 0.0)] = -np.inf
            if redo.size:  # trials the shared pick does not certify: this point's own pick
                g_d, g_e = e_d[:, redo] / p.lambda_d, e_e[:, redo] / p.lambda_e
                own = _choose(p, scheme, g_d, g_e, _zeros(g_e), None if penalty is None else penalty[:, redo])
                own = _Selection(own, e_d, e_e, trials=redo)
                raw[redo] = own.rate(p)
                live = live.copy()
                live[redo] = own.live(p.delta, active)
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

