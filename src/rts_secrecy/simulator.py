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
import threading
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox

from .params import KnowledgeMode, Metric, Scheme, SystemParams, secrecy_rate

DEFAULT_BLOCK = 1 << 14
_WORDS_PER_COUNTER_STEP = 4
_PIECE_WORDS = 1 << 15  # values per piece when a block's gains are transposed
_BAND = 1.0 + 2.0**-30  # M of `_link_bounds`: `hits` decides the trials whose threshold lies within c M^+-1
_COUNT_RHO = 1.0 + 2.0**-20  # thresholds need rho = 1 or this much: below it theta = rho (1 + b) - 1 cancels
_BLOCK_WORDS = 3 << 16  # stream words of a default block (`block_width`): 12,288 trials at k = 5, 1,024 at k = 64
_AHEAD_WORDS = 1 << 16  # smaller blocks (4,096 trials at k = 5) run inline: a second walker costs more than it hides


def trial_stride(k: int) -> int:
    """Uniforms reserved per trial: 3k, rounded up to a counter boundary."""
    needed = 3 * k
    return -(-needed // _WORDS_PER_COUNTER_STEP) * _WORDS_PER_COUNTER_STEP


def block_width(k: int, block: int | None = None) -> int:
    """Trials per block at k: `block` if given, else DEFAULT_BLOCK capped at _BLOCK_WORDS stream words."""
    return min(DEFAULT_BLOCK, _BLOCK_WORDS // trial_stride(k)) if block is None else block


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
    rate: float


@dataclass(frozen=True)
class MetricEstimate:
    value: float
    trials: int
    seed: int

    @property
    def std_err(self) -> float:
        """Wald error sqrt(value (1 - value) / trials), 0 at proportions of 0 and 1."""
        return math.sqrt(self.value * (1.0 - self.value) / self.trials)

    def wilson_interval(self, z: float) -> tuple[float, float]:
        """Wilson score interval at z standard errors (Wilson 1927), unlike `std_err` never 0 wide."""
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
    return (g_d / p.sigma_d - g_e / p.sigma_e) / (1.0 + g_e / p.sigma_e)  # S = X - 1, as in `_choose`


def select(
    p: SystemParams, scheme: Scheme, mode: KnowledgeMode, real: ChannelRealization
) -> SelectionOutcome:
    """Scalar reference selection; ties resolve to the lowest index.

    For rts, tts and min-es it is the engine's reference only when fed the
    unit gains e = g lambda, on which `_choose` picks.  Fed scaled gains
    (`sample_realization`), it may pick differently where the scaled scores
    overflow or lie a few ulps apart.  The optimal rule scores scaled gains
    in both.
    """
    indices = range(p.k)
    if mode is KnowledgeMode.AVAILABLE:
        candidates = [i for i in indices if real.active[i]]
        if not candidates:
            return SelectionOutcome(None, 0.0)
    else:
        candidates = list(indices)
    best = max(candidates, key=lambda i: _score(scheme, p, real.gain_d[i], real.gain_e[i]))
    if not real.active[best]:
        return SelectionOutcome(best, 0.0)
    rate = secrecy_rate(real.gain_d[best], real.gain_e[best], p.sigma_d, p.sigma_e)
    return SelectionOutcome(best, rate)


def _check_run(trials: int, block: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")


def _unit_gains(u: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-mean exponential gains (e_d, e_e) of a block, each (k, trials).

    log1p runs on (trials, k) row slices, as in `realization_from_uniforms`
    row by row; only its results are laid out transmitter-major.  The rows
    go in pieces of about _PIECE_WORDS values, each mapped in place in one
    scratch array and negated into its transposed place while it is still
    in cache: at k = 64 one whole-block transpose costs more than the log1p.
    """
    trials = u.shape[0]
    e_d, e_e = np.empty((k, trials)), np.empty((k, trials))
    step = max(1, _PIECE_WORDS // k)
    scratch = np.empty((min(step, trials), k))
    for start in range(0, trials, step):
        rows = u[start : start + step]
        x = scratch[: rows.shape[0]]
        for side, out in ((rows[:, :k], e_d), (rows[:, k : 2 * k], e_e)):
            np.log1p(np.negative(side, out=x), out=x)
            np.negative(x.T, out=out[:, start : start + step])
    return e_d, e_e


def _gates(u: np.ndarray, k: int, delta: float) -> np.ndarray:
    """Gate-up mask of a block, (k, trials)."""
    return np.ascontiguousarray((u[:, 2 * k : 3 * k] < delta).T)


def _exponent(lam: float, sigma: float) -> int:
    """n = -(x_l + x_s) of `_snr`: its gains over noise lie in [2^-53, 147] 2^n, or are 0."""
    return -(math.frexp(lam)[1] + math.frexp(sigma)[1])


def _scale(p: SystemParams) -> tuple[int, int] | None:
    """(m, t) where `_exponent` passes +-960: `_choose` and `hits` then form a and b over 2^m, 1 + b over 2^t."""
    n_d, n_e = _exponent(p.lambda_d, p.sigma_d), _exponent(p.lambda_e, p.sigma_e)
    return None if max(abs(n_d), abs(n_e)) <= 960 else (max(n_d, n_e), max(n_e, 0))


def _snr(e: np.ndarray, lam: float, sigma: float, shift: int = 0) -> np.ndarray:
    """Gain over noise e / lambda / sigma, over 2^shift, of unit gains e (`_unit_gains`): 0 or in [2^-53, 36.75].

    e / m_l / m_s, with m_l and m_s the frexp mantissas of lambda and sigma
    in [0.5, 1), lies in [2^-53, 147], and one ldexp by their exponents
    scales it: it overflows only past the float range.  Where e / lambda
    and its quotient by sigma stay normal, this is fl(fl(e / lambda) / sigma)
    bit for bit, as dividing by a power of two is exact there.
    """
    (m_l, x_l), (m_s, x_s) = math.frexp(lam), math.frexp(sigma)
    with np.errstate(over="ignore"):  # only where e / (lambda sigma) itself is past the float range
        return np.ldexp(e / m_l / m_s, -(x_l + x_s) - shift)


def _first_argmax(score: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Per trial (column) of a (k, trials) score, the lowest row index (uint8) of its maximum.

    A gate `mask` makes dead links score -inf first.  Equal to
    np.argmax(scores, axis=1) on the (trials, k) gated scores, ties, +-inf
    and all-dead columns (pick 0) included, for NaN-free scores.  Instead of
    one short argmax per trial it runs contiguous passes over the k rows: a
    max-reduce, an equality test, and a max-reduce of the equal rows weighted
    k, k-1, ..., 1 that finds the first of them.
    """
    k = score.shape[0]
    if mask is not None:
        score = np.where(mask, score, -np.inf)
    first = (score == score.max(axis=0)).view(np.uint8)
    first *= np.arange(k, 0, -1, dtype=np.uint8)[:, None]
    return k - first.max(axis=0)


def _choose(
    p: SystemParams, scheme: Scheme, e_d: np.ndarray, e_e: np.ndarray, mask: np.ndarray | None,
    terms: dict | None = None,
) -> np.ndarray:
    """Selected transmitter per trial from (k, trials) unit gains; ties go to the lowest index.

    rts, tts and min-es are scale-free: a point's g = e / lambda multiplies
    every score of a trial by one positive constant, so they pick on the
    unit scores e_d / e_e (+inf where e_e == 0, 0/0 included), e_d and -e_e,
    at every point alike.  Only the optimal rule reads `p`: it scores
    S = X - 1 = (a - b) / (1 + b) as (a_m - b_m) / (2^-t + b_t), x_s being
    the gain over noise over 2^s (`_scale`; m = t = 0 in the normal range):
    S 2^(t - m), which orders links as S does.  Its sign is that of
    a_m - b_m, 0 only where a_m = b_m (gradual underflow).  The gate
    `mask` is None without gate knowledge; with it dead transmitters score
    -inf, and when every gate is down the pick is index 0, which is dead
    and so never counts as live.  `terms` keeps b_t and 2^-t + b_t by t
    for the other points of a group, which share lambda_e and sigma_e.
    """
    if scheme is Scheme.RTS:
        with np.errstate(divide="ignore", invalid="ignore"):
            score = e_d / e_e
        score[e_e == 0.0] = np.inf  # as in `_score`, 0/0 included
    elif scheme is Scheme.TTS:
        score = e_d
    elif scheme is Scheme.MIN_ES:
        score = -e_e
    else:
        m, t = _scale(p) or (0, 0)
        terms = {} if terms is None else terms
        if t not in terms:
            b = _snr(e_e, p.lambda_e, p.sigma_e, t)
            terms[t] = b, b + math.ldexp(1.0, max(-t, -1074))
        b, one_b = terms[t]
        score = _snr(e_d, p.lambda_d, p.sigma_d, m)
        score -= b if t == m else _snr(e_e, p.lambda_e, p.sigma_e, m)
        with np.errstate(over="ignore"):  # only where e_e = 0 and t > 1074: 2^-t is kept >= 2^-1074
            score /= one_b
    return _first_argmax(score, mask)


class _Selection:
    """Picked links of a block's trials, and what points read of them.

    `sel` is the picked row of each trial in `trials` (default: every trial
    of the (k, block) gains).  The unit gains of the picked links are
    gathered once if read (a point scales them by its own 1/lambda, bit for
    bit the gather of its scaled gains), and the eavesdropper's gain over
    noise once per (lambda_e, sigma_e, m), which the points of a position
    share: the ungated optimal rule's points of one lambda_d differ only in
    delta or rho.
    """

    def __init__(self, sel: np.ndarray, e_d: np.ndarray, e_e: np.ndarray, trials: np.ndarray | None = None):
        trials = np.arange(sel.size) if trials is None else trials
        self.pick = np.asarray(sel, dtype=np.intp) * e_d.shape[1] + trials  # flat [sel, trial]
        self._block = e_d, e_e
        self._snr_e: dict[tuple[float, float, int], np.ndarray] = {}

    @cached_property
    def gains(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit gains (e_d, e_e) of the picked links."""
        return self._block[0].take(self.pick), self._block[1].take(self.pick)

    def hits(self, p: SystemParams, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(non-zero rate, outage) of each picked link at point `p`, as fresh arrays.

        With a = g_d / sigma_d and b = g_e / sigma_e, a live link's rate is
        non-zero where a > b, which needs no sum with 1 (1 + a and 1 + b
        round to 1 below about 2^-53).  It is in outage where a < b if
        rho = fl(2^r_th) is 1, else where X' = (1 + a) / (1 + b) < rho; a
        dead link always is.  All three are formed over 2^m of `_scale`
        (m = 0 in the normal range): a_m, b_m and X' = (one + a_m) / (one +
        b_m), one = 2^-m kept in [2^-1074, 2^1023].  Past the normal range
        the larger of a_m and b_m is 0 or in [2^-53, 147] and the other
        underflows only far below it, so a_m > b_m is a > b, and X' < rho is
        X < rho but within a few roundings of rho, where one + b_m is
        subnormal (X and X' past 2^968), and where e_e = 0 with m > 1074.
        """
        m, (e_d, e_e) = (_scale(p) or (0, 0))[0], self.gains
        key = p.lambda_e, p.sigma_e, m
        if key not in self._snr_e:
            self._snr_e[key] = _snr(e_e, p.lambda_e, p.sigma_e, m)
        a, b, live = _snr(e_d, p.lambda_d, p.sigma_d, m), self._snr_e[key], active.take(self.pick)
        one = math.ldexp(1.0, min(max(-m, -1074), 1023))
        with np.errstate(over="ignore"):  # X' past 2^1024: a_m over a subnormal one + b_m
            below = a < b if p.rho == 1.0 else (one + a) / (one + b) < p.rho
        return live & (a > b), ~live | below


def _link_bounds(e_d: np.ndarray, b: np.ndarray, live: np.ndarray, rho: float,
                 metrics: Sequence[Metric]) -> dict[Metric, np.ndarray]:
    """Per-link bounds on c = lambda_d sigma_d of `metrics`, shaped as `e_d`; at rho = 1 SOP reads NZR's.

    NZR reads T = e_d / b, SOP R = e_d / theta, theta = (rho - 1) + rho b,
    or T at rho = 1.  Columns hold unit gains e_d, their b (`_snr`) and
    gates `live`: every link of a block (k, n), or a scale-free rule's pick
    (n); a trial's bound is its maximum over live links, or the pick's.
    The event holds where it is > fl(c M), fails where it is < fl(c / M),
    M = _BAND; `hits` decides the rest, NaN (0 / 0) included.
    Why, with u = 2^-53: |`_exponent`| <= 960 keeps a, b and c normal,
    a = a* (1 + alpha), |alpha| < 2.01u, for a* = e_d / c* and the exact
    c* = lambda_d sigma_d, T and R lie within 3.1u of their exact values or
    far past every c, and c M^+-1 within 2u; a dead link has e_d = 0.
    e_d / b > c M means a > b, e_d / b < c / M a < b.  The gated optimal
    rule picks the first maximum over live links of S' = fl(fl(a - b) /
    fl(1 + b)), whose sign is that of a - b, so a non-zero rate, and no
    outage at rho = 1 (a >= b), hold at the pick where they do at some live
    link.  X' = fl(fl(1 + a) / fl(1 + b)) of the pick is < rho where
    a* < theta (1 - kappa), kappa = 5.03u rho (1 + b) / theta, and, as S'
    is S = X - 1 within 3.01u near S = rho - 1 >= 2^-20, >= rho where
    a* > theta (1 + kappa) at some live link, kappa = (5.03u rho + 6.03u
    (rho - 1)) (1 + b) / theta.  Both are <= 5.03u rho / (rho - 1) + 6.03u
    < 0.63 2^-30 for rho >= _COUNT_RHO, and M > (1 + kappa)(1 + 5.1u).
    """
    e_d, bounds = e_d * live, {}
    sop = Metric.SOP in metrics and rho != 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # x / 0, 0 / 0, overflow to inf
        if Metric.NZR in metrics or rho == 1.0:
            bounds[Metric.NZR] = np.divide(e_d, b, out=None if sop else e_d)
        if sop:
            theta = b * rho
            bounds[Metric.SOP] = np.divide(e_d, np.add(theta, rho - 1.0, out=theta), out=e_d)
    return bounds


def _exact(p: SystemParams, scheme: Scheme, e_d: np.ndarray, e_e: np.ndarray, mask: np.ndarray | None,
           active: np.ndarray, trials: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(non-zero rate, outage) of `trials` at `p` on their own picks (`_choose`, `_Selection.hits`)."""
    gated = None if mask is None else mask[:, trials]
    own = _choose(p, scheme, e_d[:, trials], e_e[:, trials], gated)
    return _Selection(own, e_d, e_e, trials=trials).hits(p, active)


def _block_outcomes(
    p: SystemParams, scheme: Scheme, mode: KnowledgeMode, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial indicators (non-zero rate, outage) of one point over a block of uniform rows.

    Picks as `select` does, fed the unit gains for the scale-free rules
    (`_choose`): same scores, and argmax ties resolving to the lowest
    index.  The outcomes are `_Selection.hits`; dead or silent trials are
    outages.
    """
    k = p.k
    e_d, e_e = _unit_gains(u, k)
    active = _gates(u, k, p.delta)
    mask = active if mode is KnowledgeMode.AVAILABLE else None
    return _Selection(_choose(p, scheme, e_d, e_e, mask), e_d, e_e).hits(p, active)


def _all_outcomes(
    p: SystemParams, scheme: Scheme, mode: KnowledgeMode, trials: int, seed: int, block: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (non-zero rate, outage) arrays for `trials` trials: the reference of `simulate_grid`."""
    block = block_width(p.k, block)
    _check_run(trials, block)
    blocks = [
        _block_outcomes(p, scheme, mode, uniform_block(seed, p.k, start, min(block, trials - start)))
        for start in range(0, trials, block)
    ]
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def outage_indicators(
    p: SystemParams, scheme: Scheme, mode: KnowledgeMode, trials: int, seed: int, block: int | None = None
) -> np.ndarray:
    """Per-trial outage indicator array (dead or silent trials included)."""
    return _all_outcomes(p, scheme, mode, trials, seed, block)[1]


def _selection_key(p: SystemParams, scheme: Scheme, mode: KnowledgeMode) -> tuple:
    """(scheme, mode, reads, gate): points with equal keys form one group.

    `reads` holds, as exact float values, what `_choose` reads of a point
    besides lambda_d.  rts, tts and min-es pick on the unit gains, once for
    every point, so they read nothing.  The optimal rule reads lambda_e,
    sigma_d and sigma_e, and its group picks once per lambda_d.
    """
    reads = (p.lambda_e, p.sigma_d, p.sigma_e) if scheme is Scheme.OPTIMAL else ()
    gate = p.delta if mode is KnowledgeMode.AVAILABLE else None
    return scheme, mode, reads, gate


def _sub_axis(key: tuple, p: SystemParams) -> tuple | None:
    """What the points counted from sorted `_link_bounds` share in a group; None where its proof fails.

    It fails for the optimal rule without gate knowledge (whether its pick is dead depends on which
    link wins), wherever |`_exponent`| > 960, and for 1 < rho < _COUNT_RHO.
    """
    fits = (key[0] is not Scheme.OPTIMAL or key[1] is KnowledgeMode.AVAILABLE) and _scale(p) is None
    fits = fits and (p.rho == 1.0 or p.rho >= _COUNT_RHO)
    return (p.lambda_e, p.sigma_e, p.delta, p.rho) if fits else None


def simulate_grid(
    points: Sequence[tuple[SystemParams, Scheme, KnowledgeMode]],
    trials: int,
    seed: int,
    block: int | None = None,
    metrics: Sequence[Metric] = tuple(Metric),
) -> list[dict[Metric, MetricEstimate]]:
    """The estimates of `metrics` for every (params, scheme, mode) point, in order.

    All points must share k, so they read one stream (seed, k), which is
    walked once.  Before the walk the points are grouped once by
    `_selection_key`, within a group into sub-axes (`_sub_axis`), however
    few points share one, and the points whose proof fails by position: one
    per lambda_d for the optimal rule, one for the whole group otherwise.
    Per block of `block` trials, by default as many as fit _BLOCK_WORDS
    stream words (`block_width`), the uniforms are generated once, mapped to
    unit-mean exponential gains once per side and to a gate mask once per
    distinct delta, all in (k, block) layout.  This thread and one worker
    each take the next block, build it and count it into their own integer
    hits, summed at the end (one walker for one block or blocks below
    _AHEAD_WORDS words); an error in either stops both after their current
    block.  A sub-axis sorts per-trial bounds of `metrics` (`_link_bounds`,
    on every link for the gated optimal rule, read at their pick by the
    scale-free rules of its sub-axis) and each point decides the trials near
    its own c (`_exact`).  Each position picks once (`_choose`) into one
    `_Selection`, whose `hits` count its points.  Memory is O(block k), so
    at the default width O(_BLOCK_WORDS) whatever k, `trials` and the number
    of points, and every estimate equals `simulate_point` on that point
    alone.
    """
    ks = {p.k for p, _, _ in points}
    if len(ks) != 1:
        raise ValueError(f"points must share one k, got {sorted(ks)}")
    (k,) = ks
    block = block_width(k, block)
    _check_run(trials, block)
    metrics = [metric for metric in Metric if metric in metrics]
    keys = [_selection_key(*point) for point in points]
    subs = [_sub_axis(key, p) for key, (p, _, _) in zip(keys, points)]
    groups: dict[tuple, tuple] = {}  # key -> (lead, lambda_d position -> its points, sub-axis -> its points)
    for i, (key, sub) in enumerate(zip(keys, subs)):
        optimal = key[0] is Scheme.OPTIMAL
        # a scale-free group always has its one position (None), whose pick its counted sub-axes read
        _, axis, counted = groups.setdefault(key, (points[i][0], {} if optimal else {None: []}, {}))
        if sub is not None:
            counted.setdefault(sub, []).append(i)
        else:
            axis.setdefault(points[i][0].lambda_d if optimal else None, []).append(i)
    deltas = {p.delta for p, _, _ in points}
    linked = {sub for (scheme, *_), (_, _, counted) in groups.items() if scheme is Scheme.OPTIMAL for sub in counted}

    def build(start: int) -> tuple:
        u = uniform_block(seed, k, start, min(block, trials - start))
        e_d, e_e = _unit_gains(u, k)
        return e_d, e_e, {delta: _gates(u, k, delta) for delta in deltas}

    def count(e_d: np.ndarray, e_e: np.ndarray, gates: dict, hits: np.ndarray) -> None:
        links = {}  # sub-axis -> `_link_bounds` on every link, formed once for the gated optimal rule
        for (scheme, mode, *_), (lead, axis, counted) in groups.items():  # lead: what the key holds
            mask = gates[lead.delta] if mode is KnowledgeMode.AVAILABLE else None
            terms = {}  # what the optimal rule's positions share
            for members in axis.values():
                q = points[members[0]][0] if members else lead  # what the position holds
                shared = _Selection(_choose(q, scheme, e_d, e_e, mask, terms), e_d, e_e)
                for i in members:
                    p = points[i][0]
                    nzr, outage = shared.hits(p, gates[p.delta])
                    hits[:, i] += np.count_nonzero(nzr), outage.size - np.count_nonzero(outage)
            for sub, members in counted.items():
                q = points[members[0]][0]  # what the sub-axis holds
                if sub in linked:  # the gated optimal rule's sub-axis
                    if sub not in links:
                        links[sub] = _link_bounds(e_d, _snr(e_e, q.lambda_e, q.sigma_e), gates[q.delta], q.rho, metrics)
                    optimal = scheme is Scheme.OPTIMAL
                    tops = {m: per.max(axis=0) if optimal else per.take(shared.pick) for m, per in links[sub].items()}
                else:  # the shared pick of a scale-free rule alone
                    (picked_d, picked_e), live = shared.gains, gates[q.delta].take(shared.pick)
                    tops = _link_bounds(picked_d, _snr(picked_e, q.lambda_e, q.sigma_e), live, q.rho, metrics)
                ranked = {m: (top, np.sort(top)) for m, top in tops.items()}  # NaN (a NaN bound wins) sorts last
                c = np.array([points[i][0].lambda_d * points[i][0].sigma_d for i in members])
                lo, hi = c / _BAND, c * _BAND
                for event, metric in enumerate(Metric):  # a non-zero rate, no outage
                    if metric not in metrics:
                        continue
                    top, top_sorted = ranked[metric if q.rho != 1.0 else Metric.NZR]
                    sure = top_sorted.searchsorted(np.inf, "right") - top_sorted.searchsorted(hi, "right")
                    for j in np.flatnonzero(sure + top_sorted.searchsorted(lo) < top.size):  # left to `hits`
                        p = points[members[j]][0]
                        band = np.flatnonzero(~(top > hi[j]) & ~(top < lo[j]))  # NaN included
                        nzr, outage = _exact(p, scheme, e_d, e_e, mask, gates[p.delta], band)
                        sure[j] += np.count_nonzero(~outage if event else nzr)
                    hits[event, members] += sure

    starts, lock, errors = iter(range(0, trials, block)), threading.Lock(), []

    def take() -> int | None:
        with lock:
            return next(starts, None)

    def walk(hits: np.ndarray) -> None:
        try:
            for start in iter(take, None):
                held = build(start)  # the last block is freed only now: freeing it first churns pages
                count(*held, hits)
        except BaseException as exc:  # raised again in the caller's thread once both walkers stop
            with lock:
                deque(starts, maxlen=0)  # the other walker stops after its current block
            errors.append(exc)

    hits = np.zeros((2, 2, len(points)), dtype=np.int64)  # walker, event (a non-zero rate, no outage), point
    ahead = block * trial_stride(k) >= _AHEAD_WORDS and trials > block
    worker = threading.Thread(target=walk, args=(hits[1],)) if ahead else None
    if worker is not None:
        worker.start()
    walk(hits[0])
    if worker is not None:
        worker.join()
    if errors:
        raise errors[0]
    counts = {Metric.NZR: hits[:, 0].sum(axis=0), Metric.SOP: trials - hits[:, 1].sum(axis=0)}
    return [{metric: MetricEstimate(int(counts[metric][i]) / trials, trials, seed) for metric in metrics}
            for i in range(len(points))]


def simulate_point(
    p: SystemParams,
    scheme: Scheme,
    mode: KnowledgeMode,
    trials: int,
    seed: int,
    block: int | None = None,
) -> dict[Metric, MetricEstimate]:
    """Both metric estimates for one point; a one-point `simulate_grid`."""
    return simulate_grid([(p, scheme, mode)], trials, seed, block)[0]
