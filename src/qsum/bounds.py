"""Probabilistic error functionals and the analytic bounds they obey.

The level error of a mean a at probability p is the smallest radius alpha
such that outcomes within alpha of a carry mass at least p.  Maximizing over
all means k/N gives the worst-case functional, which up to 8/pi^2 is read
off a screened subset of the means with the full sweep's bits; weighting by
a measure on the function space gives the average-case one.  The v / C(p)
calculus expresses the sharp worst-case constants, and the divisible-by-4
upper bound and non-divisible lower bound govern the average case under the
uniform-function measure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .boolfn import Measure, class_weights, sigmas_of
from .closedform import (
    dirichlet_kernel_sq,
    outcome_probabilities,
    outcome_probabilities_at,
    output_grid,
)

__all__ = [
    "EIGHT_OVER_PI_SQ",
    "FOUR_OVER_PI_SQ",
    "LEVEL_SLACK",
    "Setting",
    "ErrorRecord",
    "level_errors",
    "worst_probabilistic_error",
    "worst_probabilistic_errors",
    "avg_probabilistic_error",
    "avg_probabilistic_errors",
    "refuse_sweeps",
    "v_func",
    "v_inverse",
    "c_bound",
    "g_func",
    "h_func",
    "wa4_upper_bound",
    "wan4_lower_bound",
    "queries_for_epsilon",
]

EIGHT_OVER_PI_SQ = 8.0 / math.pi**2  # largest probability the one-run bounds reach
FOUR_OVER_PI_SQ = 4.0 / math.pi**2

# Cumulative mass is compared against p - LEVEL_SLACK so that boundary cases
# (mass exactly p, e.g. a = 1/2 with 4 | M) are not lost to summation noise.
LEVEL_SLACK = 1e-12

# Kernel cells per block of rows of the pair pass, about: 2 per mass of its
# first two values that `_lead_masses` reads, at most 4 per mean, and 2 per
# step of the walk that continues a block's rows.  Blocks are cut at 4 per
# mean (`_row_blocks`), and the even blocks (`_even_slices`) hold 3/4 to 3/2
# of this, so their work arrays stay in a core's L2 cache.  Rows are
# independent, so blocks change no bit.
_BLOCK_CELLS = 1 << 14

# Cells per chunk when sweeping all means k/N: about _CHUNK_CELLS // M means,
# at least 1024.  The worst case's maximum does not depend on its chunks, so
# they are even (`_even_slices`); the average case's fixed chunks and
# remainder (`_fixed_slices`) partition its weighted sum into one np.dot
# each, so they fix its bits.
_CHUNK_CELLS = 1 << 21

# The screened worst case (`_screened_worst_errors`) runs at M up to
# _SCREEN_MAX_M, the range its oracle tests cover, where its estimated means
# (`_screen_means`) and its fixed cost, the numpy passes of its plan and
# search counted in means of the dense sweep, are fewer than N+1 (`_screens`).
# The fixed cost was fitted on a 2-core x86-64 machine (Python 3.11, numpy
# 2.4) to in-process medians of interleaved screened and dense calls.  The
# screen's time over the dense sweep's, * where the rule screens:
#
#   levels    0.75                          0.55, 0.6, 0.7, 8/pi^2
#   M \ N     2^12  2^13   2^14   2^15      2^12  2^13   2^14   2^15
#   16        1.11  0.60*  0.38*  0.24*     1.35  0.75*  0.36*  0.23*
#   64        1.19  0.66*  0.41*  0.24*     1.34  0.69*  0.37*  0.25*
#   236       1.86  1.00   0.51*  0.27*     2.33  1.29   0.58*  0.33*
#   512       2.28  1.19   0.64*  0.34*     2.64  1.74   0.92*  0.48*
#   1024      2.18  1.29   0.68*  0.35*     2.75  2.21   1.30   0.56*
#
# and at perfbench's worst_sweep points, four levels, seeds 0-9: 0.24-0.28*
# at M = 15..17 and 62..66, N = 2^15, and 1.27-1.35 at M = 232..240, N =
# 2^13.  Every point takes its faster route for a fixed cost from 6408 to
# 7103 means, and the constant sits in the middle; at (236, 2^13, 0.75) the
# two routes tie.  A misfit costs only time: both routes give the same bits.
_SCREEN_MAX_M = 4096
_SCREEN_FIXED_MEANS = 6750

# Rounds of the screen's flip search that may take a Newton step; later
# rounds bisect, so a search ends within this many plus log2 N rounds.
_NEWTON_ROUNDS = 8

# The pair pass lets the law's lower bound D >= v decide a row only where v
# clears the highest threshold by this margin, as its Taylor square does
# within `_floor_reach`, so that the law's rounding cannot reverse the
# decision.  Its value masses over the means k/2^10 sum to 1 within 3.1e-15
# at M = 64, 1.9e-15 at 1024 and 1.6e-15 at 4096, the largest M the rule
# runs at (`_law_bounds_apply`); rounding i -/+ sigma, below M, moves a
# kernel cell by about 1e-12 more at most, and sigma - near by an ulp of
# M/2.  All are over 500 times below the margin.
_FLOOR_MARGIN = 1e-9


class Setting(Enum):
    WORST_PROBABILISTIC = "worst"
    AVG_PROBABILISTIC = "avg"


@dataclass
class ErrorRecord:
    """One computed error value with the analytic bound that applies to it."""

    M: int
    N: int
    p: float
    setting: Setting
    measure: Measure | None
    value: float
    bound: float
    bound_ref: str

    @property
    def bound_holds(self) -> bool:
        """Whether value respects the attached bound, on its statement's side
        (`_STATEMENTS`); a ref not in the table is an upper bound."""
        if self.bound_ref in _STATEMENTS and _STATEMENTS[self.bound_ref][2]:
            return self.value >= self.bound
        return self.value <= self.bound * (1.0 + 1e-12) + 1e-300


def _validate_p(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"probability level must lie in (0, 1], got {p}")


def level_errors(means, M: int, ps: Sequence[float]) -> np.ndarray:
    """Level errors for many means and levels at once; shape (len(ps), len(means)).

    For each mean: order the values v_i = sin^2(pi i/M), i = 0..M//2, by
    (|v_i - a|, i), accumulate their masses in that order, and report the
    distance at which the running mass first reaches p - LEVEL_SLACK, or the
    farthest distance where none reaches it.  v_i is reported by the outcomes
    j = i and j = M - i, which carry the same mass, so it carries 2 p(i), or
    p(i) where it has one outcome (`_value_probs`).  `_full_level_errors`
    does exactly this by one stable sort of the values; it is the tests'
    oracle.

    The values increase with i, so the order merges the values below a,
    walked downward, with those above, walked upward, one value per step,
    the lower value first on an exact tie.  The running mass adds the same
    masses (one per-cell formula, `outcome_probabilities_at`, doubled) in
    the same order as the full sort's cumulative sum, so the errors are
    bit-identical.

    The pair pass (`_pair_block`) takes every row's first two values in even
    blocks of about _BLOCK_CELLS cells, so its work arrays stay in cache,
    reads their masses only where the paper's lower bounds on the law leave
    a level open (`_lead_masses`, at the M of `_law_bounds_apply`), and
    reads up to three values' distances (`_three_value_errors`).  Where the
    two values bracketing sigma reach every level (`_brackets_reach`), that
    rule decides every row: the third value of a row short after two is the
    far bracketing one, as the value beyond the second comes first only
    within the floor's reach (`_floor_reach`), where no row falls short.
    Elsewhere, above 8/pi^2 or at M outside 4..4096, the walk
    (`_walk_block`) continues a block's rows whose two values fall short of
    the highest level.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    for p in ps:
        _validate_p(p)
    means = np.atleast_1d(np.asarray(means, dtype=np.float64))
    if means.size and not (means.min() >= 0.0 and means.max() <= 1.0):
        raise ValueError("means must lie in [0, 1]")
    edges = _value_edges(M)
    thresholds = np.asarray(ps, dtype=np.float64).reshape(-1, 1) - LEVEL_SLACK
    highest = thresholds.max(initial=-np.inf)
    reach = _floor_reach(float(highest)) if _law_bounds_apply(M) else -1.0
    bracketed = _brackets_reach(M, ps)
    # sigmas_of adds no temporary of the means' size to the call's peak heap
    sigma = sigmas_of(means, M)
    out = np.empty((len(ps), means.size))
    for block in _row_blocks(means.size):
        _pair_block(means[block], sigma[block], edges, M, thresholds, reach, bracketed,
                    out[:, block])
    return out


def _law_bounds_apply(M: int) -> bool:
    """Whether levels may be decided from the paper's two lower bounds on the
    law (`_floor_reach`, `_brackets_reach`) instead of the law: at 4 <= M <=
    _SCREEN_MAX_M, the range the differentials pin."""
    return 4 <= M <= _SCREEN_MAX_M


def _brackets_reach(M: int, ps: Sequence[float]) -> bool:
    """Whether the two values bracketing sigma reach every level of ps: at
    every level at most 8/pi^2, where `_law_bounds_apply`.

    v_lo and v_lo+1, lo = floor(sigma), bracket sigma, and their masses are
    at least D(sigma - lo) + D(lo + 1 - sigma), which is at least v(d) +
    v(1 - d) = g(d) >= 8/pi^2, d = sigma - lo: the kernel D(d) = sin^2(pi
    d)/(M sin(pi d/M))^2 is at least v(d) = sin^2(pi d)/(pi d)^2, the bound
    `_floor_reach` reads through v's Taylor square.
    At odd M and sigma above M//2, the top value's two outcomes bracket
    sigma and carry the same.  D exceeds v by a factor of at least 1 +
    (pi d/M)^2/3, so at d = 1/2, where g is least, the pair's mass exceeds
    8/pi^2 by about 2/(3 M^2), 4e-8 at M = 4096: far above the law's
    rounding (_FLOOR_MARGIN), and each level's threshold lies LEVEL_SLACK
    below it.
    So a row's error is the distance of its near value, its second or the
    far one: the value beyond the second comes before the far one only at
    |sigma - near| <= 0.1214, within _floor_reach(8/pi^2 - LEVEL_SLACK) =
    0.2462, where the near value alone reaches every level
    (`_three_value_errors`).  No row walks."""
    return _law_bounds_apply(M) and max(ps, default=1.0) <= EIGHT_OVER_PI_SQ


def _floor_reach(h: float) -> float:
    """A d in [0, sqrt(6)/pi] with v(d) >= t = h + _FLOOR_MARGIN, in closed
    form, or -1 where t > 1.  The value v_n carries at least D(n - sigma) >=
    v(|sigma - n|), so where |sigma - n| <= d their mass reaches h, however
    it rounds.  On [0, sqrt(6)], sin x/x >= 1 - x^2/6 >= 0, so v(d) is at
    least the Taylor square (1 - (pi d)^2/6)^2, which falls from 1 to 0 and
    equals t at d = sqrt(6 (1 - sqrt t))/pi, within 0.031 of v's own root on
    [4/pi^2, 1).  Near t = 1, v exceeds the square by only (pi d)^4/60, so
    1 - sqrt t is taken as s/(1 + sqrt(1 - s)), s = (1 - h) - _FLOOR_MARGIN
    with 1 - h exact from h = 1/2 up, and d less 2^-49 of itself, more than
    the rounding of its operations, so that v(d) >= t holds exactly."""
    s = min(1.0 - h - _FLOOR_MARGIN, 1.0)
    if s < 0.0:
        return -1.0
    return (1.0 - 2.0**-49) * math.sqrt(6.0 * s / (1.0 + math.sqrt(1.0 - s))) / math.pi


def _crossings(dists: np.ndarray, probs: np.ndarray, ps: Sequence[float]) -> np.ndarray:
    """The full sort's crossing rule on cells of shape (rows, cells): cells
    stably sorted by distance accumulate mass, and the error at p is the
    distance of the first cell whose running mass reaches p - LEVEL_SLACK,
    the count of cells below it, clipped to the farthest distance where no
    cell does; shape (len(ps), rows).  With one cell per value, in the order
    i = 0..M//2, the sort is the (distance, value) order of `level_errors`,
    its one definition."""
    order = np.argsort(dists, axis=1, kind="stable")
    sorted_dists = np.take_along_axis(dists, order, axis=1)
    cum = np.cumsum(np.take_along_axis(probs, order, axis=1), axis=1)
    thresholds = np.asarray(ps, dtype=np.float64).reshape(-1, 1, 1) - LEVEL_SLACK
    idx = np.count_nonzero(cum < thresholds, axis=2)
    np.minimum(idx, dists.shape[1] - 1, out=idx)
    return np.take_along_axis(sorted_dists, idx.T, axis=1).T


def _even_slices(count: int, step: int) -> list[slice]:
    """Consecutive slices covering range(count) in order: round(count/step)
    of them, and one if that rounds to none, whose sizes differ by at most
    one.  Each holds 3/4 to 3/2 of step items, to within rounding, or all
    count of them when there are fewer: no slice is a short remainder."""
    parts = max(round(count / step), min(count, 1))
    return [slice(count * i // parts, count * (i + 1) // parts) for i in range(parts)]


def _fixed_slices(count: int, step: int) -> list[slice]:
    """Consecutive slices covering range(count) in order, each of step items
    but the last, which holds the remainder."""
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _row_blocks(rows: int) -> list[slice]:
    """Even blocks of rows covering range(rows), of about _BLOCK_CELLS cells
    at 4 per row, and at least one row each."""
    return _even_slices(rows, max(1, _BLOCK_CELLS // 4))


@functools.lru_cache(maxsize=8)
def _value_edges(M: int) -> np.ndarray:
    """The distinct outputs v_i = sin^2(pi i/M), i = 0..M//2, as edges[i + 2]:
    two infinite edges on each side stand for the values past either end, at
    every M >= 1.  Read-only, built once per M for the few latest M."""
    edges = np.concatenate([[-np.inf, -np.inf], output_grid(M)[: M // 2 + 1], [np.inf, np.inf]])
    edges.flags.writeable = False
    return edges


def _value_probs(sigma: np.ndarray, i: np.ndarray, M: int) -> np.ndarray:
    """The mass of the value v_i at each sigma, one per entry: p(i), doubled
    where v_i has two outcomes j = i and j = M - i (i != 0 and 2i != M),
    which carry the same mass, p(j) = p(M - j).  2 p(i) is fl(D(i - sigma) +
    D(i + sigma)) bit for bit: the law's halving and this doubling are exact."""
    probs = outcome_probabilities_at(sigma, i, M)
    return np.multiply(probs, 2.0, out=probs, where=(i != 0) & (2 * i != M))


def _first_values(
    means: np.ndarray, sigma: np.ndarray, edges: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Each row's first two values in the (distance, value) order of
    `level_errors`.  v_lo and v_lo+1, lo = floor(sigma) but at most
    max(M//2 - 1, 0), bracket the mean to within rounding, so the near one
    comes first, v_lo on a tie; then the far one or the value beyond the
    near one (an infinite edge where that runs out), whichever is nearer,
    the lower on a tie.  Returns lo, the near and second value indices, the
    distances of the near, second and third values, the third being 2 near
    - second, the other of the far one and the value beyond, and whether
    the second is the value beyond."""
    lo = np.minimum(sigma.astype(np.int64), max(edges.size - 6, 0))  # M//2 - 1
    d_lo = np.abs(edges[lo + 2] - means)
    d_hi = np.abs(edges[lo + 3] - means)
    near_is_lo = d_lo <= d_hi
    far = lo + near_is_lo
    near = lo + 1 - near_is_lo
    beyond = 2 * near - far
    d_far = np.maximum(d_lo, d_hi)
    d_beyond = np.abs(edges[beyond + 2] - means)
    beyond_first = np.where(near_is_lo, d_beyond <= d_far, d_beyond < d_far)
    dists = np.minimum(d_lo, d_hi), np.minimum(d_beyond, d_far), np.maximum(d_beyond, d_far)
    return lo, near, np.where(beyond_first, beyond, far), dists, beyond_first


def _pair_block(
    means: np.ndarray, sigma: np.ndarray, edges: np.ndarray, M: int,
    thresholds: np.ndarray, reach: float, bracketed: bool, out: np.ndarray,
) -> None:
    """The pair pass of `level_errors` on one block of rows, whose errors it
    writes into `out`: each row's first two values and their running masses
    (`_lead_masses`; the second unread where `bracketed` and it is the far
    bracketing value), the errors from up to its first three values
    (`_three_value_errors`), and, where not `bracketed`, `_walk_block` for
    the rows that rule leaves open."""
    _, near, second, dists, beyond_first = _first_values(means, sigma, edges)
    masses = _lead_masses(sigma, near, second, M, _unfloored(sigma, near, reach),
                          beyond_first | (not bracketed))
    out[...], rows = _three_value_errors(dists, masses, thresholds, bracketed)
    if rows.size:
        # the two values taken are adjacent; the walk starts from their neighbours
        taken = np.minimum(near[rows], second[rows])
        _walk_block(means[rows], sigma[rows], rows, taken + 1, taken + 4, masses[1, rows],
                    edges, M, thresholds, out)


def _three_value_errors(
    dists: Sequence[np.ndarray], masses: np.ndarray, thresholds: np.ndarray, bracketed: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The crossing rule on each row's first three values: its errors, shape
    (levels, rows), and the rows it leaves open.  It takes the distances of
    the near, second and third values, the third being 2 near - second,
    their running masses (`_lead_masses`), shape (2, rows), and the level
    thresholds, shape (levels, 1).  A level takes the near value's distance
    where its mass reaches the level, the second's where the two's does,
    else the third's.

    Where `bracketed` (`_brackets_reach`), no row is left open.  A row short
    of a level after two values has the value beyond the near one second and
    the far bracketing value third, after which every level is reached.  The
    value beyond the second, 2 second - near, could come first only where
    two value gaps on one side of the near value sum to at most the one gap
    on the other.  The gap from v_i to v_i+1 is sin(pi (2i + 1)/M) sin(pi/M),
    and sin is concave on [0, pi] and 0 at 0, so the gaps at (2i - 3) pi/M
    and (2i - 1) pi/M sum past the one at (2i + 1) pi/M from i = 3 on, and
    by symmetry likewise at the top.  It happens only at near = 2, or its
    mirror M/2 - 2 at even M, with a <= v_3/2 (or 1 - a): at |sigma - near|
    <= sqrt(4.5) - 2 in the limit and 0.1214 at most over M = 4..4096 (a
    test pins it).  That lies within _floor_reach(8/pi^2 - LEVEL_SLACK) =
    0.2462, where both masses are past every level, read or not: the near
    value alone carries at least v(0.1214) > 0.95.  Where not `bracketed`,
    every row short after two values is left open, with the second's
    distance at the levels it leaves short; an open row's errors past its
    second value are the walk's."""
    short = masses[:, None, :] < thresholds
    errors = np.where(short[0], dists[1], dists[0])
    if not bracketed:
        return errors, np.flatnonzero(short[1].any(axis=0))
    np.copyto(errors, dists[2], where=short[1])
    return errors, np.empty(0, dtype=np.int64)


def _walk_block(
    means: np.ndarray, sigma: np.ndarray, cols: np.ndarray, lo: np.ndarray, hi: np.ndarray,
    mass: np.ndarray, edges: np.ndarray, M: int, thresholds: np.ndarray, out: np.ndarray,
) -> None:
    """The walk of `level_errors` on the rows `cols` of `out`, which hold
    their errors so far, and whose running mass is `mass`.  edges[lo] and
    edges[hi] are the nearest values below and above a not yet taken, an
    infinite edge where a side has run out.  Each step sets every level the
    mass has not reached yet to the step's distance, so a level keeps the
    distance of the step that reaches it, or the last step's."""
    errors = out[:, cols]
    highest = thresholds.max(initial=-np.inf)
    while True:
        d_lo = means - edges[lo]
        d_hi = edges[hi] - means
        dist = np.minimum(d_lo, d_hi)
        stay = (mass < highest) & (dist < np.inf)
        if not stay.all():
            out[:, cols[~stay]] = errors[:, ~stay]
            means, cols, sigma, lo, hi, d_lo, d_hi, dist, mass = (
                x[stay] for x in (means, cols, sigma, lo, hi, d_lo, d_hi, dist, mass))
            errors = errors[:, stay]
        if not cols.size:
            return
        np.copyto(errors, dist, where=mass < thresholds)
        take_lo = d_lo <= d_hi
        mass += _value_probs(sigma, np.where(take_lo, lo, hi) - 2, M)
        lo -= take_lo
        hi += ~take_lo


def _full_level_errors(means: np.ndarray, M: int, ps: Sequence[float]) -> np.ndarray:
    """The level errors of `level_errors` from one stable sort of the M//2 + 1
    values per mean, each carrying its outcome j = i of the full outcome law,
    doubled where it has a twin (0 < i < M/2); the tests' oracle for the pair
    pass, the walk and the screen."""
    values = M // 2 + 1
    probs = outcome_probabilities(sigmas_of(means, M), M)[:, :values]
    probs[:, 1:(M + 1) // 2] *= 2.0
    return _crossings(np.abs(output_grid(M)[:values] - means[:, None]), probs, ps)


def worst_probabilistic_errors(M: int, N: int, ps: Sequence[float]) -> list[ErrorRecord]:
    """Worst-case records for several levels from one sweep: screened
    (`_screened_worst_errors`, O(L M) means for L levels whatever N) where
    `_screens`, else dense over all N+1 means (`_full_worst_errors`, the
    screen's oracle).  Both give the same bits and answer every level at
    once, so a sweep costs about what its highest level costs alone."""
    for p in ps:
        _validate_p(p)
    if _screens(M, N, ps):
        best = _screened_worst_errors(M, N, ps)
    else:
        best = _full_worst_errors(M, N, ps)
    return [_record(Setting.WORST_PROBABILISTIC, None, M, N, p, float(value))
            for p, value in zip(ps, best)]


def _full_worst_errors(M: int, N: int, ps: Sequence[float]) -> np.ndarray:
    """The largest level error over all N+1 means k/N, per level: the dense
    sweep, in the even chunks of _CHUNK_CELLS."""
    best = np.zeros(len(ps))
    for ks in _even_slices(N + 1, max(1024, _CHUNK_CELLS // max(M, 1))):
        means = np.arange(ks.start, ks.stop, dtype=np.float64)
        means /= N  # in place: a chunk holds one array of means besides sigma
        best = np.maximum(best, level_errors(means, M, ps).max(axis=1))
    return best


def _screens(M: int, N: int, ps: Sequence[float]) -> bool:
    """Whether the worst case is screened: where the two values bracketing
    sigma reach every level (`_brackets_reach`) and the screen's means, with
    its fixed cost of _SCREEN_FIXED_MEANS, are fewer than the dense sweep's
    N+1, which is then the slower route (the grid above _SCREEN_MAX_M)."""
    if not _brackets_reach(M, ps):
        return False
    return _SCREEN_FIXED_MEANS + _screen_means(M, len(ps)) < N + 1


def _screen_means(M: int, levels: int) -> int:
    """The screen's cost in means of the dense sweep beyond its fixed cost,
    whatever N: 9 + 6 levels per value, fitted to timings at M = 5..4096, N
    = 2^12..2^17 and one or four levels.  Over the about 2/3 of the values it
    keeps (`_screened_range`) it reads 12 candidates per value and the rows
    around up to two flips per value and level, and probes a few more
    (`_screen_plan`).  It is also the screen's fill budget, a larger fill
    raises (`_screen_rows`), and the price `refuse_sweeps` puts on it."""
    return (9 + 6 * levels) * (M // 2 + 1)


# Sizes above which `refuse_sweeps` refuses a sweep before any work.  A dense
# sweep evaluates all N+1 means k/N: at N = 2^24 a worst case takes seconds
# per level, and an average case first stores 128 MiB of class weights.  Its
# cost is its means times the outcome cells per mean at its highest level
# (`_outcome_cells_per_mean`).  A screened worst case (`_screens`) reads a few
# means per value and level whatever N (`_screen_means`), a few ms at M = 64
# and N = 2^30, the largest grid the bounds suite's nested-grid check covers,
# so it may reach that N.  A sweep has one output per outcome j < M.
_MAX_OUTCOMES = 1 << 20
_MAX_SWEEP_N_LOG2 = 24
_MAX_SCREEN_N_LOG2 = 30
_MAX_SWEEP_CELLS_LOG2 = 28


def _outcome_cells_per_mean(M: int, p_max: float) -> int:
    """Estimated outcome cells per mean that `level_errors` evaluates for
    levels up to p_max, the cost by which oversized sweeps are refused.

    The estimate counts a value's two outcomes, twice the cells the level
    errors read, one outcome per value (`_value_probs`); it is kept so that
    refusals do not change.  Up to 8/pi^2 the pair pass decides every mean
    from its first three values, reading the masses of the first two at
    most, 4 cells: an upper estimate, as the law's lower bounds leave about
    one outcome per two means at M = 64.  Above it the walk adds one value
    per step; the kernel's tail beyond distance d carries less than about
    1/(pi^2 d) per side, so it stops after about h values per side, h =
    ceil(2/(pi^2 (1 - p_max))) + 1: 4h cells.  The estimate is all M
    outcomes once 2h values would reach the M//2+1 values, and at
    p_max = 1.
    """
    if p_max >= 1.0:
        return M
    half = 1
    if p_max > EIGHT_OVER_PI_SQ:
        half = math.ceil(2.0 / (math.pi**2 * (1.0 - p_max))) + 1
    return 4 * half if 2 * half < M // 2 + 1 else M


def refuse_sweeps(setting: Setting, N: int, Ms: Sequence[int], ps: Sequence[float]) -> None:
    """Raise ValueError, before any work and without numpy, if an M of Ms is
    below 1 or above _MAX_OUTCOMES, or if a sweep over the N+1 means k/N at
    each M of Ms and levels ps passes the limits: a screened worst case's
    (`_screens`) at its M, the dense sweep's at every other, a dense M's
    limit on n = ceil(log2 N) cited before the screen's."""
    for M in Ms:
        if M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        if M > _MAX_OUTCOMES:
            raise ValueError(f"M={M} is above the limit of {_MAX_OUTCOMES} outcomes")
    n = (N - 1).bit_length()
    worst = setting is Setting.WORST_PROBABILISTIC
    screened = [worst and _screens(M, N, ps) for M in Ms]
    if n > _MAX_SWEEP_N_LOG2 and not all(screened):
        weights = "" if worst else f" and 8(2^{n}+1) bytes of class weights"
        raise ValueError(f"a sweep at n={n} needs N+1 = 2^{n}+1 means{weights}; the limit "
                         f"is 2^{_MAX_SWEEP_N_LOG2}+1 means (n <= {_MAX_SWEEP_N_LOG2})")
    if n > _MAX_SCREEN_N_LOG2:
        raise ValueError(f"a sweep at n={n} needs N+1 = 2^{n}+1 means; the limit is "
                         f"2^{_MAX_SCREEN_N_LOG2}+1 means for a screened worst case "
                         f"(n <= {_MAX_SCREEN_N_LOG2})")
    p_max = max(ps)
    for M, screen in zip(Ms, screened):
        cells = _outcome_cells_per_mean(M, p_max)
        means = _screen_means(M, len(ps)) if screen else N + 1
        if means * cells > 1 << _MAX_SWEEP_CELLS_LOG2:
            count = f"{means} screened" if screen else f"(2^{n}+1)"
            raise ValueError(f"a sweep at n={n}, M={M} and p={p_max:g} needs {count} x "
                             f"{cells} outcome cells; the limit is "
                             f"2^{_MAX_SWEEP_CELLS_LOG2} cells")


def _unfloored(sigma: np.ndarray, near: np.ndarray, reach: float) -> np.ndarray:
    """The rows whose near value lies farther than `reach` from sigma
    (`_floor_reach`), whose masses `_lead_masses` reads: within it, v's
    Taylor square, and so the kernel, clears the highest level by
    _FLOOR_MARGIN, and both masses reach every level however they round."""
    return np.flatnonzero(np.abs(sigma - near) > reach)


def _lead_masses(
    sigma: np.ndarray, near: np.ndarray, second: np.ndarray, M: int, rows: np.ndarray,
    paired: np.ndarray,
) -> np.ndarray:
    """Each row's running mass in `level_errors` after its near value and
    after its second too, shape (2, rows): with `_unfloored`, which picks
    `rows` where a floor applies, the one place where the paper's lower
    bounds on the law decide which masses are read.  Both are 2.0, past
    every level, but at `rows`, and the second where a row is not `paired`,
    its second value the far bracketing one (`_brackets_reach`); one
    `_value_probs` call reads the rest."""
    pairs = rows[paired[rows]]
    probs = _value_probs(np.concatenate([sigma[rows], sigma[pairs]]),
                         np.concatenate([near[rows], second[pairs]]), M)
    masses = np.full((2, sigma.size), 2.0)
    masses[0, rows] = probs[:rows.size]
    masses[1, pairs] = masses[0, pairs] + probs[rows.size:]
    return masses


def _flips(short: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, ...]:
    """(stage, level, gap) of each gap wider than a row whose ends differ in short."""
    return np.nonzero((short[..., :-1] != short[..., 1:]) & (np.diff(ks) > 1))


def _screen_plan(M: int, N: int, ps: Sequence[float]) -> tuple:
    """The screen's rows within the range where an error may reach every
    level's maximum (`_screened_range`): sorted distinct k, each row's piece,
    near and second value indices and two masses (`_lead_masses`), shape
    (2, rows), and the rounds of its flip search.  It needs
    `_brackets_reach(M, ps)`, as `_screens` does, under which a row's errors
    are read from its first three values (`_three_value_errors`).

    The candidates are the grid neighbours floor(x N)-1..+2 of every value,
    of the midpoints of values one and two apart (where the near value
    changes, and where the far value and the value beyond the near one
    swap) and of the range's ends, so a gap between candidates wider than
    one row lies in one piece and its three nearest values keep their order.
    In every gap whose ends differ in either mass's side of a level
    (`_flips`), a search over all such (gap, level, mass) at once finds the
    two rows around the flip, carrying only its bracket: every row it probes
    joins the plan with the gap's values and the masses it read, the two
    around the flip among them.  It probes rows g, g+1 at a guess, then at
    the Newton step from those two, or at the bracket's midpoint once the
    step leaves it or _NEWTON_ROUNDS have passed: mostly one or two rounds
    from its first guess, where bisection would take about log2(N/M).
    """
    edges = _value_edges(M)
    values = edges[2:-2]
    thresholds = np.asarray(ps, dtype=np.float64) - LEVEL_SLACK
    low, high = _screened_range(values, N)
    marks = np.concatenate([values, (values[:-1] + values[1:]) / 2,
                            (values[:-2] + values[2:]) / 2, [high]])
    marks = marks[(marks >= low) & (marks <= high)]
    neighbours = np.floor(marks * N).astype(np.int64)[:, None] + np.arange(-1, 3)
    ks = np.sort(np.minimum(np.maximum(neighbours.ravel(), 0), N))
    ks = ks[_run_starts(ks)]
    means = ks / N
    sigma = sigmas_of(means, M)
    lo, near, second, _, beyond_first = _first_values(means, sigma, edges)
    piece = 2 * np.floor(sigma) + (near - lo)
    masses = _lead_masses(sigma, near, second, M,
                          _unfloored(sigma, near, _floor_reach(float(thresholds.max()))),
                          beyond_first)

    # excess[stage, level, row]: the near (stage 0) or two values' mass less
    # the level's threshold
    excess = masses[:, None, :] - thresholds[:, None]
    stage, level, gap = _flips(excess < 0, ks)
    left, right = ks[gap], ks[gap + 1]
    left_above = excess[stage, level, gap] >= 0
    g_near, g_second, g_paired = near[gap], second[gap], beyond_first[gap] | (stage == 1)
    # at sigma = near + ahead d the near mass is D(d) + D(sigma + near), the
    # two's adds D(1 + d) + D(sigma + second) (no twin at i = 0 or 2 i = M):
    # the first terms (`_kernel_table`) fall to the level less the twins,
    # taken where the first terms alone do
    ahead = np.sign(sigma[gap] + sigma[gap + 1] - 2 * g_near)
    values, target = np.array([g_near, g_second]), thresholds[level] + 2 * stage
    delta = np.interp(target, *_kernel_table(M))
    twins = dirichlet_kernel_sq(g_near + ahead * delta + values, M)
    twins[(values == 0) | (2 * values == M)] = 0.0
    delta = np.interp(target - twins[0] - stage * twins[1], *_kernel_table(M))
    guess = np.sin(np.pi / M * (g_near + ahead * delta)) ** 2 * N
    todo = np.arange(gap.size)
    rounds = 0
    # (rows, source row, masses): the candidates, then each round's probes
    found = [(ks, np.arange(ks.size), masses)]
    # a probe pair's masses may be equal, and its Newton step then infinite
    # or NaN, which leaves the bracket: the next probe bisects
    with np.errstate(divide="ignore", invalid="ignore"):
        while todo.size:
            lo_k, hi_k = left[todo], right[todo]
            g0 = np.minimum(np.maximum(np.floor(guess[todo]), lo_k + 1), hi_k - 1).astype(np.int64)
            g1 = np.minimum(g0 + 1, hi_k - 1)
            owner = np.concatenate([todo, todo])
            # every probe's law is read: a 2.0 mass would break the Newton step
            probes = np.arange(owner.size)
            probe_ks = np.concatenate([g0, g1])
            lead = _lead_masses(sigmas_of(probe_ks / N, M), g_near[owner], g_second[owner], M,
                                probes, g_paired[owner])
            found.append((probe_ks, gap[owner], lead))
            mass = lead[stage[owner], probes]
            mass -= thresholds[level[owner]]
            f0, f1 = mass[:todo.size], mass[todo.size:]
            at0 = (f0 >= 0) != left_above[todo]
            at1 = (f1 >= 0) != left_above[todo]
            right[todo] = hi_k = np.where(at0, g0, np.where(at1, g1, hi_k))
            left[todo] = lo_k = np.where(at0, lo_k, np.where(at1, g0, g1))
            rounds += 1
            newton = g0 - f0 / (f1 - f0)
            inside = (newton > lo_k) & (newton < hi_k) & (rounds < _NEWTON_ROUNDS)
            guess[todo] = np.where(inside, newton, (lo_k + hi_k) / 2)
            todo = todo[hi_k - lo_k > 1]
    # each row once, a candidate before a probe, and an earlier probe first
    rows, src, masses = (np.concatenate(part, axis=-1) for part in zip(*found))
    order = np.argsort(rows, kind="stable")
    order = order[_run_starts(rows[order])]
    src = src[order]
    return rows[order], piece[src], near[src], second[src], masses.take(order, axis=1), rounds


def _run_starts(ks: np.ndarray) -> np.ndarray:
    """Whether each entry of sorted ks starts a run of equal entries: the
    mask that keeps one of each, from one comparison of neighbours, where
    np.unique would sort ks again."""
    starts = np.empty(ks.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ks[1:], ks[:-1], out=starts[1:])
    return starts


def _screened_range(values: np.ndarray, N: int) -> tuple[float, float]:
    """The means [low, high] the screen looks at: those outside lie between
    two values closer than w/2 - 1/N, w the widest gap between values, so no
    error there reaches every level's maximum, which is at least w/2 - 1/N,
    the nearest value's distance at the grid row next to the widest gap's
    midpoint.  A row's error is at most its bracketing gap, as the two
    values bracketing sigma reach every level (`_brackets_reach`).  The gaps
    widen towards a = 1/2, so those at least w/2 - 1/N wide, less a margin
    for rounding, are one run from its first value to its last (to 1 where
    it reaches the top value of odd M, above which an error is at most 1
    less the value below it)."""
    gaps = np.concatenate([values[1:] - values[:-1],
                           [1.0 - values[-2] if values[-1] < 1.0 else 0.0]])
    wide = np.flatnonzero(gaps * (1.0 + 1e-9) >= gaps.max() / 2 - 1 / N)
    first, last = wide[0], wide[-1]
    return values[first], (1.0 if last + 1 >= values.size else values[last + 1])


@functools.lru_cache(maxsize=16)
def _kernel_table(M: int) -> np.ndarray:
    """Rows xp, fp for `np.interp`: the squared Dirichlet kernel D(d) of M and,
    2 above it, D(d) + D(1 + d), both falling from 1 to 0, against d at 1025
    points of [0, 1], so that x, or x + 2, gives the d where either falls to
    x; read-only, built once per M."""
    grid = np.linspace(0.0, 1.0, 1025)[::-1]
    kernel = dirichlet_kernel_sq(grid, M)
    table = np.stack([np.concatenate([kernel, 2.0 + kernel + dirichlet_kernel_sq(1.0 + grid, M)]),
                      np.tile(grid, 2)])
    table.flags.writeable = False
    return table


def _screened_worst_errors(M: int, N: int, ps: Sequence[float], screen=None) -> np.ndarray:
    """`_full_worst_errors`, bit for bit, from the rows `_screen_rows` reads and
    one `level_errors` call on the means it leaves (its bits hold per mean);
    `screen` passes in that `_screen_rows` result where it is at hand."""
    _, errs, fill = _screen_rows(M, N, ps) if screen is None else screen
    if fill.size:
        errs = np.hstack([errs, level_errors(fill / N, M, ps)])
    return errs.max(axis=1)


def _screen_rows(M: int, N: int, ps: Sequence[float]) -> tuple[np.ndarray, ...]:
    """The rows k of `_screen_plan` whose errors it reads, those errors,
    shape (levels, rows), and the means k it leaves to `level_errors`.

    A row's errors are read from its first three values
    (`_three_value_errors`): `level_errors` bit for bit.  The screen runs
    only where the two values bracketing sigma reach every level, so that
    rule leaves no row open: a row whose value beyond the second comes
    before the far one lies within the floor's reach, and its masses, a
    probe's read from the law too, are past every level.  In a gap within
    one piece (one floor(sigma) and near value) each value's distance moves
    monotonically and each mass flips at most once per level, so with the
    flips' rows in the plan, a gap whose ends share a piece and second value
    and the side of every level by both masses has its errors between its
    ends'.  Every other gap is filled; a fill of more means than
    `_screen_means`, which only a missed flip could ask for, raises.
    """
    ks, piece, near, second, masses, _ = _screen_plan(M, N, ps)
    means, edges = ks / N, _value_edges(M)
    dists = np.abs(edges[np.array([near, second, 2 * near - second]) + 2] - means)
    thresholds = np.asarray(ps, dtype=np.float64)[:, None] - LEVEL_SLACK
    errs, _ = _three_value_errors(dists, masses, thresholds, True)
    short = masses[:, None, :] < thresholds
    sides = (short[..., :-1] == short[..., 1:]).reshape(-1, ks.size - 1)
    keep = (piece[:-1] == piece[1:]) & (second[:-1] == second[1:]) & sides.all(axis=0)
    widths = np.diff(ks)
    gaps = np.flatnonzero(~keep & (widths > 1))
    starts, sizes = ks[gaps] + 1, widths[gaps] - 1
    count, budget = int(sizes.sum()), _screen_means(M, len(ps))
    if count > budget:
        raise ValueError(f"the worst-case screen at M={M}, N={N} would fill {count} "
                         f"means, more than its estimate of {budget}")
    fill = np.arange(count) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return ks, errs, fill


def worst_probabilistic_error(M: int, N: int, p: float) -> ErrorRecord:
    """Maximum level error over every attainable mean k/N, k = 0..N."""
    return worst_probabilistic_errors(M, N, [p])[0]


def avg_probabilistic_errors(
    M: int, N: int, ps: Sequence[float], measure: Measure, beta: float = 2.0
) -> list[ErrorRecord]:
    """Average-case records for several levels from one set of class weights
    and one sweep over the mean grid in the fixed chunks of _CHUNK_CELLS.  A
    chunk whose weights are all zero would add +0.0 to each level's fsum and
    is skipped before its level errors: the `p1` weights are exactly 0.0
    beyond sqrt(373 N) = 19.31 sqrt(N) means either side of N/2 (see
    `class_weights`), so its sweep evaluates a few chunks whatever N."""
    for p in ps:
        _validate_p(p)
    weights = class_weights(measure, N)
    parts: list[list[float]] = [[] for _ in ps]
    for ks in _fixed_slices(N + 1, max(1024, _CHUNK_CELLS // max(M, 1))):
        if not weights[ks].any():
            continue
        means = np.arange(ks.start, ks.stop, dtype=np.float64)
        means /= N
        for level_parts, level_errs in zip(parts, level_errors(means, M, ps)):
            level_parts.append(float(np.dot(weights[ks], level_errs)))
    return [_record(Setting.AVG_PROBABILISTIC, measure, M, N, p, math.fsum(level_parts), beta)
            for p, level_parts in zip(ps, parts)]


def avg_probabilistic_error(
    M: int, N: int, p: float, measure: Measure, beta: float = 2.0
) -> ErrorRecord:
    """Measure-weighted average of the level error over all means k/N."""
    return avg_probabilistic_errors(M, N, [p], measure, beta)[0]


# The paper's statements on the error, keyed by the ref a record carries,
# each a hypothesis on (setting, measure, M, N, p), its bound at (M, N, p,
# beta) and whether that bound is a lower one.  A record attaches the first
# whose hypothesis holds, in this order (`_stated`).
_STATEMENTS = {
    # (3/4) pi/M with probability 8/pi^2
    "ImprovedCor": (lambda setting, measure, M, N, p: setting is Setting.WORST_PROBABILISTIC
                    and abs(p - EIGHT_OVER_PI_SQ) <= 1e-15,
                    lambda M, N, p, beta: 0.75 * math.pi / M, False),
    # the uniform-function average, derived up to 8/pi^2
    "WA4": (lambda setting, measure, M, N, p: measure is Measure.UNIFORM_FUNCTIONS
            and M % 4 == 0 and N >= 2 and p <= EIGHT_OVER_PI_SQ,
            lambda M, N, p, beta: wa4_upper_bound(M, N), False),
    "WAn4": (lambda setting, measure, M, N, p: measure is Measure.UNIFORM_FUNCTIONS
             and M % 4 != 0 and M > 4, lambda M, N, p, beta: wan4_lower_bound(M, N, beta), True),
    # C(p) pi/M at every point, and exactly 1, the trivial bound, above
    # 8/pi^2, where C(p) pi/M is about 1 and may round above it
    "GlobalCor": (lambda *point: True, lambda M, N, p, beta: (
        1.0 if p > EIGHT_OVER_PI_SQ else c_bound(p, M) * math.pi / M), False),
}


def _stated(setting: Setting, measure: Measure | None, M: int, N: int, p: float, value: float,
            beta: float | None = None) -> Iterator[ErrorRecord]:
    """The error value with each statement whose hypothesis holds at
    (setting, measure, M, N, p), one record each, in `_STATEMENTS` order;
    GlobalCor's always holds."""
    for ref, (applies, bound, _) in _STATEMENTS.items():
        if applies(setting, measure, M, N, p):
            yield ErrorRecord(M=M, N=N, p=p, setting=setting, measure=measure, value=value,
                              bound=bound(M, N, p, beta), bound_ref=ref)


def _record(setting: Setting, measure: Measure | None, M: int, N: int, p: float, value: float,
            beta: float | None = None) -> ErrorRecord:
    """The error value with the first statement that applies to it (`_stated`)."""
    return next(_stated(setting, measure, M, N, p, value, beta))


def v_func(delta):
    """sin^2(pi d)/(pi d)^2 with the limit 1 at d = 0; decreasing on [0, 1],
    and inverted on [1/4, 1/2].  A float gives a float; an array gives an
    array, each entry the float's bits."""
    d = np.asarray(delta, dtype=np.float64)
    x = np.pi * d
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sin(x) / x
    v = np.where(np.abs(d) < 1e-9, 1.0 - x**2 / 3.0, s * s)
    return float(v) if v.ndim == 0 else v


def v_inverse(p):
    """Inverse of v on [1/4, 1/2], for p in [4/pi^2, 8/pi^2], by bisection;
    a float gives a float, an array an array.  Every entry takes the same 38
    halvings of [1/4, 1/2] (the width is exact), so an array's entries have
    the floats' bits."""
    x = np.asarray(p, dtype=np.float64)
    if not np.all((FOUR_OVER_PI_SQ - 1e-12 <= x) & (x <= EIGHT_OVER_PI_SQ + 1e-12)):
        raise ValueError(
            f"p must lie in [4/pi^2, 8/pi^2] = [{FOUR_OVER_PI_SQ:.6f}, "
            f"{EIGHT_OVER_PI_SQ:.6f}], got {p}"
        )
    lo, hi = np.full(x.shape, 0.25), np.full(x.shape, 0.5)
    while np.any(hi - lo > 1e-12):
        mid = 0.5 * (lo + hi)
        above = v_func(mid) > x
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    root = 0.5 * (lo + hi)
    return float(root) if root.ndim == 0 else root


@functools.lru_cache(maxsize=64)
def _c_of(p: float) -> float:
    """1 - v^-1(p), built once per level: the records of every sweep at p
    share it."""
    return 1.0 - v_inverse(p)


def c_bound(p: float, M: int) -> float:
    """Sharp constant bound C(p) in the worst-case estimate C(p) * pi / M."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p < FOUR_OVER_PI_SQ:
        return 0.5
    if p <= EIGHT_OVER_PI_SQ:
        return _c_of(p)
    return M / math.pi


def g_func(delta):
    """v(d) + v(1-d); at least 8/pi^2 on [0, 1], with the minimum at d = 1/2.
    A float gives a float, an array an array."""
    return v_func(delta) + v_func(np.subtract(1.0, delta))


def h_func(delta):
    """max(v(d), v(1-d)); at least 8/pi^2 on [0, 1/4] and [3/4, 1].  A float
    gives a float, an array an array."""
    most = np.maximum(v_func(delta), v_func(np.subtract(1.0, delta)))
    return float(most) if most.ndim == 0 else most


def wa4_upper_bound(M: int, N: int) -> float:
    """Average-error upper bound under the uniform-function measure, 4 | M."""
    if M % 4 != 0:
        raise ValueError(f"M must be divisible by 4, got {M}")
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    moment_branch = (
        math.sqrt(3.0 / (2.0 * math.pi))
        * math.sqrt(1.0 + math.pi**2 / (4.0 * M * M))
        * math.exp(1.0 / (12.0 * (N - 1)))
        / math.sqrt(N - 1)
    )
    return min(0.75 * math.pi / M, moment_branch)


def wan4_lower_bound(M: int, N: int, beta: float) -> float:
    """Average-error lower bound under the uniform-function measure, 4 not | M.

    Valid for M > 4 and any beta > 1; the expression may be non-positive when
    the concentration factor loses to the tail term (then it is vacuous).
    """
    if M % 4 == 0:
        raise ValueError(f"M must not be divisible by 4, got {M}")
    if M <= 4:
        raise ValueError(f"M must exceed 4, got {M}")
    if not beta > 1.0:
        raise ValueError(f"beta must exceed 1, got {beta}")
    concentration = 1.0 - 2.0 * math.exp(-N * math.pi**2 / (8.0 * beta * M) ** 2)
    return (math.pi / (4.0 * M)) * (1.0 - 1.0 / M - 1.0 / beta) * concentration


def queries_for_epsilon(epsilon: float, p: float) -> int:
    """Smallest M with guaranteed error <= epsilon at probability p.

    Returns M = ceil(C(p) pi / epsilon), C(p) = 1 - v^-1(p) (`c_bound`); the
    run then uses M - 1 queries.  Requires epsilon in (0, 1) and p in (1/2,
    8/pi^2]; a p at most 1e-12 above 8/pi^2 counts as 8/pi^2.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.5 < p <= EIGHT_OVER_PI_SQ + 1e-12:
        raise ValueError(f"p must lie in (1/2, 8/pi^2], got {p}")
    return math.ceil(c_bound(min(p, EIGHT_OVER_PI_SQ), 1) * math.pi / epsilon)
