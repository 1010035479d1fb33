"""Exact analytic outcome law of the summation algorithm.

The measured index j in {0..M-1} follows

    p(j) = ( D(j - sigma) + D(j + sigma) ) / 2,
    D(d) = sin^2(pi d) / (M^2 sin^2(pi d / M)),

where sigma = (M/pi) arcsin(sqrt(a)) and D takes its limiting value 1 at
d = 0 mod M.  The reported estimate for outcome j is abar(j) = sin^2(pi j/M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import SigmaValue, sigma_of

__all__ = [
    "SIGMA_INTEGRALITY_TOL",
    "OutcomeDistribution",
    "CeilFloorPair",
    "dirichlet_kernel_sq",
    "output_value",
    "output_grid",
    "outcome_probabilities",
    "outcome_probabilities_at",
    "distribution",
    "sigma_is_integral",
    "ceil_floor_pair",
    "sample",
    "median_amplify",
]

# |sigma - round(sigma)| below this counts as integral.  True probabilities
# vary only quadratically in that residual, so snapping perturbs them by
# O(1e-18) while making the analytically exact cases (a in {0, 1/2, 1}, ...)
# come out bit-exact regardless of libm rounding.
SIGMA_INTEGRALITY_TOL = 1e-9

# Residual below this switches the kernel to its second-order series at the
# 0/0 pole; keeps full precision through the pole neighbourhood.
_POLE_TOL = 1e-9


def dirichlet_kernel_sq(delta, M: int):
    """Normalized squared Dirichlet kernel sin^2(pi d)/(M^2 sin^2(pi d/M)).

    Valid for any real d (scalar or array), with the 0/0 limit handled:
    the value is 1 at d = 0 mod M.  Always lies in [0, 1].
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    d = np.asarray(delta, dtype=np.float64)
    r = d - M * np.round(d / M)          # reduced residual in [-M/2, M/2]
    small = np.abs(r) < _POLE_TOL
    r_safe = np.where(small, 0.5, r)
    rho = r_safe - np.round(r_safe)      # sin^2(pi r) == sin^2(pi rho) exactly
    num = np.sin(np.pi * rho) ** 2
    den = (M * np.sin(np.pi * r_safe / M)) ** 2
    series = 1.0 - (np.pi**2 / 3.0) * (1.0 - 1.0 / (M * M)) * r * r
    out = np.where(small, series, num / den)
    return float(out) if out.ndim == 0 else out


def output_value(j: int, M: int) -> float:
    """Estimate abar(j) = sin^2(pi j / M) reported for outcome j in [0, M)."""
    if not 0 <= j < M:
        raise ValueError(f"outcome must lie in [0, {M}), got {j}")
    i = min(j, M - j)
    if i == 0:
        return 0.0
    if 2 * i == M:
        return 1.0
    if 4 * i == M:
        return 0.5
    return math.sin(math.pi * i / M) ** 2


def output_grid(M: int) -> np.ndarray:
    """All M output values, with the analytically exact points 0, 1/2, 1 exact."""
    j = np.arange(M)
    i = np.minimum(j, M - j)
    out = np.sin(np.pi * i / M) ** 2
    out[4 * i == M] = 0.5
    out[2 * i == M] = 1.0
    out[i == 0] = 0.0
    return out


def sigma_is_integral(sigma: float) -> bool:
    """Whether sigma counts as an integer (exact-output regime)."""
    return abs(sigma - round(sigma)) < SIGMA_INTEGRALITY_TOL


def _snap(sigma: np.ndarray) -> np.ndarray:
    r = np.round(sigma)
    return np.where(np.abs(sigma - r) < SIGMA_INTEGRALITY_TOL, r, sigma)


def outcome_probabilities_at(sigma, j, M: int) -> np.ndarray:
    """Probabilities of outcomes j for one or many sigma values.

    `j` broadcasts against a column of the sigma values: a 1-D array asks
    every sigma for the same outcomes, a (len(sigma), K) array gives each
    sigma its own.  Each cell is computed on its own, so a cell's value does
    not depend on which other outcomes are asked for.
    """
    s = _snap(np.atleast_1d(np.asarray(sigma, dtype=np.float64)))[:, None]
    j = np.asarray(j, dtype=np.float64)
    return 0.5 * (dirichlet_kernel_sq(j - s, M) + dirichlet_kernel_sq(j + s, M))


def outcome_probabilities(sigma, M: int) -> np.ndarray:
    """Outcome laws for one or many sigma values; shape (len(sigma), M)."""
    return outcome_probabilities_at(sigma, np.arange(M), M)


@dataclass
class OutcomeDistribution:
    """The M outcome probabilities and outputs for a given mean and M."""

    M: int
    a: Fraction | float
    sigma: SigmaValue
    probs: np.ndarray
    outputs: np.ndarray


def distribution(a: Fraction | float, M: int) -> OutcomeDistribution:
    """Closed-form outcome distribution for mean a and parameter M >= 1.

    Satisfies sum(probs) = 1 and the j <-> M-j symmetry of both columns;
    when sigma is integral all mass sits on outcomes reporting exactly a.
    """
    sv = sigma_of(a, M)
    probs = outcome_probabilities(sv.sigma, M)[0]
    return OutcomeDistribution(M=M, a=a, sigma=sv, probs=probs, outputs=output_grid(M))


@dataclass(frozen=True)
class CeilFloorPair:
    """Errors and probabilities of the two outputs abar(ceil(sigma)), abar(floor(sigma))."""

    err_up: float
    prob_up: float
    err_down: float
    prob_down: float


def ceil_floor_pair(a: Fraction | float, M: int) -> CeilFloorPair:
    """Error/probability pairs for the outcomes bracketing a non-integral sigma.

    The output abar(ceil(sigma)) also occurs at outcome M - ceil(sigma) (the
    same value), except when ceil(sigma) = M/2 where the two coincide; the
    floor output pairs with M - floor(sigma) except when floor(sigma) = 0,
    which pairs with itself.  Requires M >= 2 and sigma not integral.
    """
    if M < 2:
        raise ValueError(f"M must be >= 2 for a ceil/floor outcome pair, got {M}")
    sv = sigma_of(a, M)
    if sigma_is_integral(sv.sigma):
        raise ValueError(
            f"sigma = {sv.sigma} is integral; the output is exact, no pair exists"
        )
    x = float(a)
    swing = 2.0 * math.sqrt(x * (1.0 - x))
    tilt = 1.0 - 2.0 * x

    def err(frac: float, sign: float) -> float:
        # |abar(j) - a| = |sin(t) sin(2 theta +- t)| expanded; the rounded-up
        # outcome takes +, the rounded-down one -.
        t = math.pi * frac / M
        return abs(math.sin(t) * (swing * math.cos(t) + sign * tilt * math.sin(t)))

    def prob(frac: float, partner: int, degenerate: bool) -> float:
        base = float(dirichlet_kernel_sq(frac, M))
        if degenerate:
            return base
        ratio = math.sin(math.pi * frac / M) ** 2 / math.sin(
            math.pi * (partner + sv.sigma) / M
        ) ** 2
        return base * (1.0 + ratio)

    up = math.ceil(sv.sigma)
    down = math.floor(sv.sigma)
    return CeilFloorPair(
        err_up=err(up - sv.sigma, +1.0),
        prob_up=prob(up - sv.sigma, up, degenerate=2 * up == M),
        err_down=err(sv.sigma - down, -1.0),
        prob_down=prob(sv.sigma - down, down, degenerate=down == 0),
    )


def sample(probs, rng: np.random.Generator, size: int | None = None):
    """Draw outcome indices from a probability vector by inverse CDF.

    Deterministic for a seeded rng.  A draw at or above the rounded total
    mass would land past the last outcome; it takes argmax(probs) instead, so
    an outcome without mass is never returned.
    """
    probs = np.asarray(probs)
    idx = np.searchsorted(np.cumsum(probs), rng.random(size), side="right")
    idx = np.where(idx < probs.size, idx, np.argmax(probs))
    return int(idx) if size is None else idx


def median_amplify(
    a: Fraction | float, M: int, runs: int, rng: np.random.Generator
) -> float:
    """Median output over an odd number of independent runs.

    Repetition drives the success probability of the single-run error bounds
    (>= 8/pi^2 per run) exponentially close to 1.
    """
    if runs < 1 or runs % 2 == 0:
        raise ValueError(f"runs must be a positive odd integer, got {runs}")
    dist = distribution(a, M)
    draws = sample(dist.probs, rng, size=runs)
    return float(np.median(dist.outputs[draws]))
