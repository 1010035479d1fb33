"""Exact analytic outcome law of the summation algorithm.

The measured index j in {0..M-1} follows

    p(j) = ( D(j - sigma) + D(j + sigma) ) / 2,
    D(d) = sin^2(pi d) / (M^2 sin^2(pi d / M)),

where sigma = (M/pi) arcsin(sqrt(a)) and D takes its limiting value 1 at
d = 0 mod M.  The reported estimate for outcome j is abar(j) = sin^2(pi j/M).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boolfn import sigma_of

__all__ = [
    "SIGMA_INTEGRALITY_TOL",
    "OutcomeDistribution",
    "dirichlet_kernel_sq",
    "output_grid",
    "outcome_probabilities",
    "outcome_probabilities_at",
    "distribution",
    "sample",
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


def output_grid(M: int) -> np.ndarray:
    """Estimates abar(j) = sin^2(pi j / M) of all M outcomes, with the
    analytically exact points 0, 1/2, 1 exact; the one definition of abar."""
    j = np.arange(M)
    i = np.minimum(j, M - j)
    out = np.sin(np.pi * i / M) ** 2
    out[4 * i == M] = 0.5
    out[2 * i == M] = 1.0
    out[i == 0] = 0.0
    return out


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

    probs: np.ndarray
    outputs: np.ndarray


def distribution(a: Fraction | float, M: int) -> OutcomeDistribution:
    """Closed-form outcome distribution for mean a and parameter M >= 1.

    Satisfies sum(probs) = 1 and the j <-> M-j symmetry of both columns;
    when sigma is integral all mass sits on outcomes reporting exactly a.
    """
    probs = outcome_probabilities(sigma_of(a, M).sigma, M)[0]
    return OutcomeDistribution(probs=probs, outputs=output_grid(M))


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

