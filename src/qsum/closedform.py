"""Exact analytic outcome law of the summation algorithm.

The measured index j in {0..M-1} follows

    p(j) = ( D(j - sigma) + D(j + sigma) ) / 2,
    D(d) = sin^2(pi d) / (M^2 sin^2(pi d / M)),

where sigma = (M/pi) arcsin(sqrt(a)) and D takes its limiting value 1 at
d = 0 mod M.  The reported estimate for outcome j is abar(j) = sin^2(pi j/M).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    One pass in place over a new output buffer and one scratch buffer; the
    argument is never written, and the pole series is evaluated only on the
    cells at the pole.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    d = np.asarray(delta, dtype=np.float64)
    out = np.empty_like(d)               # reduced residual r in [-M/2, M/2]
    np.divide(d, M, out=out)
    np.round(out, out=out)
    np.multiply(M, out, out=out)
    np.subtract(d, out, out=out)
    # the rest runs on 1-D views in memory order, where masks index fast
    r = out.ravel(order="K")
    num = np.empty_like(r)
    small = np.abs(r, out=num) < _POLE_TOL
    pole_r = None
    if small.any():
        pole_r = r[small]
        r[small] = 0.5
    # sin^2(pi r) == sin^2(pi rho) exactly, rho = r - round(r)
    np.round(r, out=num)
    np.subtract(r, num, out=num)
    np.multiply(np.pi, num, out=num)
    np.sin(num, out=num)
    np.square(num, out=num)
    # (M sin(pi r / M))^2, then num / den, in r's buffer
    np.multiply(np.pi, r, out=r)
    np.divide(r, M, out=r)
    np.sin(r, out=r)
    np.multiply(M, r, out=r)
    np.square(r, out=r)
    np.divide(num, r, out=r)
    if pole_r is not None:
        r[small] = 1.0 - (np.pi**2 / 3.0) * (1.0 - 1.0 / (M * M)) * pole_r * pole_r
    return float(out) if out.ndim == 0 else out


def output_grid(M: int) -> np.ndarray:
    """Estimates abar(j) = sin^2(pi j / M) of all M outcomes, with the
    analytically exact points 0, 1/2, 1 exact; the one definition of abar.

    Computed in place on one float buffer, from i = min(j, M - j); the exact
    points j = 0, M/2 and M/4, 3M/4 are set by index.
    """
    out = np.arange(M, dtype=np.float64)
    np.subtract(M, out[M // 2 + 1:], out=out[M // 2 + 1:])
    np.multiply(np.pi, out, out=out)
    np.divide(out, M, out=out)
    np.sin(out, out=out)
    np.square(out, out=out)
    out[:1] = 0.0
    if M > 0 and M % 2 == 0:
        out[M // 2] = 1.0
    if M > 0 and M % 4 == 0:
        out[[M // 4, 3 * M // 4]] = 0.5
    return out


def _snap(sigma: np.ndarray) -> np.ndarray:
    r = np.round(sigma)
    return np.where(np.abs(sigma - r) < SIGMA_INTEGRALITY_TOL, r, sigma)


def outcome_probabilities_at(sigma, j, M: int) -> np.ndarray:
    """Probabilities of outcomes j at sigma, where sigma and j broadcast
    against each other: a column of sigma values against a row of outcomes
    asks every sigma for the same outcomes, a row of K outcomes against a
    row of K sigma values gives each sigma one of its own (each value's mass
    in the level errors); one sigma and one outcome give shape (1,).  Each
    cell is computed on its own, so a cell's value does not depend on which
    other outcomes are asked for.
    """
    s = _snap(np.atleast_1d(np.asarray(sigma, dtype=np.float64)))
    j = np.asarray(j, dtype=np.float64)
    cells = np.empty((2, *np.broadcast_shapes(j.shape, s.shape)))
    np.subtract(j, s, out=cells[0])
    np.add(j, s, out=cells[1])
    kernel = dirichlet_kernel_sq(cells, M)
    probs = np.add(kernel[0], kernel[1], out=kernel[0])
    return np.multiply(0.5, probs, out=probs)


def outcome_probabilities(sigma, M: int) -> np.ndarray:
    """Outcome laws for one or many sigma values; shape (len(sigma), M)."""
    return outcome_probabilities_at(np.reshape(sigma, (-1, 1)), np.arange(M), M)


@dataclass
class OutcomeDistribution:
    """The M outcome probabilities and outputs for a given mean and M."""

    probs: np.ndarray
    outputs: np.ndarray


def distribution(a: float, M: int) -> OutcomeDistribution:
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

