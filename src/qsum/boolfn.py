"""Boolean functions on {0..N-1}, their means, and measures on the function space.

The domain size is always a power of two, N = 2**n, so a mean k/N is a
float, exact in binary64 up to n = 53 (sweeps reach n = 24, and a screened
worst case n = 30); the closed form decides integrality on the float sigma,
not on the mean.  Two probability measures on the set of Boolean functions
are supported: uniform over the 2**N functions ("p1") and uniform over the
N+1 attainable means ("p2").
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BooleanFunction",
    "Measure",
    "SigmaValue",
    "sigma_of",
    "sigmas_of",
    "class_weights",
    "first_moment",
]

# Below this, min(k, N-k) is small enough that exact big-integer binomials
# are cheap; above it the log-space Stirling form holds a normal weight to a
# relative 1.4e-14 at N = 2**8 and 5.9e-13 at 2**14 (`_log_weights_stirling`).
_EXACT_TAIL = 64

# Means per slice of the Stirling middle of `class_weights`, which spans at
# most 2 sqrt(373 N) + 3 means around N/2 (three slices at N = 2**20, ten at
# 2**24).  Its temporaries, about nine per mean, then stay near 1 MiB however
# large N is, an eighth of the weight array at N = 2**20; every operation is
# elementwise, so the slices change no bit.  Slices of 2**12 means made the
# call 20-25 % slower at N = 2**20 and 2**24.
_WEIGHT_SLICE = 1 << 14


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(digits: str) -> tuple[int, ...]:
    """The values of a string of '0'/'1' digits, translated in C: at N = 2**20
    about ten times faster than int() per digit."""
    return tuple(digits.encode().translate(_BIT_VALUES))


class Measure(Enum):
    """Probability measure on the set of Boolean functions with domain size N."""

    UNIFORM_FUNCTIONS = "p1"  # every function has weight 2**-N
    UNIFORM_MEANS = "p2"      # every mean class k/N has weight 1/(N+1)


@dataclass(frozen=True)
class BooleanFunction:
    """A function f: {0..2**n - 1} -> {0, 1}, stored as its value table."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"qubit count must be >= 0, got {self.n}")
        if len(self.values) != 1 << self.n:
            raise ValueError(
                f"value table must have length 2**{self.n} = {1 << self.n}, "
                f"got {len(self.values)}"
            )
        if not set(self.values) <= {0, 1}:
            raise ValueError("value table entries must be 0 or 1")

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def mean(self) -> float:
        """Arithmetic mean of the table, popcount/N, exact as a float."""
        return sum(self.values) / self.N

    @classmethod
    def from_mean(cls, n: int, k: int) -> "BooleanFunction":
        """Canonical function with mean k/2**n: the first k points map to 1.

        Every quantity in this package depends on f only through its mean,
        so enumerating k stands in for enumerating all 2**N functions.
        """
        N = 1 << n
        if not 0 <= k <= N:
            raise ValueError(f"k must be in [0, {N}], got {k}")
        return cls(n, (1,) * k + (0,) * (N - k))

    @classmethod
    def from_hex(cls, n: int, text: str) -> "BooleanFunction":
        """Parse the serialized table: hex for N >= 4, one '0'/'1' per point below.

        Hex strings carry the most significant nibble first, i.e. the bit for
        point i is bit N-1-i of the encoded integer.  A leading "0x" and
        uppercase digits are accepted; any other character (a sign, an
        underscore, a space, a second "0x") is rejected.
        """
        N = 1 << n
        if N < 4:
            if len(text) != N or any(c not in "01" for c in text):
                raise ValueError(f"expected {N} binary digits, got {text!r}")
            return cls(n, _bits(text))
        body = text[2:] if text[:2].lower() == "0x" else text
        if len(body) != N // 4:
            raise ValueError(
                f"expected {N // 4} hex digits for n={n}, got {len(body)}"
            )
        bad = set(body) - set(string.hexdigits)
        if bad:
            raise ValueError(f"malformed hex table: {min(bad)!r} is not a hex digit")
        # One binary rendering is linear in N; shifting the whole word once per
        # point would be quadratic.
        return cls(n, _bits(format(int(body, 16), f"0{N}b")))

    def table(self) -> np.ndarray:
        return np.array(self.values, dtype=np.int8)


@dataclass(frozen=True)
class SigmaValue:
    """The angle theta = arcsin(sqrt(a)) of a mean a and the rescaled angle
    sigma = M*theta/pi in [0, M/2]."""

    sigma: float
    theta: float


def sigma_of(a: float, M: int) -> SigmaValue:
    """Map a mean a in [0,1] to its sigma value for parameter M >= 1.

    sigma is strictly increasing in a, with sigma(0) = 0 and sigma(1) = M/2;
    a may be anything float() accepts.  M*theta/pi rounds differently from
    the M/pi scaling of `sigmas_of`, and math.asin from np.arcsin, so the two
    are kept apart: merging them would change the laws `distribution` gives.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    x = float(a)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"mean must lie in [0, 1], got {a}")
    theta = math.asin(math.sqrt(x))
    return SigmaValue(sigma=M * theta / math.pi, theta=theta)


def sigmas_of(means: np.ndarray, M: int) -> np.ndarray:
    """`sigma_of` for an array of means, (M/pi) arcsin(sqrt(a)), which may
    differ from it in the last bit (see there).  sqrt allocates the one new
    array of the means' size, and arcsin and the scaling run in place."""
    sigma = np.sqrt(means)
    np.arcsin(sigma, out=sigma)
    sigma *= M / math.pi
    return sigma


def _stirling_tail(x: np.ndarray) -> np.ndarray:
    # Remainder J(x) in ln x! = x ln x - x + ln(2 pi x)/2 + J(x); three terms
    # leave an error below 1/(1680*64**7) ~ 1e-16 for x >= 64.
    x2 = x * x
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * x2)) / x2) / x


def _log_weights_stirling(N: int, ks: np.ndarray) -> np.ndarray:
    """ln(C(N,k) * 2**-N) for 64 <= k <= N-64, without cancellation.

    A direct lgamma difference loses ~1e-9 absolute at N = 2**20, which would
    break the 1e-12 weight-sum contract; the exponent is written through
    log1p(+-t) with t = 2k/N - 1 instead.  Against exact big-integer
    binomials, the largest relative error of a normal (not subnormal) weight
    was 1.4e-14 at N = 2**8, 1.4e-13 at 2**10, 2.9e-13 at 2**12 and 5.9e-13
    at 2**14, and 1.4e-14 to 8.5e-14 within 3 sqrt(N) of N/2 (x86-64, numpy
    2.4; the bits follow numpy's SIMD dispatch).  The cause is cancellation:
    (1+t) log1p(t) + (1-t) log1p(-t) is about t**2, formed from two terms of
    size t, and then multiplied by N.  A subnormal tail weight carries only
    binary64's own few bits.
    """
    ks = np.asarray(ks, dtype=np.float64)
    t = (2.0 * ks - N) / N
    gap = -0.5 * ((1.0 + t) * np.log1p(t) + (1.0 - t) * np.log1p(-t))
    base = N * gap - 0.5 * np.log(0.5 * math.pi * N * (1.0 - t * t))
    return base + _stirling_tail(np.float64(N)) - _stirling_tail(ks) - _stirling_tail(N - ks)


def _weight_uniform_functions(N: int, k: int) -> float:
    if min(k, N - k) < _EXACT_TAIL:
        # int / int rounds the exact ratio once, with no gcd of huge integers
        return math.comb(N, k) / (1 << N)
    return float(np.exp(_log_weights_stirling(N, np.array([k], dtype=np.float64))[0]))


def class_weights(measure: Measure, N: int) -> np.ndarray:
    """All N+1 class weights at once; sums to 1 within 1e-12 up to N = 2**20.

    Under the uniform-means measure every weight is 1/(N+1): a read-only
    view of that one value, so no N+1 array is stored.  Under the
    uniform-function measure only the means within isqrt(373 N) + 1 of N/2
    are evaluated: every weight farther than sqrt(373 N) = 19.31 sqrt(N)
    from N/2 is exactly 0.0.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if measure is Measure.UNIFORM_MEANS:
        return np.broadcast_to(1.0 / (N + 1), (N + 1,))
    w = np.zeros(N + 1)
    # Every weight with x = |k - N/2| >= sqrt(373 N) is 0.0 in binary64, so
    # only the means within `reach` of N/2 are evaluated.  Where x**2 >= 373 N
    # both forms' logs are at most -746 + 1/(12N):
    # - the exact form obeys Hoeffding's bound C(N, k) 2**-N <= exp(-2x**2/N),
    #   and int / int rounds correctly;
    # - for 64 <= k <= N-64 the Stirling log is at most -2x**2/N + 1/(12N),
    #   since (1+t) ln(1+t) + (1-t) ln(1-t) >= t**2, pi N (1 - t**2)/2 >= 1
    #   and 0 < J(m) <= 1/(12m).
    # binary64 rounds anything below 2**-1075 ~ e**-745.13 to 0.0, so
    # 373 = ceil(1075 ln 2 / 2) leaves a margin of 0.87 in the exponent.
    reach = math.isqrt(373 * N) + 1
    lo = max(0, (N + 1) // 2 - reach)
    edge = min(_EXACT_TAIL, (N + 2) // 2)
    for k in range(lo, edge):
        w[k] = w[N - k] = _weight_uniform_functions(N, k)
    start = max(lo, edge)
    stop = N + 1 - start
    for at in range(start, stop, _WEIGHT_SLICE):
        end = min(at + _WEIGHT_SLICE, stop)
        np.exp(_log_weights_stirling(N, np.arange(at, end, dtype=np.float64)), out=w[at:end])
    return w


def first_moment(measure: Measure, N: int) -> float:
    """First central moment of the mean, E|a - 1/2|, under the measure.

    For the uniform-function measure this is the closed form
    2**-N * C(N-1, (N-1)/2) for odd N and 2**-(N+1) * C(N, N/2) for even N;
    it decays like 1/sqrt(2 pi N).  For the uniform-mean measure the direct
    sum is used; it tends to 1/4.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if measure is Measure.UNIFORM_MEANS:
        ks = np.arange(N + 1, dtype=np.float64)
        return float(np.abs(0.5 - ks / N).sum() / (N + 1))
    if N % 2 == 1:
        return 0.5 * _weight_uniform_functions(N - 1, (N - 1) // 2)
    return 0.5 * _weight_uniform_functions(N, N // 2)
