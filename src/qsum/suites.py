"""Named verification suites: exhaustive numerical checks of every claimed
property, runnable from the command line and reused by the test suite.

Each check compares an implementation path against either an independent
oracle (brute-force subset search, direct complex sums, big-integer
binomials, sequential operator application) or an analytic inequality.  A
suite is a generator that yields each check as (name, passed, detail), the
detail giving the observed extremal quantity; `run_suite` is the one place
that turns them into `CheckResult`s.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .boolfn import BooleanFunction, Measure, class_weights, first_moment, sigma_of, sigmas_of
from .bounds import (
    EIGHT_OVER_PI_SQ,
    FOUR_OVER_PI_SQ,
    LEVEL_SLACK,
    _STATEMENTS,
    _brackets_reach,
    _first_values,
    _floor_reach,
    _full_level_errors,
    _full_worst_errors,
    _lead_masses,
    _screen_rows,
    _screened_worst_errors,
    _screens,
    _stated,
    _value_edges,
    avg_probabilistic_errors,
    g_func,
    h_func,
    level_errors,
    queries_for_epsilon,
    v_func,
    v_inverse,
    worst_probabilistic_errors,
)
from .closedform import (
    dirichlet_kernel_sq,
    distribution,
    outcome_probabilities,
    output_grid,
)
from .simulator import (
    Primitive,
    QubitLayout,
    StateVector,
    apply_grover,
    apply_lambda,
    apply_primitive,
    apply_standard_query,
    grover_eigenvectors,
    grover_spectrum,
    run_qs_batch,
)

__all__ = [
    "CheckResult",
    "SUITE_NAMES",
    "run_suite",
    "kernel_direct_sum",
    "brute_force_errors_at_levels",
    "gate_grid_deviation",
    "level_error_mismatches",
    "screen_mismatches",
    "screen_row_mismatches",
    "nested_grid_worst",
]

@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


# What a suite yields per check: (name, passed, detail); passed may be np.bool_.
Checks = Iterator[tuple[str, bool, str]]


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def kernel_direct_sum(omega1: float, omega2: float, M: int) -> float:
    """|sum_j exp(-2 pi i (w1-w2) j)|^2 / M^2 evaluated term by term."""
    delta = omega1 - omega2
    total = sum(cmath.exp(-2j * math.pi * delta * j) for j in range(M))
    return abs(total) ** 2 / M**2


def brute_force_errors_at_levels(a, M: int, ps) -> list[float]:
    """For each p: min over outcome sets A with mass >= p of max_{j in A} |abar(j) - a|.

    Exhaustive over all 2^M - 1 nonempty subsets, enumerated once for every
    level; only usable for small M.
    """
    dist = distribution(a, M)
    d = np.abs(dist.outputs - float(a))
    best = [math.inf] * len(ps)
    for size in range(1, M + 1):
        for subset in combinations(range(M), size):
            idx = list(subset)
            mass = dist.probs[idx].sum()
            reached = [k for k, p in enumerate(ps) if mass >= p - LEVEL_SLACK]
            if reached:
                radius = float(d[idx].max())
                for k in reached:
                    best[k] = min(best[k], radius)
    return best


def gate_grid_deviation(n_max: int = 6, m_max: int = 16) -> tuple[float, float, bool]:
    """Sweep every (n <= n_max, M <= m_max, k) and compare the simulator
    marginal with the closed form; each (n, M) runs all N+1 canonical
    functions in one batch.

    Returns (max |gate - closed-form| over the grid, max tail probability,
    whether query/qubit accounting matched everywhere).
    """
    max_dev = 0.0
    max_tail = 0.0
    accounting_ok = True
    for n in range(1, n_max + 1):
        N = 1 << n
        tables = np.stack([BooleanFunction.from_mean(n, k).table() for k in range(N + 1)])
        for M in range(1, m_max + 1):
            batch = run_qs_batch(n, M, tables)
            probs = outcome_probabilities([sigma_of(k / N, M).sigma for k in range(N + 1)], M)
            max_dev = max(max_dev, float(np.abs(batch.probabilities[:, :M] - probs).max()))
            if batch.probabilities.shape[1] > M:
                max_tail = max(max_tail, float(batch.probabilities[:, M:].max()))
            if batch.queries != M - 1 or batch.qubits != n + math.ceil(math.log2(M)):
                accounting_ok = False
    return max_dev, max_tail, accounting_ok


# ---------------------------------------------------------------------------
# Differentials of the fast paths against their oracles, for suites and tests
# ---------------------------------------------------------------------------

# levels at or below 8/pi^2, where the pair pass decides most rows
PAIR_LEVELS = (FOUR_OVER_PI_SQ, 0.51, 0.75, EIGHT_OVER_PI_SQ)
# levels above it, where most rows walk on
WALK_LEVELS = (0.9, 0.99, 1.0)
# every level of the level-error differential, and one a single cell reaches
LEVELS = (1e-13, *PAIR_LEVELS, *WALK_LEVELS)
# the M of the bounds check on level errors; the tests add larger ones
LEVEL_ERROR_MS = (*range(1, 13), 16, 17, 22, 38, 64, 65, 236)


def _near_integer_means(M: int) -> np.ndarray:
    """20 seeded means whose sigma lies on an integer or within 1e-10 to
    1e-3 of one, where the first value carries nearly all the mass."""
    rng = np.random.default_rng(M)
    sigma = rng.integers(0, M // 2 + 1, size=20) + rng.choice(
        [-1e-3, -1e-5, -1e-7, -1e-10, 0.0, 1e-10, 1e-7, 1e-5, 1e-3], size=20)
    return np.sin(np.pi * np.clip(sigma, 0.0, M / 2) / M) ** 2


def _law_bound_edges(M: int) -> np.ndarray:
    """Means where the law's lower bounds stop deciding a row of the pair
    pass.  sigma at n +/- reach(p - LEVEL_SLACK) (`_floor_reach`) for each
    level p of LEVELS that has a reach, at two seeded value indices n, with
    the means an ulp either side; and 1e-6, 1e-4 and 5e-4 beyond, where the
    first value's mass falls short.  And sigma on half-integers, an ulp
    either side too, where the two values bracketing sigma carry the least
    mass, nearest 8/pi^2 (`_brackets_reach`)."""
    def means_at(sigma):
        return np.sin(np.pi * np.clip(sigma, 0.0, M / 2) / M) ** 2

    n = np.random.default_rng(M + 2).integers(0, M // 2 + 1, size=(2, 1))
    reach = [r for r in (_floor_reach(p - LEVEL_SLACK) for p in LEVELS) if r >= 0.0]
    past = [s * (r + d) for s in (1, -1) for r in reach for d in (1e-6, 1e-4, 5e-4)]
    halves = np.arange(M // 2 + 1)[:: max(1, M // 24)] + 0.5
    edges = means_at(np.concatenate([(n + [*reach, *(-r for r in reach)]).ravel(), halves]))
    return np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0),
                           means_at((n + past).ravel())])


def _level_means(M: int) -> np.ndarray:
    """Means at the edges of the pair pass and the walk: a in {0, 1/2, 1};
    means between the two lowest and the two highest values, where a value
    has one outcome (i = 0, and i = M/2 at even M) on the near or the far
    side; up to about 64 midpoints of adjacent values, where two distances
    nearly or exactly tie (at a = 1/2 and M = 2 mod 4, exactly); near-
    integer sigma; the edges of the law's lower bounds (`_law_bound_edges`);
    and seeded random means."""
    v = output_grid(M)[: M // 2 + 1]
    ends = np.concatenate([np.linspace(0.0, v[min(2, v.size - 1)], 13),
                           np.linspace(v[max(v.size - 3, 0)], 1.0, 13)])
    mids = 0.5 * (v[:-1] + v[1:])
    return np.concatenate([[0.0, 0.5, 1.0], ends, mids[:: max(1, mids.size // 64)],
                           _near_integer_means(M), _law_bound_edges(M),
                           np.random.default_rng(M + 1).random(30)])


def _running_masses(means: np.ndarray, M: int) -> np.ndarray:
    """Each row's running mass after its first value and after its first
    two, as the pair pass sums them; shape (2, rows)."""
    sigma = sigmas_of(means, M)
    _, near, second, *_ = _first_values(means, sigma, _value_edges(M))
    return _lead_masses(sigma, near, second, M, np.arange(means.size),
                        np.ones(means.size, dtype=bool))


def _lead_mass_levels(M: int) -> list[float]:
    """The levels within an ulp of LEVEL_SLACK above a near-integer row's
    running mass after its first value or its first two, where the pair
    pass decides whether the row goes on."""
    p = np.concatenate(_running_masses(_near_integer_means(M), M)) + LEVEL_SLACK
    levels = np.concatenate([np.nextafter(p, 0.0), p, np.nextafter(p, 2.0)])
    return sorted(set(levels[(levels > 0.0) & (levels <= 1.0)].tolist()))


def _level_sets(M: int) -> list:
    """Each level of LEVELS alone, PAIR_LEVELS, LEVELS, and last two seeded sets."""
    rng = np.random.default_rng(M)
    return [*([p] for p in LEVELS), PAIR_LEVELS, LEVELS,
            rng.uniform(0.3, 0.995, 2).tolist(), sorted(rng.uniform(0.05, 1.0, 4))]


def level_error_mismatches(means: np.ndarray, M: int, level_sets, counts=None) -> int:
    """The (count, level set) pairs at which `level_errors` on the first
    count means (all by default) gives other bits than the full sort
    `_full_level_errors`, whose rows are independent: one call answers all."""
    full = _full_level_errors(means, M, [p for ps in level_sets for p in ps])
    differ = 0
    for count in [means.size] if counts is None else counts:
        start = 0
        for ps in level_sets:
            got = level_errors(means[:count], M, ps).view(np.int64)
            differ += not np.array_equal(got, full[start:start + len(ps), :count].view(np.int64))
            start += len(ps)
    return differ


def screen_mismatches(sweeps) -> tuple[int, int, int]:
    """(mismatches, screened, forced) of worst-case sweeps {(M, N, ps):
    records} against the dense `_full_worst_errors` in float.hex; a sweep
    that stayed dense where a screen may run (`_brackets_reach`) is screened
    here too, and a screen also differs where one of its rows does
    (`screen_row_mismatches`), both from one `_screen_rows` call."""
    differ = screened = forced = 0
    for (M, N, ps), recs in sweeps.items():
        full = list(map(float.hex, _full_worst_errors(M, N, ps)))
        differ += [rec.value.hex() for rec in recs] != full
        if not _brackets_reach(M, ps):
            continue
        screen = _screen_rows(M, N, ps)
        if _screens(M, N, ps):
            screened += 1
        else:
            differ += list(map(float.hex, _screened_worst_errors(M, N, ps, screen))) != full
            forced += 1
        differ += screen_row_mismatches(M, N, ps, screen) > 0
    return differ, screened, forced


def screen_row_mismatches(M: int, N: int, ps, screen=None) -> int:
    """The rows whose errors the worst-case screen at (M, N, ps) reads
    (`_screen_rows`, or its result `screen`) with other bits than
    `level_errors` gives, at any level."""
    ks, errs, _ = _screen_rows(M, N, ps) if screen is None else screen
    want = level_errors(ks / N, M, ps)
    return int(np.count_nonzero((errs.view(np.int64) != want.view(np.int64)).any(axis=0)))


def nested_grid_worst(M: int) -> tuple[int, float]:
    """(falls, largest ratio to C(p) pi / M) of the worst case at M along
    N = 2^12..2^30, p in {0.51, 0.75, 8/pi^2}.  Each mean k/2^n is the mean
    2k/2^(n+1), so it falls from one grid to the next only if a screen
    missed a mean."""
    levels = (0.51, 0.75, EIGHT_OVER_PI_SQ)
    rows = np.array([[rec.value for rec in worst_probabilistic_errors(M, 1 << n, levels)]
                     for n in range(12, 31)])
    falls = int(np.count_nonzero(np.diff(rows, axis=0) < 0.0))
    _, sharp, _ = _STATEMENTS["GlobalCor"]
    return falls, float((rows / [sharp(M, None, p, None) for p in levels]).max())


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _suite_unitarity() -> Checks:
    rng = np.random.default_rng(20240901)

    drift = 0.0
    for n, M in ((3, 6), (4, 5), (2, 8), (5, 1)):
        layout = QubitLayout(n=n, M=M)
        f = BooleanFunction(n, tuple(int(b) for b in rng.integers(0, 2, 1 << n)))
        state = StateVector.random(layout, rng)
        for op in (Primitive.QFT, Primitive.WALSH_HADAMARD, Primitive.S0,
                   Primitive.QFT_INVERSE):
            apply_primitive(state, op)
            drift = max(drift, abs(state.norm() - 1.0))
        apply_primitive(state, Primitive.QUERY, f)
        drift = max(drift, abs(state.norm() - 1.0))
        apply_grover(state, f)
        drift = max(drift, abs(state.norm() - 1.0))
        apply_lambda(state, f)
        drift = max(drift, abs(state.norm() - 1.0))
    yield ("norm preservation across all operators", drift <= 1e-10,
           f"max |norm-1| = {drift:.3e} (tol 1e-10)")

    layout = QubitLayout(n=4, M=1)
    dev = 0.0
    for _ in range(5):
        state = StateVector.random(layout, rng)
        ref = state.amplitudes.copy()
        apply_primitive(state, Primitive.WALSH_HADAMARD)
        apply_primitive(state, Primitive.WALSH_HADAMARD)
        dev = max(dev, float(np.abs(state.amplitudes - ref).max()))
    yield ("Walsh-Hadamard is an involution", dev <= 1e-12,
           f"max deviation {dev:.3e} (tol 1e-12)")

    layout = QubitLayout(n=2, M=6)
    dev = 0.0
    for _ in range(5):
        state = StateVector.random(layout, rng)
        ref = state.amplitudes.copy()
        apply_primitive(state, Primitive.QFT)
        apply_primitive(state, Primitive.QFT_INVERSE)
        dev = max(dev, float(np.abs(state.amplitudes - ref).max()))
    yield ("Fourier block times its inverse is identity", dev <= 1e-12,
           f"max deviation {dev:.3e} (tol 1e-12, M=6 on 3 index qubits)")

    dev = 0.0
    for _ in range(5):
        n = 3
        f = BooleanFunction(n, tuple(int(b) for b in rng.integers(0, 2, 1 << n)))
        layout = QubitLayout(n=n + 1, M=1)
        data = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        data /= np.linalg.norm(data)
        ancilla = np.array([-1.0, 1.0]) / math.sqrt(2.0)  # (|1> - |0>)/sqrt(2)
        state = StateVector(np.kron(data, ancilla), layout)
        apply_standard_query(state, f)
        expected = np.kron(data * (1.0 - 2.0 * f.table()), ancilla)
        dev = max(dev, float(np.abs(state.amplitudes - expected).max()))
    yield ("XOR query with prepared ancilla equals sign query", dev <= 1e-12,
           f"max deviation {dev:.3e} (tol 1e-12)")

    dev = 0.0
    for n, k in ((3, 3), (3, 1), (4, 7), (5, 16)):
        f = BooleanFunction.from_mean(n, k)
        spec = grover_spectrum(k / (1 << n))
        ones = f.table() == 1
        psi0 = np.where(~ones, 1.0 / math.sqrt(1 << n), 0.0).astype(complex)
        psi1 = np.where(ones, 1.0 / math.sqrt(1 << n), 0.0).astype(complex)
        for col, basis in enumerate((psi0, psi1)):
            state = StateVector(basis.copy(), QubitLayout(n=n, M=1))
            apply_grover(state, f)
            expected = (spec.subspace_matrix[0, col] * psi0
                        + spec.subspace_matrix[1, col] * psi1)
            dev = max(dev, float(np.abs(state.amplitudes - expected).max()))
    yield ("Grover action on the invariant plane matches its 2x2 matrix",
           dev <= 1e-12, f"max deviation {dev:.3e} (tol 1e-12)")

    dev = 0.0
    for n, k in ((3, 1), (3, 5), (4, 9), (6, 31)):
        f = BooleanFunction.from_mean(n, k)
        spec = grover_spectrum(k / (1 << n))
        plus, minus = grover_eigenvectors(f)
        for vec, lam in ((plus, spec.lambda_plus), (minus, spec.lambda_minus)):
            state = StateVector(vec.copy(), QubitLayout(n=n, M=1))
            apply_grover(state, f)
            dev = max(dev, float(np.linalg.norm(state.amplitudes - lam * vec)))
    yield ("eigenvector relation Q psi = lambda psi", dev <= 1e-10,
           f"max residual norm {dev:.3e} (tol 1e-10)")

    dev = 0.0
    for n, k in ((3, 0), (3, 8), (3, 3), (4, 7), (2, 2)):
        f = BooleanFunction.from_mean(n, k)
        theta = sigma_of(k / (1 << n), 1).theta
        plus, minus = grover_eigenvectors(f)
        uniform = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex)
        recon = (-1j / math.sqrt(2.0)) * (
            cmath.exp(1j * theta) * plus - cmath.exp(-1j * theta) * minus
        )
        dev = max(dev, float(np.abs(recon - uniform).max()))
    yield ("uniform state decomposes over the eigenvectors", dev <= 1e-10,
           f"max deviation {dev:.3e} (tol 1e-10, includes means 0 and 1)")


def _suite_oracle_equivalence() -> Checks:
    max_dev, max_tail, accounting_ok = gate_grid_deviation()
    yield ("gate marginal equals closed form on the full grid", max_dev <= 1e-9,
           f"max deviation {max_dev:.3e} (tol 1e-9, n<=6, M<=16, all k)")
    yield ("outcomes beyond M-1 carry no mass", max_tail <= 1e-12,
           f"max tail probability {max_tail:.3e} (tol 1e-12)")
    yield ("every run reports M-1 queries and n+ceil(log2 M) qubits",
           accounting_ok, "exact match required")

    worst_gap = 0.0
    cases = [(0.0, M) for M in range(1, 17)] + [(1.0, M) for M in range(2, 17, 2)]
    cases += [(0.5, M) for M in range(4, 65, 4)]
    for a, M in cases:
        dist = distribution(a, M)
        mass = dist.probs[np.abs(dist.outputs - a) <= 1e-12].sum()
        worst_gap = max(worst_gap, abs(mass - 1.0))
    yield ("integral sigma puts all mass on the exact output", worst_gap <= 1e-12,
           f"max |mass-1| = {worst_gap:.3e} (a in {{0, 1, 1/2}} families, tol 1e-12)")

    norm_gap = 0.0
    sym_gap = 0.0
    means = np.arange((1 << 10) + 1) / (1 << 10)
    for M in range(1, 65):
        probs = outcome_probabilities(sigmas_of(means, M), M)
        norm_gap = max(norm_gap, float(np.abs(probs.sum(axis=1) - 1.0).max()))
        if M > 1:
            sym_gap = max(sym_gap, float(np.abs(probs[:, 1:] - probs[:, :0:-1]).max()))
            outputs = output_grid(M)
            sym_gap = max(sym_gap, float(np.abs(outputs[1:] - outputs[:0:-1]).max()))
    yield ("distributions are normalized", norm_gap <= 1e-12,
           f"max |sum-1| = {norm_gap:.3e} (N=2^10, M<=64, tol 1e-12)")
    yield ("probabilities and outputs are symmetric under j -> M-j",
           sym_gap <= 1e-12, f"max asymmetry {sym_gap:.3e} (tol 1e-12)")

    min_mass = 1.0
    N = 64
    for M in range(2, 17):
        sigmas = [sigma_of(k / N, M).sigma for k in range(N + 1)]
        for sigma, probs in zip(sigmas, outcome_probabilities(sigmas, M)):
            lo, hi = math.floor(sigma), math.ceil(sigma)
            picks = {lo % M, hi % M, (M - lo) % M, (M - hi) % M}
            min_mass = min(min_mass, float(probs[list(picks)].sum()))
    yield ("the four outcomes bracketing sigma carry mass >= 8/pi^2",
           min_mass >= EIGHT_OVER_PI_SQ - 1e-12,
           f"min mass {min_mass:.6f} >= {EIGHT_OVER_PI_SQ:.6f}")


def _suite_bounds() -> Checks:
    N12 = 1 << 12

    dist_excess = max(abs(float(outputs[j]) - k / 64) - math.pi * abs(j - sigma) / M
                      for M in range(2, 65) for outputs in [output_grid(M)] for k in range(65)
                      for sigma in [sigma_of(k / 64, M).sigma]
                      for j in (math.floor(sigma), math.ceil(sigma)))
    yield ("bracketing outputs lie within pi |j - sigma| / M of the mean",
           dist_excess <= 1e-15,
           f"max (error - pi |j - sigma| / M) = {dist_excess:.3e} at j = floor, ceil "
           f"of sigma (M = 2..64, N = 64, tol 1e-15)")

    levels = [0.51, 0.6, 0.75, EIGHT_OVER_PI_SQ]
    swept = {(M, N, tuple(levels)): worst_probabilistic_errors(M, N, levels)
             for N in (1 << 2, 1 << 8, N12, 1 << 20) for M in range(2, 65)
             if N < 1 << 20 or M == 64}
    worst = [rec for recs in swept.values() for rec in recs]
    improved = [rec for rec in worst if rec.N == N12 and rec.p == EIGHT_OVER_PI_SQ]
    yield ("worst error at p = 8/pi^2 stays below (3/4) pi / M",
           all(rec.bound_ref == "ImprovedCor" and rec.bound_holds for rec in improved),
           f"max (value - bound) = {max(rec.value - rec.bound for rec in improved):.3e} "
           f"over M = 2..64, N = 2^12")

    # every statement that applies at a record, not only the one it carries:
    # WA4 is derived up to 8/pi^2, so above it a p1 record at 4 | M meets
    # GlobalCor alone
    wide = [*levels, 0.85, 0.9, 0.99]
    grid = [(M, N) for N in (1, 2, 16, 256) for M in [*range(1, 21), 32, 36, 64]]
    attached = [rec for M, N in grid for rec in worst_probabilistic_errors(M, N, wide)]
    attached += [rec for M, N in grid for measure in Measure
                 for rec in avg_probabilistic_errors(M, N, wide, measure)]
    # WAn4 is positive only for N > (8 beta M)^2 ln 2 / pi^2, far above the
    # grid's N: these points give it records that can fail
    attached += [rec for M in range(5, 20) if M % 4 != 0
                 for rec in avg_probabilistic_errors(M, 1 << 13, levels,
                                                     Measure.UNIFORM_FUNCTIONS)]
    # WAn4 at beta = 2, with which the average records were built
    stated = [rec for each in [*worst, *attached] for rec in _stated(
        each.setting, each.measure, each.M, each.N, each.p, each.value, 2.0)]
    refs = sorted(Counter(rec.bound_ref for rec in stated).items())
    wan4 = [rec.bound > 0.0 for rec in stated if rec.bound_ref == "WAn4"]
    yield ("every attached bound holds at p <= 0.99",
           all(rec.bound_holds for rec in stated) and any(wan4),
           f"{len(worst) + len(attached)} records under every statement that applies: "
           f"{', '.join(f'{ref} {n}' for ref, n in refs)} ({sum(wan4)} WAn4 positive, "
           f"{wan4.count(False)} non-positive); worst cases at M = 2..64, N in "
           f"{{2^2,2^8,2^12}} and M = 64, N = 2^20 up to 8/pi^2; both settings at N in "
           f"{{1,2,16,256}}, M in 1..20,32,36,64 up to 0.99; N = 2^13 under p1 at M in 5..19 "
           f"with 4 not | M up to 8/pi^2")

    _, sharp, _ = _STATEMENTS["GlobalCor"]
    ratios = [rec.value / sharp(64, rec.N, rec.p, None)
              for rec in swept[64, 1 << 20, tuple(levels)]]
    yield ("worst error at M=64, N=2^20 sits in [0.85, 1.0] of the sharp rate",
           min(ratios) >= 0.85 and max(ratios) <= 1.0,
           f"ratios {', '.join(f'{r:.6f}' for r in ratios)}")

    subset_levels = (0.51, 0.75, EIGHT_OVER_PI_SQ)
    gap = max(float(np.abs(errs - brute_force_errors_at_levels(k / 16, M, subset_levels)).max())
              for M in range(1, 11)
              for k, errs in enumerate(level_errors(np.arange(17) / 16, M, subset_levels).T))
    yield ("greedy level error equals exhaustive subset minimum",
           gap <= 1e-12, f"max |greedy - brute force| = {gap:.3e} (M<=10, a=k/16)")

    # at even M, j -> M/2 - j carries the law at a onto the law at 1 - a and
    # each estimate onto one minus it, so the errors at k/N and (N - k)/N
    # agree up to rounding; at odd M there is no such map
    gaps = [float(np.abs(errs - errs[:, ::-1]).max())
            for M in (2, 4, 6, 16, 18, 64, 236, 1024, 5, 17, 65)
            for errs in [level_errors(np.arange(N12 + 1) / N12, M, [0.51] if M % 2 else
                                      [0.51, 0.75, EIGHT_OVER_PI_SQ, 0.9, 0.99, 1.0])]]
    even, odd = max(gaps[:8]), min(gaps[8:])
    yield ("level errors are symmetric under a -> 1 - a at even M only",
           even <= 4.4e-16 and odd >= 0.02,
           f"max |error(a) - error(1 - a)| {even:.1e} (<= 4.4e-16) at even M = 2..1024, "
           f"p = 0.51..1; min {odd:.3f} (>= 0.02) at M = 5, 17, 65, p = 0.51; a = k/2^12")

    cases = [(_level_means(M), M, _level_sets(M)) for M in LEVEL_ERROR_MS]
    cases += [(_near_integer_means(M), M, [_lead_mass_levels(M)]) for M in LEVEL_ERROR_MS]
    differ = sum(level_error_mismatches(*case) for case in cases)
    yield ("level errors equal the full sort bit for bit", differ == 0,
           f"{differ} of {sum(len(sets) for *_, sets in cases)} level sets differ in float.hex "
           f"(M = 1..12, 16, 17, 22, 38, 64, 65, 236: edge, near-integer and seeded means at "
           f"each level alone, the sets up to 8/pi^2 and to 1, and two seeded sets; the "
           f"near-integer means at the levels on their own running masses, as one set)")

    rounding_ok = all(dist.probs[np.round(dist.outputs * N) / N == k / N].sum()
                      >= EIGHT_OVER_PI_SQ - 1e-12 for N in (2, 4, 8) for k in range(N + 1)
                      for dist in [distribution(k / N, int(1.5 * math.pi * N) + 1)])
    yield ("for M > (3 pi / 2) N rounding recovers the mean w.p. >= 8/pi^2",
           rounding_ok, "exhaustive over N in {2, 4, 8}")

    eps, p = 0.01, EIGHT_OVER_PI_SQ
    M = queries_for_epsilon(eps, p)
    (rec,) = swept[M, 1 << 20, (p,)] = worst_probabilistic_errors(M, 1 << 20, [p])
    yield ("the query prescription achieves the target accuracy",
           M == 236 and rec.value <= eps,
           f"M = {M}, worst error {rec.value:.6f} <= {eps} at N = 2^20")

    differ, screened, forced = screen_mismatches(swept)
    yield ("screened worst case equals the full sweep", differ == 0,
           f"{differ} differ in float.hex among {len(swept)} sweeps ({screened} screened) and "
           f"{forced} forced screens of the dense ones (M = 2..64 at N in {{2^2,2^8,2^12}}, "
           f"M = 64 and 236 at N = 2^20)")

    falls, ratio = nested_grid_worst(64)
    yield ("screened worst case is nondecreasing along nested grids",
           falls == 0 and ratio <= 1.0,
           f"{falls} falls from N = 2^n to 2^(n+1), n = 12..29, at M = 64 and p in "
           f"{{0.51, 0.75, 8/pi^2}}; largest ratio to C(p) pi / M {ratio:.6f} (<= 1)")

    # the rows of one call are independent, so each a in it has its own bits
    grid = list(np.linspace(0.05, 1.0, 20))
    mono_ok = all((np.diff(level_errors(np.array([1, 5, 9, 14]) / 16, M, grid), axis=0)
                   >= -1e-15).all() for M in (3, 7, 12))
    yield ("level error is nondecreasing in p", mono_ok,
           "checked on a 20-point p grid for several (a, M)")

    # the cited baseline, BHMT (quant-ph/0005055) Theorem 12: the output lies
    # within 2 pi k sqrt(a(1-a))/M + k^2 pi^2/M^2 of a with probability at
    # least 8/pi^2 for k = 1 and above 1 - 1/(2(k-1)) for k >= 2
    ks = (1, 2, 3, 4)
    bhmt_levels = [EIGHT_OVER_PI_SQ] + [1.0 - 1.0 / (2 * (k - 1)) for k in ks[1:]]
    means = np.arange((1 << 10) + 1) / (1 << 10)
    spread = 2.0 * math.pi * np.sqrt(means * (1.0 - means))
    ratio, at = 0.0, (0, 0)
    for M in range(1, 65):
        for k, errors in zip(ks, level_errors(means, M, bhmt_levels)):
            worst = float((errors / (k * spread / M + (k * math.pi / M) ** 2)).max())
            if worst > ratio:
                ratio, at = worst, (M, k)
    yield ("BHMT Theorem 12 holds at every mean", ratio <= 1.0,
           f"largest error / bound {ratio:.4f} at M = {at[0]}, k = {at[1]} (<= 1; N = 2^10, "
           f"M = 1..64, k = 1..4 at p = 8/pi^2, 1/2, 3/4, 5/6)")


def _suite_calculus() -> Checks:
    a1 = abs(v_inverse(EIGHT_OVER_PI_SQ) - 0.25)
    a2 = abs(v_inverse(FOUR_OVER_PI_SQ) - 0.5)
    yield ("v inverse hits both interval endpoints", a1 <= 1e-10 and a2 <= 1e-10,
           f"|v^-1(8/pi^2)-1/4| = {a1:.2e}, |v^-1(4/pi^2)-1/2| = {a2:.2e} (tol 1e-10)")

    c1 = (1.0 - v_inverse(0.75)) * math.pi
    c2 = (1.0 - v_inverse(0.501)) * math.pi
    yield ("sharp constants at the common probability levels",
           abs(c1 - 2.23) <= 0.01 and abs(c2 - 1.75) <= 0.01,
           f"(1-v^-1(0.75)) pi = {c1:.4f} ~ 2.23, (1-v^-1(0.501)) pi = {c2:.4f} ~ 1.75")

    grid = np.linspace(FOUR_OVER_PI_SQ, EIGHT_OVER_PI_SQ, 1000)
    resid = np.abs(math.pi**2 / 16 * grid + 0.25 - (1.0 - v_inverse(grid))).max()
    yield ("linear approximation of 1 - v^-1(p) within 0.0085",
           resid <= 0.0085, f"max residual {resid:.6f} on a 1000-point grid")

    vvals = v_func(np.linspace(0.25, 0.5, 2001))
    yield ("v is decreasing on [1/4, 1/2]", (np.diff(vvals) < 0.0).all(), "2001-point grid")

    gg = g_func(np.linspace(0.0, 1.0, 10001))
    at_half = abs(gg[5000] - EIGHT_OVER_PI_SQ)
    off = np.delete(gg, 5000)
    yield ("g has minimum 8/pi^2 exactly at 1/2",
           gg.min() >= EIGHT_OVER_PI_SQ - 1e-12 and at_half <= 1e-12
           and off.min() > EIGHT_OVER_PI_SQ + 1e-12,
           f"g(1/2) - 8/pi^2 = {at_half:.2e}, off-center margin {off.min() - EIGHT_OVER_PI_SQ:.2e}")

    hh = h_func(np.concatenate([np.linspace(0, 0.25, 500), np.linspace(0.75, 1.0, 500)])).min()
    yield ("h stays above 8/pi^2 on the outer quarters",
           hh >= EIGHT_OVER_PI_SQ - 1e-12, f"min h = {hh:.6f}")

    wmin = min(dirichlet_kernel_sq(0.5, M) for M in range(1, 65))
    yield ("w(1/2, M) is at least 4/pi^2 for every M",
           wmin >= FOUR_OVER_PI_SQ, f"min over M<=64 is {wmin:.6f} >= {FOUR_OVER_PI_SQ:.6f}")

    rng = np.random.default_rng(77)
    by_m: dict[int, list[tuple[float, float]]] = {}
    for _ in range(1000):
        M = int(rng.integers(1, 33))
        by_m.setdefault(M, []).append((float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))))
    gap = 0.0
    for M, pairs in sorted(by_m.items()):
        kernel = dirichlet_kernel_sq([M * (w1 - w2) for w1, w2 in pairs], M)
        direct = [kernel_direct_sum(w1, w2, M) for w1, w2 in pairs]
        gap = max(gap, float(np.abs(kernel - direct).max()))
    yield ("kernel matches the direct complex sum", gap <= 1e-12,
           f"max deviation {gap:.3e} on 1000 random frequency pairs (tol 1e-12)")


def _suite_average_case() -> Checks:
    worst_gap = 0.0
    for N in (4, 64, 1 << 12, 1 << 20):
        for measure in (Measure.UNIFORM_FUNCTIONS, Measure.UNIFORM_MEANS):
            worst_gap = max(worst_gap, abs(float(class_weights(measure, N).sum()) - 1.0))
    yield ("class weights sum to one for both measures up to N = 2^20",
           worst_gap <= 1e-12, f"max |sum-1| = {worst_gap:.3e} (tol 1e-12)")

    gap = 0.0
    for N in range(1, 25):
        ks = np.arange(N + 1)
        direct = float(np.dot(class_weights(Measure.UNIFORM_FUNCTIONS, N),
                              np.abs(0.5 - ks / N)))
        gap = max(gap, abs(first_moment(Measure.UNIFORM_FUNCTIONS, N) - direct))
    yield ("closed-form first moment equals the direct sum for N <= 24",
           gap <= 1e-14, f"max deviation {gap:.3e} (tol 1e-14)")

    N = 1 << 12
    ratio = first_moment(Measure.UNIFORM_FUNCTIONS, N) * math.sqrt(2.0 * math.pi * N)
    m2 = first_moment(Measure.UNIFORM_MEANS, N)
    yield ("uniform-function moment decays like 1/sqrt(2 pi N)",
           0.99 <= ratio <= 1.01, f"ratio {ratio:.6f} at N = 2^12")
    yield ("uniform-mean moment approaches 1/4",
           0.24 <= m2 <= 0.26 and abs(m2 - 0.25) <= 1.0 / N,
           f"moment {m2:.6f} at N = 2^12")

    for name, ref, sign, Ms in (
        ("divisible-by-4 average error obeys its upper bound", "WA4", "<=", (4, 8, 16, 32)),
        ("non-divisible average error obeys its lower bound", "WAn4", ">=", (5, 6, 7, 18)),
    ):
        recs = [avg_probabilistic_errors(M, N, [0.75], Measure.UNIFORM_FUNCTIONS, beta=2.0)[0]
                for M in Ms]
        yield (name, all(rec.bound_ref == ref and rec.bound_holds for rec in recs),
               "; ".join(f"M={rec.M}: {rec.value:.5f} {sign} {rec.bound:.5f}" for rec in recs))


# The suites in `run_suite("all")` order; SUITE_NAMES lists their names.
_SUITES = {
    "unitarity": _suite_unitarity,
    "oracle-equivalence": _suite_oracle_equivalence,
    "bounds": _suite_bounds,
    "calculus": _suite_calculus,
    "average-case": _suite_average_case,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> list[CheckResult]:
    """Run a named suite (or 'all'); raises ValueError on an unknown name."""
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {(*_SUITES, 'all')}")
    return [CheckResult(suite, check, bool(passed), detail)
            for suite in (_SUITES if name == "all" else (name,))
            for check, passed, detail in _SUITES[suite]()]
