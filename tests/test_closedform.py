import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qsum.boolfn import sigma_of, sigmas_of
from qsum.closedform import (
    SIGMA_INTEGRALITY_TOL,
    dirichlet_kernel_sq,
    distribution,
    outcome_probabilities,
    outcome_probabilities_at,
    output_grid,
    sample,
)
from qsum.simulator import BooleanFunction, QubitLayout, StateVector, measure_index, run_qs
from qsum.suites import kernel_direct_sum


class TestKernel:
    def test_integer_difference_is_one(self):
        assert dirichlet_kernel_sq(5 * (3.75 - 0.75), 5) == 1.0

    def test_closed_arithmetic_value(self):
        # sin^2(pi/2) / (4 sin^2(pi/4)) = 1/2
        assert dirichlet_kernel_sq(2 * 0.25, 2) == pytest.approx(0.5, abs=1e-15)

    def test_matches_direct_sum_at_fixed_point(self):
        assert dirichlet_kernel_sq(7 * 0.13, 7) == pytest.approx(
            kernel_direct_sum(0.13, 0.0, 7), abs=1e-12
        )

    def test_range(self):
        rng = np.random.default_rng(7)
        deltas = rng.uniform(-20, 20, 500)
        vals = dirichlet_kernel_sq(deltas, 9)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-15)

    def test_pole_series_is_smooth(self):
        # value just off the pole must continue the limit, not jump
        for eps in (1e-10, 5e-10, 2e-9, 1e-8):
            assert dirichlet_kernel_sq(eps, 8) == pytest.approx(1.0, abs=1e-15)

    def test_never_writes_into_its_argument(self):
        # the kernel works in place on its own buffers only
        delta = np.array([[0.0, 3.0, 0.25], [7 - 1e-10, -2.5, 1e-12]])
        for arg in (delta, delta.T, delta[:, ::2]):
            before = arg.copy()
            dirichlet_kernel_sq(arg, 7)
            assert np.array_equal(arg.view(np.int64), before.view(np.int64))

    def test_scalar_and_zero_d_input_give_a_float(self):
        for delta in (0.3, 4, np.float64(0.3), np.array(0.3), np.array(7.0)):
            value = dirichlet_kernel_sq(delta, 7)
            assert type(value) is float
        assert dirichlet_kernel_sq(np.array(7.0), 7) == 1.0

    @staticmethod
    def _pole_cells(M: int, rng) -> np.ndarray:
        """Deltas at the pole (d = 0 mod M, and within 1e-9 of it), at the
        j -+ sigma of integral sigma, and at random points."""
        sigma = rng.integers(0, M // 2 + 1, 8).astype(float)
        j = np.arange(M, dtype=float)[:, None]
        eps = np.array([1e-12, -5e-10, 9e-10, -2e-9, 1e-7])
        return np.concatenate([
            M * np.arange(-3, 4.0), M * np.arange(-3, 4.0)[:, None] + eps,
            j - sigma, j + sigma, rng.uniform(-3 * M, 3 * M, 40)], axis=None)

    @pytest.mark.parametrize("M", [1, 2, 3, 8, 37])
    def test_array_cells_equal_scalar_calls_bit_for_bit(self, M):
        rng = np.random.default_rng(M)
        delta = self._pole_cells(M, rng)
        scalar = np.array([dirichlet_kernel_sq(float(d), M) for d in delta])
        assert np.array_equal(dirichlet_kernel_sq(delta, M).view(np.int64),
                              scalar.view(np.int64))

    @pytest.mark.parametrize("M", [1, 2, 16])
    def test_stacked_shape_equals_scalar_calls_bit_for_bit(self, M):
        # outcome_probabilities_at asks for j - s and j + s as one (2, rows, K)
        # array; every layout of it gives each cell its scalar value
        rng = np.random.default_rng(100 + M)
        s = np.concatenate([np.arange(M // 2 + 1.0), rng.uniform(0, M / 2, 5)])[:, None]
        j = rng.integers(0, M, (s.size, 6)).astype(float)
        cells = np.stack([j - s, j + s])
        expected = np.array([dirichlet_kernel_sq(float(d), M) for d in cells.ravel()])
        expected = expected.reshape(cells.shape)
        transposed = np.ascontiguousarray(cells.transpose(0, 2, 1)).transpose(0, 2, 1)
        for arg, want in ((cells, expected), (transposed, expected),
                          (cells[:, ::2], expected[:, ::2])):
            assert np.array_equal(dirichlet_kernel_sq(arg, M).view(np.int64),
                                  want.view(np.int64))


class TestDistribution:
    def test_zero_mean_is_deterministic(self):
        dist = distribution(Fraction(0), 4)
        assert dist.probs.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_half_mean_splits_evenly(self):
        dist = distribution(Fraction(1, 2), 4)
        assert dist.probs.tolist() == [0.0, 0.5, 0.0, 0.5]
        assert dist.outputs[1] == 0.5 and dist.outputs[3] == 0.5

    def test_matches_gate_simulator(self):
        marginal = run_qs(BooleanFunction.from_mean(3, 3), 3).probabilities
        dist = distribution(Fraction(3, 8), 3)
        assert np.abs(dist.probs - marginal[:3]).max() <= 1e-10

    def test_single_outcome_when_m_is_one(self):
        dist = distribution(Fraction(2, 3), 1)
        assert dist.probs.tolist() == [1.0]
        assert dist.outputs.tolist() == [0.0]

    @pytest.mark.parametrize("M", [1, 2, 3, 7, 16, 33, 64])
    def test_normalization_and_symmetry(self, M):
        N = 1 << 10
        for k in range(0, N + 1, 41):
            dist = distribution(Fraction(k, N), M)
            assert abs(dist.probs.sum() - 1.0) <= 1e-12
            if M > 1:
                assert np.abs(dist.probs[1:] - dist.probs[:0:-1]).max() <= 1e-12

    def test_cells_do_not_depend_on_the_outcomes_asked_for(self):
        rng = np.random.default_rng(5)
        M = 37
        sigma = np.concatenate([[0.0, 3.0, M / 2], rng.uniform(0.0, M / 2, 200)])
        full = outcome_probabilities(sigma, M)
        j = rng.integers(0, M, (sigma.size, 9))
        cells = outcome_probabilities_at(sigma[:, None], j, M)
        assert np.array_equal(cells.view(np.int64),
                              np.take_along_axis(full, j, axis=1).view(np.int64))
        # a row of K outcomes against a row of K sigma values gives each sigma
        # one outcome of its own, as the level errors ask for a value's mass
        own = outcome_probabilities_at(sigma, j[:, 0], M)
        assert np.array_equal(own.view(np.int64),
                              full[np.arange(sigma.size), j[:, 0]].view(np.int64))
        # one sigma and one outcome give one cell
        one = outcome_probabilities_at(sigma[3], j[3, 0], M)
        assert one.shape == (1,) and one[0] == full[3, j[3, 0]]

    def test_integral_sigma_means_exact_output(self):
        # masses land entirely on outcomes reporting the mean itself
        cases = [(Fraction(0), 7), (Fraction(1), 6), (Fraction(1, 2), 12),
                 (Fraction(1, 4), 6)]
        for a, M in cases:
            sigma = sigma_of(a, M).sigma
            assert abs(sigma - round(sigma)) < SIGMA_INTEGRALITY_TOL
            dist = distribution(a, M)
            mass = dist.probs[np.abs(dist.outputs - float(a)) <= 1e-12].sum()
            assert abs(mass - 1.0) <= 1e-12


def _law_50_digits(sigma: float, j: int, M: int):
    """(D(j - sigma) + D(j + sigma)) / 2 at 50 digits, at the float sigma."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for d in (j - mpmath.mpf(sigma), j + mpmath.mpf(sigma)):
            den = mpmath.sinpi(d / M)
            total += 1 if den == 0 else (mpmath.sinpi(d) / (M * den)) ** 2
        return total / 2


class TestFiftyDigitLaw:
    """The float law against the same law at 50 digits.  Each tolerance is
    today's largest error on the test's own sample, rounded up by less than
    1.5x, so a more accurate law shows up as smaller numbers here."""

    # largest |p_float - p_50| on the cells below: 6.06e-15, 9.65e-14,
    # 3.84e-13 and 1.54e-12, each at an outcome M - floor(sigma), where the
    # float j + sigma near M is rounded
    CELL_TOL = {64: 8e-15, 1024: 1.2e-13, 4096: 5e-13, 16384: 2e-12}

    @pytest.mark.parametrize("M", sorted(CELL_TOL))
    def test_cells(self, M):
        # seeded sigma, integral or more than 1e-9 from an integer so that
        # the snap does not enter; per sigma its four bracketing outcomes and
        # four drawn ones
        rng = np.random.default_rng(M)
        sigma = np.concatenate([[0.0, 1.0, M / 4, M / 2], rng.uniform(0.0, M / 2, 60)])
        off = np.abs(sigma - np.round(sigma))
        assert np.all((off == 0.0) | (off > SIGMA_INTEGRALITY_TOL))
        near = np.floor(sigma)[:, None] + [0, 1]
        j = np.concatenate([near, M - near, rng.integers(0, M, (sigma.size, 4))], axis=1) % M
        cells = outcome_probabilities_at(sigma[:, None], j, M)
        err = max(abs(_law_50_digits(s, int(k), M) - cell)
                  for s, row, cell_row in zip(sigma, j, cells) for k, cell in zip(row, cell_row))
        assert err <= self.CELL_TOL[M]

    # largest |sum - 1| over the means k/2^8: 3.88e-13 and 1.55e-12
    SUM_TOL = {4096: 5e-13, 16384: 2e-12}

    @pytest.mark.parametrize("M", sorted(SUM_TOL))
    def test_sums(self, M):
        # 64 means per call keep the traced peak at 50 MiB at M = 16384,
        # against 200 MiB in one call
        sigma = sigmas_of(np.arange(257) / 256, M)
        gap = max(np.abs(outcome_probabilities(sigma[at:at + 64], M).sum(axis=1) - 1.0).max()
                  for at in range(0, sigma.size, 64))
        assert gap <= self.SUM_TOL[M]


class TestOutputValue:
    def test_endpoints(self):
        assert output_grid(5)[0] == 0.0
        assert output_grid(6)[3] == 1.0
        assert output_grid(4)[1] == 0.5

    def test_symmetry_grid(self):
        for M in (2, 5, 12, 17):
            grid = output_grid(M)
            for j in range(1, M):
                assert grid[j] == grid[M - j]
                assert grid[j] == pytest.approx(math.sin(math.pi * j / M) ** 2, abs=1e-15)

    def test_in_place_grid_equals_the_masked_formula_bit_for_bit(self):
        # the grid is built in place with its exact points set by index; the
        # whole-array formula with masks is the reference
        for M in [*range(0, 1025), 1 << 16, (1 << 16) + 2, (1 << 16) + 3]:
            j = np.arange(M)
            i = np.minimum(j, M - j)
            want = np.sin(np.pi * i / M) ** 2
            want[4 * i == M] = 0.5
            want[2 * i == M] = 1.0
            want[i == 0] = 0.0
            assert np.array_equal(output_grid(M).view(np.int64), want.view(np.int64)), M

    @pytest.mark.parametrize("Ms", [range(1, 4097), [1 << 16], [1 << 20], [1 << 24]],
                             ids=["1..4096", "2^16", "2^20", "2^24"])
    def test_first_half_strictly_increases(self, Ms):
        # level_errors' pair pass takes the value beyond the near one as the
        # next on its side, and its walk takes each side's values in order of
        # distance; both need this order
        for M in Ms:
            values = output_grid(M)[: M // 2 + 1]
            assert np.all(values[1:] > values[:-1]), M


class TestSampling:
    def test_deterministic_point_mass(self):
        dist = distribution(Fraction(0), 4)
        rng = np.random.default_rng(0)
        assert all(sample(dist.probs, rng) == 0 for _ in range(50))

    def test_two_point_frequencies(self):
        dist = distribution(Fraction(1, 2), 4)
        rng = np.random.default_rng(31415)
        draws = sample(dist.probs, rng, size=100_000)
        freq = np.mean(draws == 1)
        # 3 sigma of a fair coin over 1e5 draws
        assert abs(freq - 0.5) <= 3 * 0.5 / math.sqrt(100_000)
        assert set(np.unique(draws)) <= {1, 3}

    def test_empirical_total_variation(self):
        dist = distribution(Fraction(3, 8), 8)
        rng = np.random.default_rng(8)
        draws = sample(dist.probs, rng, size=1_000_000)
        counts = np.bincount(draws, minlength=8) / 1_000_000
        assert 0.5 * np.abs(counts - dist.probs).sum() <= 0.005

    def test_same_seed_same_draws(self):
        dist = distribution(Fraction(3, 8), 8)
        a = sample(dist.probs, np.random.default_rng(7), size=100)
        b = sample(dist.probs, np.random.default_rng(7), size=100)
        assert np.array_equal(a, b)

    def test_draw_past_the_rounded_total_takes_the_argmax(self):
        # u >= cumsum(probs)[-1] lands past the last outcome; both samplers
        # must return the heaviest outcome, never an empty one
        class TopDraw:
            def random(self, size=None):
                u = np.nextafter(1.0, 0.0)
                return u if size is None else np.full(size, u)

        probs = np.array([0.25, 0.5, 0.125, 0.0])
        assert sample(probs, TopDraw()) == 1
        assert sample(probs, TopDraw(), size=3).tolist() == [1, 1, 1]
        state = StateVector(np.sqrt(probs).astype(complex), QubitLayout(n=0, M=4))
        record = measure_index(state, TopDraw())
        assert record.outcome == 1 and record.probability > 0.0

