import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from qsum.boolfn import sigma_of
from qsum.closedform import (
    ceil_floor_pair,
    dirichlet_kernel_sq,
    distribution,
    median_amplify,
    outcome_probabilities,
    outcome_probabilities_at,
    output_grid,
    output_value,
    sample,
    sigma_is_integral,
)
from qsum.simulator import BooleanFunction, QubitLayout, StateVector, measure_index, run_qs

EIGHT_OVER_PI_SQ = 8 / math.pi**2


def kernel_oracle(omega1, omega2, M):
    """Direct complex sum |sum_j e^{-2 pi i (w1-w2) j}|^2 / M^2."""
    total = sum(cmath.exp(-2j * math.pi * (omega1 - omega2) * j) for j in range(M))
    return abs(total) ** 2 / M**2


class TestKernel:
    def test_integer_difference_is_one(self):
        assert dirichlet_kernel_sq(5 * (3.75 - 0.75), 5) == 1.0

    def test_closed_arithmetic_value(self):
        # sin^2(pi/2) / (4 sin^2(pi/4)) = 1/2
        assert dirichlet_kernel_sq(2 * 0.25, 2) == pytest.approx(0.5, abs=1e-15)

    def test_matches_direct_sum_at_fixed_point(self):
        assert dirichlet_kernel_sq(7 * 0.13, 7) == pytest.approx(
            kernel_oracle(0.13, 0.0, 7), abs=1e-12
        )

    def test_matches_direct_sum_randomly(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            M = int(rng.integers(1, 33))
            w1, w2 = rng.uniform(-4, 4, 2)
            assert dirichlet_kernel_sq(M * (w1 - w2), M) == pytest.approx(
                kernel_oracle(w1, w2, M), abs=1e-12
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
        cells = outcome_probabilities_at(sigma, j, M)
        assert np.array_equal(cells.view(np.int64),
                              np.take_along_axis(full, j, axis=1).view(np.int64))

    def test_integral_sigma_means_exact_output(self):
        # masses land entirely on outcomes reporting the mean itself
        cases = [(Fraction(0), 7), (Fraction(1), 6), (Fraction(1, 2), 12),
                 (Fraction(1, 4), 6)]
        for a, M in cases:
            assert sigma_is_integral(sigma_of(a, M).sigma)
            dist = distribution(a, M)
            mass = dist.probs[np.abs(dist.outputs - float(a)) <= 1e-12].sum()
            assert abs(mass - 1.0) <= 1e-12


class TestOutputValue:
    def test_endpoints(self):
        assert output_value(0, 5) == 0.0
        assert output_value(3, 6) == 1.0
        assert output_value(1, 4) == 0.5

    def test_symmetry_grid(self):
        for M in (2, 5, 12, 17):
            grid = output_grid(M)
            for j in range(1, M):
                assert grid[j] == grid[M - j]
                assert grid[j] == output_value(j, M)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            output_value(4, 4)
        with pytest.raises(ValueError):
            output_value(-1, 4)


class TestCeilFloorPair:
    def test_rejects_integral_sigma(self):
        with pytest.raises(ValueError):
            ceil_floor_pair(Fraction(1, 2), 4)

    def test_rejects_m_below_two(self):
        with pytest.raises(ValueError):
            ceil_floor_pair(Fraction(1, 3), 1)

    def test_error_bounds_hold_randomly(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 1000:
            M = int(rng.integers(2, 65))
            N = 64
            k = int(rng.integers(0, N + 1))
            sv = sigma_of(Fraction(k, N), M)
            if sigma_is_integral(sv.sigma):
                continue
            pair = ceil_floor_pair(Fraction(k, N), M)
            up = math.ceil(sv.sigma) - sv.sigma
            down = sv.sigma - math.floor(sv.sigma)
            assert pair.err_up <= math.pi / M * up + 1e-15
            assert pair.err_down <= math.pi / M * down + 1e-15
            assert pair.prob_up + pair.prob_down >= EIGHT_OVER_PI_SQ - 1e-12
            checked += 1

    def test_probabilities_match_distribution_mass(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 300:
            M = int(rng.integers(2, 33))
            k = int(rng.integers(0, 65))
            a = Fraction(k, 64)
            sv = sigma_of(a, M)
            if sigma_is_integral(sv.sigma):
                continue
            pair = ceil_floor_pair(a, M)
            dist = distribution(a, M)
            up = math.ceil(sv.sigma)
            down = math.floor(sv.sigma)
            mass_up = dist.probs[up] + (0 if 2 * up == M else dist.probs[M - up])
            mass_down = dist.probs[down] + (
                0 if down == 0 else dist.probs[M - down]
            )
            assert pair.prob_up == pytest.approx(mass_up, abs=1e-12)
            assert pair.prob_down == pytest.approx(mass_down, abs=1e-12)
            checked += 1

    def test_errors_match_output_distance(self):
        a, M = Fraction(17, 64), 8
        sv = sigma_of(a, M)
        pair = ceil_floor_pair(a, M)
        up, down = math.ceil(sv.sigma), math.floor(sv.sigma)
        assert pair.err_up == pytest.approx(abs(output_value(up, M) - float(a)), abs=1e-12)
        assert pair.err_down == pytest.approx(abs(output_value(down, M) - float(a)), abs=1e-12)


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


class TestMedianAmplify:
    def test_rejects_even_runs(self):
        with pytest.raises(ValueError):
            median_amplify(Fraction(1, 2), 8, 4, np.random.default_rng(0))

    def test_single_run_equals_sampled_output(self):
        a, M = Fraction(5, 16), 8
        dist = distribution(a, M)
        med = median_amplify(a, M, 1, np.random.default_rng(1234))
        j = sample(dist.probs, np.random.default_rng(1234), size=1)[0]
        assert med == dist.outputs[j]

    def test_zero_mean_is_always_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert median_amplify(Fraction(0), 8, 5, rng) == 0.0

    def test_amplified_success_probability(self):
        # success per run is >= 8/pi^2; 31-fold median pushes it past 0.99
        rng = np.random.default_rng(4242)
        hits = 0
        reps = 10_000
        bound = 3 * math.pi / (4 * 8)
        for _ in range(reps):
            med = median_amplify(Fraction(1, 2), 8, 31, rng)
            hits += abs(med - 0.5) <= bound
        assert hits / reps >= 0.99
