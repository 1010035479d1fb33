import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qsum import bounds, closedform, suites
from qsum.boolfn import Measure, sigmas_of
from qsum.bounds import (
    EIGHT_OVER_PI_SQ,
    FOUR_OVER_PI_SQ,
    Setting,
    avg_probabilistic_error,
    avg_probabilistic_errors,
    c_bound,
    g_func,
    h_func,
    level_errors,
    queries_for_epsilon,
    v_func,
    v_inverse,
    wa4_upper_bound,
    wan4_lower_bound,
    worst_probabilistic_error,
)
from qsum.closedform import dirichlet_kernel_sq, output_grid
from qsum.suites import LEVELS, PAIR_LEVELS, WALK_LEVELS, brute_force_errors_at_levels

# block budgets in cells, and the rows per block each makes at 4 cells per
# row: one row, an odd count above one, and the default
BUDGET_ROWS = {1: 1, 12: 3, bounds._BLOCK_CELLS: 4096}


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The mean counts of the level_errors calls a sweep makes, in order."""
    sizes = []
    original = bounds.level_errors
    monkeypatch.setattr(bounds, "level_errors",
                        lambda means, *a: sizes.append(len(means)) or original(means, *a))
    return sizes


@pytest.fixture
def no_law_bounds(monkeypatch):
    """Level errors that read the law for every row's first value: a test
    law that breaks the kernel's lower bounds (D >= v, g >= 8/pi^2) must not
    let them decide a level."""
    monkeypatch.setattr(bounds, "_law_bounds_apply", lambda M: False)


class TestErrorAtLevel:
    def test_point_mass_gives_zero(self):
        assert level_errors([Fraction(0)], 8, [0.8])[0, 0] == 0.0

    def test_exact_case_gives_zero(self):
        assert level_errors([Fraction(1, 2)], 4, [0.75])[0, 0] == 0.0

    def test_bounded_by_improved_constant(self):
        val = level_errors([Fraction(17, 64)], 8, [EIGHT_OVER_PI_SQ])[0, 0]
        assert val <= 3 * math.pi / 32
        assert [val] == brute_force_errors_at_levels(Fraction(17, 64), 8, [EIGHT_OVER_PI_SQ])

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            level_errors([Fraction(1, 2)], 4, [0.0])
        with pytest.raises(ValueError):
            level_errors([Fraction(1, 2)], 4, [1.5])

    @pytest.mark.parametrize("M", [*suites.LEVEL_ERROR_MS, 1024, 4096])
    def test_level_errors_are_bit_identical_to_full_sort(self, M):
        # what the bounds check "level errors equal the full sort bit for
        # bit" does not run: its means and level sets at M = 1024 and 4096;
        # at its own M, each level on the near-integer rows' running masses
        # alone, not in one set, and at M <= 10 the subset minimum at the
        # seeded level sets
        means, level_sets = suites._level_means(M), suites._level_sets(M)
        if M not in suites.LEVEL_ERROR_MS:
            assert suites.level_error_mismatches(means, M, level_sets) == 0
            return
        alone = [[p] for p in suites._lead_mass_levels(M)]
        assert suites.level_error_mismatches(suites._near_integer_means(M), M, alone) == 0
        if M <= 10:
            union = [p for ps in level_sets[-2:] for p in ps]
            for a, errors in zip(means[::8], level_errors(means[::8], M, union).T):
                oracle = brute_force_errors_at_levels(float(a), M, union)
                assert np.abs(errors - oracle).max() <= 1e-12, (M, a)

    @pytest.mark.parametrize("budget", BUDGET_ROWS)
    @pytest.mark.parametrize("M", [1, 3, 16, 100])
    def test_block_boundaries_change_no_bit(self, monkeypatch, budget, M):
        # mean counts that fill at most one block and that split into two
        # even blocks (3 block // 2 + 1 rounds to two) and into several, all
        # prefixes of one draw, each against the rows of one full sort of
        # the draw.  Every call is cut into blocks of 4 cells, the pair
        # pass's, per mean, at every level and M; the walk continues each
        # block's rows
        rng = np.random.default_rng(budget + M)
        monkeypatch.setattr(bounds, "_BLOCK_CELLS", budget)
        block = max(1, budget // 4)
        counts = (block - 1, block, 3 * block // 2 + 1, 3 * block + 7)
        for count in counts:
            blocks = len(bounds._row_blocks(count))
            assert blocks >= 2 if count > block else blocks == min(count, 1), count
        means = np.concatenate([[0.0, 0.5, 1.0], rng.random(counts[-1])])[:counts[-1]]
        level_sets = [[0.51, EIGHT_OVER_PI_SQ], WALK_LEVELS]
        assert suites.level_error_mismatches(means, M, level_sets, counts) == 0

    @pytest.mark.parametrize("budget", [1, 12])
    @pytest.mark.parametrize("M", [4, 5, 6, 7, 10, 16, 17, 22])
    def test_pair_pass_is_bit_identical_at_its_edges(self, monkeypatch, budget, M):
        # the differential's means and level sets in blocks of one row and of
        # three; in one block, the default, the bounds check "level errors
        # equal the full sort bit for bit" runs them
        monkeypatch.setattr(bounds, "_BLOCK_CELLS", budget)
        rows = BUDGET_ROWS[budget]
        assert bounds._row_blocks(2 * rows) == [slice(0, rows), slice(rows, 2 * rows)]
        level_sets = [PAIR_LEVELS, LEVELS]
        assert suites.level_error_mismatches(suites._level_means(M), M, level_sets) == 0

    def test_row_blocks_are_even(self):
        # 4097 means of the pair pass make one block, not 4096 + 1
        assert bounds._row_blocks(4097) == [slice(0, 4097)]
        for step in (max(1, bounds._BLOCK_CELLS // c) for c in (1, 2, 3, 4, 1 << 15)):
            for rows in (0, 1, step - 1, step, step + 1, 3 * step // 2, 5 * step + 7):
                blocks = bounds._even_slices(rows, step)
                assert [k for b in blocks for k in range(rows)[b]] == list(range(rows))
                sizes = {len(range(rows)[b]) for b in blocks}
                assert not sizes or (min(sizes) >= 1 and max(sizes) - min(sizes) <= 1)
                if step == bounds._BLOCK_CELLS // 4:
                    assert bounds._row_blocks(rows) == blocks

    @pytest.fixture
    def kernel_cells(self, monkeypatch):
        """The sizes of every squared-kernel evaluation, in call order."""
        cells = []
        kernel = closedform.dirichlet_kernel_sq
        monkeypatch.setattr(closedform, "dirichlet_kernel_sq",
                            lambda d, M: cells.append(np.size(d)) or kernel(d, M))
        return cells

    def test_kernel_cells_per_mean_up_to_eight_over_pi_sq(self, kernel_cells):
        # the pair pass takes the first value's mass, one outcome (2 kernel
        # cells), only of the means whose sigma lies beyond the floor's reach
        # of it, about half of them here, and the second's of those whose
        # second value is the value beyond the near one, even where the first
        # already reaches the highest level (two rows here); the rows still
        # short take the far value third, which carries no cell, and none
        # walks: 32912 cells, 1.004 per mean here, where walking those 56
        # rows one value on took 33024, reading the law of every first value
        # took 3.0 per mean and the full sort reads all 64 outcomes, 128
        N = 1 << 15
        level_errors(np.arange(N + 1) / N, 64, [0.51, 0.6, 0.75, EIGHT_OVER_PI_SQ])
        assert sum(kernel_cells) == 32912

    def test_kernel_cells_per_mean_above_eight_over_pi_sq(self, kernel_cells):
        # each value adds the mass of one outcome (2 kernel cells), the first
        # two in the pair pass and the rest in the walk, which stops each
        # mean at the highest level, but the means within the floor's reach
        # of their first value, about a ninth of them at 0.99, take none:
        # 38.1 cells per mean here (38.4 before the floor), where the full
        # sort reads all 236 outcomes, 472 cells
        N = 1 << 12
        level_errors(np.arange(N + 1) / N, 236, [0.99])
        assert sum(kernel_cells) == 156104

    @pytest.fixture
    def pass_log(self, monkeypatch):
        """Record ("pair", means) per block of the pair pass and ("walk",
        means) per walk, in call order."""
        passes = []
        pair, walk = bounds._pair_block, bounds._walk_block

        def counted_pair(means, *args):
            passes.append(("pair", means.copy()))
            pair(means, *args)

        def counted_walk(means, *args):
            passes.append(("walk", means.copy()))
            walk(means, *args)

        monkeypatch.setattr(bounds, "_pair_block", counted_pair)
        monkeypatch.setattr(bounds, "_walk_block", counted_walk)
        return passes

    @staticmethod
    def _rows(passes, name):
        """The means one kind of pass took, in call order."""
        return np.concatenate([np.empty(0)] + [means for kind, means in passes if kind == name])

    def test_one_route_at_every_m_and_level(self, pass_log):
        # the pair pass takes every mean at every M and level, M <= 3 and
        # p = 1 included.  Above 8/pi^2, at M < 4 and at M > 4096 the walk
        # takes exactly the means whose first two values carry less than
        # the highest level; where the two values bracketing sigma reach
        # every level (`_brackets_reach`) it takes only those whose third
        # value in (distance, value) order is the value beyond the second,
        # not the far one.  That is none here: of the 38 means short after
        # two values at such cases (12 at M = 16 and 8/pi^2, 18, 6 and 2 at
        # M = 10, 22 and 38), each takes the far value third.  At a = 1/2
        # and M = 2 mod 4 (10, 22, 38), sigma = M/4 lies halfway between two
        # values whose distances from 1/2 tie exactly, and their four
        # outcomes reach every level up to 8/pi^2, so the pair pass decides
        # the row
        means = np.arange(513) / 512
        cases = [(M, ps) for M in (1, 2, 3, 4, 5, 16, 64, 236, 4096)
                 for ps in ([0.51], [EIGHT_OVER_PI_SQ], [0.6, 0.9], [0.99], [0.75, 1.0])]
        bracketed_short = 0
        for M, ps in cases + [(M, PAIR_LEVELS) for M in (10, 22, 38)]:
            _, two = suites._running_masses(means, M)
            pass_log.clear()
            level_errors(means, M, ps)
            assert np.array_equal(self._rows(pass_log, "pair"), means), (M, ps)
            short = two < max(ps) - bounds.LEVEL_SLACK
            if bounds._brackets_reach(M, ps):
                bracketed_short += np.count_nonzero(short)
                v = output_grid(M)[: M // 2 + 1]
                order = np.argsort(np.abs(v - means[:, None]), axis=1, kind="stable")
                short &= order[:, 2] == 2 * order[:, 1] - order[:, 0]
            assert np.array_equal(self._rows(pass_log, "walk"), means[short]), (M, ps)
            if M % 4 == 2 and ps == PAIR_LEVELS:
                assert 0.5 - v[(M - 2) // 4] == v[(M + 2) // 4] - 0.5
                assert not short[256]
        assert bracketed_short == 38

    @pytest.mark.parametrize("M, n, ps", [
        *((M, 12, (0.68,)) for M in (12, 16, 24, 32, 64)),
        *((M, 13, ps) for M in (226, 230, 232)
          for ps in ((0.75,), (0.55, 0.6, 0.7, EIGHT_OVER_PI_SQ)))])
    def test_rows_that_take_the_far_value_third_do_not_walk(self, pass_log, M, n, ps):
        # dense sweeps whose means short of the highest level after their
        # near value and the value beyond it walked one step, to the far
        # value (5, 16, 14, 8 and 2 of them at M = 12..64 and p = 0.68, and
        # the means 3/N and 1 - 3/N at M = 226..232 and N = 2^13): the far
        # value comes third, and the bracketing pair's mass reaches every
        # level, so the pair pass decides them with the full sort's bits,
        # and no mean walks
        N = 1 << n
        means = np.arange(N + 1) / N
        _, two = suites._running_masses(means, M)
        short = np.flatnonzero(two < max(ps) - bounds.LEVEL_SLACK)
        assert short.size == {12: 5, 16: 16, 24: 14, 32: 8, 64: 2}.get(M, 2)
        if M >= 226:
            assert short.tolist() == [3, N - 3]
        got = level_errors(means, M, ps)
        assert {kind for kind, _ in pass_log} == {"pair"}
        want = bounds._full_level_errors(means[short], M, ps)
        assert np.array_equal(got[:, short].view(np.int64), want.view(np.int64))

    def test_row_that_takes_the_value_beyond_the_second_third_walks(self, monkeypatch,
                                                                    pass_log):
        # the mean next to v_2 at M = 64 takes v_2, then v_1, then v_0
        # before the far value v_3.  With both its running masses lowered to
        # 0.5, as the screen's test lowers them, the pair pass leaves it to
        # the walk, which reaches a level just above 0.5 at v_0 and 0.75 at
        # no value: the crossing rule on its values' masses, which the far
        # value's distance would miss
        M, N = 64, 1 << 15
        v = output_grid(M)
        means = np.array([round(v[2] * N) / N])
        sigma = sigmas_of(means, M)
        _, near, second, *_ = bounds._first_values(means, sigma, bounds._value_edges(M))
        assert (near[0], second[0]) == (2, 1) and means[0] - v[0] < v[3] - means[0]
        probs = bounds._value_probs(sigma[:, None], np.arange(M // 2 + 1), M)
        probs[0, [2, 1]] = 0.5, 0.0
        ps = [0.5 + probs[0, 0] / 2, 0.75]
        monkeypatch.setattr(bounds, "_lead_masses",
                            lambda sigma, *args: np.full((2, sigma.size), 0.5))
        got = level_errors(means, M, ps)
        assert [kind for kind, _ in pass_log] == ["pair", "walk"]
        want = bounds._crossings(np.abs(v[: M // 2 + 1] - means[:, None]), probs, ps)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got[:, 0].tolist() == [means[0] - v[0], 1.0 - means[0]]

    def test_subset_oracle_answers_every_level_from_one_enumeration(self):
        levels = [0.51, 0.75, EIGHT_OVER_PI_SQ, 0.95]
        for M in (1, 4, 7):
            for a in (Fraction(0), Fraction(3, 16), Fraction(1, 2), Fraction(13, 16)):
                assert brute_force_errors_at_levels(a, M, levels) == [
                    brute_force_errors_at_levels(a, M, [p])[0] for p in levels]

    def test_even_m_errors_are_symmetric_under_a_to_one_minus_a(self, suite_runs):
        # the bounds check: the errors at k/2^12 and (2^12 - k)/2^12 agree
        # within 4.4e-16 at even M (2.8e-16 at most), and differ by 0.31,
        # 0.092 and 0.024 at M = 5, 17 and 65
        check = suite_runs["bounds"].check(
            "level errors are symmetric under a -> 1 - a at even M only")
        assert check.passed, check.detail

    def test_three_value_rule_takes_the_lower_value_first_on_a_tie(self):
        # at a = 1/2 and M = 6, v_0 = 0 and v_3 = 1 lie at the same distance.
        # Two rows short of the level after two values: near v_1 then v_2,
        # whose value beyond, v_3, ties the far v_0 and comes after it, so
        # the row takes v_0's distance; and near v_2 then v_1, whose value
        # beyond, v_0, ties the far v_3 and comes first, so the row is open
        M = 6
        v = output_grid(M)
        assert 0.5 - v[0] == v[3] - 0.5
        means, near, second = np.full(2, 0.5), np.array([1, 2]), np.array([2, 1])
        dists = [np.abs(v[i] - means) for i in (near, second, 2 * near - second)]
        errors, rows = bounds._three_value_errors(
            means, near, second, dists, np.full((2, 2), 0.5), np.array([[0.75]]), True,
            bounds._value_edges(M))
        assert rows.tolist() == [1] and errors[0, 0] == 0.5

    def test_symmetry_check_fails_where_odd_m_errors_are_symmetric(self, monkeypatch):
        # the check also asks for asymmetry at odd M, where no map carries a
        # onto 1 - a: level errors made symmetric there, each the larger of
        # the errors at a and at 1 - a on a symmetric grid, must fail it
        level = suites.level_errors

        def symmetric_at_odd_m(means, M, ps):
            errors = level(means, M, ps)
            return np.maximum(errors, errors[:, ::-1]) if M % 2 else errors

        monkeypatch.setattr(suites, "level_errors", symmetric_at_odd_m)
        name = "level errors are symmetric under a -> 1 - a at even M only"
        # the suite yields lazily, so it stops at this check
        assert not next(passed for check, passed, _ in suites._suite_bounds() if check == name)

    def test_full_sort_takes_the_farthest_distance_when_no_cell_reaches_p(
            self, monkeypatch, no_law_bounds):
        # with half the mass no level above 1/2 is reached, so each mean takes
        # its farthest outcome: abar = 1 from 0.3, abar = 0 from 0.7; the
        # walk takes it once its values run out
        full_mass, mass_at = bounds.outcome_probabilities, bounds.outcome_probabilities_at
        monkeypatch.setattr(bounds, "outcome_probabilities",
                            lambda sigma, M: 0.5 * full_mass(sigma, M))
        monkeypatch.setattr(bounds, "outcome_probabilities_at",
                            lambda sigma, j, M: 0.5 * mass_at(sigma, j, M))
        means = np.array([0.3, 0.7])
        expected = [[0.7, 0.7]]
        assert bounds._full_level_errors(means, 8, [0.9]).tolist() == expected
        for p in (0.6, 0.9, 1.0):
            assert level_errors(means, 8, [p]).tolist() == expected

    def test_mass_exactly_at_a_level_is_reached_there(self, monkeypatch, no_law_bounds):
        # mass 1/8 on each outcome of M = 8 makes every running mass exact,
        # and p = k/8 + LEVEL_SLACK puts the threshold on one of them: the
        # level takes the distance at which the mass reaches it, not the next
        def uniform(sigma, j, M):
            return np.full(np.broadcast_shapes(np.shape(j), np.shape(sigma)), 1.0 / M)

        monkeypatch.setattr(bounds, "outcome_probabilities_at", uniform)
        monkeypatch.setattr(bounds, "outcome_probabilities",
                            lambda sigma, M: uniform(np.reshape(sigma, (-1, 1)),
                                                     np.arange(M), M))
        means = np.concatenate([[0.0, 0.5, 1.0], np.random.default_rng(8).random(40)])
        exact = [k / 8 + bounds.LEVEL_SLACK for k in (4, 5, 6)]
        assert [p - bounds.LEVEL_SLACK for p in exact] == [0.5, 0.625, 0.75]
        for ps in (exact, exact + [1.0]):
            want = bounds._full_level_errors(means, 8, ps)
            got = level_errors(means, 8, ps)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), ps

    def test_first_value_reaching_a_level_exactly_decides_it(self, monkeypatch,
                                                              no_law_bounds):
        # mass 1/4 on each outcome of M = 4 puts 1/2 on v_1 = 1/2, the first
        # value of every mean in (1/4, 3/4), and p = 1/2 + LEVEL_SLACK puts
        # the threshold on it: the pair pass reports that value's distance
        def uniform(sigma, j, M):
            return np.full(np.broadcast_shapes(np.shape(j), np.shape(sigma)), 1.0 / M)

        monkeypatch.setattr(bounds, "outcome_probabilities_at", uniform)
        monkeypatch.setattr(bounds, "outcome_probabilities",
                            lambda sigma, M: uniform(np.reshape(sigma, (-1, 1)),
                                                     np.arange(M), M))
        means = np.random.default_rng(4).uniform(0.3, 0.7, 40)
        ps = [0.5 + bounds.LEVEL_SLACK]
        assert ps[0] - bounds.LEVEL_SLACK == 0.5
        got = level_errors(means, 4, ps)
        assert np.array_equal(got.view(np.int64),
                              bounds._full_level_errors(means, 4, ps).view(np.int64))
        assert np.array_equal(got[0], np.abs(means - 0.5))

    def test_crossings_on_cells_major_arrays(self):
        # (rows, cells) arrays of two means: the first has a distance tie at
        # 0.1 whose two cells carry mass 0.5; the second holds mass 0.4 in
        # all, so levels above it are unreached and take its farthest
        # distance, 0.6
        dists = np.array([[0.3, 0.1, 0.1, 0.5], [0.2, 0.2, 0.4, 0.6]])
        probs = np.array([[0.4, 0.2, 0.3, 0.1], [0.1, 0.1, 0.1, 0.1]])
        errors = bounds._crossings(dists, probs, [0.15, 0.5, 0.95])
        assert errors.tolist() == [[0.1, 0.2], [0.1, 0.6], [0.5, 0.6]]

    @pytest.mark.parametrize("M", [1, 7, 64])
    def test_full_sort_does_not_use_the_passes_blocks(self, monkeypatch, M):
        # the oracle sorts every mean at once: blocking it shares with the
        # passes it checks would let a blocking fault hide in both
        rng = np.random.default_rng(M)
        means = np.concatenate([[0.0, 0.5, 1.0], np.arange(1025) / 1024, rng.random(100)])
        ps = PAIR_LEVELS + WALK_LEVELS
        want = bounds._full_level_errors(means, M, ps)

        def no_blocks(rows):
            raise AssertionError("the full sort asked for row blocks")

        monkeypatch.setattr(bounds, "_row_blocks", no_blocks)
        got = bounds._full_level_errors(means, M, ps)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_tie_grouping(self):
        # at a = 1/2, M = 2 both outcomes sit at distance 1/2 with mass 1/2;
        # any p above 1/2 must pull in the whole tie group
        assert level_errors([Fraction(1, 2)], 2, [0.6])[0, 0] == 0.5
        assert level_errors([Fraction(1, 2)], 2, [0.5])[0, 0] == 0.5


class TestValueLaw:
    def test_value_masses_are_their_outcomes_mass_and_sum_to_one(self):
        # the mass of v_i, 2 p(i) where it has two outcomes, is p(i) + p(M -
        # i) to within LEVEL_SLACK (3.8e-13 here at M = 4096: the far
        # outcome's argument reduction), and the values' masses sum to 1
        # within 1e-14 (6.7e-16 here), where the outcome law's sum misses by
        # up to 1.6e-12 at M = 16384
        rng = np.random.default_rng(37)
        means = np.concatenate([[0.0, 0.5, 1.0], rng.random(61)])
        for M in [1, 2, 3, 4, 5, 16, 17, 64, 65, 236, 1024, 4096, 16384]:
            sigma = sigmas_of(means, M)
            i = np.arange(M // 2 + 1)
            values = bounds._value_probs(sigma[:, None], i, M)
            assert np.abs(values.sum(axis=1) - 1.0).max() <= 1e-14, M
            if M <= 4096:
                probs = closedform.outcome_probabilities(sigma, M)
                twins = np.where((i == 0) | (2 * i == M), 0.0, probs[:, (M - i) % M])
                assert np.abs(values - probs[:, i] - twins).max() <= bounds.LEVEL_SLACK, M


# The faster route of a worst-case sweep, screened or dense, where it was
# timed (the grid in the comment above bounds._SCREEN_MAX_M) and at the CI
# sweeps, where the dense sweep would take seconds.  Only the count of
# levels and the highest level matter.
FOUR_LEVELS = (0.55, 0.6, 0.7, EIGHT_OVER_PI_SQ)
ROUTES = [
    # (M, N, levels, screened)
    (236, 1 << 13, (0.75,), False), (512, 1 << 13, (0.75,), False),
    (1024, 1 << 14, FOUR_LEVELS, False),
    *((M, 1 << 13, ps, True) for M in (16, 64) for ps in ((0.75,), FOUR_LEVELS)),
    (236, 1 << 14, FOUR_LEVELS, True),
    # perfbench's worst_sweep bands, with M = 236 at 2^13 among them
    *((M, 1 << 13, FOUR_LEVELS, False) for M in range(232, 241)),
    *((M, 1 << 15, FOUR_LEVELS, True) for M in (*range(15, 18), *range(62, 67))),
    # the CI sweeps at n = 20, 24 and 30
    (64, 1 << 20, (EIGHT_OVER_PI_SQ,), True), (64, 1 << 24, (0.75,), True),
    *((M, 1 << 30, (EIGHT_OVER_PI_SQ,), True) for M in (4, 16, 64, 236, 1024, 4096)),
]


class TestWorstError:
    def test_hand_enumerable_case(self):
        # N=2: means {0, 1/2, 1}; the half mean needs both outcomes of M=2,
        # each at distance 1/2, while 0 and 1 are exact
        rec = worst_probabilistic_error(2, 2, 0.6)
        oracle = max(
            brute_force_errors_at_levels(Fraction(k, 2), 2, [0.6])[0] for k in range(3)
        )
        assert rec.value == oracle == 0.5

    def test_improved_bound_small_case(self):
        rec = worst_probabilistic_error(4, 4, 0.75)
        assert rec.value <= 3 * math.pi / 16

    def test_sweep_screens_the_mean_grid(self, chunk_sizes):
        # at M = 64 the screen reads every error from its plan's masses, its
        # candidates' and those of the rows around each side flip: a few
        # hundred means at N = 2^15 and as few at 2^24, with no level_errors
        # call; the maximum, pinned at 2^15, is the dense sweep's
        levels = [0.51, 0.75, EIGHT_OVER_PI_SQ]
        records = bounds.worst_probabilistic_errors(64, 1 << 15, levels)
        assert chunk_sizes == []
        assert [r.value.hex() for r in records] == [
            "0x1.c400000000000p-6", "0x1.1c80000000000p-5", "0x1.2d40000000000p-5"]
        bounds.worst_probabilistic_errors(64, 1 << 24, levels)
        assert chunk_sizes == []

    @pytest.mark.parametrize("M, N, ps, rows, rounds", [
        (64, 1 << 15, [EIGHT_OVER_PI_SQ], 356, 1), (64, 1 << 20, [EIGHT_OVER_PI_SQ], 356, 1),
        (1024, 1 << 24, [EIGHT_OVER_PI_SQ], 5465, 1), (4096, 1 << 24, [0.75], 20782, 2),
        (1024, 1 << 27, [0.75], 5477, 2)], ids=[
        "64-32768-356-1", "64-1048576-356-1", "1024-16777216-5465-1",
        "4096-16777216-0.75-20782-2", "1024-134217728-0.75-5477-2"])
    def test_plan_rows_and_rounds(self, M, N, ps, rows, rounds):
        # the plan at the CI sweep's point (64, 2^20) among others: its
        # candidates and flip rows, and the rounds of probes its search
        # takes from a first guess that puts each flip of the near value's
        # mass within a row.  The probes read the law at every row: with the
        # floor's 2.0 there, the Newton steps at 0.75 take 4 and 5 rounds
        ks, *_, plan_rounds = bounds._screen_plan(M, N, ps)
        assert (ks.size, plan_rounds) == (rows, rounds)

    def test_screen_equals_the_full_sweep(self):
        # seeded (M, N, levels) draws, none of them the bounds check's, each
        # screened by worst_probabilistic_errors or, where it stays dense, with
        # the screen forced.  The second set sits where the pair pass leaves
        # the most rows undecided, between the near value's flip and the
        # midpoint of values two apart
        rng = np.random.default_rng(2026)
        Ms = [4, 5, 6, 7, 8, 9, 12, 16, 17, 31, 33, 100, 236, 512, 1000, 1024, 2048, 4096]
        draws = [(int(rng.choice(Ms)), 1 << int(rng.integers(0, 17))) for _ in range(200)]
        draws += [(int(rng.integers(4, 33)), 1 << int(rng.integers(13, 17))) for _ in range(40)]
        sweeps = {}
        for M, N in draws:
            ps = sorted({*rng.uniform(0.3, EIGHT_OVER_PI_SQ, int(rng.integers(0, 4))).tolist(),
                         float(rng.choice([EIGHT_OVER_PI_SQ, rng.uniform(0.3, EIGHT_OVER_PI_SQ)]))})
            sweeps[M, N, tuple(ps)] = bounds.worst_probabilistic_errors(M, N, ps)
        differ, screened, forced = suites.screen_mismatches(sweeps)
        assert differ == 0
        assert screened >= 60 and screened + forced == len(sweeps)

    def test_gaps_left_without_their_flips_are_filled(self, monkeypatch, chunk_sizes):
        # a search that finds no side flip leaves every gap whose ends lie
        # on different sides of a level to be filled mean by mean in one
        # level_errors call, and the maximum is still the dense sweep's; the
        # fill passes the screen's own estimate, so it raises unless that
        # estimate is lifted
        monkeypatch.setattr(bounds, "_flips", lambda short, ks: (np.empty(0, np.int64),) * 3)
        cases = ((16, 1 << 13, [0.6, EIGHT_OVER_PI_SQ]), (64, 1 << 12, [0.75]),
                 (5, 1 << 10, [0.51]))
        for M, N, ps in cases:
            with pytest.raises(ValueError, match=f"screen at M={M}, N={N} would fill"):
                bounds._screened_worst_errors(M, N, ps)
        monkeypatch.setattr(bounds, "_screen_means", lambda M, levels: 1 << 20)
        for M, N, ps in cases:
            chunk_sizes.clear()
            bounds._screened_worst_errors(M, N, ps)
            assert len(chunk_sizes) == 1
        # each case now stays dense, so the differential forces its screen
        sweeps = {(M, N, tuple(ps)): bounds.worst_probabilistic_errors(M, N, ps)
                  for M, N, ps in cases}
        assert suites.screen_mismatches(sweeps) == (0, 0, len(cases))

    def test_screen_rows_at_levels_on_their_own_masses(self):
        # levels whose thresholds are the running masses of plan rows, after
        # their first value or their first two: each row reaches the level
        # there, in the screen as in level_errors
        M, N = 16, 1 << 13
        masses = bounds._screen_plan(M, N, [EIGHT_OVER_PI_SQ])[4].ravel()
        masses = np.unique(masses[(masses > 0.5) & (masses < EIGHT_OVER_PI_SQ - 1e-9)])
        levels = masses[:: max(1, masses.size // 8)] + bounds.LEVEL_SLACK
        levels = [p for q in levels for p in (np.nextafter(q, 0.0), q, np.nextafter(q, 1.0))]
        exact = [p for p in levels if p - bounds.LEVEL_SLACK in masses]
        assert len(exact) >= 8
        for p in exact:
            assert suites.screen_row_mismatches(M, N, [p]) == 0, p

    def test_rows_whose_third_value_is_not_the_far_one_are_filled(self, monkeypatch):
        # a row short of a level after its two values takes the far value
        # next, unless the value beyond the value beyond the near one is
        # nearer.  No real plan row has needed that (at every level the
        # screen runs at, such rows carry more after two values), so a plan
        # is made with one: the mean next to v_2 at M = 64, whose values are
        # v_2, then v_1, then v_0 before v_3, with its masses lowered below
        # the level.  The row and both its gaps are left to level_errors
        M, N = 64, 1 << 15
        v = output_grid(M)
        k = round(v[2] * N)
        ks = np.array([k - 5, k, k + 5])
        means = ks / N
        sigma = sigmas_of(means, M)
        lo, near, second, *_ = bounds._first_values(means, sigma, bounds._value_edges(M))
        assert (near[1], second[1]) == (2, 1) and means[1] - v[0] < v[3] - means[1]
        masses = bounds._lead_masses(sigma, near, second, M, np.arange(3), np.ones(3, dtype=bool))
        masses[:, 1] = 0.5
        plan = ks, 2 * np.floor(sigma) + (near - lo), near, second, masses, 0
        monkeypatch.setattr(bounds, "_screen_plan", lambda *args: plan)
        read, _, fill = bounds._screen_rows(M, N, [0.75])
        assert read.tolist() == [k - 5, k + 5]
        assert sorted(fill.tolist()) == list(range(k - 4, k + 5))

    @pytest.mark.parametrize("M", [4, 5, 4096])
    def test_screen_is_nondecreasing_along_nested_grids(self, M):
        # the bounds check's nested grids, there at M = 64, at the ends of
        # the screened M range, up to the CLI's limit of 2^30: the fill stays
        # within the screen's estimate (else it raises), and every maximum
        # is within the paper's bound C(p) pi / M
        assert bounds._screens(M, 1 << 30, (0.51, 0.75, EIGHT_OVER_PI_SQ))
        falls, ratio = suites.nested_grid_worst(M)
        assert falls == 0 and ratio <= 1.0

    @pytest.mark.parametrize("M, N, ps, screened", ROUTES, ids=[
        f"{M}-{N}-{len(ps)}-{'screen' if screened else 'dense'}" for M, N, ps, screened in ROUTES])
    def test_route_at_the_measured_points(self, M, N, ps, screened):
        # each sweep takes the route that was faster where it was timed: the
        # route changes no bit, only the time
        assert bounds._screens(M, N, ps) == screened

    @pytest.mark.parametrize("M, ps", [(64, [0.75, 0.9]), (3, [0.75]), (4097, [0.75])])
    def test_dense_sweep_outside_the_screen(self, monkeypatch, M, ps):
        # a level above 8/pi^2, M < 4 or M > 4096 takes the dense sweep, at an
        # N where M = 64 at level 0.75 alone is screened
        N = 1 << 20
        assert bounds._screens(64, N, [0.75])
        calls = []
        monkeypatch.setattr(bounds, "_full_worst_errors",
                            lambda *a: calls.append(a) or np.zeros(len(ps)))
        monkeypatch.setattr(bounds, "_screened_worst_errors", lambda *a: pytest.fail(
            "the screen ran outside its regime"))
        bounds.worst_probabilistic_errors(M, N, ps)
        assert calls == [(M, N, ps)]


class TestAvgError:
    def test_degenerate_single_mean(self):
        # N=1 concentrates the uniform-mean measure on k in {0, 1} only
        rec = avg_probabilistic_error(4, 1, 0.75, Measure.UNIFORM_MEANS)
        expected = 0.5 * level_errors([0, 1], 4, [0.75]).sum()
        assert rec.value == pytest.approx(expected, abs=1e-15)

    def test_weighted_sum_matches_direct(self):
        from qsum.boolfn import class_weights

        N, M, p = 64, 6, 0.75
        for measure in Measure:
            rec = avg_probabilistic_error(M, N, p, measure)
            w = class_weights(measure, N)
            direct = float(
                np.dot(w, level_errors(np.arange(N + 1) / N, M, [p])[0])
            )
            assert rec.value == pytest.approx(direct, rel=1e-13)

    def test_levels_share_one_weight_build_and_one_sweep(self, monkeypatch):
        # the multi-level driver gives each level's one-level record, bit for
        # bit, from one set of class weights and one level_errors call per chunk
        N, M, ps = 1 << 12, 40, [0.6, 0.75, EIGHT_OVER_PI_SQ, 0.9]
        single = {measure: [avg_probabilistic_error(M, N, p, measure) for p in ps]
                  for measure in Measure}
        calls = []
        for name in ("class_weights", "level_errors"):
            original = getattr(bounds, name)
            monkeypatch.setattr(bounds, name, lambda *a, _f=original, _n=name:
                                calls.append(_n) or _f(*a))
        for measure in Measure:
            calls.clear()
            assert avg_probabilistic_errors(M, N, ps, measure) == single[measure]
            assert calls == ["class_weights", "level_errors"]

    def test_chunks_fix_the_weighted_sum(self, chunk_sizes):
        # the 2^14 + 1 means at M = 128 are chunks of 2^14 means and 1, one
        # np.dot each; the values are those of that partition.  Under p1 the
        # last chunk, k = N, has weight 2^-N = 0.0 and is skipped
        levels = [0.75, 0.99]
        records = avg_probabilistic_errors(128, 1 << 14, levels, Measure.UNIFORM_MEANS)
        assert chunk_sizes == [1 << 14, 1]
        assert [r.value.hex() for r in records] == ["0x1.a9ce21a094560p-8", "0x1.36ccbf819ec1fp-3"]
        chunk_sizes.clear()
        records = avg_probabilistic_errors(128, 1 << 14, levels, Measure.UNIFORM_FUNCTIONS)
        assert chunk_sizes == [1 << 14]
        assert [r.value.hex() for r in records] == ["0x1.d6ead8b895656p-9", "0x1.63e13fbcfba5fp-4"]

    def test_chunks_without_weight_are_skipped(self, chunk_sizes):
        # the p1 weights are 0.0 beyond sqrt(373 N) = 19.31 sqrt(N) means
        # either side of N/2, so a sweep evaluates only the chunks around the
        # middle; the values are those of the sweep over every chunk
        N = 1 << 20
        records = avg_probabilistic_errors(64, N, [0.51, 0.75], Measure.UNIFORM_FUNCTIONS)
        assert 0 < sum(chunk_sizes) < (N + 1) / 8
        assert [r.value.hex() for r in records] == ["0x1.98844cdb32236p-12"] * 2

    def test_uniform_means_bounded_by_worst(self):
        worst = worst_probabilistic_error(32, 1 << 8, 0.75).value
        avg = avg_probabilistic_error(32, 1 << 8, 0.75, Measure.UNIFORM_MEANS).value
        assert 0.0 < avg <= worst


class TestVCalculus:
    def test_round_trip(self):
        for p in np.linspace(FOUR_OVER_PI_SQ, EIGHT_OVER_PI_SQ, 50):
            assert v_func(v_inverse(float(p))) == pytest.approx(float(p), abs=1e-10)

    def test_array_forms_give_the_floats_bits(self):
        # the calculus suite runs its grids through the array forms; each
        # entry must be the float form's value, bit for bit
        deltas = np.concatenate([[0.0, 1e-10, -1e-10, 1.0 - 1e-10, 1.0],
                                 np.linspace(0.0, 1.0, 1001)])
        levels = np.linspace(FOUR_OVER_PI_SQ, EIGHT_OVER_PI_SQ, 101)
        for f, grid in ((v_func, deltas), (g_func, deltas), (h_func, deltas),
                        (v_inverse, levels)):
            want = [f(float(x)) for x in grid]
            assert {type(x) for x in want} == {float}
            assert [x.hex() for x in f(grid).tolist()] == [x.hex() for x in want], f
        with pytest.raises(ValueError):
            v_inverse(np.array([0.5, 0.9]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            v_inverse(0.3)
        with pytest.raises(ValueError):
            v_inverse(0.9)

    def test_c_bound_is_one_minus_a_50_digit_v_inverse(self):
        # d solves v(d) = p on [1/4, 1/2] at 50 digits, on a 41-point grid of
        # [4/pi^2, 8/pi^2] with both ends; C(p) was 4.55e-13 from 1 - d at
        # most.  At 8/pi^2 the float lies on the safe side of 3/4
        # (0x1.7fffffffff000p-1)
        with mpmath.workdps(50):
            for p in np.linspace(FOUR_OVER_PI_SQ, EIGHT_OVER_PI_SQ, 41).tolist():
                d = mpmath.findroot(lambda d: (mpmath.sinpi(d) / (mpmath.pi * d)) ** 2 - p,
                                    mpmath.mpf(3) / 8)
                assert abs(c_bound(p, 64) - (1 - d)) <= 1e-12, p
        assert c_bound(EIGHT_OVER_PI_SQ, 64) <= 0.75

    def test_c_bound_branches(self):
        assert c_bound(0.1, 7) == 0.5
        assert c_bound(EIGHT_OVER_PI_SQ, 7) == pytest.approx(0.75, abs=1e-10)
        assert c_bound(0.9, 16) == 16 / math.pi


class TestHelperFunctions:
    def test_h_at_quarter(self):
        assert h_func(0.25) == pytest.approx(EIGHT_OVER_PI_SQ, abs=1e-12)

    def test_w_at_half(self):
        for M in (1, 2, 5, 16, 64):
            expected = 1.0 / (M**2 * math.sin(math.pi / (2 * M)) ** 2)
            assert dirichlet_kernel_sq(0.5, M) == pytest.approx(expected, rel=1e-14)
            assert dirichlet_kernel_sq(0.5, M) >= FOUR_OVER_PI_SQ

    def test_limits_at_zero_and_one(self):
        assert g_func(0.0) == 1.0
        assert g_func(1.0) == 1.0
        assert h_func(0.0) == 1.0
        assert dirichlet_kernel_sq(0.0, 9) == 1.0


class TestWA4Bound:
    def test_small_case_value(self):
        expected = min(
            3 * math.pi / 16,
            math.sqrt(3 / (2 * math.pi)) * math.sqrt(1 + math.pi**2 / 64) * math.e ** (1 / 12),
        )
        assert wa4_upper_bound(4, 2) == pytest.approx(expected, rel=1e-15)

    def test_branch_selection_is_a_plain_min(self):
        # which branch wins is decided by direct comparison of the two
        for M, N in ((4, 1 << 12), (1 << 20, 1 << 12), (64, 4), (8, 1 << 20)):
            rate_branch = 0.75 * math.pi / M
            moment_branch = (
                math.sqrt(3 / (2 * math.pi))
                * math.sqrt(1 + math.pi**2 / (4 * M * M))
                * math.exp(1 / (12 * (N - 1)))
                / math.sqrt(N - 1)
            )
            assert wa4_upper_bound(M, N) == min(rate_branch, moment_branch)
        # at M=4, N=2^12 the moment branch is the active one
        assert wa4_upper_bound(4, 1 << 12) < 0.75 * math.pi / 4

    def test_dominates_average_error(self):
        N = 1 << 12
        rec = avg_probabilistic_error(32, N, 0.75, Measure.UNIFORM_FUNCTIONS)
        assert rec.value <= wa4_upper_bound(32, N)

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            wa4_upper_bound(6, 64)


class TestWAn4Bound:
    def test_direct_expression(self):
        M, N, beta = 7, 1 << 16, 4.0
        expected = (math.pi / (4 * M)) * (1 - 1 / M - 1 / beta) * (
            1 - 2 * math.exp(-N * math.pi**2 / (8 * beta * M) ** 2)
        )
        assert wan4_lower_bound(M, N, beta) == pytest.approx(expected, rel=1e-15)

    def test_positive_at_moderate_sizes(self):
        val = wan4_lower_bound(6, 1 << 12, 2.0)
        assert val > 0
        rec = avg_probabilistic_error(6, 1 << 12, 0.75, Measure.UNIFORM_FUNCTIONS)
        assert rec.value >= val

    def test_vanishing_factor_near_beta_one(self):
        # N large keeps the concentration factor positive, so the sign is
        # carried by (1 - 1/M - 1/beta), which vanishes as beta -> 1+
        assert wan4_lower_bound(50, 1 << 20, 1.0 + 1e-9) <= 0

    def test_rejects_divisible_or_small_m_or_bad_beta(self):
        with pytest.raises(ValueError):
            wan4_lower_bound(8, 64, 2.0)
        with pytest.raises(ValueError):
            wan4_lower_bound(3, 64, 2.0)
        with pytest.raises(ValueError):
            wan4_lower_bound(6, 64, 1.0)
        with pytest.raises(ValueError):
            wan4_lower_bound(6, 64, math.nan)


class TestQueriesForEpsilon:
    def test_known_counts(self):
        M = queries_for_epsilon(0.01, EIGHT_OVER_PI_SQ)
        assert M == 236  # ceil(75 pi) ; the run then uses 235 queries
        assert queries_for_epsilon(0.1, 0.75) == 23

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            queries_for_epsilon(0.0, 0.75)
        with pytest.raises(ValueError):
            queries_for_epsilon(1.5, 0.75)
        with pytest.raises(ValueError):
            queries_for_epsilon(0.1, 0.5)
        with pytest.raises(ValueError):
            queries_for_epsilon(0.1, 0.95)


P1, P2 = Measure.UNIFORM_FUNCTIONS, Measure.UNIFORM_MEANS
WORST, AVG = Setting.WORST_PROBABILISTIC, Setting.AVG_PROBABILISTIC


class TestErrorRecord:
    # One case per branch of the bound policy: (setting, measure, M, N, p),
    # the attached ref, its named formula, and whether it is a lower bound.
    @pytest.mark.parametrize("setting,measure,M,N,p,ref,bound,lower", [
        (WORST, None, 8, 64, EIGHT_OVER_PI_SQ, "ImprovedCor", 0.75 * math.pi / 8, False),
        (WORST, None, 8, 64, 0.6, "GlobalCor", c_bound(0.6, 8) * math.pi / 8, False),
        (AVG, P1, 8, 256, 0.75, "WA4", wa4_upper_bound(8, 256), False),
        (AVG, P1, 8, 1, 0.75, "GlobalCor", c_bound(0.75, 8) * math.pi / 8, False),
        (AVG, P1, 6, 1 << 12, 0.75, "WAn4", wan4_lower_bound(6, 1 << 12, 2.0), True),
        (AVG, P1, 3, 256, 0.75, "GlobalCor", c_bound(0.75, 3) * math.pi / 3, False),
        (AVG, P2, 8, 256, 0.75, "GlobalCor", c_bound(0.75, 8) * math.pi / 8, False),
        # WA4 is derived up to 8/pi^2, and the value here is above it, where
        # C(p) pi/M is 1
        (AVG, P1, 64, 1 << 12, 0.9, "GlobalCor", 1.0, False),
        # c_bound(0.99, 236) * pi / 236 rounds to 1.0000000000000002
        (WORST, None, 236, 1 << 14, 0.99, "GlobalCor", 1.0, False),
    ], ids=["ImprovedCor", "worst-GlobalCor", "WA4", "WA4-N1-GlobalCor", "WAn4",
            "p1-small-M-GlobalCor", "p2-GlobalCor", "p1-above-8-over-pi2-GlobalCor",
            "worst-above-8-over-pi2-GlobalCor"])
    def test_attached_bound(self, setting, measure, M, N, p, ref, bound, lower):
        if setting is WORST:
            rec = worst_probabilistic_error(M, N, p)
        else:
            rec = avg_probabilistic_error(M, N, p, measure)
        assert (rec.setting, rec.measure, rec.bound_ref) == (setting, measure, ref)
        assert rec.bound == bound  # exactly: the same formula, evaluated once
        assert rec.bound_holds
        # bound_holds faces the bound's direction: past it on the wrong side fails
        assert replace(rec, value=rec.bound + 0.1).bound_holds is lower
        assert replace(rec, value=rec.bound - 0.1).bound_holds is not lower

    def test_a_ref_outside_the_statements_is_an_upper_bound(self):
        rec = replace(avg_probabilistic_error(6, 1 << 12, 0.75, P1), bound_ref="BHMT")
        assert replace(rec, value=rec.bound - 0.1).bound_holds
        assert not replace(rec, value=rec.bound + 0.1).bound_holds

    @pytest.mark.parametrize("ref,tighten", [
        ("GlobalCor", lambda bound, p: 0.9 * bound),
        # only the worst case comes within 0.9 of it, and at 8/pi^2 it
        # carries ImprovedCor: the check must run GlobalCor there too
        ("GlobalCor", lambda bound, p: 0.9 * bound if p == EIGHT_OVER_PI_SQ else bound),
        ("WAn4", lambda bound, p: bound + 1.0),  # a lower bound tightens upward
    ], ids=["GlobalCor", "GlobalCor-beyond-ImprovedCor", "WAn4"])
    def test_every_statement_check_fails_on_a_row_made_too_tight(self, monkeypatch, ref,
                                                                 tighten):
        applies, bound, lower = bounds._STATEMENTS[ref]
        monkeypatch.setitem(bounds._STATEMENTS, ref, (
            applies, lambda M, N, p, beta: tighten(bound(M, N, p, beta), p), lower))
        # the suite yields lazily, so it stops at this check, its third
        assert not next(passed for name, passed, _ in suites._suite_bounds()
                        if name == "every attached bound holds at p <= 0.99")


class NoNumpy:
    def __getattr__(self, name):
        pytest.fail(f"refuse_sweeps used np.{name}")


class TestRefuseSweeps:
    # (setting, Ms, n, levels) at each limit's edge; the CLI's refusal table
    # checks the same messages end to end
    @pytest.mark.parametrize("setting,Ms,n,ps", [
        (WORST, [3], 24, [0.75]),  # dense: M < 4
        (AVG, [64], 24, [0.75]),
        (WORST, [64], 30, [0.75]),  # screened
        (AVG, [1 << 20], 24, [0.3, EIGHT_OVER_PI_SQ]),  # 4 cells per mean up to 8/pi^2
        (WORST, [64], 23, [0.6, 0.9]),  # 16 cells per mean
        (WORST, [4096], 15, [1.0]),  # all M cells at p = 1
    ])
    def test_accepted_edges_touch_no_numpy(self, monkeypatch, setting, Ms, n, ps):
        monkeypatch.setattr(bounds, "np", NoNumpy())
        assert bounds.refuse_sweeps(setting, 1 << n, Ms, ps) is None

    @pytest.mark.parametrize("setting,Ms,n,ps,message", [
        (WORST, [3], 25, [0.75],
         "a sweep at n=25 needs N+1 = 2^25+1 means; the limit is 2^24+1 means (n <= 24)"),
        (AVG, [64], 25, [0.75],
         "a sweep at n=25 needs N+1 = 2^25+1 means and 8(2^25+1) bytes of class weights; "
         "the limit is 2^24+1 means (n <= 24)"),
        (WORST, [64], 31, [0.75],
         "a sweep at n=31 needs N+1 = 2^31+1 means; the limit is 2^30+1 means for a "
         "screened worst case (n <= 30)"),
        # past both limits, a dense M cites the dense one
        (WORST, [64, 3], 31, [0.75],
         "a sweep at n=31 needs N+1 = 2^31+1 means; the limit is 2^24+1 means (n <= 24)"),
        (WORST, [64], 24, [0.6, 0.9],
         "a sweep at n=24, M=64 and p=0.9 needs (2^24+1) x 16 outcome cells; "
         "the limit is 2^28 cells"),
        (WORST, [4096], 16, [1.0],
         "a sweep at n=16, M=4096 and p=1 needs (2^16+1) x 4096 outcome cells; "
         "the limit is 2^28 cells"),
        # an M below 1 before any size, and before the M ahead of it sweeps
        (AVG, [-3], 25, [0.5], "M must be >= 1, got -3"),
        (WORST, [4, 0], 12, [0.5], "M must be >= 1, got 0"),
        # an M above the outcome limit as early, before the size n = 25
        (AVG, [4, (1 << 20) + 1], 25, [0.5],
         "M=1048577 is above the limit of 1048576 outcomes"),
    ])
    def test_first_refused_size_raises(self, monkeypatch, setting, Ms, n, ps, message):
        monkeypatch.setattr(bounds, "np", NoNumpy())
        with pytest.raises(ValueError) as exc:
            bounds.refuse_sweeps(setting, 1 << n, Ms, ps)
        assert str(exc.value) == message
