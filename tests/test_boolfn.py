import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qsum import boolfn
from qsum.boolfn import (
    BooleanFunction,
    Measure,
    class_weights,
    first_moment,
    sigma_of,
)


class TestBooleanFunction:
    def test_mean_all_zero(self):
        assert BooleanFunction(3, (0,) * 8).mean == 0

    def test_mean_all_one(self):
        assert BooleanFunction(2, (1,) * 4).mean == 1

    def test_mean_is_exact_popcount_fraction(self):
        f = BooleanFunction(3, (1, 0, 1, 1, 0, 0, 0, 0))
        assert f.mean == Fraction(3, 8)

    def test_mean_is_a_float_equal_to_popcount_over_n(self):
        # every denominator is a power of two, so popcount/N is exact
        for n, table in ((0, (1,)), (3, (1, 0, 1, 1, 0, 0, 0, 0)),
                         (6, tuple(np.random.default_rng(6).integers(0, 2, 64).tolist()))):
            mean = BooleanFunction(n, table).mean
            assert type(mean) is float
            assert mean == Fraction(sum(table), 1 << n)

    def test_from_mean_builds_canonical_table(self):
        f = BooleanFunction.from_mean(3, 5)
        assert f.values == (1, 1, 1, 1, 1, 0, 0, 0)
        assert f.mean == Fraction(5, 8)

    def test_from_mean_rejects_bad_k(self):
        with pytest.raises(ValueError):
            BooleanFunction.from_mean(2, 5)

    def test_rejects_wrong_table_length(self):
        with pytest.raises(ValueError):
            BooleanFunction(2, (0, 1, 0))

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BooleanFunction(1, (0, 2))

    def test_hex_round_trip(self):
        # hand-encoded tables parse back to the tables they encode
        for n, text, values in (
            (2, "9", (1, 0, 0, 1)),
            (3, "5c", (0, 1, 0, 1, 1, 1, 0, 0)),
            (4, "e1a7", (1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1)),
            (6, "8000000000000001", (1,) + (0,) * 62 + (1,)),
        ):
            assert BooleanFunction.from_hex(n, text) == BooleanFunction(n, values)

    def test_hex_most_significant_nibble_first(self):
        assert BooleanFunction.from_hex(3, "b0").values == (1, 0, 1, 1, 0, 0, 0, 0)
        assert BooleanFunction.from_hex(3, "0x0F").values == (0, 0, 0, 0, 1, 1, 1, 1)

    def test_binary_serialization_below_four_points(self):
        assert BooleanFunction.from_hex(1, "10").values == (1, 0)
        assert BooleanFunction.from_hex(1, "01").values == (0, 1)
        assert BooleanFunction.from_hex(0, "1").values == (1,)

    def test_from_hex_matches_a_digit_by_digit_parse(self):
        # the byte translation gives the tuple of plain ints that int() per
        # binary digit gives; table() is a fresh writable int8 copy
        rng = np.random.default_rng(12)
        text = "".join(rng.choice(list("0123456789abcdefABCDEF"), 1 << 10))
        f = BooleanFunction.from_hex(12, text)
        assert f.values == tuple(int(c) for c in format(int(text, 16), "04096b"))
        assert {type(v) for v in f.values} == {int}
        table = f.table()
        assert table.dtype == np.int8 and table.flags.writeable
        table[:] = 1 - table
        assert np.array_equal(f.table(), f.values)

    def test_from_hex_rejects_malformed(self):
        with pytest.raises(ValueError):
            BooleanFunction.from_hex(3, "zz")
        with pytest.raises(ValueError):
            BooleanFunction.from_hex(3, "abc")
        with pytest.raises(ValueError):
            BooleanFunction.from_hex(1, "12")

    @pytest.mark.parametrize("n,text", [
        (3, "-1"),        # a sign: int() would read it as all ones
        (3, "+f"),
        (4, "f_ff"),      # an inner underscore
        (4, "0x0xff"),    # a doubled prefix
        (3, " f"),
        (3, "\u0661\u0662"),  # non-ASCII digits that int() also accepts
    ])
    def test_from_hex_rejects_non_hex_bodies(self, n, text):
        with pytest.raises(ValueError, match="is not a hex digit"):
            BooleanFunction.from_hex(n, text)


class TestSigmaOf:
    def test_zero_mean(self):
        assert sigma_of(Fraction(0), 8).sigma == 0.0

    def test_half_mean(self):
        sv = sigma_of(Fraction(1, 2), 8)
        assert sv.sigma == pytest.approx(2.0, abs=1e-12)
        assert sv.theta == pytest.approx(math.pi / 4, abs=1e-15)

    def test_three_quarters_mean(self):
        assert sigma_of(Fraction(3, 4), 12).sigma == pytest.approx(4.0, abs=1e-12)

    def test_monotone_in_a(self):
        sigmas = [sigma_of(Fraction(k, 32), 10).sigma for k in range(33)]
        assert all(b > a for a, b in zip(sigmas, sigmas[1:]))

    def test_range(self):
        assert sigma_of(1, 7).sigma == pytest.approx(3.5, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_of(Fraction(3, 2), 4)
        with pytest.raises(ValueError):
            sigma_of(-0.1, 4)
        with pytest.raises(ValueError):
            sigma_of(0.5, 0)


class TestSigmasOf:
    @pytest.mark.parametrize("M", [1, 16, 64, 236, 1024])
    def test_equals_the_formula_bit_for_bit(self, M):
        means = np.arange(4097) / 4096
        before = means.copy()
        got = boolfn.sigmas_of(means, M)
        want = (M / math.pi) * np.arcsin(np.sqrt(before))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(means.view(np.int64), before.view(np.int64))
        assert not np.shares_memory(got, means)

    def test_allocates_one_array_of_the_means_size(self):
        means = np.arange(1 << 16) / (1 << 16)
        tracemalloc.start()
        try:
            sigma = boolfn.sigmas_of(means, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sigma.nbytes <= peak < sigma.nbytes + (1 << 14)


class TestClassWeight:
    def test_uniform_functions_small(self):
        assert class_weights(Measure.UNIFORM_FUNCTIONS, 4)[0] == 1 / 16

    def test_uniform_means_is_flat(self):
        assert class_weights(Measure.UNIFORM_MEANS, 4).tolist() == [0.2] * 5

    def test_uniform_means_hold_one_read_only_value(self):
        # every entry is the one stored value 1/(N+1), viewed with stride 0,
        # so the weights take 8 bytes at any N, not 8(N+1); a write raises
        N = 1 << 20
        weights = class_weights(Measure.UNIFORM_MEANS, N)
        assert weights.shape == (N + 1,) and weights.strides == (0,)
        assert weights[0] == weights[N] == 1.0 / (N + 1)
        with pytest.raises(ValueError, match="read-only"):
            weights[N // 2] = 0.0

    def test_log_space_matches_big_integer_oracle(self):
        # big-integer binomial oracle, correctly rounded through Fraction; at
        # N = 300 the points straddle the switch from exact to log-space entries
        for N, ks in ((1024, (512, 300, 700, 64, 960)),
                      (300, (0, 1, 63, 64, 150, 237, 299, 300))):
            w = class_weights(Measure.UNIFORM_FUNCTIONS, N)
            for k in ks:
                exact = float(Fraction(math.comb(N, k), 2**N))
                assert w[k] == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("N, bound, middle", [
        (1 << 8, 2e-14, 2e-14), (1 << 10, 2e-13, 3e-14), (1 << 12, 4e-13, 6e-14)])
    def test_normal_weights_keep_their_measured_accuracy(self, N, bound, middle):
        # the relative error of every normal weight against the exact
        # C(N, k) 2^-N, in integers, was at most 1.43e-14, 1.41e-13 and
        # 2.92e-13 at N = 2^8, 2^10 and 2^12, and 1.43e-14, 2.10e-14 and
        # 4.13e-14 within 3 sqrt(N) of N/2; the bounds are under 1.5x these
        w = class_weights(Measure.UNIFORM_FUNCTIONS, N)
        comb, errors = 1, np.zeros(N + 1)
        for k, x in enumerate(w.tolist()):
            if x >= sys.float_info.min:
                num, den = x.as_integer_ratio()
                errors[k] = abs((num << N) - comb * den) / (comb * den)
            comb = comb * (N - k) // (k + 1)
        assert errors.max() <= bound
        assert errors[np.abs(np.arange(N + 1) - N / 2) <= 3 * math.sqrt(N)].max() <= middle

    def test_exact_edge_is_bit_identical_to_the_fraction_form(self):
        # the entries within 64 of either end are the correctly rounded
        # big-integer ratio, bit for bit, up to N = 2^20 where most underflow
        for N in [*range(1, 301), 1 << 12, 1 << 16, 1 << 20]:
            w = class_weights(Measure.UNIFORM_FUNCTIONS, N)
            edge = min(64, (N + 2) // 2)
            exact = np.array([float(Fraction(math.comb(N, k), 1 << N)) for k in range(edge)])
            for side in (w[:edge], w[::-1][:edge]):
                assert np.array_equal(side.view(np.int64), exact.view(np.int64)), N

    @pytest.mark.parametrize("N", [1 << 12, (1 << 16) + 3])
    def test_slices_change_no_bit(self, monkeypatch, N):
        # the Stirling middle in slices of 7 means, and in one slice
        weights = []
        for size in (7, 1 << 62):
            monkeypatch.setattr(boolfn, "_WEIGHT_SLICE", size)
            weights.append(class_weights(Measure.UNIFORM_FUNCTIONS, N).view(np.int64))
        assert np.array_equal(*weights)

    def test_support_only_build_equals_the_whole_range_build(self):
        # only the means within isqrt(373 N) + 1 of N/2 are evaluated; the
        # weights are those of the exact tail plus one Stirling call over the
        # whole middle, bit for bit, zeros included.  From N = 1445 on the
        # exact tail is all 0.0
        for N in [*(1 << n for n in range(22)), 3, 127, 129, 255, *range(1440, 1451),
                  (1 << 16) + 3]:
            edge = min(64, (N + 2) // 2)
            whole = np.empty(N + 1)
            for k in range(edge):
                whole[k] = whole[N - k] = boolfn._weight_uniform_functions(N, k)
            middle = np.arange(edge, N + 1 - edge, dtype=np.float64)
            whole[edge:N + 1 - edge] = np.exp(boolfn._log_weights_stirling(N, middle))
            w = class_weights(Measure.UNIFORM_FUNCTIONS, N)
            assert np.array_equal(w.view(np.int64), whole.view(np.int64)), N

    @pytest.mark.parametrize("N", [1 << 20, 1 << 24])
    def test_only_the_support_is_evaluated(self, monkeypatch, N):
        # no exact binomial, which is 0.0 this far out, and at most
        # 2 isqrt(373 N) + 3 Stirling means, none beyond isqrt(373 N) + 1 of N/2
        exact, stirling = [], []
        monkeypatch.setattr(boolfn, "_weight_uniform_functions",
                            lambda *a: exact.append(a) or 0.0)
        log_weights = boolfn._log_weights_stirling
        monkeypatch.setattr(boolfn, "_log_weights_stirling",
                            lambda N, ks: stirling.append(ks) or log_weights(N, ks))
        class_weights(Measure.UNIFORM_FUNCTIONS, N)
        ks = np.concatenate(stirling)
        assert exact == []
        assert ks.size <= 2 * math.isqrt(373 * N) + 3
        assert np.abs(ks - N / 2).max() <= math.isqrt(373 * N) + 1

    def test_slices_keep_the_peak_near_the_weight_array(self):
        # at N = 2^20 the 8 MiB weight array plus one slice's temporaries,
        # about nine arrays of _WEIGHT_SLICE means
        tracemalloc.start()
        try:
            weights = class_weights(Measure.UNIFORM_FUNCTIONS, 1 << 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert weights.nbytes <= peak <= 10 << 20

    @pytest.mark.parametrize("measure", list(Measure))
    @pytest.mark.parametrize("N", [1, 2, 7, 64, 129, 1024, 1 << 12])
    def test_weights_sum_to_one(self, measure, N):
        assert abs(class_weights(measure, N).sum() - 1.0) <= 1e-12


class TestFirstMoment:
    def test_odd_closed_form(self):
        # 2^-3 * C(2,1)
        assert first_moment(Measure.UNIFORM_FUNCTIONS, 3) == 0.25

    def test_even_closed_form(self):
        # 2^-3 * C(2,1)
        assert first_moment(Measure.UNIFORM_FUNCTIONS, 2) == 0.25

    def test_uniform_means_small(self):
        assert first_moment(Measure.UNIFORM_MEANS, 2) == pytest.approx(1 / 3, abs=1e-15)
