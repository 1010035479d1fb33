import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from qsum import simulator, suites
from qsum.boolfn import BooleanFunction, sigma_of
from qsum.closedform import outcome_probabilities
from qsum.simulator import (
    Primitive,
    QubitLayout,
    StateVector,
    apply_grover,
    apply_lambda,
    apply_primitive,
    apply_standard_query,
    grover_eigenvectors,
    grover_spectrum,
    measure_index,
    run_qs,
    run_qs_batch,
)


def random_function(rng, n):
    return BooleanFunction(n, tuple(int(b) for b in rng.integers(0, 2, 1 << n)))


def _written_out_walsh(blocks):
    # the Walsh-Hadamard transform along axis -2 of (..., N, T) blocks, each
    # stage's butterflies over the whole buffer at once, then 1/sqrt(N)
    *lead, n, t = blocks.shape
    h = 1
    while h < n:
        v = blocks.reshape(*lead, n // (2 * h), 2, h, t)
        lo, hi = v[..., 0, :, :], v[..., 1, :, :]
        top = lo.copy()
        lo += hi
        np.subtract(top, hi, out=hi)
        h *= 2
    blocks *= 1.0 / math.sqrt(n)


class TestLayout:
    @pytest.mark.parametrize("M,m", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (16, 4), (17, 5)])
    def test_index_register_size(self, M, m):
        layout = QubitLayout(n=3, M=M)
        assert layout.m == m
        assert layout.qubits == 3 + m
        if M >= 2:
            assert 1 << (layout.m - 1) < M <= 1 << layout.m

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            QubitLayout(n=-1, M=4)
        with pytest.raises(ValueError):
            QubitLayout(n=2, M=0)


class TestPrimitives:
    @pytest.mark.parametrize("shape,dtype", [
        pytest.param(shape, dtype, id=f"{np.dtype(dtype).name}-{'x'.join(map(str, shape))}")
        for shape, dtype in [
            ((1, 1), complex), ((8, 1), complex), ((64, 3), complex), ((4, 256, 1), complex),
            ((1 << 12, 2), complex), ((3, 1 << 10, 4), complex),
            ((1, 3), float), ((2, 1), float), ((4, 5), float), ((8, 2), float),
        ]])
    def test_walsh_twin_plan_changes_no_bit(self, shape, dtype):
        # a plan's stages alternate between the buffer and its twin, 0 to 12
        # of them, odd and even counts, and the result lands in the caller's
        # buffer with the bits of each stage's butterflies over the whole
        # buffer at once, on stacks of runs and on real (N, K) buffers like
        # the chain's.  The chain runs one plan 2M-1 times, so a plan run
        # twice, with S0's negation between, gives the bits of two fresh ones
        rng = np.random.default_rng(37)
        blocks = rng.normal(size=shape).astype(dtype)
        if dtype is complex:
            blocks.imag = rng.normal(size=shape)
        fresh = blocks.copy()
        _written_out_walsh(fresh)
        plan = simulator._WalshPlan(blocks)
        plan.run()
        assert plan.blocks is blocks
        assert np.array_equal(blocks.view(np.int64), fresh.view(np.int64))
        for x in (blocks, fresh):
            x[..., 0, :] *= -1.0
        plan.run(-1.0)
        simulator._WalshPlan(fresh).run(-1.0)
        assert np.array_equal(blocks.view(np.int64), fresh.view(np.int64))

    @pytest.mark.parametrize("n", range(7))
    def test_primitives_match_written_out_butterflies(self, n):
        # the Walsh primitive, the Grover operator (-(W S0 W) S_f) and the
        # index-controlled power (block j gets j Grover applications), each
        # from plans built per call, bit for bit on seeded random states
        rng = np.random.default_rng(53 + n)
        for M in (1, 3, 4):
            layout = QubitLayout(n=n, M=M)
            f = random_function(rng, n)
            signs = (1.0 - 2.0 * f.table().astype(np.float64))[:, None]

            def grover(x):
                x *= signs
                _written_out_walsh(x)
                x[..., 0, :] *= -1.0
                _written_out_walsh(x)
                x *= -1.0

            state = StateVector.random(layout, rng)
            expected = state.blocks()[..., None].copy()
            _written_out_walsh(expected)
            apply_primitive(state, Primitive.WALSH_HADAMARD)
            grover(expected)
            apply_grover(state, f)
            for t in range(1, layout.index_dim):
                grover(expected[t:])
            apply_lambda(state, f)
            assert np.array_equal(state.amplitudes.view(np.int64),
                                  expected.reshape(-1).view(np.int64)), (n, M)

    def test_s0_flips_only_data_zero(self):
        layout = QubitLayout(n=3, M=2)
        state = StateVector.zero(layout)
        apply_primitive(state, Primitive.S0)
        assert state.amplitudes[0] == -1.0
        state2 = StateVector(np.eye(1, 16, 5)[0].astype(complex), layout)
        apply_primitive(state2, Primitive.S0)
        assert state2.amplitudes[5] == 1.0

    def test_query_requires_function(self):
        state = StateVector.zero(QubitLayout(n=2, M=2))
        with pytest.raises(ValueError):
            apply_primitive(state, Primitive.QUERY)

    def test_query_requires_matching_register(self):
        state = StateVector.zero(QubitLayout(n=2, M=2))
        with pytest.raises(ValueError):
            apply_primitive(state, Primitive.QUERY, BooleanFunction.from_mean(3, 1))


class TestStandardQuery:
    def test_identity_for_zero_function(self):
        rng = np.random.default_rng(3)
        layout = QubitLayout(n=4, M=2)
        state = StateVector.random(layout, rng)
        ref = state.amplitudes.copy()
        apply_standard_query(state, BooleanFunction.from_mean(3, 0))
        assert np.array_equal(state.amplitudes, ref)

    def test_plain_ancilla_records_function_value(self):
        f = BooleanFunction.from_mean(2, 4)  # constant one
        amps = np.zeros(8, dtype=complex)
        amps[2 * 3 + 0] = 1.0  # |j=3>|0>
        state = StateVector(amps, QubitLayout(n=3, M=1))
        apply_standard_query(state, f)
        assert state.amplitudes[2 * 3 + 1] == 1.0

    def test_requires_ancilla_qubit(self):
        state = StateVector.zero(QubitLayout(n=3, M=1))
        with pytest.raises(ValueError):
            apply_standard_query(state, BooleanFunction.from_mean(3, 2))


class TestGrover:
    def test_uniform_state_fixed_when_mean_zero(self):
        f = BooleanFunction.from_mean(3, 0)
        state = StateVector(np.full(8, 1 / math.sqrt(8), dtype=complex),
                            QubitLayout(n=3, M=1))
        apply_grover(state, f)
        assert np.abs(state.amplitudes - 1 / math.sqrt(8)).max() <= 1e-12

    def test_uniform_state_negated_when_mean_one(self):
        f = BooleanFunction.from_mean(3, 8)
        state = StateVector(np.full(8, 1 / math.sqrt(8), dtype=complex),
                            QubitLayout(n=3, M=1))
        apply_grover(state, f)
        assert np.abs(state.amplitudes + 1 / math.sqrt(8)).max() <= 1e-12


class TestLambda:
    def test_zero_function_fixes_reachable_states(self):
        # with mean 0 the Grover operator is +1 on the invariant line spanned
        # by the uniform data state, which is all the algorithm ever visits
        rng = np.random.default_rng(21)
        layout = QubitLayout(n=2, M=4)
        index_amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        index_amps /= np.linalg.norm(index_amps)
        uniform = np.full(4, 0.5, dtype=complex)
        state = StateVector(np.kron(index_amps, uniform), layout)
        ref = state.amplitudes.copy()
        apply_lambda(state, BooleanFunction.from_mean(2, 0))
        assert np.abs(state.amplitudes - ref).max() <= 1e-12

    def test_block_zero_untouched(self):
        rng = np.random.default_rng(22)
        f = random_function(rng, 3)
        data = rng.normal(size=8) + 1j * rng.normal(size=8)
        data /= np.linalg.norm(data)
        amps = np.zeros(16, dtype=complex)
        amps[:8] = data  # |0>|y> on an m=1 layout
        state = StateVector(amps, QubitLayout(n=3, M=2))
        apply_lambda(state, f)
        assert np.abs(state.amplitudes[:8] - data).max() <= 1e-15

    def test_block_j_gets_j_grover_applications(self):
        # block 3 of an m=2 register must match three sequential applications
        rng = np.random.default_rng(23)
        f = random_function(rng, 3)
        data = rng.normal(size=8) + 1j * rng.normal(size=8)
        data /= np.linalg.norm(data)
        amps = np.zeros(32, dtype=complex)
        amps[24:] = data  # |3>|y>
        state = StateVector(amps, QubitLayout(n=3, M=4))
        apply_lambda(state, f)
        oracle = StateVector(data.copy(), QubitLayout(n=3, M=1))
        for _ in range(3):
            apply_grover(oracle, f)
        assert np.abs(state.amplitudes[24:] - oracle.amplitudes).max() <= 1e-12


class TestSpectrum:
    def test_degenerate_means(self):
        assert grover_spectrum(Fraction(0)).lambda_plus == 1.0
        assert grover_spectrum(Fraction(0)).lambda_minus == 1.0
        assert grover_spectrum(Fraction(1)).lambda_plus == -1.0

    def test_half_mean_gives_quarter_turn(self):
        spec = grover_spectrum(Fraction(1, 2))
        assert spec.lambda_plus == pytest.approx(1j, abs=1e-15)
        assert spec.lambda_minus == pytest.approx(-1j, abs=1e-15)

    def test_quarter_mean_real_part(self):
        spec = grover_spectrum(Fraction(1, 4))
        assert spec.lambda_plus.real == pytest.approx(0.5, abs=1e-15)
        assert abs(spec.lambda_plus) == pytest.approx(1.0, abs=1e-12)
        assert spec.lambda_plus == pytest.approx(
            cmath.exp(2j * spec.theta), abs=1e-15
        )

    def test_eigen_relation(self):
        # the unitarity check "eigenvector relation Q psi = lambda psi" takes
        # 0 < a < 1; the degenerate means a in {0, 1} are checked here
        for n, k in ((1, 0), (1, 2), (3, 0), (3, 8)):
            f = BooleanFunction.from_mean(n, k)
            spec = grover_spectrum(Fraction(k, 1 << n))
            plus, minus = grover_eigenvectors(f)
            for vec, lam in ((plus, spec.lambda_plus), (minus, spec.lambda_minus)):
                state = StateVector(vec.copy(), QubitLayout(n=n, M=1))
                apply_grover(state, f)
                assert np.linalg.norm(state.amplitudes - lam * vec) <= 1e-10


class TestRunQS:
    def test_zero_function_outputs_zero(self):
        result = run_qs(BooleanFunction.from_mean(3, 0), 4, rng_seed=9)
        assert result.probabilities[0] == pytest.approx(1.0, abs=1e-12)
        assert result.record.outcome == 0
        assert result.output == 0.0

    def test_half_mean_outcomes(self):
        result = run_qs(BooleanFunction.from_mean(3, 4), 4, rng_seed=1)
        assert result.record.outcome in (1, 3)
        assert result.output == 0.5
        assert result.probabilities[1] == pytest.approx(0.5, abs=1e-12)
        assert result.probabilities[3] == pytest.approx(0.5, abs=1e-12)

    def test_matches_closed_form(self):
        marginal = run_qs(BooleanFunction.from_mean(3, 3), 3).probabilities
        probs = outcome_probabilities(sigma_of(Fraction(3, 8), 3).sigma, 3)[0]
        assert np.abs(marginal[:3] - probs).max() <= 1e-10

    def test_query_and_qubit_accounting(self):
        for n, M in ((2, 1), (3, 5), (4, 16)):
            result = run_qs(BooleanFunction.from_mean(n, 1), M)
            assert result.queries == M - 1
            assert result.qubits == n + result.layout.m

    def test_tail_outcomes_have_zero_probability(self):
        # exactly zero, so a sampled outcome always indexes output_grid(M)
        for n, M in ((4, 5), (0, 3), (2, 3), (3, 5), (1, 100), (5, 100)):
            result = run_qs(BooleanFunction.from_mean(n, (1 << n) // 3), M)
            assert result.layout.index_dim > M
            assert np.all(result.probabilities[M:] == 0.0)

    def test_m_one_edge(self):
        result = run_qs(BooleanFunction.from_mean(2, 3), 1, rng_seed=5)
        assert result.probabilities.tolist() == [1.0]
        assert result.record.outcome == 0
        assert result.output == 0.0
        assert result.queries == 0

    def test_samples_the_batch_marginal_once(self, monkeypatch):
        # the run draws from the marginal run_qs_batch returned, as
        # measure_index would from the final state, without recomputing it
        f = BooleanFunction.from_mean(5, 11)
        batch = run_qs_batch(5, 12, f.table()[None])
        state = StateVector(batch.amplitudes[0].reshape(-1), batch.layout)
        want = measure_index(state, np.random.default_rng(9))
        calls = []
        marginals = simulator._index_marginals
        monkeypatch.setattr(simulator, "_index_marginals",
                            lambda blocks: calls.append(blocks.shape) or marginals(blocks))
        monkeypatch.setattr(StateVector, "index_marginal", lambda self: pytest.fail(
            "run_qs recomputed the index marginal from the state"))
        result = run_qs(f, 12, rng_seed=9)
        assert calls == [(1, 16, 32)]
        assert result.record == want
        assert result.probabilities.tolist() == batch.probabilities[0].tolist()

    def test_seed_reproducibility(self):
        a = run_qs(BooleanFunction.from_mean(4, 7), 8, rng_seed=42)
        b = run_qs(BooleanFunction.from_mean(4, 7), 8, rng_seed=42)
        assert a.record.outcome == b.record.outcome
        assert a.output == b.output

    def test_default_seed_is_zero(self):
        # the CLI's --seed defaults to 0 too, so a library run without a seed
        # draws what `qsum simulate` without --seed prints
        f = BooleanFunction.from_mean(4, 7)
        default, seeded = run_qs(f, 8), run_qs(f, 8, rng_seed=0)
        assert default.record == seeded.record
        assert default.output == seeded.output


class TestBatchedCore:
    @staticmethod
    def _assert_chain_is_the_sweep(monkeypatch, n, M, tables):
        """run_qs_batch against the literal circuit run by run: Fourier,
        Walsh-Hadamard, the sweep apply_lambda and the inverse Fourier.  The
        chain enters with M equal blocks per run; blocks j >= M stay +0.0,
        where the sweep leaves -0.0, and blocks j < M and the marginals agree
        bit for bit."""
        entries = []
        chain = simulator._chain_blocks
        monkeypatch.setattr(simulator, "_chain_blocks",
                            lambda blocks, signs: entries.append(blocks.copy())
                            or chain(blocks, signs))
        batch = run_qs_batch(n, M, tables)
        (entry,) = entries
        assert entry.shape == (len(tables), M, 1 << n)
        assert (entry.imag == 0).all()
        assert (entry == entry[:, :1, :]).all()
        for k, row in enumerate(tables):
            state = StateVector.zero(QubitLayout(n=n, M=M))
            apply_primitive(state, Primitive.QFT)
            apply_primitive(state, Primitive.WALSH_HADAMARD)
            apply_lambda(state, BooleanFunction(n, tuple(row.tolist())))
            apply_primitive(state, Primitive.QFT_INVERSE)
            assert np.array_equal(batch.amplitudes[k, :M].view(np.int64),
                                  state.blocks()[:M].view(np.int64)), (n, M, k)
            assert not batch.amplitudes[k, M:].any() and not state.blocks()[M:].any()
            assert np.array_equal(batch.probabilities[k].view(np.int64),
                                  state.index_marginal().view(np.int64)), (n, M, k)

    @pytest.mark.parametrize("n,M", [(n, M) for n in range(7) for M in range(1, 17)]
                             + [(n, M) for n in (0, 2, 4) for M in (17, 33, 64, 100, 128)])
    def test_chain_matches_sweep_beyond_the_grid(self, monkeypatch, n, M):
        # the gate grid (n <= 6, M <= 16) and beyond it, where M not a power
        # of two leaves tail blocks j >= M that the chain skips.  K = 2 at
        # M = 2 and K = 3 elsewhere equal index-row counts the sweeps touch,
        # where query signs paired with index rows instead of runs would
        # still broadcast
        rng = np.random.default_rng(43 + n * 1000 + M)
        tables = rng.integers(0, 2, (2 if M == 2 else 3, 1 << n))
        self._assert_chain_is_the_sweep(monkeypatch, n, M, tables)

    @pytest.mark.parametrize("M", [*range(1, 17), 100])
    def test_chain_makes_m_minus_one_grover_applications(self, monkeypatch, M):
        calls, plans = [], []
        grover = simulator._grover_blocks

        def counting(walsh, signs):
            calls.append(walsh)
            grover(walsh, signs)

        class Plan(simulator._WalshPlan):
            __slots__ = ()

            def __init__(self, blocks):
                super().__init__(blocks)
                plans.append(self)

        monkeypatch.setattr(simulator, "_grover_blocks", counting)
        monkeypatch.setattr(simulator, "_WalshPlan", Plan)
        batch = run_qs_batch(2, M, np.eye(3, 4, dtype=np.int8))
        assert len(calls) == M - 1 == batch.queries
        # one plan per run, on the one real (N, K) work buffer, serves every
        # application and the preparation's transform
        (plan,) = plans
        assert plan.blocks.shape == (4, 3) and plan.blocks.dtype == np.float64
        assert all(walsh is plan for walsh in calls)

    @pytest.mark.parametrize("M", [1, 5, 16])
    @pytest.mark.parametrize("n", [0, 3, 10])
    def test_single_table_is_bit_identical_to_the_sweep(self, monkeypatch, n, M):
        # one run alone, on an (N, 1) work buffer
        rng = np.random.default_rng(47 + n * 100 + M)
        self._assert_chain_is_the_sweep(monkeypatch, n, M, rng.integers(0, 2, (1, 1 << n)))

    @staticmethod
    def _assert_sliced_fourier_is_the_whole_product(n, M, K):
        # BLAS may block a narrower product differently, so the slice width
        # of _apply_fourier is pinned against the whole matmul
        layout = QubitLayout(n=n, M=M)
        rng = np.random.default_rng(n * 10000 + M)
        blocks = rng.normal(size=(K, layout.index_dim, layout.N)).astype(np.complex128)
        blocks.imag = rng.normal(size=blocks.shape)
        F = simulator._fourier_matrix(M)
        for G in (F, F.conj()):
            want = G @ blocks[:, :M]
            tail = blocks[:, M:].copy()
            simulator._apply_fourier(blocks, G)
            assert np.array_equal(blocks[:, :M].view(np.int64), want.view(np.int64)), (n, M)
            assert np.array_equal(blocks[:, M:].view(np.int64), tail.view(np.int64)), (n, M)

    def test_sliced_fourier_is_the_whole_product_on_the_gate_grid(self):
        # the oracle-equivalence batches: every k at n <= 6, M <= 16
        for n in range(7):
            for M in range(1, 17):
                self._assert_sliced_fourier_is_the_whole_product(n, M, (1 << n) + 1)

    @pytest.mark.parametrize("n,M", [(12, 512), (20, 4), (6, 2048)])
    def test_sliced_fourier_is_the_whole_product_at_large_runs(self, n, M):
        # states spanning 16 and 4096 slices, and a 2048 x 2048 Fourier block
        self._assert_sliced_fourier_is_the_whole_product(n, M, 1)

    def test_fourier_work_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(simulator, "_MAX_FOURIER_WORK", 3 * 4 * 4 * 4)
        assert run_qs_batch(2, 4, np.zeros((3, 4), dtype=np.int8)).queries == 3
        with pytest.raises(ValueError, match="multiply-adds"):
            run_qs_batch(2, 4, np.zeros((4, 4), dtype=np.int8))

    def test_rejects_malformed_tables(self):
        with pytest.raises(ValueError):
            run_qs_batch(2, 4, np.zeros((3, 5)))
        with pytest.raises(ValueError):
            run_qs_batch(2, 4, np.full((3, 4), 2))

    @pytest.mark.parametrize("field", ["queries", "qubits"])
    def test_accounting_check_compares_reported_counts(self, monkeypatch, field):
        def misreporting(n, M, tables):
            batch = run_qs_batch(n, M, tables)
            return dataclasses.replace(batch, **{field: getattr(batch, field) + 1})

        grid = suites.gate_grid_deviation  # a small grid keeps the suite run short
        monkeypatch.setattr(suites, "gate_grid_deviation", lambda: grid(n_max=2, m_max=4))
        monkeypatch.setattr(suites, "run_qs_batch", misreporting)
        results = {r.name: r for r in suites.run_suite("oracle-equivalence")}
        assert not results["every run reports M-1 queries and n+ceil(log2 M) qubits"].passed
        assert results["gate marginal equals closed form on the full grid"].passed


class TestMeasurement:
    def test_leaves_the_state_and_reports_the_marginal(self):
        rng = np.random.default_rng(55)
        state = StateVector.random(QubitLayout(n=2, M=4), rng)
        before = state.amplitudes.copy()
        marginal = state.index_marginal()
        for seed in range(8):
            record = measure_index(state, np.random.default_rng(seed))
            assert np.array_equal(state.amplitudes.view(np.float64), before.view(np.float64))
            assert record.probability == marginal[record.outcome]

    def test_zero_probability_outcomes_never_sampled(self):
        amps = np.zeros(16, dtype=complex)
        amps[8] = 1.0  # only index block 2 populated
        state = StateVector(amps, QubitLayout(n=2, M=4))
        for seed in range(25):
            record = measure_index(state, np.random.default_rng(seed))
            assert record.outcome == 2
            assert record.probability == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("group", [1, 3, 1 << 16])
    def test_marginal_groups_change_no_bit(self, monkeypatch, group):
        # index rows summed a few at a time, one at a time, or wider than a
        # row: the bits of the whole-state expression, on stacks of runs too
        monkeypatch.setattr(simulator, "_MARGINAL_AMPS", group)
        rng = np.random.default_rng(31)
        for shape in ((1, 1), (4, 1), (8, 2), (3, 16, 32), (2, 4, 1 << 14), (2, 1 << 17)):
            blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            got = simulator._index_marginals(blocks)
            want = (np.abs(blocks) ** 2).sum(axis=-1)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), shape
