"""Gate-level statevector simulation of the quantum summation circuit.

States live on an index register of m = ceil(log2 M) qubits tensored with a
data register of n qubits; basis state |j>|y> sits at amplitude index
j*2**n + y.  The five primitives (inversion about zero, Walsh-Hadamard,
M-point Fourier transform and its inverse, sign query), the Grover operator
built from them, and its index-controlled power are all exact unitaries in
double precision, so marginals agree with the closed form to ~1e-14.
`run_qs_batch` runs the whole circuit for a stack of value tables at once;
`run_qs` is a batch of one plus a sampled measurement.

The index-controlled power comes in two forms, both leaving block j after
exactly j applications of S_f, W, S0, W: `apply_lambda` sweeps any state,
index_dim*(index_dim-1)/2 block applications, and is the test oracle for
`run_qs_batch`, which chains the prepared state's equal blocks on one work
buffer, M-1 applications (M-1 queries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .boolfn import BooleanFunction, sigma_of
from .closedform import output_grid, sample

__all__ = [
    "Primitive",
    "QubitLayout",
    "StateVector",
    "GroverSpectrum",
    "MeasurementRecord",
    "QSResult",
    "QSBatch",
    "apply_primitive",
    "apply_standard_query",
    "apply_grover",
    "apply_lambda",
    "grover_spectrum",
    "grover_eigenvectors",
    "measure_index",
    "run_qs",
    "run_qs_batch",
    "refuse_runs",
]

# The batched core refuses a run above this many amplitudes over all its value
# tables: 2**24 complex128 amplitudes take 256 MiB.  The same limit bounds the
# M*M entries of the dense Fourier block.
_MAX_AMPLITUDES = 1 << 24
# It also refuses a run whose dense Fourier transform needs more than this
# many complex multiply-adds (K * M**2 * 2**n).  At this limit the slowest
# accepted `qsum simulate` calls took 6-9 s on a 2-core x86-64 machine
# (n=12, M=2048: 6.3 s; n=10, M=4096: 6.7 s; n=20, M=16: 8.7 s).
_MAX_FOURIER_WORK = 1 << 34
# Data columns per slice of the Fourier product.  BLAS may block a narrower
# product differently, so the width matters to the bits: slices of 256
# columns give the whole product's bits on every shape the tests pin, and
# slices of 1 or 7 columns do not.  At N <= 256 a slice is the whole product.
_FOURIER_COLUMNS = 256
# Amplitudes per group of index rows whose squared magnitudes the marginal
# sums at once: its temporaries stay near 1 MiB, or one row where a row is
# longer, not the state's size.
_MARGINAL_AMPS = 1 << 16


class Primitive(Enum):
    S0 = "s0"                       # |0> -> -|0> on the data register
    WALSH_HADAMARD = "walsh-hadamard"
    QFT = "qft"                     # M-point block on the index register
    QFT_INVERSE = "qft-inverse"
    QUERY = "query"                 # |j> -> (-1)^f(j) |j> on the data register


@dataclass(frozen=True)
class QubitLayout:
    """Register sizes for a run with data size N = 2**n and parameter M."""

    n: int
    M: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"data qubit count must be >= 0, got {self.n}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")

    @property
    def m(self) -> int:
        return 0 if self.M == 1 else (self.M - 1).bit_length()

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def index_dim(self) -> int:
        return 1 << self.m

    @property
    def dim(self) -> int:
        return self.index_dim * self.N

    @property
    def qubits(self) -> int:
        return self.n + self.m


class StateVector:
    """Complex amplitudes over the index (x) data registers.

    Operators mutate the amplitudes in place; a state must be owned by one
    execution context at a time.  Norm is preserved to ~1e-15 per operator.
    """

    __slots__ = ("amplitudes", "layout")

    def __init__(self, amplitudes: np.ndarray, layout: QubitLayout) -> None:
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (layout.dim,):
            raise ValueError(
                f"amplitude vector must have length {layout.dim}, got {amps.shape}"
            )
        self.amplitudes = amps
        self.layout = layout

    @classmethod
    def zero(cls, layout: QubitLayout) -> "StateVector":
        amps = np.zeros(layout.dim, dtype=np.complex128)
        amps[0] = 1.0
        return cls(amps, layout)

    @classmethod
    def random(cls, layout: QubitLayout, rng: np.random.Generator) -> "StateVector":
        amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
        return cls(amps / np.linalg.norm(amps), layout)

    def blocks(self) -> np.ndarray:
        """View of shape (index_dim, N): row j is the data register of |j>."""
        return self.amplitudes.reshape(self.layout.index_dim, self.layout.N)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def index_marginal(self) -> np.ndarray:
        """Probability of each index-register outcome j in [0, index_dim)."""
        return _index_marginals(self.blocks())


# The Walsh and Grover kernels act in place on a buffer of shape (..., N, T)
# through its `_WalshPlan`: axis -2 is the data register and the trailing
# axis stacks T vectors that share it, so the butterflies' inner loops run
# over rows of T.  A state's complex (index_dim, N) blocks pass as
# blocks[..., None], with a plan per call (per sweep in `apply_lambda`); the
# batched chain keeps its K runs in one real (N, K) work buffer and one plan
# for the run.  The Fourier and marginal kernels act on blocks of shape
# (..., index_dim, N), any leading axes stacking runs.  Every element goes
# through the same IEEE operations in the same order whatever the shape, so
# a stacked run is bit-identical to the runs done one at a time.

def _index_marginals(blocks: np.ndarray) -> np.ndarray:
    # A few index rows at a time (_MARGINAL_AMPS); a row's sum over its data
    # columns is the same whichever rows share its group.
    rows = blocks.reshape(-1, blocks.shape[-1])
    out = np.empty(rows.shape[0])
    step = max(1, _MARGINAL_AMPS // rows.shape[1])
    for lo in range(0, rows.shape[0], step):
        out[lo:lo + step] = (np.abs(rows[lo:lo + step]) ** 2).sum(axis=-1)
    return out.reshape(blocks.shape[:-1])


class _WalshPlan:
    # Fast Walsh-Hadamard transform of one buffer along its data axis -2,
    # 1/sqrt(N) normalized and its own inverse, planned once per buffer.
    # Splitting that axis keeps a view; stage h pairs each run of h data rows
    # with the next.  The plan allocates one twin of the buffer, and its
    # stages alternate between the two: each lists the (lo, hi) halves it
    # reads from one and the halves it writes in the other, so no stage
    # writes what it still reads.  The closing scaling writes the last
    # stage's result back into the buffer.
    __slots__ = ("blocks", "stages", "result", "scale")

    def __init__(self, blocks: np.ndarray) -> None:
        *lead, n, t = blocks.shape
        read, write = blocks, np.empty_like(blocks)
        self.stages = []
        h = 1
        while h < n:
            a, b = (x.reshape(*lead, n // (2 * h), 2, h, t) for x in (read, write))
            self.stages.append((a[..., 0, :, :], a[..., 1, :, :],
                                b[..., 0, :, :], b[..., 1, :, :]))
            read, write = write, read
            h *= 2
        self.blocks, self.result = blocks, read
        self.scale = 1.0 / math.sqrt(n)

    def run(self, sign: float = 1.0) -> None:
        # (lo, hi) -> (lo + hi, lo - hi) stage by stage, then one scaling
        for lo, hi, top, bottom in self.stages:
            np.add(lo, hi, out=top)
            np.subtract(lo, hi, out=bottom)
        np.multiply(self.result, sign * self.scale, out=self.blocks)


def _fourier_matrix(M: int) -> np.ndarray:
    # exp(2 pi i jk/M)/sqrt(M), each step in place: one M x M complex array
    F = 2j * math.pi * np.outer(np.arange(M), np.arange(M))
    F /= M
    np.exp(F, out=F)
    F /= math.sqrt(M)
    return F


def _apply_fourier(blocks: np.ndarray, F: np.ndarray) -> None:
    # Block-diagonal F on the first M index slices, identity elsewhere.  The
    # product is a new array, so it is taken _FOURIER_COLUMNS data columns at
    # a time: the temporary is M * _FOURIER_COLUMNS amplitudes per run, not
    # the state's size.
    M = F.shape[0]
    for lo in range(0, blocks.shape[-1], _FOURIER_COLUMNS):
        cols = blocks[..., :M, lo:lo + _FOURIER_COLUMNS]
        cols[...] = F @ cols


def _grover_blocks(walsh: _WalshPlan, signs: np.ndarray) -> None:
    # Q_f = -(W S0 W) S_f on the plan's buffer; W is its own inverse, and
    # the closing negation is the second W's sign (x * -c is (x * c) * -1
    # bit for bit).  `signs` broadcasts over the trailing axis: shape (N, 1)
    # for one run, (N, K) for K stacked runs.
    walsh.blocks *= signs
    walsh.run()
    walsh.blocks[..., 0, :] *= -1.0
    walsh.run(-1.0)


def _chain_blocks(blocks: np.ndarray, signs: np.ndarray) -> int:
    # Walsh preparation and index-controlled power on (K, M, N) blocks whose
    # M blocks per run are equal and real on entry: Fourier column 0 is
    # real, and so are W, S_f and S0.  The real parts of block 0 of the K
    # runs are copied into one C-contiguous float64 (N, K) work buffer, whose
    # one Walsh plan serves all 2M-1 transforms.  The buffer is written out
    # as block j after its j-th Grover application, with `signs` of shape
    # (N, K).  Returns the number of S_f applications per run.
    work = blocks[:, 0, :].real.T.copy()
    walsh = _WalshPlan(work)
    walsh.run()
    blocks[:, 0, :] = work.T
    for j in range(1, blocks.shape[1]):
        _grover_blocks(walsh, signs)
        blocks[:, j, :] = work.T
    return blocks.shape[1] - 1


def _query_signs(state: StateVector, f: BooleanFunction | None) -> np.ndarray:
    if f is None:
        raise ValueError("the query primitive requires a Boolean function")
    if f.n != state.layout.n:
        raise ValueError(
            f"function acts on {f.n} qubits but the data register has {state.layout.n}"
        )
    return 1.0 - 2.0 * f.table().astype(np.float64)


def apply_primitive(
    state: StateVector, which: Primitive, f: BooleanFunction | None = None
) -> StateVector:
    """Apply one primitive in place and return the state.  Walsh-Hadamard's
    plan holds a transient complex twin of the blocks while it runs."""
    blocks = state.blocks()
    if which is Primitive.S0:
        blocks[:, 0] *= -1.0
    elif which is Primitive.WALSH_HADAMARD:
        _WalshPlan(blocks[..., None]).run()
    elif which in (Primitive.QFT, Primitive.QFT_INVERSE):
        F = _fourier_matrix(state.layout.M)
        _apply_fourier(blocks, F.conj() if which is Primitive.QFT_INVERSE else F)
    elif which is Primitive.QUERY:
        blocks *= _query_signs(state, f)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown primitive {which}")
    return state


def apply_standard_query(state: StateVector, f: BooleanFunction) -> StateVector:
    """XOR-style query |j>|i> -> |j>|i xor f(j)> on a data register with ancilla.

    The data register must hold n+1 qubits, the last being the ancilla.
    Preparing the ancilla as (|1> - |0>)/sqrt(2) reproduces the sign query
    on the leading n qubits.
    """
    if state.layout.n != f.n + 1:
        raise ValueError(
            "standard query needs one ancilla qubit: data register must have "
            f"{f.n + 1} qubits, found {state.layout.n}"
        )
    v = state.amplitudes.reshape(state.layout.index_dim, f.N, 2)
    flip = f.table() == 1
    v[:, flip, :] = v[:, flip, ::-1]
    return state


def apply_grover(state: StateVector, f: BooleanFunction) -> StateVector:
    """Apply the Grover operator to every index block in place, through a
    Walsh plan that holds a transient complex twin of the blocks."""
    _grover_blocks(_WalshPlan(state.blocks()[..., None]), _query_signs(state, f)[:, None])
    return state


def apply_lambda(state: StateVector, f: BooleanFunction) -> StateVector:
    """Index-controlled power: block j receives j Grover applications.

    Implemented by sweeping t = 1..index_dim-1 and hitting blocks [t:] once
    per sweep, so it is correct on any state, at index_dim*(index_dim-1)/2
    block applications, each sweep's blocks [t:] with a Walsh plan of their
    own, which holds a transient complex twin of them.  `run_qs_batch`
    chains the blocks of the prepared state instead (M-1 applications), and
    this sweep is its test oracle.
    """
    blocks, signs = state.blocks(), _query_signs(state, f)[:, None]
    for t in range(1, blocks.shape[0]):
        _grover_blocks(_WalshPlan(blocks[t:, :, None]), signs)
    return state


@dataclass(frozen=True)
class GroverSpectrum:
    """Eigenvalues e^{+-2i theta} of the Grover operator and its 2x2 action
    on the invariant plane spanned by the two projections of the uniform state."""

    theta: float
    lambda_plus: complex
    lambda_minus: complex
    subspace_matrix: np.ndarray


def grover_spectrum(a: float) -> GroverSpectrum:
    """Spectrum of the Grover operator for mean a; at a in {0, 1} the two
    eigenvalues degenerate to (-1)^a."""
    theta = sigma_of(a, 1).theta
    x = float(a)
    re = 1.0 - 2.0 * x
    im = 2.0 * math.sqrt(x * (1.0 - x))
    matrix = np.array([[1.0 - 2.0 * x, -2.0 * x], [2.0 * (1.0 - x), 1.0 - 2.0 * x]])
    return GroverSpectrum(
        theta=theta,
        lambda_plus=complex(re, im),
        lambda_minus=complex(re, -im),
        subspace_matrix=matrix,
    )


def grover_eigenvectors(f: BooleanFunction) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors (plus, minus) of the Grover operator as data-register states.

    For a in (0, 1) both are unit vectors; at a in {0, 1} the plane collapses
    and the convention is plus = i^(1-a) sqrt(2) |uniform>, minus = 0, which
    keeps the uniform-state decomposition valid for every a.
    """
    N = f.N
    a = float(f.mean)
    uniform = np.full(N, 1.0 / math.sqrt(N), dtype=np.complex128)
    if a == 0.0:
        return 1j * math.sqrt(2.0) * uniform, np.zeros(N, dtype=np.complex128)
    if a == 1.0:
        return math.sqrt(2.0) * uniform, np.zeros(N, dtype=np.complex128)
    ones = f.table() == 1
    psi0 = np.where(~ones, 1.0 / math.sqrt(N), 0.0).astype(np.complex128)
    psi1 = np.where(ones, 1.0 / math.sqrt(N), 0.0).astype(np.complex128)
    plus = (1j / math.sqrt(1.0 - a) * psi0 + 1.0 / math.sqrt(a) * psi1) / math.sqrt(2.0)
    minus = (-1j / math.sqrt(1.0 - a) * psi0 + 1.0 / math.sqrt(a) * psi1) / math.sqrt(2.0)
    return plus, minus


@dataclass
class MeasurementRecord:
    """Outcome j of measuring the index register, and its marginal probability."""

    outcome: int
    probability: float


def _sample_record(probs: np.ndarray, rng: np.random.Generator) -> MeasurementRecord:
    """One outcome drawn from an index marginal, with its probability."""
    idx = sample(probs, rng)
    return MeasurementRecord(outcome=idx, probability=float(probs[idx]))


def measure_index(state: StateVector, rng: np.random.Generator) -> MeasurementRecord:
    """Measure the index register by inverse-CDF sampling of its marginal.

    Zero-probability outcomes are never produced, and the state is left
    untouched: the algorithm reads only the outcome, never the state after it.
    """
    return _sample_record(state.index_marginal(), rng)


@dataclass
class QSBatch:
    """Final states and index marginals of one summation run per value table."""

    layout: QubitLayout
    amplitudes: np.ndarray      # (K, index_dim, N): final state of run k
    probabilities: np.ndarray   # (K, index_dim): index marginal of run k
    queries: int                # charged by each run
    qubits: int                 # used by each run


def refuse_runs(n: int, M: int, K: int) -> None:
    """Raise ValueError, before any work, if K runs at n data qubits and
    parameter M pass the simulator's limits: their K * index_dim * 2**n
    amplitudes or the M*M entries of the Fourier block exceed 2**24, or a
    Fourier transform needs more than 2**34 multiply-adds (K * M**2 * 2**n)."""
    layout = QubitLayout(n=n, M=M)
    size = K * layout.dim
    if size > _MAX_AMPLITUDES:
        raise ValueError(
            f"{K} run(s) at n={n}, M={M} need {size} amplitudes; "
            f"the simulator's limit is {_MAX_AMPLITUDES} (256 MiB)"
        )
    if M * M > _MAX_AMPLITUDES:
        raise ValueError(
            f"the Fourier block at M={M} has {M * M} entries; "
            f"the simulator's limit is {_MAX_AMPLITUDES} (256 MiB)"
        )
    work = K * M * M * layout.N
    if work > _MAX_FOURIER_WORK:
        raise ValueError(
            f"{K} run(s) at n={n}, M={M} need {work} multiply-adds per Fourier "
            f"transform; the simulator's limit is {_MAX_FOURIER_WORK}"
        )


def run_qs_batch(n: int, M: int, tables) -> QSBatch:
    """Run the summation circuit once per row of a (K, 2**n) array of 0/1
    value tables, all K runs on a leading axis.

    Each run is the circuit of `run_qs`: Fourier (x) Walsh-Hadamard on
    |0>|0>, the index-controlled Grover power, then the inverse Fourier.  Row
    k of the result is bit-identical to the run of table k alone.

    Column 0 of the Fourier block is real and constant, so the Fourier
    preparation leaves the same real data vector in every block j < M, and
    W, S_f and S0 keep it real.  Block 0's real parts for the K runs are
    copied into one float64 (N, K) work buffer, where the preparation's
    Walsh transform runs once, through a plan whose real twin of that buffer
    is its only scratch; the power then chains on that buffer: for
    j = 1..M-1 it gets one more Grover application and is written out as
    block j, which ends up with exactly j of them.  `queries` counts the S_f
    applications the chain made, M-1 per run.  Blocks j >= M, which the
    preparation leaves empty, are left out of the Walsh transform, the chain
    and both Fourier transforms, so they stay exactly zero.

    A batch is refused with ValueError (`refuse_runs`) before anything is
    allocated.
    """
    layout = QubitLayout(n=n, M=M)
    tables = np.asarray(tables)
    if tables.ndim != 2 or tables.shape[1] != layout.N:
        raise ValueError(f"value tables must have shape (K, {layout.N}), got {tables.shape}")
    K = tables.shape[0]
    refuse_runs(n, M, K)
    if ((tables != 0) & (tables != 1)).any():
        raise ValueError("value tables must hold only 0 and 1")
    signs = 1.0 - 2.0 * tables.T.astype(np.float64, order="C")
    amps = np.zeros((K, layout.index_dim, layout.N), dtype=np.complex128)
    amps[:, 0, 0] = 1.0
    F = _fourier_matrix(M)
    _apply_fourier(amps, F)
    queries = _chain_blocks(amps[:, :M, :], signs)
    _apply_fourier(amps, np.conjugate(F, out=F))  # the inverse, in F's memory
    return QSBatch(layout=layout, amplitudes=amps, probabilities=_index_marginals(amps),
                   queries=queries, qubits=layout.qubits)


@dataclass
class QSResult:
    """Full marginal and one sampled outcome of a summation run."""

    layout: QubitLayout
    probabilities: np.ndarray
    record: MeasurementRecord
    output: float
    queries: int
    qubits: int


def run_qs(f: BooleanFunction, M: int, rng_seed: int = 0) -> QSResult:
    """Run the summation circuit for f with parameter M >= 1.

    Steps: Fourier (x) Walsh-Hadamard on |0>|0>, the index-controlled Grover
    power, then the inverse Fourier on the index register.  Returns the exact
    marginal over index outcomes (exactly zero beyond M-1, so the sampled
    outcome is below M), and one outcome j sampled from it with a generator
    seeded by rng_seed, with its estimate abar(j) = output_grid(M)[j].  A
    run charges M-1 queries and uses n + ceil(log2 M) qubits.
    """
    batch = run_qs_batch(f.n, M, f.table()[None])
    record = _sample_record(batch.probabilities[0], np.random.default_rng(rng_seed))
    return QSResult(layout=batch.layout, probabilities=batch.probabilities[0], record=record,
                    output=float(output_grid(M)[record.outcome]), queries=batch.queries,
                    qubits=batch.qubits)
