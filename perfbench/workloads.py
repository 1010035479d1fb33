"""The benchmark's four workloads, each built from a seed.

A workload is a fixed list of operations against the qsum public API, run by
one caller in order: the next operation starts only after the previous one
returns (a closed loop), because qsum is a batch library and CLI with no
arrival process.  The seed fixes every input, and the program receives only
the generated inputs.  The seed draws values that change an operation's cost
little or not at all (levels, popcounts, value tables, the order and
arguments of CLI commands, M within narrow bands); sizes come from fixed
lists, so two seeds cost about the same.

Every operation is a ``call`` (timed as its latency) and a ``check`` that
turns the call's result into a digest of every output value and, when the
output is wrong, a problem.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from qsum import boolfn, bounds, cli, closedform, simulator

EIGHT_OVER_PI_SQ = bounds.EIGHT_OVER_PI_SQ

# worst_sweep bands: (label, lowest M, highest M, N).  The bands sit at the
# bounds suite's points M ~ 16, 64 and the query prescription's 236; N is
# sized so that no band's sweep dominates a round.
WORST_BANDS = (
    ("small_M", 15, 17, 1 << 15),
    ("mid_M", 62, 66, 1 << 15),
    ("large_M", 232, 240, 1 << 13),
)
WORST_SEED_LEVELS = 3  # plus 8/pi^2 itself

# avg_sweep points (M, N): 4 | 128, at an N where the WA4 bound is broken
# above 8/pi^2; 4 does not divide 6, at the largest N whose class weights fit
# the round.
AVG_POINTS = ((128, 1 << 14), (6, 1 << 18))
AVG_HIGH_LEVEL = 0.99

# gate_grid: (n, M) points run for every popcount k, and (n, M, count)
# points where `count` popcounts are drawn, since every k would take minutes.
# The two n=6 points hold the median run, so op_p50_ms reads one class of run.
GATE_EVERY_K = ((1, 2), (2, 3), (3, 5), (4, 8), (5, 12), (6, 13), (6, 16))
GATE_DRAWN_K = ((8, 32, 4), (10, 64, 2))
GATE_MAX_DEVIATION = 1e-9
GATE_MAX_TAIL = 1e-12

# cli_calls command shapes; the seed permutes them and draws the rest.
CLI_DIST_M = (8, 12, 16, 20, 24, 32) * 8
CLI_SIMULATE_NM = ((2, 4), (3, 5), (4, 8), (4, 6), (5, 8), (3, 16)) * 4
CLI_ERROR_N = 12
CLI_ERROR_SHAPES = tuple(
    (setting, M, measure)
    for setting in ("worst", "avg")
    for M, measure in ((8, "p1"), (12, "p2"), (16, "p1"), (24, "p2"),
                       (5, "p1"), (6, "p2"), (7, "p1"), (32, "p2"))
) * 2
CLI_CURVE_M_VALUES = "4,8,16,32,64"
CLI_CURVE_AVG = ((40, "p1"), (48, "p2"), (36, "p1"), (44, "p2")) * 2
CLI_SUITES = ("unitarity", "calculus", "average-case", "oracle-equivalence")


@dataclass
class Verdict:
    """What a check found: the output digest, a problem if the output is
    wrong, and per-layer counts read from the output."""

    digest: str
    problem: str | None = None
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Op:
    label: str
    work: int  # units counted by the workload's throughput metric
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    band: str | None = None


@dataclass
class Workload:
    name: str
    work_name: str  # the throughput metric's name in the benchmark doc
    round_s: float  # seconds one round took when the benchmark was defined
    ops: list[Op]
    inputs: dict  # sizes and drawn values, for the run record


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in np.ravel(values))


def _level(rng: np.random.Generator, lo: float, hi: float) -> float:
    """A level in (lo, hi]."""
    return hi - (hi - lo) * float(rng.random())


def _record_text(rec: bounds.ErrorRecord) -> str:
    bound = "" if rec.bound is None else float(rec.bound).hex()
    measure = "" if rec.measure is None else rec.measure.value
    return (f"{rec.M},{rec.N},{float(rec.p).hex()},{rec.setting.value},{measure},"
            f"{float(rec.value).hex()},{bound},{rec.bound_ref}")


def _record_problem(rec: bounds.ErrorRecord) -> str | None:
    """The paper's bounds apply for p <= 8/pi^2; there each must hold."""
    if rec.p <= EIGHT_OVER_PI_SQ and rec.bound_holds is not True:
        return (f"{rec.bound_ref} bound fails at M={rec.M} N={rec.N} p={rec.p!r}: "
                f"value {rec.value!r}, bound {rec.bound!r}")
    return None


def _wa4_above_level(rec: bounds.ErrorRecord) -> bool:
    return rec.p > EIGHT_OVER_PI_SQ and rec.bound_ref == "WA4" and rec.bound_holds is False


def _check_records(records) -> Verdict:
    problems = [p for p in map(_record_problem, records) if p]
    violations = sum(map(_wa4_above_level, records))
    return Verdict(
        digest=digest(*map(_record_text, records)),
        problem=problems[0] if problems else None,
        counts={"bounds.wa4_above_level_violations": violations},
    )


# --------------------------------------------------------------------------
# worst_sweep

def _worst(M: int, N: int, ps: list[float]):
    return bounds.worst_probabilistic_errors(M, N, ps)


def _worst_sweep(rng: np.random.Generator, tiny: bool) -> tuple[list[Op], dict]:
    ops, points = [], []
    for band, lo, hi, N in WORST_BANDS:
        M = int(rng.integers(lo, hi + 1))
        N = 64 if tiny else N
        ps = [_level(rng, 0.5, EIGHT_OVER_PI_SQ) for _ in range(WORST_SEED_LEVELS)]
        ps.append(EIGHT_OVER_PI_SQ)
        ops.append(Op(f"worst M={M} N={N}", (N + 1) * len(ps),
                      partial(_worst, M, N, ps), _check_records, band))
        points.append({"band": band, "M": M, "N": N, "ps": ps})
    return ops, {"points": points}


# --------------------------------------------------------------------------
# avg_sweep

def _avg(M: int, N: int, p: float, measure: boolfn.Measure):
    return [bounds.avg_probabilistic_error(M, N, p, measure)]


def _avg_sweep(rng: np.random.Generator, tiny: bool) -> tuple[list[Op], dict]:
    levels = [_level(rng, 0.5, EIGHT_OVER_PI_SQ), _level(rng, EIGHT_OVER_PI_SQ, AVG_HIGH_LEVEL)]
    ops, points = [], []
    for M, N in AVG_POINTS:
        N = 256 if tiny else N
        for measure in boolfn.Measure:
            for p in levels:
                ops.append(Op(f"avg M={M} N={N} {measure.value} p={p:.6f}", N + 1,
                              partial(_avg, M, N, p, measure), _check_records))
        points.append({"M": M, "N": N})
    return ops, {"points": points, "ps": levels}


# --------------------------------------------------------------------------
# gate_grid

def _gate(f: boolfn.BooleanFunction, M: int, sigma: float, seed: int):
    return simulator.run_qs(f, M, rng_seed=seed), closedform.outcome_probabilities(sigma, M)[0]


def _check_gate(n: int, M: int, result) -> Verdict:
    run, closed = result
    probs = run.probabilities
    deviation = float(np.abs(probs[:M] - closed).max())
    tail = float(probs[M:].max()) if probs.size > M else 0.0
    qubits = n + (M - 1).bit_length()
    problem = None
    if not deviation <= GATE_MAX_DEVIATION:
        problem = f"gate marginal differs from the closed form by {deviation:.3e}"
    elif not tail <= GATE_MAX_TAIL:
        problem = f"outcomes beyond M-1 carry {tail:.3e}"
    elif run.queries != M - 1 or run.qubits != qubits:
        problem = f"accounting: {run.queries} queries, {run.qubits} qubits for n={n}, M={M}"
    return Verdict(digest(_hex(probs), run.record.outcome, float(run.output).hex()), problem)


def _gate_grid(rng: np.random.Generator, tiny: bool) -> tuple[list[Op], dict]:
    every = GATE_EVERY_K[:3] if tiny else GATE_EVERY_K
    drawn = ((4, 8, 2),) if tiny else GATE_DRAWN_K
    points = [(n, M, range((1 << n) + 1)) for n, M in every]
    points += [(n, M, sorted(rng.choice((1 << n) + 1, count, replace=False).tolist()))
               for n, M, count in drawn]
    ops, record = [], []
    for n, M, ks in points:
        N = 1 << n
        for k in ks:
            table = np.zeros(N, dtype=int)
            table[rng.permutation(N)[:k]] = 1
            f = boolfn.BooleanFunction(n, tuple(table.tolist()))
            sigma = boolfn.sigma_of(Fraction(k, N), M).sigma
            seed = int(rng.integers(0, 1 << 63))
            ops.append(Op(f"run_qs n={n} M={M} k={k}", 1,
                          partial(_gate, f, M, sigma, seed), partial(_check_gate, n, M)))
        record.append({"n": n, "M": M, "ks": list(ks)})
    return ops, {"points": record}


# --------------------------------------------------------------------------
# cli_calls

def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _csv_records(text: str) -> list[bounds.ErrorRecord]:
    records = []
    for row in text.splitlines()[1:]:
        M, N, p, setting, measure, value, bound, ref = row.split(",")
        records.append(bounds.ErrorRecord(
            M=int(M), N=int(N), p=float(p), setting=bounds.Setting(setting),
            measure=boolfn.Measure(measure) if measure else None, value=float(value),
            bound=float(bound) if bound else None, bound_ref=ref or None,
        ))
    return records


def _check_cli(argv: list[str], result) -> Verdict:
    code, out, err = result
    verdict = Verdict(digest(code, out))
    if code != 0:
        verdict.problem = f"exit code {code}: {err.strip()}"
    elif argv[0] == "verify":
        lines = out.splitlines()[:-1]
        passed = sum(line.startswith("PASS") for line in lines)
        verdict.counts = {"suites.checks_passed": passed, "suites.checks_attempted": len(lines)}
        if passed != len(lines) or not lines:
            verdict.problem = f"{len(lines) - passed} of {len(lines)} checks did not pass"
    elif argv[0] in ("error", "curve"):
        problems = [p for p in map(_record_problem, _csv_records(out)) if p]
        verdict.problem = problems[0] if problems else None
    return verdict


def _hex_table(bits) -> str:
    """Serialize a value table, point 0 in the most significant bit."""
    return format(int("".join(map(str, bits)), 2), f"0{len(bits) // 4}x")


def _p_text(rng: np.random.Generator) -> str:
    return "8/pi2" if rng.random() < 0.125 else repr(_level(rng, 0.5, EIGHT_OVER_PI_SQ))


def _permuted(rng: np.random.Generator, items):
    return [items[i] for i in rng.permutation(len(items))]


def _cli_calls(rng: np.random.Generator, tiny: bool) -> tuple[list[Op], dict]:
    commands = []
    for M in _permuted(rng, CLI_DIST_M):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(0, (1 << n) + 1))
        commands.append(["dist", "--m", str(M), "--n", str(n), "--k", str(k)])
    for n, M in _permuted(rng, CLI_SIMULATE_NM):
        table = _hex_table(rng.integers(0, 2, 1 << n).tolist())
        commands.append(["simulate", "--m", str(M), "--n", str(n), "--f", table,
                         "--seed", str(int(rng.integers(0, 1 << 63)))])
    for setting, M, measure in _permuted(rng, CLI_ERROR_SHAPES):
        commands.append(["error", "--setting", setting, "--m", str(M), "--n", str(CLI_ERROR_N),
                         "--p", _p_text(rng), "--measure", measure])
    for _ in range(len(CLI_CURVE_AVG)):
        commands.append(["curve", "--setting", "worst", "--n", str(CLI_ERROR_N),
                         "--p", _p_text(rng), "--m-values", CLI_CURVE_M_VALUES])
    for M, measure in CLI_CURVE_AVG:
        levels = ",".join(_p_text(rng) for _ in range(3))
        commands.append(["curve", "--setting", "avg", "--n", str(CLI_ERROR_N), "--m", str(M),
                         "--p-values", levels, "--measure", measure])
    suites = CLI_SUITES[:2] if tiny else CLI_SUITES
    commands = _permuted(rng, commands)[:8 if tiny else None]
    commands = _permuted(rng, commands + [["verify", "--suite", suite] for suite in suites])
    ops = [Op(" ".join(argv), 1, partial(_cli, argv), partial(_check_cli, argv))
           for argv in commands]
    counts = {}
    for argv in commands:
        counts[argv[0]] = counts.get(argv[0], 0) + 1
    return ops, {"commands": counts, "suites": list(suites)}


# --------------------------------------------------------------------------
# Registry

def _warm_worst():
    return bounds.worst_probabilistic_errors(16, 16, [EIGHT_OVER_PI_SQ])


def _warm_avg():
    return bounds.avg_probabilistic_error(8, 16, 0.75, boolfn.Measure.UNIFORM_FUNCTIONS)


def _warm_gate():
    return _gate(boolfn.BooleanFunction.from_mean(2, 1), 4, 1.0, 0)


def _warm_cli():
    return _cli(["dist", "--m", "4", "--n", "2", "--k", "1"])


# name -> (operation maker, throughput name, seconds per round when the
# benchmark was defined, warm-up)
_WORKLOADS = {
    "worst_sweep": (_worst_sweep, "means_per_s", 0.74, _warm_worst),
    "avg_sweep": (_avg_sweep, "means_per_s", 2.6, _warm_avg),
    "gate_grid": (_gate_grid, "runs_per_s", 1.1, _warm_gate),
    "cli_calls": (_cli_calls, "cmds_per_s", 5.7, _warm_cli),
}
NAMES = tuple(_WORKLOADS)


def warm_up(name: str):
    """One small call of the workload's entry point, so that lazy first-call
    cost is paid outside the timed operations."""
    return _WORKLOADS[name][3]()


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's operation list for `seed`; `tiny` shrinks every size."""
    make_ops, work_name, round_s, _ = _WORKLOADS[name]
    rng = np.random.default_rng([seed, NAMES.index(name)])
    ops, inputs = make_ops(rng, tiny)
    return Workload(name, work_name, round_s, ops, inputs)
