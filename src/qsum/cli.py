"""Command-line front end: deterministic CSV / text output for every computation.

Subcommands:
    dist      outcome distribution for a mean k/2**n           -> CSV
    simulate  one gate-level run of the algorithm              -> text report
    error     one worst- or average-case error evaluation      -> CSV
    curve     sweep of error evaluations over M or p           -> CSV
    verify    named verification suite with a pass/fail table  -> exit code

Identical invocations (including the seed) produce byte-identical output.
Floats are printed with 17 significant digits and a '.' decimal point.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .boolfn import BooleanFunction, Measure
from .bounds import (
    EIGHT_OVER_PI_SQ,
    FOUR_OVER_PI_SQ,
    _MAX_OUTCOMES,
    ErrorRecord,
    Setting,
    avg_probabilistic_error,
    avg_probabilistic_errors,
    refuse_sweeps,
    worst_probabilistic_error,
    worst_probabilistic_errors,
)
from .closedform import distribution
from .simulator import refuse_runs, run_qs
from .suites import SUITE_NAMES, run_suite

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _parse_p(text: str) -> float:
    t = text.strip().lower()
    if t in ("8/pi2", "8/pi^2"):
        return EIGHT_OVER_PI_SQ
    if t in ("4/pi2", "4/pi^2"):
        return FOUR_OVER_PI_SQ
    return float(text)


def _parse_qubits(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_p_list(text: str) -> list[float]:
    return [_parse_p(part) for part in text.split(",") if part.strip()]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _refuse_out(out_path: str | None) -> None:
    """Refuse, before any work, an --out that is a directory or lies in a
    missing one; the file itself is written only at the end, by `_emit`."""
    if not out_path:
        return
    if os.path.isdir(out_path):
        raise ValueError(f"--out {out_path} is a directory")
    directory = os.path.dirname(out_path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"--out {out_path}: no directory {directory}")


def _record_row(rec: ErrorRecord) -> str:
    measure = rec.measure.value if rec.measure is not None else ""
    return (
        f"{rec.M},{rec.N},{_fmt(rec.p)},{rec.setting.value},{measure},"
        f"{_fmt(rec.value)},{_fmt(rec.bound)},{rec.bound_ref}"
    )


_ERROR_HEADER = "M,N,p,setting,measure,value,bound,bound_ref"

def _cmd_dist(args: argparse.Namespace) -> int:
    # a law has one row per outcome j < M, under the sweeps' outcome limit
    if args.m > _MAX_OUTCOMES:
        raise ValueError(f"M={args.m} is above the limit of {_MAX_OUTCOMES} outcomes")
    N = 1 << args.n
    if not 0 <= args.k <= N:
        raise ValueError(f"k must lie in [0, {N}], got {args.k}")
    dist = distribution(args.k / N, args.m)
    lines = ["j,prob,abar"]
    for j in range(args.m):
        lines.append(f"{j},{_fmt(float(dist.probs[j]))},{_fmt(float(dist.outputs[j]))}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    refuse_runs(args.n, args.m, 1)  # before the table is read or parsed
    table = sys.stdin.read().strip() if args.f == "-" else args.f
    f = BooleanFunction.from_hex(args.n, table)
    result = run_qs(f, args.m, rng_seed=args.seed)
    outcome = result.record.outcome
    # outcome and output come from the gate-level run; the reported
    # probability is the exact closed-form value of that outcome
    exact_prob = float(distribution(f.mean, args.m).probs[outcome])
    lines = [
        f"outcome: {outcome}",
        f"output: {_fmt(result.output)}",
        f"probability: {_fmt(exact_prob)}",
        f"queries: {result.queries}",
        f"qubits: {result.qubits}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _sweep(args: argparse.Namespace, Ms: list[int], ps: list[float]) -> int:
    """Refuse a beta of at most 1 (WAn4's) and an oversized sweep before any
    work, then write one row per M at one level, or one row per level at one
    M from one multi-level sweep."""
    setting, N, measure = Setting(args.setting), 1 << args.n, Measure(args.measure)
    if not args.beta > 1.0:
        raise ValueError(f"beta must exceed 1, got {args.beta}")
    refuse_sweeps(setting, N, Ms, ps)
    worst = setting is Setting.WORST_PROBABILISTIC
    if len(ps) == 1:
        recs = [worst_probabilistic_error(M, N, ps[0]) if worst
                else avg_probabilistic_error(M, N, ps[0], measure, beta=args.beta) for M in Ms]
    else:
        (M,) = Ms
        recs = (worst_probabilistic_errors(M, N, ps) if worst
                else avg_probabilistic_errors(M, N, ps, measure, beta=args.beta))
    _emit("\n".join([_ERROR_HEADER, *map(_record_row, recs)]) + "\n", args.out)
    return 0


def _cmd_error(args: argparse.Namespace) -> int:
    return _sweep(args, [args.m], [args.p])


def _cmd_curve(args: argparse.Namespace) -> int:
    if (args.m_values is None) == (args.p_values is None):
        raise ValueError("provide exactly one of --m-values or --p-values")
    if args.m_values is not None:
        if not args.m_values:
            raise ValueError("--m-values must name at least one M")
        if args.p is None:
            raise ValueError("--p is required when sweeping over --m-values")
        return _sweep(args, args.m_values, [args.p])
    if not args.p_values:
        raise ValueError("--p-values must name at least one p")
    if args.m is None:
        raise ValueError("--m is required when sweeping over --p-values")
    return _sweep(args, [args.m], args.p_values)


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    width = max(len(f"{r.suite}: {r.name}") for r in results)
    lines = []
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        lines.append(f"{status}  {f'{r.suite}: {r.name}'.ljust(width)}  {r.detail}")
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsum",
        description="Simulate the quantum summation algorithm and verify its error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="closed-form outcome distribution for mean k/2^n")
    p_dist.add_argument("--m", type=int, required=True, help="Fourier size M >= 1")
    p_dist.add_argument("--n", type=_parse_qubits, required=True, help="data qubits, N = 2^n")
    p_dist.add_argument("--k", type=int, required=True, help="number of ones, mean = k/N")
    p_dist.add_argument("--out", default=None, help="output file (default: stdout)")
    p_dist.set_defaults(func=_cmd_dist)

    p_sim = sub.add_parser("simulate", help="one gate-level run with a sampled outcome")
    p_sim.add_argument("--m", type=int, required=True)
    p_sim.add_argument("--n", type=_parse_qubits, required=True)
    p_sim.add_argument("--f", required=True,
                       help="value table: hex (N >= 4) or bits (N < 4), point 0 "
                            "first; - reads it from stdin")
    p_sim.add_argument("--seed", type=int, default=0, help="64-bit sampling seed")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    def add_error_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--setting", choices=[s.value for s in Setting], required=True)
        p.add_argument("--n", type=_parse_qubits, required=True)
        p.add_argument("--measure", choices=[m.value for m in Measure], default="p1",
                       help="measure for the avg setting (default p1)")
        p.add_argument("--beta", type=float, default=2.0,
                       help="beta parameter of the non-divisible lower bound")
        p.add_argument("--out", default=None)

    p_err = sub.add_parser("error", help="one error evaluation with its applicable bound")
    add_error_args(p_err)
    p_err.add_argument("--m", type=int, required=True)
    p_err.add_argument("--p", type=_parse_p, required=True,
                       help="probability level; accepts 8/pi2 and 4/pi2")
    p_err.set_defaults(func=_cmd_error)

    p_curve = sub.add_parser("curve", help="error sweep over M or over p")
    add_error_args(p_curve)
    p_curve.add_argument("--m", type=int, default=None)
    p_curve.add_argument("--p", type=_parse_p, default=None)
    p_curve.add_argument("--m-values", type=_parse_int_list, default=None,
                         help="comma-separated M sweep, e.g. 4,8,16,32,64")
    p_curve.add_argument("--p-values", type=_parse_p_list, default=None,
                         help="comma-separated p sweep, e.g. 0.51,0.6,0.75,8/pi2")
    p_curve.set_defaults(func=_cmd_curve)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", choices=list(SUITE_NAMES) + ["all"], required=True)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process; parsing leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _refuse_out(args.out)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
