"""Run one qsum benchmark workload and print its metrics.

    python3 perfbench/run.py --workload worst_sweep --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it records spans at qsum's layer boundaries and reports the
per-layer metrics instead.  Either way it checks every operation's output.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  The run record and, for traced runs, the spans are
written to ``.perfbench-out/`` at the root of the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: the benchmark is one client
# thread, and on a shared 2-core machine more threads only add noise.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import ctypes
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCES = HERE / "references.json"

SETUP_PROBES = 5  # set-ups per run; setup_s is their median
MIN_ROUNDS = 2
TAIL_BEYOND = 10  # op_tail_ms is the latency with this many samples above it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import qsum from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "qsum" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qsum sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsum

    if Path(qsum.__file__).resolve().parent != (SRC / "qsum").resolve():
        raise SystemExit(f"perfbench: qsum was imported from {qsum.__file__}, not {SRC}")


@dataclass
class Rounds:
    """What running a workload's operation list some number of times gave."""

    walls: list[float] = field(default_factory=list)
    latencies: list[list[float]] = field(default_factory=list)  # per round
    digests: list[str] = field(default_factory=list)  # one per round
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    work: int = 0
    counts: dict[str, int] = field(default_factory=dict)


def _attempt(op):
    """Call and check one operation: (latency of the call, verdict, problem)."""
    t0 = time.perf_counter()
    try:
        value = op.call()
    except Exception:
        return time.perf_counter() - t0, None, "raised " + traceback.format_exc(limit=2)
    latency = time.perf_counter() - t0
    try:
        verdict = op.check(value)
    except Exception:
        return latency, None, "check raised " + traceback.format_exc(limit=2)
    return latency, verdict, verdict.problem


def run_rounds(workload, rounds: int = 1, limit_s: float = math.inf, tracer=None,
               reference: str | None = None) -> Rounds:
    """Run the operation list `rounds` times in a closed loop; past
    MIN_ROUNDS, start no round once `limit_s` seconds have passed.

    An operation fails if it raises, if its check finds a problem, if its
    digest differs from the first round's, or if its round's digest differs
    from `reference`.
    """
    from workloads import digest

    result = Rounds()
    first: list[str] = []
    begin = time.perf_counter()
    for r in range(rounds):
        if r >= MIN_ROUNDS and time.perf_counter() - begin > limit_s:
            break
        failed, digests, latencies = [], [], []
        start = time.perf_counter()
        root = tracer.open("bench.loop") if tracer else None
        for i, op in enumerate(workload.ops):
            if tracer:
                tracer.op = i
            latency, verdict, problem = _attempt(op)
            latencies.append(latency)
            result.work += op.work
            digests.append(verdict.digest if verdict else "raised")
            for name, count in (verdict.counts if verdict else {}).items():
                result.counts[name] = result.counts.get(name, 0) + count
            if problem is None and first and digests[i] != first[i]:
                problem = "output differs from the first round's"
            failed.append(problem is not None)
            if problem is not None:
                result.problems.append(f"round {r}, {op.label}: {problem.strip()}")
        if tracer:
            tracer.op = None
            tracer.close(root)
        result.walls.append(time.perf_counter() - start)
        result.latencies.append(latencies)
        first = first or digests
        result.digests.append(digest(*digests))
        if reference is not None and result.digests[-1] != reference:
            result.problems.append(f"round {r}: output digest {result.digests[-1]} "
                                   f"differs from the stored reference {reference}")
            failed = [True] * len(failed)
        result.attempted += len(failed)
        result.failed += sum(failed)
    return result


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the sample with TAIL_BEYOND samples above it,
    or of the slowest sample when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def setup_seconds(name: str) -> list[float]:
    """Wall time of fresh processes that import qsum and warm up `name`.

    No timeout: with one, subprocess polls the child every 50 ms, which would
    round the measured time to that step.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), name],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# --------------------------------------------------------------------------
# Run record

def platform_key() -> dict:
    """What decides whether stored output digests apply on this machine."""
    import numpy as np

    features = getattr(np._core._multiarray_umath, "__cpu_features__", {})
    return {
        "machine": platform.machine(),
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "cpu_features": sorted(k for k, on in features.items() if on),
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it is OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, workload, rounds: Rounds) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds.walls),
        "round_walls_s": rounds.walls,
        "operations_per_round": len(workload.ops),
        "inputs": workload.inputs,
        "loop": "closed, one client thread",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "platform": platform_key(),
    }


def stored_reference(workload: str, seed: int) -> tuple[str | None, str]:
    """The stored round digest for this workload and seed, and why it does or
    does not apply."""
    if not REFERENCES.is_file():
        return None, "no reference file"
    stored = json.loads(REFERENCES.read_text())
    if stored["platform"] != platform_key():
        return None, "references were made on another platform"
    ref = stored["digests"].get(workload, {}).get(str(seed))
    return ref, "checked against the stored reference" if ref else "no reference for this seed"


# --------------------------------------------------------------------------
# Main

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return parser, args


def main(argv=None) -> int:
    parser, args = _parse(argv)
    import_program()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    setups = [] if args.trace else setup_seconds(args.workload)
    workload = workloads.build(args.workload, args.seed)
    reference, reference_note = stored_reference(args.workload, args.seed)
    workloads.warm_up(args.workload)
    # A round count sized so that the run took about --seconds when the
    # benchmark was defined keeps the operation count the same from run to
    # run; on a slower machine no round starts after --seconds.
    # A traced run splits both between its two passes.
    seconds = args.seconds / (1 + args.trace)
    rounds = max(MIN_ROUNDS, round(seconds / workload.round_s))
    plain = run_rounds(workload, rounds, seconds, reference=reference)
    record = run_record(args, workload, plain)
    record["reference"] = reference_note
    runs = [plain]
    if args.trace:
        import layers
        from spans import Span, Tracer

        tracer = Tracer()
        with tracer.interpose(layers.BOUNDARIES + layers.ENTRY_POINTS[workload.name]):
            traced = run_rounds(workload, len(plain.walls), math.inf, tracer, reference)
        runs.append(traced)
        bands = {i: op.band for i, op in enumerate(workload.ops)}
        values = layers.layer_metrics(tracer.spans, bands, len(traced.walls),
                                      statistics.fmean(plain.walls), traced.counts)
        units = layers.METRICS
        record["span_fields"] = [f.name for f in fields(Span)]
        record["spans"] = [astuple(s) for s in tracer.spans]
    else:
        # The tail is taken within each round, whose operation list is fixed,
        # so the tail sample is the same kind of operation in every round
        # however many rounds run; op_tail_ms is its median over rounds.
        tails = [tail(latencies) for latencies in plain.latencies]
        percentile = tails[0][1]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(plain.walls),
            "op_p50_ms": 1e3 * statistics.median(x for r in plain.latencies for x in r),
            "op_tail_ms": 1e3 * statistics.median(t for t, _ in tails),
            "work_per_s": plain.work / sum(plain.walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        record["op_tail"] = {"percentile": percentile, "samples_per_round": len(workload.ops)}
        record["setup_samples_s"] = setups
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    problems = [p for r in runs for p in r.problems]
    record.update(round_digests=plain.digests, problems=problems[:50],
                  fail_ratio=failed / attempted, metrics=values)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    print(f"perfbench {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(plain.walls)} x {len(workload.ops)} ops  ({record['reference']})")
    for name, value in values.items():
        label = f"{name} = {workload.work_name}" if name == "work_per_s" else name
        print(f"  {label:<45} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"  op_tail_ms is the median over {len(plain.walls)} rounds of p{percentile:.1f} of "
              f"each round's {len(workload.ops)} operations; setup_s is the median of "
              f"{len(setups)} set-ups")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for problem in problems[:5]:
        print(f"  FAIL {problem}")
    print(f"  record: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
