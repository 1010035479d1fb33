"""qsum's layer boundaries and the per-layer metrics computed from their spans.

The boundaries are the module-level names one layer calls in another.  Counts
marked ``.computed`` are derived from the call's argument shapes, not
measured inside the program.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from qsum import bounds, cli, closedform, simulator

from spans import Span, self_times


def _cells(sigma, M, *_):
    rows = int(np.size(sigma))
    return {"means": rows, "cells": rows * M}


def _means(means, *_):
    return {"means": int(np.size(means))}


def _weight_bytes(measure, N):
    return {"bytes": (N + 1) * 8}


def _block_amps(state, *_):
    D = state.layout.index_dim
    return {"block_amps": D * (D - 1) // 2 * state.layout.N}


# (module, attribute, span name, counts) for every boundary qsum calls across.
BOUNDARIES = [
    (bounds, "outcome_probabilities", "closedform.outcome_probabilities", _cells),
    (bounds, "level_errors", "bounds.level_errors", _means),
    (bounds, "class_weights", "boolfn.class_weights", _weight_bytes),
    (closedform, "dirichlet_kernel_sq", "closedform.dirichlet_kernel_sq", None),
    (simulator, "apply_lambda", "simulator.apply_lambda", _block_amps),
    (simulator, "apply_primitive", "simulator.apply_primitive", None),
    (simulator, "measure_index", "simulator.measure_index", None),
    (cli, "run_suite", lambda suite: f"suites.{suite}", None),
    (cli, "distribution", "closedform.distribution", None),
    (cli, "run_qs", "simulator.run_qs", None),
    (cli, "worst_probabilistic_error", "bounds.driver", None),
    (cli, "avg_probabilistic_error", "bounds.driver", None),
]

# The benchmark's own calls into qsum, per workload.
ENTRY_POINTS = {
    "worst_sweep": [(bounds, "worst_probabilistic_errors", "bounds.driver", None)],
    "avg_sweep": [(bounds, "avg_probabilistic_error", "bounds.driver", None)],
    "gate_grid": [(simulator, "run_qs", "simulator.run_qs", None),
                  (closedform, "outcome_probabilities", "closedform.outcome_probabilities",
                   _cells)],
    "cli_calls": [(cli, "main", lambda argv: f"cli.{argv[0]}", None)],
}

ROOT = "bench.loop"  # one span per round; its self time is the benchmark's own
SUITES = ("unitarity", "calculus", "average-case", "oracle-equivalence")
COMMANDS = ("dist", "simulate", "error", "curve", "verify")
SPAN_NAMES = (
    "closedform.outcome_probabilities", "closedform.dirichlet_kernel_sq",
    "closedform.distribution", "bounds.level_errors", "bounds.driver",
    "boolfn.class_weights", "simulator.run_qs", "simulator.apply_lambda",
    "simulator.apply_primitive", "simulator.measure_index",
    *(f"suites.{s}" for s in SUITES), *(f"cli.{c}" for c in COMMANDS), ROOT,
)
BANDS = ("small_M", "mid_M", "large_M")

# Every per-layer metric, in report order, with its unit.
METRICS = {
    "closedform.outcome_probabilities.self_s": "s",
    "closedform.outcome_probabilities.calls": "count",
    "closedform.outcome_probabilities.cells": "cells.computed",
    "closedform.outcome_probabilities.means": "means.computed",
    "closedform.ns_per_cell": "ns",
    "closedform.cells_per_mean": "cells/mean",
    **{f"closedform.cells_per_mean.{b}": "cells/mean" for b in BANDS},
    "closedform.dirichlet_kernel_sq.self_s": "s",
    "closedform.distribution.calls": "count",
    "closedform.distribution.self_s": "s",
    "bounds.level_errors.calls": "count",
    "bounds.level_errors.means": "means.computed",
    "bounds.level_errors.self_s": "s",
    **{f"bounds.level_errors.ns_per_mean.{b}": "ns" for b in BANDS},
    "bounds.driver.calls": "count",
    "bounds.driver.self_s": "s",
    "bounds.wa4_above_level_violations": "count",
    "boolfn.class_weights.calls": "count",
    "boolfn.class_weights.self_s": "s",
    "boolfn.class_weights.bytes": "bytes.computed",
    "simulator.run_qs.calls": "count",
    "simulator.run_qs.self_s": "s",
    "simulator.apply_lambda.self_s": "s",
    "simulator.apply_primitive.self_s": "s",
    "simulator.measure_index.self_s": "s",
    "simulator.grover_block_amps": "amps.computed",
    "simulator.apply_lambda.ns_per_block_amp": "ns",
    **{f"suites.{s}.self_s": "s" for s in SUITES},
    "suites.checks_passed": "count",
    "suites.checks_attempted": "count",
    **{f"cli.{c}.self_s": "s" for c in COMMANDS},
    f"{ROOT}.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: list[Span], bands: dict[int, str | None], rounds: int,
                  untraced_wall_s: float, counts: dict[str, int]) -> dict[str, float]:
    """Per-round per-layer metrics from the spans of `rounds` traced rounds.

    `bands` maps an operation id to its worst_sweep band; `counts` holds the
    totals the checks read from the outputs.  Self times of all span names,
    the root included, add up to ``trace.wall_s``.
    """
    unknown = {s.name for s in spans} - set(SPAN_NAMES)
    if unknown:
        raise RuntimeError(f"spans with no per-layer metric: {sorted(unknown)}")
    sums: dict[tuple[str, str], float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        band = bands.get(span.op)
        for key in (span.name, f"{span.name}@{band}") if band else (span.name,):
            sums[key, "calls"] += 1
            sums[key, "self_s"] += own
            sums[key, "total_s"] += span.end - span.start
            for field, value in (span.counts or {}).items():
                sums[key, field] += value

    def per_round(key: str, field: str) -> float:
        return sums[key, field] / rounds

    op, le = "closedform.outcome_probabilities", "bounds.level_errors"
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = per_round(name, "self_s")
    for name in (op, "closedform.distribution", le, "bounds.driver",
                 "boolfn.class_weights", "simulator.run_qs"):
        out[f"{name}.calls"] = per_round(name, "calls")
    out[f"{op}.cells"] = per_round(op, "cells")
    out[f"{op}.means"] = per_round(op, "means")
    out["closedform.ns_per_cell"] = _ratio(sums[op, "total_s"], sums[op, "cells"], 1e9)
    out["closedform.cells_per_mean"] = _ratio(sums[op, "cells"], sums[op, "means"])
    for band in BANDS:
        out[f"closedform.cells_per_mean.{band}"] = _ratio(
            sums[f"{op}@{band}", "cells"], sums[f"{op}@{band}", "means"])
        out[f"{le}.ns_per_mean.{band}"] = _ratio(
            sums[f"{le}@{band}", "total_s"], sums[f"{le}@{band}", "means"], 1e9)
    out[f"{le}.means"] = per_round(le, "means")
    out["boolfn.class_weights.bytes"] = per_round("boolfn.class_weights", "bytes")
    out["simulator.grover_block_amps"] = per_round("simulator.apply_lambda", "block_amps")
    out["simulator.apply_lambda.ns_per_block_amp"] = _ratio(
        sums["simulator.apply_lambda", "total_s"], sums["simulator.apply_lambda", "block_amps"], 1e9)
    for name in ("bounds.wa4_above_level_violations", "suites.checks_passed",
                 "suites.checks_attempted"):
        out[name] = counts.get(name, 0) / rounds
    out["trace.wall_s"] = per_round(ROOT, "total_s")
    out["trace.untraced_wall_s"] = untraced_wall_s
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall_s
    out["trace.spans"] = len(spans) / rounds
    return {name: out[name] for name in METRICS}
