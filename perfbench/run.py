"""tollgate's benchmark: closed-loop workloads, checked cell by cell.

Run from the repository root:

    python3 perfbench/run.py --workload gate25 --seed 0 --seconds 50 --trace 0

``--workload all`` runs gate25, build_sweep and budget_sweep one after
another in this process.  Every run prints a table of its metrics to
standard error.  On standard output, the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the gated
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is the full report of the run.  The exit
code is 1 when a cell fails its check, and 2 when tollgate cannot be
imported from ``src/`` next to this directory.

Timings are host-normalized: a fixed pure-Python probe runs between cells,
and each cell's time is rescaled by the probe times around it.  README.md
in this directory explains why, and lists the workloads, the metrics and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("gate25", "build_sweep", "budget_sweep")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# Below this many cells, no percentile with TAIL_BEYOND samples beyond it
# lies above the median, so the tail is the slowest cell.
TAIL_MIN_CELLS = 2 * TAIL_BEYOND

# The speed probe: two fixed pure-Python loops, one of arithmetic and one of
# dict inserts, run between timed segments (cells, or program calls within
# a cell).  A segment's host factor is the median probe time over the
# PROBE_WINDOW gaps on each side of it, divided by PROBE_REFERENCE_S.
PROBE_LOOP = 12_500
PROBE_INSERTS = 6_000
PROBE_REPEATS = 3
PROBE_WINDOW = 6
PROBE_REFERENCE_S = 0.003
# The start and end probes recorded as diagnostics.
DIAG_LOOP = 200_000
DIAG_REPEATS = 5

# The gated end-to-end metrics (BENCHMARK.json) and their units.
GATED = {
    "setup_s": "s",
    "wall_s": "s",
    "cell_ms_p50": "ms",
    "cell_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
UNITS = {
    **GATED,
    "failed_frac": "ratio",
    "revenue": "revenue",
    "bound": "revenue",
    "gap_pct": "%",
}
BETTER = {name: "lower" for name in UNITS}
BETTER["revenue"] = "higher"


# -- host speed ------------------------------------------------------------------


def _python_loop(n: int) -> None:
    total = 0
    for i in range(n):
        total += i * i % 7


def _dict_inserts(n: int) -> None:
    table = {}
    for i in range(n):
        table[(i * 7) % 2003, i & 3] = [i]


def speed_probe() -> float:
    """Median of a few timings of both probe loops together, in seconds.

    The garbage collector is off meanwhile: the inserts would otherwise
    trigger collections whose cost grows with the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            _python_loop(PROBE_LOOP)
            _dict_inserts(PROBE_INSERTS)
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def host_factors(probes: list[float]) -> list[float]:
    """One factor per timed segment; segment i ran between probes i and i + 1."""
    return [
        statistics.median(probes[max(0, i + 1 - PROBE_WINDOW) : i + 1 + PROBE_WINDOW])
        / PROBE_REFERENCE_S
        for i in range(len(probes) - 1)
    ]


def _small_milp() -> None:
    import numpy as np
    from scipy import optimize

    weights = np.array([(7 * i) % 23 + 5 for i in range(24)], dtype=float)
    values = np.array([(11 * i) % 29 + 3 for i in range(24)], dtype=float)
    res = optimize.milp(
        c=-values,
        constraints=optimize.LinearConstraint(weights[None, :], -np.inf, 120.0),
        bounds=optimize.Bounds(0, 1),
        integrality=np.ones(24),
    )
    if res.status != 0:
        raise RuntimeError(f"host probe solve ended with status {res.status}")


def host_probe() -> dict[str, float]:
    """Fastest of a few timings of a fixed Python loop and a fixed HiGHS solve."""
    out = {}
    for name, fn in (
        ("python_loop_ms", lambda: _python_loop(DIAG_LOOP)),
        ("highs_solve_ms", _small_milp),
    ):
        best = float("inf")
        for _ in range(DIAG_REPEATS):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        out[name] = 1000.0 * best
    return out


def import_program() -> tuple[float, float]:
    """Import tollgate from this checkout's ``src``: (raw, normalized) seconds."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    before = speed_probe()
    start = time.perf_counter()
    try:
        import tollgate
    except ImportError as exc:
        print(f"cannot import tollgate from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    elapsed = time.perf_counter() - start
    origin = Path(tollgate.__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"tollgate was imported from {origin}, not from {src}", file=sys.stderr)
        sys.exit(2)
    (factor,) = host_factors([before, speed_probe()])
    return elapsed, elapsed / factor


# -- the timed loop --------------------------------------------------------------


class Timer:
    """Times the program's work as segments, with a speed probe between them.

    A cell is at least one segment.  A cell that calls the program several
    times splits between the calls, so that its long stretches of work get
    host factors from probes taken close to them.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.segments: list[float] = []
        self.probes = [speed_probe()]
        self._start = time.perf_counter()

    def begin(self) -> None:
        self._start = time.perf_counter()

    def split(self) -> None:
        self.segments.append(time.perf_counter() - self._start)
        if self.tracer is not None:
            with self.tracer.span("probe.speed"):
                self.probes.append(speed_probe())
        else:
            self.probes.append(speed_probe())
        self._start = time.perf_counter()

    def normalized(self) -> list[float]:
        return [t / f for t, f in zip(self.segments, host_factors(self.probes))]


def _run_cell(cell, split):
    try:
        return cell.run(split)
    except Exception as exc:  # a cell that raises is a failed cell
        traceback.print_exc(file=sys.stderr)
        return exc


def _verdict(cell, out):
    """None when the cell's output is right, else why it is wrong."""
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    return cell.check(out)


def _score(workload, out):
    """(revenue, bound, has an incumbent) of a solved cell."""
    import workloads

    record, _ = out
    trivial = workload.trivial_bound.get(record.instance, float("nan"))
    return (
        workloads.revenue_of(out),
        workloads.bound_of(out, trivial),
        record.objective is not None,
    )


def run_pass(workload, tracer=None):
    """One closed-loop pass over every cell.

    Returns raw and normalized seconds per cell, the problems found, and the
    score of every solved cell.  Each output is checked, outside the timed
    segments and with tracing paused, as soon as its cell ends, and then
    dropped, so that the peak memory is that of one cell.
    """
    timer = Timer(tracer)
    ranges, problems, scores = [], [], []
    for cell in workload.cells:
        first = len(timer.segments)
        timer.begin()
        if tracer is None:
            out = _run_cell(cell, timer.split)
            timer.split()
        else:
            tracer.cell = cell.cell_id
            with tracer.span("cell"):
                out = _run_cell(cell, timer.split)
                timer.split()
            tracer.active = False
        ranges.append((first, len(timer.segments)))
        why = _verdict(cell, out)
        if why is not None:
            problems.append(f"{cell.cell_id}: {why}")
        if workload.solves and not isinstance(out, Exception):
            scores.append(_score(workload, out))
        del out
        if tracer is not None:
            tracer.active = True
    norm = timer.normalized()
    raw_cells = [sum(timer.segments[a:b]) for a, b in ranges]
    norm_cells = [sum(norm[a:b]) for a, b in ranges]
    return raw_cells, norm_cells, problems, scores


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n < TAIL_MIN_CELLS:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quality(scores):
    """(revenue, bound, gap_pct) over a pass; None where nothing is solved."""
    if not scores:
        return None, None, None
    gaps = [
        100.0 if not incumbent else 0.0 if bound == 0 else 100.0 * (bound - revenue) / bound
        for revenue, bound, incumbent in scores
    ]
    return (
        sum(revenue for revenue, _, _ in scores),
        sum(bound for _, bound, _ in scores),
        statistics.fmean(gaps),
    )


def set_up(make, seed: int, capture, repeats: int):
    """Build the inputs ``repeats`` times: (workload, raw and normalized seconds)."""
    timer = Timer()
    for _ in range(repeats):
        timer.begin()
        workload = make(seed, capture)
        timer.split()
    return workload, timer.segments, timer.normalized()


def measure(name: str, seed: int, seconds: float, imported, capture):
    """Set up several times, then repeat passes while another fits in ``seconds``."""
    import workloads

    import_raw, import_norm = imported
    workload, setup_raw, setup_norm = set_up(
        workloads.MAKERS[name], seed, capture, SETUP_REPEATS
    )
    raw_passes, norm_passes, problems, first_scores = [], [], [], None
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        raw_cells, norm_cells, found, scores = run_pass(workload)
        took = time.perf_counter() - p0
        raw_passes.append(raw_cells)
        norm_passes.append(norm_cells)
        problems += found
        if first_scores is None:
            first_scores = scores
        if time.perf_counter() - start + took > seconds:
            break
    attempted = len(workload.cells) * len(raw_passes)

    # One time per cell, the median over passes, so that the number of passes
    # does not change which statistic is reported.
    per_cell = [statistics.median(ts) for ts in zip(*norm_passes)]
    per_cell_raw = [statistics.median(ts) for ts in zip(*raw_passes)]
    tail_s, tail_pct = tail(per_cell)
    revenue, bound, gap = quality(first_scores)
    values = {
        "setup_s": import_norm + statistics.median(setup_norm),
        "wall_s": statistics.median(sum(p) for p in norm_passes),
        "cell_ms_p50": 1000.0 * statistics.median(per_cell),
        "cell_ms_tail": 1000.0 * tail_s,
        "failed_frac": len(problems) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "revenue": revenue,
        "bound": bound,
        "gap_pct": gap,
    }
    report = {
        "workload": name,
        "seed": seed,
        "end_to_end": {
            k: {"value": v, "unit": UNITS[k], "better": BETTER[k]}
            for k, v in values.items()
        },
        "diagnostics": {
            "cells": len(workload.cells),
            "passes": len(raw_passes),
            "tail_percentile": tail_pct,
            "tail_samples": len(per_cell),
            "raw": {
                "setup_s": import_raw + statistics.median(setup_raw),
                "wall_s": statistics.median(sum(p) for p in raw_passes),
                "cell_ms_p50": 1000.0 * statistics.median(per_cell_raw),
                "cell_ms_tail": 1000.0 * tail(per_cell_raw)[0],
            },
            "import_s": import_raw,
            "setup_runs_s": setup_raw,
            "problems": problems[:20],
        },
    }
    return report, attempted, len(problems)


def measure_traced(name: str, seed: int, imported, capture):
    """An untraced pass, then a traced set-up and pass; per-layer metrics."""
    import layers
    import workloads
    from tollgate.formulations import FORMULATIONS
    from tracing import Tracer

    make = workloads.MAKERS[name]
    workload = make(seed, capture)
    raw_cells, norm_cells, problems, _ = run_pass(workload)
    untraced = (sum(raw_cells), sum(norm_cells))

    tracer = Tracer()
    layers.install(tracer)
    tracer.active = True
    tracer.cell = layers.SETUP
    workload = make(seed, capture)
    raw_cells, norm_cells, found, scores = run_pass(workload, tracer)
    traced = (sum(raw_cells), sum(norm_cells))
    tracer.active = False
    tracer.restore()
    problems += found

    root_bound = 0.0
    if name == "budget_sweep":
        root_bound = sum(
            layers.relaxed_bound(ir, rows) for ir, rows in layers.assembled_models(tracer)
        )
    revenue, bound, gap = quality(scores)
    per_layer, counts = layers.metrics(
        tracer,
        {c.cell_id: c.kind for c in workload.cells},
        [k.label for k in FORMULATIONS],
        root_bound,
    )
    if name != "gate25":
        del counts["mip_nodes"]  # budget-limited searches stop at no fixed node
    per_layer["solver.revenue"] = (revenue or 0.0, "revenue")
    per_layer["solver.dual_bound"] = (bound or 0.0, "revenue")
    per_layer["solver.gap_pct"] = (gap or 0.0, "%")
    per_layer["trace.wall_s"] = (traced[0], "s")
    per_layer["trace.untraced_wall_s"] = (untraced[0], "s")
    per_layer["trace.overhead_s"] = (traced[1] - untraced[1], "s")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    counts_file = OUT_DIR / f"counts-{name}-seed{seed}.json"
    previous = json.loads(counts_file.read_text()) if counts_file.exists() else None
    if previous is not None and previous != counts:
        problems.append(f"deterministic counts changed: {previous} -> {counts}")
    counts_file.write_text(json.dumps(counts, sort_keys=True))

    report = {
        "workload": name,
        "seed": seed,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "diagnostics": {
            "counts": counts,
            "counts_repeat": None if previous is None else previous == counts,
            "spans": len(tracer.spans),
            "import_s": imported[0],
            "problems": problems[:20],
        },
    }
    return report, 2 * len(workload.cells), len(problems)


def _print_table(reports, out) -> None:
    for report in reports:
        print(f"\n{report['workload']} (seed {report['seed']})", file=out)
        section = report.get("end_to_end") or report.get("per_layer")
        for key, entry in section.items():
            value = entry["value"]
            text = "n/a" if value is None else f"{value:.6g}"
            print(f"  {key:34s} {text:>14s} {entry['unit']}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    imported = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    real_stdout = os.dup(1)
    # HiGHS prints stray lines to file descriptor 1; keep them out of the
    # machine-readable output and count them instead.
    sink = tempfile.TemporaryFile(dir=OUT_DIR)
    sys.stdout.flush()
    os.dup2(sink.fileno(), 1)
    try:
        import workloads

        capture = workloads.Capture()
        probe_start = host_probe()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports, attempted, failed = [], 0, 0
        for name in names:
            if args.trace:
                report, a, f = measure_traced(name, args.seed, imported, capture)
            else:
                report, a, f = measure(name, args.seed, args.seconds, imported, capture)
            reports.append(report)
            attempted += a
            failed += f
        probe_end = host_probe()
    finally:
        sys.stdout.flush()
        os.dup2(real_stdout, 1)
        os.close(real_stdout)
    sink.seek(0)
    stray = sink.read().decode(errors="replace").splitlines()
    sink.close()
    for line in stray:
        print(f"stray stdout: {line}", file=sys.stderr)

    for report in reports:
        report["diagnostics"]["host_probe_start"] = probe_start
        report["diagnostics"]["host_probe_end"] = probe_end
        report["diagnostics"]["stray_stdout_lines"] = len(stray)
    _print_table(reports, sys.stderr)

    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else f"{report['workload']}."
        if args.trace:
            section = report["per_layer"]
        else:
            section = {k: report["end_to_end"][k] for k in GATED}
        for key, entry in section.items():
            metrics[prefix + key] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps({"reports": reports}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
