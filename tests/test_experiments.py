"""Batch sweeps: the record grid, CSV output, and summaries."""

import io
from fractions import Fraction

import pytest

from tollgate.experiments import (
    CSV_COLUMNS,
    RunRecord,
    run_one,
    run_sweep,
    summarize,
    write_csv,
    write_summary,
)
from tollgate.generator import GenConfig, generate
from tollgate.oracle import oracle_solve


@pytest.fixture(scope="module")
def tiny_instances():
    return [
        generate(GenConfig(("grid", (3, 3)), 2, seed=s)) for s in (0, 1)
    ]


def test_run_one_solves_and_times(fig):
    rec = run_one(fig, "STD", breakpoint=4, perturb=False)
    assert rec.status == "optimal"
    assert rec.objective == pytest.approx(7.0)
    assert rec.gap_pct == pytest.approx(0.0)
    assert rec.enum_s >= 0 and rec.solve_s >= 0
    assert rec.total_s == rec.enum_s + rec.solve_s


def test_run_one_perturbation_changes_little(fig):
    plain = run_one(fig, "STD", breakpoint=4, perturb=False)
    shaken = run_one(fig, "STD", breakpoint=4, perturb=True)
    assert shaken.status == "optimal"
    assert shaken.objective == pytest.approx(plain.objective, abs=1e-3)


def test_run_one_turns_failures_into_error_rows(fig):
    rec = run_one(fig, "STD", breakpoint=0)
    assert rec.status == "error"
    assert rec.objective is None and rec.gap_pct is None
    assert rec.error == "BuildError: breakpoint must be at least 1, got 0"
    assert rec.row()[-1] == rec.error


def test_sweep_covers_the_grid(tiny_instances):
    records = run_sweep(tiny_instances, ["STD", "PCS2"], [1, 8], budget=60)
    assert len(records) == 8
    cells = [(r.instance, r.kind, r.breakpoint) for r in records]
    assert cells == [
        (inst.label, kind, bp)
        for inst in tiny_instances
        for kind in ("STD", "PCS2")
        for bp in (1, 8)
    ]
    assert all(r.status == "optimal" for r in records)


def test_sweep_objectives_agree_across_kinds_and_caps(tiny_instances):
    records = run_sweep(tiny_instances, ["STD", "PCS2"], [1, 8], budget=60)
    by_instance = {}
    for rec in records:
        by_instance.setdefault(rec.instance, []).append(rec.objective)
    for values in by_instance.values():
        spread = max(values) - min(values)
        assert spread <= 1e-5 * max(1.0, abs(values[0]))


def test_sweep_matches_oracle(tiny_instances):
    records = run_sweep(tiny_instances, ["STD"], [8], budget=60, perturb=False)
    for inst, rec in zip(tiny_instances, records):
        expected = float(oracle_solve(inst).revenue)
        assert rec.objective == pytest.approx(expected, rel=1e-6)


def test_parallel_sweep_keeps_grid_order(tiny_instances):
    solo = run_sweep(tiny_instances, ["STD"], [1, 8], budget=60)
    multi = run_sweep(tiny_instances, ["STD"], [1, 8], budget=60, jobs=4)
    assert [(r.instance, r.kind, r.breakpoint) for r in solo] == [
        (r.instance, r.kind, r.breakpoint) for r in multi
    ]
    for a, b in zip(solo, multi):
        assert a.objective == pytest.approx(b.objective, rel=1e-6)


def test_csv_layout():
    rec = RunRecord("g", "STD", 4, "optimal", 7.0, 0.0, 0.0125, 0.5)
    stream = io.StringIO()
    write_csv([rec], stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == (
        "instance,kind,N,status,objective,gap_pct,enum_s,solve_s,total_s,error"
    )
    assert lines[1] == "g,STD,4,optimal,7.000000,0.0000,0.0125,0.5000,0.5125,"


def test_csv_blanks_for_missing_values():
    rec = RunRecord("g", "STD", 4, "error", None, None, 0.0, 0.0, "ValueError: x, y")
    stream = io.StringIO()
    write_csv([rec], stream)
    assert stream.getvalue().splitlines()[1] == (
        'g,STD,4,error,,,0.0000,0.0000,0.0000,"ValueError: x, y"'
    )


def test_summary_partitions_easy_and_hard():
    records = [
        RunRecord("a", "STD", 4, "optimal", 5.0, 0.0, 0.1, 0.4),
        RunRecord("b", "STD", 4, "feasible", 3.0, 12.5, 0.1, 0.9),
        RunRecord("a", "PCS2", 4, "feasible", 4.0, 25.0, 0.1, 0.2),
        RunRecord("b", "PCS2", 4, "feasible", 2.9, 7.5, 0.1, 0.2),
    ]
    rows = {(r.kind, r.breakpoint): r for r in summarize(records)}
    std = rows[("STD", 4)]
    # Instance a was solved somewhere, so it is easy; b never was.
    assert std.solved == 1 and std.runs == 2
    assert std.easy_mean_s == pytest.approx(0.5)
    assert std.hard_mean_gap_pct == pytest.approx(12.5)
    pcs = rows[("PCS2", 4)]
    assert pcs.solved == 0
    assert pcs.easy_mean_s == pytest.approx(0.3)
    assert pcs.hard_mean_gap_pct == pytest.approx(7.5)


def test_summary_csv_layout():
    records = [RunRecord("a", "STD", 4, "optimal", 5.0, 0.0, 0.1, 0.4)]
    stream = io.StringIO()
    write_summary(summarize(records), stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "kind,N,solved,runs,easy_mean_s,hard_mean_gap_pct"
    assert lines[1] == "STD,4,1,1,0.5000,"
