"""Batch sweeps: the record grid, CSV output, and summaries."""

import csv
import gc
import io
import sys
import threading
import time
import weakref
from fractions import Fraction

import pytest

from tollgate import enumeration, experiments, solver
from tollgate.cli import main
from tollgate.experiments import (
    CSV_COLUMNS,
    RunRecord,
    run_one,
    run_sweep,
    summarize,
    write_csv,
    write_summary,
)
from tollgate.formulations import FORMULATIONS
from tollgate.generator import GenConfig, generate
from tollgate.lp_format import write_lp
from tollgate.network import (
    Arc,
    Commodity,
    Network,
    ProblemInstance,
    load_instance,
    serialize_instance,
)
from tollgate.oracle import oracle_solve

ALL_KINDS = [k.label for k in FORMULATIONS]


@pytest.fixture(scope="module")
def tiny_instances():
    return [
        generate(GenConfig(("grid", (3, 3)), 2, seed=s)) for s in (0, 1)
    ]


def fresh(instance: ProblemInstance) -> ProblemInstance:
    """``instance`` rebuilt on a new network: it shares no preparation with it."""
    net = instance.network
    return ProblemInstance(
        Network(net.num_nodes, net.arcs), instance.commodities, instance.label
    )


@pytest.fixture
def assembled_lp(monkeypatch):
    """The LP text of every model ``run_one`` assembles, before any cut round."""
    texts = []
    assemble = experiments.assemble_hybrid

    def spy(*args, **kwargs):
        hybrid = assemble(*args, **kwargs)
        texts.append(write_lp(hybrid.ir))
        return hybrid

    monkeypatch.setattr(experiments, "assemble_hybrid", spy)
    return texts


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


def test_an_unmapped_highs_status_is_an_error_row_that_names_it(fig, monkeypatch):
    known = dict(solver._HIGHS_STATUS)
    del known[solver._highs.HighsModelStatus.kOptimal]
    monkeypatch.setattr(solver, "_HIGHS_STATUS", known)
    rec = run_one(fig, "STD", breakpoint=4, perturb=False)
    assert rec.status == "error"
    assert rec.error.startswith("SolverError: HiGHS ended model ")
    assert rec.error.endswith("with model status Optimal (kOptimal)")


def test_an_error_after_the_preparation_splits_its_time(fig, monkeypatch):
    # The solve takes at least a fifth of a second and then fails: that
    # time is the solve's, and enum_s stays the preparation's own.
    known = dict(solver._HIGHS_STATUS)
    del known[solver._highs.HighsModelStatus.kOptimal]
    monkeypatch.setattr(solver, "_HIGHS_STATUS", known)
    solve = experiments.solve_with_vfcs_cuts

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_with_vfcs_cuts", slow)
    rec = run_one(fig, "STD", breakpoint=4, perturb=False)
    assert rec.status == "error" and rec.error.startswith("SolverError: ")
    assert rec.enum_s == experiments.prepared(fig, 4).enum_s < 0.2
    assert rec.solve_s >= 0.2


def test_a_solved_row_counts_the_model_build_in_solve_s(fig, monkeypatch):
    # Building the model takes at least a fifth of a second: a successful
    # row counts it in solve_s, as an error row after the preparation does.
    assemble = experiments.assemble_hybrid

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(experiments, "assemble_hybrid", slow)
    rec = run_one(fig, "STD", breakpoint=4, perturb=False)
    assert rec.status == "optimal"
    assert rec.solve_s >= 0.2


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
    records = run_sweep(tiny_instances, ["STD"], [8], budget=60)
    for inst, rec in zip(tiny_instances, records):
        expected = float(oracle_solve(inst).revenue)
        assert rec.objective == pytest.approx(expected, rel=1e-6)


class _NodeCounter(solver.ScipyBackend):
    """HiGHS as usual, adding up the branch-and-bound nodes of its solves."""

    def __init__(self):
        self.nodes = 0

    def solve(self, model, budget=solver.DEFAULT_BUDGET):
        result = super().solve(model, budget)
        self.nodes += result.mip_nodes
        return result


def test_every_kind_agrees_on_a_model_that_branches():
    # The gate suite's models are mostly solved at the root node; a 6x6
    # grid with 8 commodities branches under some kinds, and every kind
    # must still reach the same proven optimum there.
    instance = generate(GenConfig(("grid", (6, 6)), 8, seed=0))
    records, nodes = [], []
    for kind in ALL_KINDS:
        backend = _NodeCounter()
        records.append(run_one(instance, kind, 4000, budget=60, backend=backend))
        nodes.append(backend.nodes)
    assert [r.status for r in records] == ["optimal"] * len(ALL_KINDS)
    best = records[0].objective
    for rec in records:
        assert rec.objective == pytest.approx(best, rel=1e-6), rec.kind
    assert max(nodes) > 1


def _assert_one_enum_time_per_cell(records):
    by_cell = {}
    for rec in records:
        by_cell.setdefault((rec.instance, rec.breakpoint), set()).add(rec.enum_s)
    assert len(by_cell) == 4
    for times in by_cell.values():
        assert len(times) == 1 and next(iter(times)) > 0


def test_parallel_sweep_keeps_grid_order(tiny_instances):
    solo = run_sweep(tiny_instances, ALL_KINDS, [1, 8], budget=60)
    # Fresh instances, so that the threads race to prepare each one.
    multi = run_sweep(
        [fresh(i) for i in tiny_instances], ALL_KINDS, [1, 8], budget=60, jobs=4
    )
    assert [(r.instance, r.kind, r.breakpoint) for r in solo] == [
        (r.instance, r.kind, r.breakpoint) for r in multi
    ]
    for a, b in zip(solo, multi):
        assert b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, rel=1e-6)
    # Every kind reports its (instance, N)'s one shared enumeration time.
    _assert_one_enum_time_per_cell(solo)
    _assert_one_enum_time_per_cell(multi)


def test_sweep_perturbs_once_per_instance(tiny_instances, tmp_path, monkeypatch):
    seen = []
    perturb = enumeration.perturb_costs

    def spy(network, seed):
        seen.append(network)
        return perturb(network, seed=seed)

    monkeypatch.setattr(enumeration, "perturb_costs", spy)
    # A sweep solves the costs as given.
    records = run_sweep(
        [fresh(i) for i in tiny_instances], ["STD", "VF", "PCS2"], [1, 8], budget=60
    )
    assert len(records) == 12
    assert all(r.status == "optimal" for r in records)
    assert seen == []
    # With --perturb, the command line perturbs each instance once, as it
    # loads it, and every cell solves that copy.
    files = []
    for k, instance in enumerate(tiny_instances):
        files.append(tmp_path / f"tiny{k}.npp")
        files[-1].write_text(serialize_instance(instance))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--instances", *map(str, files), "--kinds", "STD,VF,PCS2",
            "--breakpoints", "1,8", "--perturb", "0", "--out", str(out)]
    assert main(argv) == 0
    assert len(seen) == len(files)
    with open(out, newline="") as stream:
        rows = list(csv.DictReader(stream))
    assert len(rows) == 12 and all(r["status"] == "optimal" for r in rows)
    for rec, row in zip(records, rows):
        assert float(row["objective"]) == pytest.approx(rec.objective, rel=1e-6)


@pytest.mark.parametrize("which", ["fixture", "tiny-0", "tiny-1"])
def test_shared_preparation_matches_a_cold_one(fig, tiny_instances, assembled_lp, which):
    instance = fig if which == "fixture" else tiny_instances[int(which[-1])]
    instance = fresh(instance)
    breakpoints = (1, 8)
    cold, cold_lp = [], []
    for kind in ALL_KINDS:
        for n in breakpoints:
            cold.append(run_one(fresh(instance), kind, n, budget=60))
            cold_lp.append(assembled_lp.pop())
    warm = [run_one(instance, kind, n, budget=60) for kind in ALL_KINDS for n in breakpoints]
    assert [(r.status, r.objective) for r in warm] == [(r.status, r.objective) for r in cold]
    assert all(r.status == "optimal" for r in warm)
    assert assembled_lp == cold_lp

    # The instance holds its preparations, by breakpoint, and nothing in them
    # refers back to it: without the cyclic collector, deleting the instance
    # frees them all.
    assert experiments.prepared(instance, 8) is instance._derived[8]
    store = instance._derived
    assert sorted(store) == [1, 8]
    alive = [weakref.ref(value) for value in store.values()]
    del store
    gc.disable()
    try:
        del instance
        assert all(ref() is None for ref in alive)
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["STD", "PCS2"])
def test_build_main_writes_the_model_a_sweep_cell_assembles(
    fig, tmp_path, assembled_lp, capsys, kind
):
    path = tmp_path / "five.npp"
    path.write_text(serialize_instance(fig))
    out = tmp_path / "x.lp"
    built = []
    for perturb in ([], ["--perturb", "0"]):
        argv = [
            "build", "--instance", str(path), "--main", kind, "--fallback", "STD",
            "--breakpoint", "8", *perturb, "--out", str(out),
        ]
        assert main(argv) == 0
        assert "wrote" in capsys.readouterr().out
        built.append(out.read_text())
        argv = [
            "sweep", "--instances", str(path), "--kinds", kind, "--breakpoints", "8",
            *perturb, "--out", str(tmp_path / "x.csv"),
        ]
        assert main(argv) == 0
        assert ",optimal," in (tmp_path / "x.csv").read_text()
    assert run_one(load_instance(path), kind, 8).status == "optimal"
    # The sweep cells, then the library cell on the instance as given.
    assert assembled_lp == [*built, built[0]]
    assert built[0] != built[1]


def test_a_failed_preparation_is_an_error_row_for_every_kind(monkeypatch):
    # The commodity has no toll-free path, so compute_bigm refuses it.
    arcs = [
        Arc(0, 0, 1, Fraction(1), True),
        Arc(1, 1, 3, Fraction(1), False),
        Arc(2, 0, 2, Fraction(1), True),
        Arc(3, 2, 3, Fraction(1), False),
    ]
    bad = ProblemInstance(Network(4, arcs), (Commodity(0, 3, Fraction(1)),), "bad")
    calls = []
    prepare = experiments._prepare

    def spy(*args):
        calls.append(args)
        return prepare(*args)

    monkeypatch.setattr(experiments, "_prepare", spy)
    records = run_sweep([bad], ALL_KINDS, [4])
    assert [r.status for r in records] == ["error"] * len(ALL_KINDS)
    for rec in records:
        assert rec.error == (
            "InstanceError: commodity 0 has no toll-free path; toll caps are undefined"
        )
    # Nothing was kept, so every kind tried again.
    assert len(calls) == len(ALL_KINDS)
    assert bad._derived == {}


def test_threads_share_one_preparation(tiny_instances):
    # A lost update would hand two threads different preparations.
    instance = fresh(tiny_instances[0])
    workers = 6
    together = threading.Barrier(workers, timeout=30)
    got, errors = [], []

    def worker():
        try:
            together.wait()
            got.append(experiments.prepared(instance, 8))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == workers
    assert all(prep is got[0] for prep in got)
    assert experiments.prepared(instance, 8) is got[0]


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
