"""Batch experiment driver: instances x formulation kinds x breakpoints.

Every combination becomes one run: enumerate with a cap tied to the
breakpoint, assemble the hybrid model (the chosen kind where the feasible
set is small enough, an unreduced arc-arc block elsewhere), and solve under
a wall-clock budget.  Failures are recorded as rows that name their cause,
never raised, so a long sweep always produces its full grid of results.

Everything before the choice of kind is the same for every kind, so it is
prepared once and shared: the enumeration results at cap ``breakpoint + 1``
and their feasible sets, the big-M constants, and the hybrid plan (each
commodity's assignment without a kind: its role, its path-reduced graph and
its feasible set mapped into it).  :func:`prepared` keeps each preparation on its instance, in
``ProblemInstance._derived`` under its breakpoint, so it lives exactly as
long as the instance; a preparation that fails is not kept.  Threads that
prepare the same key at once can at worst repeat the work; the first result
stored is the one every run uses.  ``tollgate build --main`` builds its
model from :func:`prepared` too.  Instances are solved at their own costs;
a caller who wants ties broken perturbs the instance first.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

from .bigm import BigMParams, compute_bigm
from .cuts import solve_with_vfcs_cuts
from .enumeration import EnumerationResult, enumerate_all, perturbed
from .formulations import (
    CommodityAssignment,
    KindLike,
    assemble_hybrid,
    get_kind,
    plan_hybrid,
)
from .network import ProblemInstance
from .solver import DEFAULT_BUDGET, STATUS_ERROR, STATUS_OPTIMAL, Backend

log = logging.getLogger(__name__)

CSV_COLUMNS = (
    "instance",
    "kind",
    "N",
    "status",
    "objective",
    "gap_pct",
    "enum_s",
    "solve_s",
    "total_s",
    "error",
)

FALLBACK_KIND = "STD"


@dataclass(frozen=True)
class RunRecord:
    instance: str
    kind: str
    breakpoint: int
    status: str
    objective: Optional[float]
    gap_pct: Optional[float]
    enum_s: float
    solve_s: float
    #: ``"<ExceptionClass>: <message>"`` on an ``error`` row, else empty.
    error: str = ""

    @property
    def total_s(self) -> float:
        return self.enum_s + self.solve_s

    def row(self) -> list[str]:
        return [
            self.instance,
            self.kind,
            str(self.breakpoint),
            self.status,
            "" if self.objective is None else f"{self.objective:.6f}",
            "" if self.gap_pct is None else f"{self.gap_pct:.4f}",
            f"{self.enum_s:.4f}",
            f"{self.solve_s:.4f}",
            f"{self.total_s:.4f}",
            self.error,
        ]


@dataclass(frozen=True)
class _Prepared:
    """The kind-independent part of a run, shared by every kind."""

    enum: tuple[EnumerationResult, ...]
    #: Seconds spent enumerating when this was prepared.
    enum_s: float
    bigm: BigMParams
    plan: tuple[CommodityAssignment, ...]


def _prepare(instance: ProblemInstance, breakpoint: int) -> _Prepared:
    t0 = time.perf_counter()
    enum = enumerate_all(instance, cap=breakpoint + 1)
    enum_s = time.perf_counter() - t0
    bfsets = {
        k: r.feasible_set()
        for k, r in enumerate(enum)
        if r.feasible_set().exhaustive
    }
    bigm = compute_bigm(instance.network, instance.commodities, bfsets)
    plan = plan_hybrid(instance, breakpoint, enum)
    return _Prepared(enum, enum_s, bigm, plan)


def prepared(instance: ProblemInstance, breakpoint: int) -> _Prepared:
    """The preparation of ``instance`` at ``breakpoint``, made on first use.

    The preparation is kept on ``instance`` and shared by every later call
    with the same ``breakpoint`` (see the module docstring).
    """
    found = instance._derived.get(breakpoint)
    if found is None:
        found = instance._derived.setdefault(breakpoint, _prepare(instance, breakpoint))
    return found


def run_one(
    instance: ProblemInstance,
    kind: KindLike,
    breakpoint: int,
    budget: float = DEFAULT_BUDGET,
    perturb: bool = False,
    backend: Optional[Backend] = None,
    paper_exact: bool = False,
) -> RunRecord:
    """One sweep cell.  Build or solve trouble becomes an ``error`` row.

    The row's ``error`` field names the exception's class and message.
    ``backend`` defaults to ``ScipyBackend()``; ``paper_exact`` is passed
    to :func:`formulations.assemble_hybrid`.  ``perturb`` solves a copy of
    ``instance`` with its costs perturbed at seed 0.

    The enumeration, big-M constants and hybrid plan come from
    :func:`prepared`: one preparation, kept on the instance solved, shared
    by every run on that instance object with the same ``breakpoint``,
    whatever its kind.  ``enum_s`` is the time that preparation spent
    enumerating, so every kind of one (instance, breakpoint) reports the
    same ``enum_s``.  A run whose preparation fails reports the time it ran
    before failing.
    """
    kind = get_kind(kind)
    label = instance.label
    if perturb:
        instance = perturbed(instance, seed=0)
    t0 = time.perf_counter()
    try:
        prep = prepared(instance, breakpoint)
        hybrid = assemble_hybrid(
            instance,
            breakpoint,
            kind,
            FALLBACK_KIND,
            prep.bigm,
            prep.enum,
            allow_vfcs=True,
            paper_exact=paper_exact,
            plan=prep.plan,
        )
        result = solve_with_vfcs_cuts(hybrid, budget=budget, backend=backend)
    except Exception as exc:  # noqa: BLE001 - a sweep must survive bad cells
        log.warning("run %s/%s/N=%s failed: %s", label, kind.label, breakpoint, exc)
        return RunRecord(
            label, kind.label, breakpoint, STATUS_ERROR, None, None,
            time.perf_counter() - t0, 0.0, f"{type(exc).__name__}: {exc}",
        )
    gap = result.gap
    return RunRecord(
        label,
        kind.label,
        breakpoint,
        result.status,
        result.objective,
        None if gap is None else 100.0 * gap,
        prep.enum_s,
        result.wall_time,
    )


def run_sweep(
    instances: Sequence[ProblemInstance],
    kinds: Sequence[KindLike],
    breakpoints: Sequence[int],
    budget: float = DEFAULT_BUDGET,
    jobs: int = 1,
    backend: Optional[Backend] = None,
    paper_exact: bool = False,
) -> list[RunRecord]:
    """Run the full grid and return one record per cell, in grid order.

    Cells of one instance and breakpoint share one preparation (see
    :func:`run_one`), so each (instance, breakpoint) is enumerated, bounded
    and reduced once, whatever the number of kinds.
    """
    cells = [
        (instance, kind, breakpoint)
        for instance in instances
        for kind in kinds
        for breakpoint in breakpoints
    ]
    options = dict(budget=budget, backend=backend, paper_exact=paper_exact)
    if jobs <= 1:
        return [run_one(i, k, n, **options) for i, k, n in cells]
    # Imported here, as only a threaded sweep needs it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda cell: run_one(*cell, **options), cells))


def write_csv(records: Sequence[RunRecord], stream: TextIO) -> None:
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(rec.row())


@dataclass(frozen=True)
class SummaryRow:
    kind: str
    breakpoint: int
    solved: int
    runs: int
    easy_mean_s: Optional[float]
    hard_mean_gap_pct: Optional[float]


def summarize(records: Sequence[RunRecord]) -> list[SummaryRow]:
    """Per (kind, N): solve counts, mean time on easy instances, mean gap on hard.

    An instance is easy when at least one run across the whole sweep solved
    it; the rest are hard, judged by the gaps they leave behind.
    """
    easy = {r.instance for r in records if r.status == STATUS_OPTIMAL}
    grid: dict[tuple[str, int], list[RunRecord]] = {}
    for rec in records:
        grid.setdefault((rec.kind, rec.breakpoint), []).append(rec)
    rows = []
    for (kind, breakpoint), group in sorted(grid.items()):
        solved = [r for r in group if r.status == STATUS_OPTIMAL]
        easy_times = [r.total_s for r in group if r.instance in easy]
        hard_gaps = [
            r.gap_pct
            for r in group
            if r.instance not in easy and r.gap_pct is not None
        ]
        rows.append(
            SummaryRow(
                kind,
                breakpoint,
                len(solved),
                len(group),
                sum(easy_times) / len(easy_times) if easy_times else None,
                sum(hard_gaps) / len(hard_gaps) if hard_gaps else None,
            )
        )
    return rows


def write_summary(rows: Sequence[SummaryRow], stream: TextIO) -> None:
    writer = csv.writer(stream)
    writer.writerow(
        ("kind", "N", "solved", "runs", "easy_mean_s", "hard_mean_gap_pct")
    )
    for row in rows:
        writer.writerow(
            [
                row.kind,
                str(row.breakpoint),
                str(row.solved),
                str(row.runs),
                "" if row.easy_mean_s is None else f"{row.easy_mean_s:.4f}",
                "" if row.hard_mean_gap_pct is None else f"{row.hard_mean_gap_pct:.4f}",
            ]
        )
