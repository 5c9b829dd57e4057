"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
verdicts, or add ``-s`` to see the printed detail lines while they run.
The reference values come from two independent sources implemented in
``bruteforce.py``: exhaustive path search with a pairwise dominance
filter, and the exact rational brute-force pricer in ``tollgate.oracle``.
"""

from __future__ import annotations

import time
import warnings
from fractions import Fraction

import pytest

from tollgate.bigm import compute_bigm
from tollgate.cuts import solve_with_vfcs_cuts
from tollgate.enumeration import enumerate_paths, is_bilevel_feasible
from tollgate.formulations import FORMULATIONS, assemble_hybrid, build_single
from tollgate.generator import GenConfig, generate
from tollgate.oracle import oracle_solve
from tollgate.preprocess import path_based_reduce, spgm_transform

from bruteforce import naive_feasible_paths, random_digraph_instance
from conftest import five_node_instance, scaled_bigm

SOLVE_BUDGET = 60.0
KIND_LABELS = tuple(k.label for k in FORMULATIONS)


def report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {verdict} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def close(a: float, b: float, tol: float = 1e-6) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def solve_kind(instance, kind, bigm, enums, preprocess="paths"):
    context = build_single(
        instance, kind, bigm, enums, preprocess=preprocess, allow_vfcs=True
    )
    return solve_with_vfcs_cuts(context, budget=SOLVE_BUDGET)


# -- shared instance suites ---------------------------------------------------


@pytest.fixture(scope="session")
def c3_suite():
    """100 random digraphs with their enumerations and naive references."""
    cases = []
    seed = 0
    while len(cases) < 100:
        inst = random_digraph_instance(seed)
        seed += 1
        if inst is None:
            continue
        per_commodity = []
        for k, com in enumerate(inst.commodities):
            result = enumerate_paths(inst.network, com, commodity_index=k)
            naive = naive_feasible_paths(
                inst.network, com.origin, com.destination
            )
            per_commodity.append((com, result, naive))
        cases.append((inst, per_commodity))
    return cases


# -- criteria -----------------------------------------------------------------


def test_criterion_01_enumeration_and_dominance_on_the_worked_example():
    fig = five_node_instance()
    com = fig.commodities[0]
    result = enumerate_paths(fig.network, com)
    emitted = [int(p.cost) for p in result.paths]
    kept = [int(p.cost) for p in result.feasible_set().paths]

    enumerate_paths(fig.network, com)  # warm caches before timing
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        run = enumerate_paths(fig.network, com)
        run.feasible_set()
        timings.append(time.perf_counter() - start)
    best = min(timings)

    ok = (
        emitted == [3, 4, 6, 10]
        and kept == [3, 4, 10]
        and best < 1e-3
    )
    report(
        1,
        ok,
        f"emitted {emitted}, kept {kept}, best of 5 runs {best * 1e6:.0f}us",
    )


def test_criterion_02_all_twelve_kinds_match_the_oracle_on_the_example():
    fig = five_node_instance()
    enum = enumerate_paths(fig.network, fig.commodities[0])
    bigm = compute_bigm(fig.network, fig.commodities, {0: enum.feasible_set()})
    expected = float(oracle_solve(fig, [enum]).revenue)

    start = time.perf_counter()
    wrong = []
    for label in KIND_LABELS:
        res = solve_kind(fig, label, bigm, [enum])
        if res.status != "optimal" or not close(res.objective, expected):
            wrong.append(f"{label}={res.status}:{res.objective}")
    elapsed = time.perf_counter() - start

    ok = not wrong and elapsed < 5.0 and expected == 7.0
    detail = (
        f"12 kinds at objective {expected} in {elapsed:.2f}s"
        if not wrong
        else f"mismatches: {', '.join(wrong)}"
    )
    report(2, ok, detail)


def test_criterion_03_enumeration_complete_on_100_random_digraphs(c3_suite):
    start = time.perf_counter()
    graphs = 0
    commodities = 0
    mismatches = []
    for inst, per_commodity in c3_suite:
        graphs += 1
        for com, result, naive in per_commodity:
            commodities += 1
            mine = [p.arcs for p in result.feasible_set().paths]
            if mine != naive:
                mismatches.append(f"{inst.label} {com.origin}->{com.destination}")
    elapsed = time.perf_counter() - start

    ok = graphs == 100 and not mismatches and elapsed < 60.0
    detail = (
        f"{graphs} graphs, {commodities} commodities agree with the "
        f"exhaustive reference in {elapsed:.1f}s"
        if not mismatches
        else f"disagreements: {mismatches[:5]}"
    )
    report(3, ok, detail)


def test_criterion_04_every_kept_path_passes_the_witness_check(c3_suite):
    checked = 0
    failures = []
    for inst, per_commodity in c3_suite:
        for com, result, _ in per_commodity:
            for path in result.feasible_set().paths:
                checked += 1
                if not is_bilevel_feasible(inst.network, path, com):
                    failures.append(f"{inst.label}:{path.arcs}")
    ok = not failures and checked > 0
    detail = (
        f"{checked} kept paths all admit a supporting toll vector"
        if not failures
        else f"witness rejected: {failures[:5]}"
    )
    report(4, ok, detail)


def test_criterion_05_cross_formulation_agreement_on_25_instances(suite25):
    start = time.perf_counter()
    bad = []
    for entry in suite25:
        expected = float(entry["oracle"].revenue)
        for label in KIND_LABELS:
            res = solve_kind(
                entry["instance"], label, entry["bigm"], entry["enums"]
            )
            if res.status != "optimal" or not close(res.objective, expected):
                bad.append(
                    f"{entry['instance'].label}/{label}: "
                    f"{res.status} {res.objective} vs {expected}"
                )
    elapsed = time.perf_counter() - start

    ok = not bad and elapsed < 600.0
    detail = (
        f"25 instances x 12 kinds agree with the exact reference "
        f"in {elapsed:.0f}s"
        if not bad
        else f"disagreements: {bad[:5]}"
    )
    report(5, ok, detail)


def test_criterion_06_reductions_preserve_optima_and_path_reduce_wins(suite25):
    bad = []
    for entry in suite25[:12]:
        inst, bigm, enums = entry["instance"], entry["bigm"], entry["enums"]
        for label in ("STD", "CS2"):
            plain = solve_kind(inst, label, bigm, enums, preprocess="none")
            reduced = solve_kind(inst, label, bigm, enums, preprocess="paths")
            if not close(plain.objective, reduced.objective):
                bad.append(
                    f"{inst.label}/{label}: {plain.objective} vs {reduced.objective}"
                )
        for k, com in enumerate(inst.commodities):
            by_paths = path_based_reduce(
                inst.network, enums[k].feasible_set()
            ).stats()["tolled"]
            by_spgm = spgm_transform(inst.network, com).stats()["tolled"]
            if by_paths > by_spgm:
                bad.append(f"{inst.label}/k{k}: tolled {by_paths} > {by_spgm}")
    ok = not bad
    detail = (
        "reduced and unreduced optima agree; path reduction never keeps "
        "more tolled arcs than the shortest-path reduction"
        if ok
        else f"violations: {bad[:5]}"
    )
    report(6, ok, detail)


def test_criterion_07_hybrid_consistency_and_emission_monotonicity(
    suite25, c3_suite
):
    bad = []
    for entry in suite25[:12]:
        inst, bigm, enums = entry["instance"], entry["bigm"], entry["enums"]
        tight = assemble_hybrid(inst, 1, "STD", "STD", bigm, enums)
        loose = assemble_hybrid(inst, None, "STD", "STD", bigm, enums)
        a = solve_with_vfcs_cuts(tight, budget=SOLVE_BUDGET)
        b = solve_with_vfcs_cuts(loose, budget=SOLVE_BUDGET)
        if not close(a.objective, b.objective):
            bad.append(f"{inst.label}: N=1 {a.objective} vs N=inf {b.objective}")

    sequences = 0
    fig = five_node_instance()
    streams = [enumerate_paths(fig.network, fig.commodities[0]).paths]
    streams += [r.paths for _, per in c3_suite for _, r, _ in per]
    streams += [e.paths for entry in suite25 for e in entry["enums"]]
    for paths in streams:
        sequences += 1
        costs = [p.cost for p in paths]
        if any(b < a for a, b in zip(costs, costs[1:])):
            bad.append("emission out of order")
    ok = not bad
    detail = (
        f"breakpoint 1 and unlimited hybrids agree on 12 instances; "
        f"{sequences} emission sequences are nondecreasing"
        if ok
        else f"violations: {bad[:5]}"
    )
    report(7, ok, detail)


def test_criterion_08_toll_caps_bind_and_big_m_doubling_is_harmless(suite25):
    bad = []
    for entry in suite25:
        cap = entry["bigm"].toll_cap
        for aid, value in entry["oracle"].tolls.items():
            if not (0 <= value <= cap):
                bad.append(f"{entry['instance'].label}: T[{aid}]={value}")
    doubled_checked = 0
    for entry in suite25[:8]:
        inst, enums = entry["instance"], entry["enums"]
        expected = float(entry["oracle"].revenue)
        doubled = scaled_bigm(entry["bigm"], 2)
        for label in KIND_LABELS:
            doubled_checked += 1
            res = solve_kind(inst, label, doubled, enums)
            if res.status != "optimal" or not close(res.objective, expected):
                bad.append(
                    f"{inst.label}/{label} with doubled constants: "
                    f"{res.status} {res.objective}"
                )
    ok = not bad
    detail = (
        f"all reference tolls within caps; {doubled_checked} doubled-constant "
        "solves keep their optima"
        if ok
        else f"violations: {bad[:5]}"
    )
    report(8, ok, detail)


def test_criterion_09_cut_loop_terminates_and_agrees(suite25):
    bad = []
    rounds = []
    for entry in suite25:
        expected = float(entry["oracle"].revenue)
        for label in ("VFCS1", "VFCS2"):
            context = build_single(
                entry["instance"],
                label,
                entry["bigm"],
                entry["enums"],
                preprocess="paths",
                allow_vfcs=True,
            )
            res = solve_with_vfcs_cuts(
                context, budget=SOLVE_BUDGET, max_rounds=20
            )
            rounds.append(res.cut_rounds)
            if res.status != "optimal" or not close(res.objective, expected):
                bad.append(f"{entry['instance'].label}/{label}: {res.status}")
    ok = not bad and max(rounds) <= 20
    detail = (
        f"50 cut-loop solves all optimal, at most {max(rounds)} rounds"
        if ok
        else f"violations: {bad[:5]}"
    )
    report(9, ok, detail)


def test_criterion_10_generated_instances_have_the_published_shape():
    sizes = []
    fractions = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(30):
            inst = generate(
                GenConfig(("grid", (5, 12)), 30 + (seed * 7) % 21, seed=seed)
            )
            net = inst.network
            sizes.append(net.num_arcs)
            fractions.append(len(net.tolled_ids) / net.num_arcs)
    mean_size = sum(sizes) / len(sizes)
    mean_fraction = sum(fractions) / len(fractions)
    ok = (
        abs(mean_size - 206) <= 0.15 * 206
        and abs(mean_fraction - 0.20) <= 0.02
    )
    report(
        10,
        ok,
        f"30 instances: mean arcs {mean_size:.1f} (target 206), "
        f"mean tolled fraction {mean_fraction:.3f} (target 0.20)",
    )
