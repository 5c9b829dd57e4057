"""Instances solved at their own costs, where path costs tie.

The dominance filter keeps a path only when no path over a subset of its
tolled arcs costs no more, so ties need no perturbation.  Every kind must
then reach the exact oracle's optimum, on random digraphs with small
integer costs and on criterion 05's grid suite left unperturbed.  STD on
the unreduced graph reads no feasible set, so it checks the oracle itself.
"""

from __future__ import annotations

import pytest

from tollgate.bigm import compute_bigm
from tollgate.cuts import solve_with_vfcs_cuts
from tollgate.enumeration import enumerate_all
from tollgate.experiments import run_one
from tollgate.formulations import FORMULATIONS, assemble_hybrid, build_single
from tollgate.oracle import oracle_solve

from bruteforce import naive_feasible_paths, random_digraph_instance

KINDS = tuple(k.label for k in FORMULATIONS)
TIED_INSTANCES = 20
SMALL_BREAKPOINT = 2


def _has_ties(enums) -> bool:
    return any(
        a.cost == b.cost for r in enums for a, b in zip(r.paths, r.paths[1:])
    )


def close(a: float, b: float, tol: float = 1e-6) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.fixture(scope="module")
def tied_suite():
    """Random digraphs with arc costs 1-3 whose emitted path costs tie."""
    cases = []
    seed = 0
    while len(cases) < TIED_INSTANCES:
        inst = random_digraph_instance(seed, cost_high=3)
        seed += 1
        if inst is None:
            continue
        enums = enumerate_all(inst)
        if _has_ties(enums):
            cases.append((inst, enums, float(oracle_solve(inst, enums).revenue)))
    return cases


def test_tied_feasible_sets_match_the_naive_filter(tied_suite):
    for inst, enums, _ in tied_suite:
        for com, result in zip(inst.commodities, enums):
            naive = naive_feasible_paths(inst.network, com.origin, com.destination)
            assert sorted(p.arcs for p in result.feasible_set().paths) == sorted(naive)


def test_every_kind_matches_the_oracle_on_tied_costs(tied_suite):
    for inst, enums, expected in tied_suite:
        bigm = compute_bigm(inst.network, inst.commodities)
        plain = build_single(inst, "STD", bigm, preprocess="none")
        result = solve_with_vfcs_cuts(plain)
        assert result.status == "optimal" and close(result.objective, expected)
        bigm = compute_bigm(
            inst.network,
            inst.commodities,
            {k: r.feasible_set() for k, r in enumerate(enums)},
        )
        for kind in KINDS:
            rec = run_one(inst, kind, SMALL_BREAKPOINT)
            assert rec.status == "optimal", (inst.label, kind, rec.error)
            assert close(rec.objective, expected), (inst.label, kind)
            hybrid = assemble_hybrid(
                inst, None, kind, "STD", bigm, enums, allow_vfcs=True
            )
            result = solve_with_vfcs_cuts(hybrid)
            assert result.status == "optimal", (inst.label, kind)
            assert close(result.objective, expected), (inst.label, kind)


def test_raw_gate25_matches_the_raw_oracle(raw_suite25):
    assert any(_has_ties(entry["enums"]) for entry in raw_suite25)
    for entry in raw_suite25:
        inst = entry["instance"]
        expected = float(entry["oracle"].revenue)
        for kind in KINDS:
            rec = run_one(inst, kind, 4000)
            assert rec.status == "optimal", (inst.label, kind, rec.error)
            assert close(rec.objective, expected), (inst.label, kind)
