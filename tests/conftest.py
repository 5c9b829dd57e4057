"""Shared fixtures.

The five-node fixture below is small enough to work through by hand, and
most frozen values in the unit tests were derived on paper from it: four
simple paths of costs 3, 4, 6, 10, of which the cost-6 one is dominated
(its tolled arcs are a superset of the cost-4 path's), a toll cap of 7,
and a best revenue of 7 collected entirely on the first tolled arc.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest

from tollgate.bigm import BigMParams, compute_bigm
from tollgate.enumeration import enumerate_paths, perturb_costs
from tollgate.formulations import build_single
from tollgate.generator import GenConfig, GenError, generate, parse_topology
from tollgate.network import Arc, Commodity, Network, ProblemInstance
from tollgate.oracle import oracle_solve


def five_node_instance() -> ProblemInstance:
    # Nodes: 0 origin, 1..3 interior, 4 destination.
    # Tolled spine 0->1->2->4 of base cost 3, bypasses of costs 3, 4
    # joining partway, and a direct toll-free arc of cost 10.
    arcs = [
        Arc(0, 0, 1, Fraction(1), True),
        Arc(1, 1, 2, Fraction(1), True),
        Arc(2, 2, 4, Fraction(1), True),
        Arc(3, 2, 3, Fraction(2), False),
        Arc(4, 3, 4, Fraction(2), False),
        Arc(5, 1, 4, Fraction(3), False),
        Arc(6, 0, 4, Fraction(10), False),
    ]
    network = Network(5, arcs)
    return ProblemInstance(
        network, (Commodity(0, 4, Fraction(1)),), "five-node"
    )


def perturbed(instance: ProblemInstance) -> ProblemInstance:
    """``instance`` with its costs perturbed at seed 0."""
    return ProblemInstance(
        perturb_costs(instance.network, seed=0), instance.commodities, instance.label
    )


def raw_sweep_instance(topology: str) -> ProblemInstance:
    """A sweep-scale instance: ``topology`` with 40 commodities, at its generated costs."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return generate(GenConfig(parse_topology(topology), 40, seed=0))


def sweep_instance(topology: str) -> ProblemInstance:
    """A sweep-scale instance: ``topology`` with 40 commodities, perturbed at seed 0."""
    return perturbed(raw_sweep_instance(topology))


def fixture_model(
    instance: ProblemInstance,
    kind: str,
    paper_exact: bool = False,
    preprocess: str = "paths",
):
    """The static model of ``kind`` on a one-commodity instance."""
    enum = enumerate_paths(instance.network, instance.commodities[0])
    bigm = compute_bigm(instance.network, instance.commodities, {0: enum.feasible_set()})
    return build_single(
        instance, kind, bigm, [enum], preprocess=preprocess, allow_vfcs=True,
        paper_exact=paper_exact,
    ).ir


def scaled_bigm(params: BigMParams, factor: int) -> BigMParams:
    """``params`` with every big-M multiplied by ``factor`` (validity stress testing).

    The toll cap, the per-commodity caps and the stored path bounds grow; the
    distance rows do not, so a dual slack bound grows only through the cap.
    """
    if factor < 1:
        raise ValueError("scale factor must be at least 1")
    return replace(
        params,
        N=params.N * factor,
        M=tuple(m * factor for m in params.M),
        S={key: value * factor for key, value in params.S.items()},
    )


def three_role_instance(fig: ProblemInstance):
    """Fixture network with commodities sized to hit all three roles."""
    coms = (
        Commodity(0, 4, Fraction(1)),  # 3 feasible paths
        Commodity(1, 4, Fraction(1)),  # 2 feasible paths
        Commodity(3, 4, Fraction(1)),  # single path: dropped
    )
    inst = ProblemInstance(fig.network, coms, "roles")
    enums = [
        enumerate_paths(inst.network, com, commodity_index=k)
        for k, com in enumerate(inst.commodities)
    ]
    return inst, enums


@pytest.fixture
def fig() -> ProblemInstance:
    return five_node_instance()


@pytest.fixture
def fig_enum(fig):
    return enumerate_paths(fig.network, fig.commodities[0])


@pytest.fixture
def fig_bfset(fig_enum):
    return fig_enum.feasible_set()


@pytest.fixture
def fig_bigm(fig, fig_bfset):
    return compute_bigm(fig.network, fig.commodities, {0: fig_bfset})


GRIDS = ((3, 4), (4, 4), (5, 5))
SET_PRODUCT_LIMIT = 2000


def _qualifying_instance(seed: int, perturb: bool = True):
    rows, cols = GRIDS[seed % len(GRIDS)]
    commodities = 2 + (seed % 2)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            raw = generate(
                GenConfig(("grid", (rows, cols)), commodities, seed=seed)
            )
    except GenError:
        return None
    inst = perturbed(raw) if perturb else raw
    net = inst.network
    enums = []
    product = 1
    for k, com in enumerate(inst.commodities):
        result = enumerate_paths(net, com, cap=4000, commodity_index=k)
        bfset = result.feasible_set()
        if not bfset.exhaustive:
            return None
        product *= len(bfset)
        enums.append(result)
    if product > SET_PRODUCT_LIMIT:
        return None
    bigm = compute_bigm(
        net,
        inst.commodities,
        {k: e.feasible_set() for k, e in enumerate(enums)},
    )
    return {
        "instance": inst,
        "enums": enums,
        "bigm": bigm,
        "oracle": oracle_solve(inst, enums),
    }


def _suite25(perturb: bool):
    cases = []
    seed = 0
    while len(cases) < 25 and seed < 400:
        entry = _qualifying_instance(seed, perturb)
        seed += 1
        if entry is not None:
            cases.append(entry)
    assert len(cases) == 25, "instance generation failed to fill the suite"
    return cases


@pytest.fixture(scope="session")
def suite25():
    """Acceptance criterion 05's 25 perturbed grid instances, each with its
    enumerations, big-M constants and exact reference optimum."""
    return _suite25(perturb=True)


@pytest.fixture(scope="session")
def raw_suite25():
    """The same qualification on the generated costs as given, unperturbed."""
    return _suite25(perturb=False)


# A command-line solver for the CommandBackend tests: scipy's bundled HiGHS
# reads the LP file and the script writes a HiGHS-style "Model status: ..."
# line, then one "identifier value" line per column, to the solution file.
TOY_SOLVER = """\
import sys

from scipy.optimize._highspy._core import _Highs

highs = _Highs()
highs.setOptionValue("output_flag", False)
highs.readModel(sys.argv[1])
highs.run()
status = highs.modelStatusToString(highs.getModelStatus())
names = highs.getLp().col_names_
values = highs.getSolution().col_value
with open(sys.argv[2], "w") as fh:
    fh.write(f"Model status: {status}\\n")
    for name, value in zip(names, values):
        fh.write(f"{name} {value}\\n")
"""


@pytest.fixture
def toy_solver_cmd(tmp_path) -> str:
    """A CommandBackend template that runs :data:`TOY_SOLVER`."""
    helper = tmp_path / "toy_solver.py"
    helper.write_text(TOY_SOLVER)
    return f"{sys.executable} {helper} {{lp}} {{sol}}"
