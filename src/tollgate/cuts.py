"""Feasibility cut loop for arc-primal, path-dual slackness models.

Those models (kinds VFCS1 and VFCS2) carry slackness rows only for the
paths of the feasible set, while the arc flows can route over any path of
the working graph.  A solution that routes a commodity over an uncovered
path has no row forcing its dual bound tight, so its revenue can be
overstated.  On graphs with opposite twin arcs the flow balance rows even
admit a lit cycle riding along with the routed path, pocketing the tolls
of the cycle arcs without paying their cost.  The fix is iterative: solve,
walk each commodity's lit arcs to their first cycle or, when they hold
none, to the routed path, and add one row per offending commodity per
round.  A lit cycle gets a row forbidding it outright (a genuine routing
is a simple path, so no true solution ever lights a full cycle); an
uncovered routed path gets the slackness row that makes its dual bound
tight.  Cycles and paths are both finite families and each cut
permanently removes one member, so the loop terminates.  Each commodity's
columns come from the block that assembly kept (``HybridModel.cut_blocks``).
"""

from __future__ import annotations

import time
from typing import Optional

from .enumeration import ConsistencyError
from .formulations import HybridModel, _Block, _path_slack
from .model_ir import RowBlock
from .network import Arc
from .solver import (
    DEFAULT_BUDGET,
    STATUS_BUDGET,
    STATUS_FEASIBLE,
    STATUS_OPTIMAL,
    Backend,
    SolveResult,
    ScipyBackend,
    SolverError,
    solve,
)

#: Hard stop for the cut loop; hitting it means the loop is not converging.
MAX_CUT_ROUNDS = 200


def _first_cycle_or_path(
    lit: list[Arc], origin: int, dest: int, k: int
) -> tuple[Optional[list[Arc]], Optional[list[Arc]]]:
    """Walk a unit flow's lit arcs: ``(cycle, None)`` or ``(None, routed path)``.

    The walk leaves ``origin`` over unused lit arcs.  Coming back to a node
    of the current walk closes a cycle, which is returned at once.  Reaching
    ``dest`` ends the routed path; any lit arcs left over are balanced, so
    the walk goes on from the first node that still has one, up to the cycle
    they hold.  Only when none are left is the routed path returned.
    """
    out_pool: dict[int, list[Arc]] = {}
    for arc in lit:
        out_pool.setdefault(arc.tail, []).append(arc)
    routed: Optional[list[Arc]] = None
    walk: list[Arc] = []
    pos = {origin: 0}
    node = origin
    while True:
        if routed is None and node == dest:
            routed = walk
            node = next((t for t, pool in out_pool.items() if pool), None)
            if node is None:
                return None, routed
            walk, pos = [], {node: 0}
        pool = out_pool.get(node)
        if not pool:
            raise ConsistencyError(f"commodity {k}: flow dead-ends at node {node}")
        arc = pool.pop()
        walk.append(arc)
        node = arc.head
        first = pos.get(node)
        if first is not None:
            return walk[first:], None
        pos[node] = len(walk)


def vfcs_feasibility_cut(
    context: HybridModel, result: SolveResult
) -> Optional[str]:
    """Add one row per commodity with an uncovered routed path or a lit cycle.

    Scans the commodities modeled with arc flows against a path dual, in
    order, walking each one's lit arcs (see :func:`_first_cycle_or_path`).
    Each offending commodity gets one row: a lit cycle, which the flow
    balance rows let ride along, is forbidden outright (no genuine routing
    lights all arcs of a cycle), or else the routed path, when neither the
    feasible set nor an earlier cut covers it, gets its slackness row.
    Returns the tag of the first row added, or None when every commodity is
    clean, which certifies the incumbent.
    """
    first: Optional[str] = None
    for block in context.cut_blocks:
        tag = _commodity_cut(context, block, result)
        if first is None:
            first = tag
    return first


def _commodity_cut(
    context: HybridModel, block: _Block, result: SolveResult
) -> Optional[str]:
    """The row against one commodity's offense, or None when it is clean."""
    k = block.k
    net = block.graph.network
    names = context.ir.names
    flows = block.routes
    lit = [
        a
        for a, col in zip(net.arcs, flows)
        if result.assignment.get(names[col], 0.0) > 0.5
    ]
    if not lit:
        raise ConsistencyError(f"commodity {k}: no flow in the solution")
    cycle, routed = _first_cycle_or_path(lit, block.origin, block.dest, k)
    row = RowBlock()

    if cycle is not None:
        banned = context.cut_cycles.setdefault(k, set())
        tag = f"cut-cycle[{k},{len(banned)}]"
        cols = [flows[arc.index] for arc in cycle]
        row.add(tag, cols, [1] * len(cols), "<=", len(cycle) - 1)
        context.ir.add_block(row)
        banned.add(tuple(sorted(arc.index for arc in cycle)))
        return tag

    path = net.path([arc.index for arc in routed])
    arcs = tuple(sorted(path.arcs))
    covered = {tuple(sorted(p.arcs)) for p in block.paths}
    cut = context.cut_paths.setdefault(k, set())
    if arcs in covered or arcs in cut:
        return None
    s_val = context.bigm.s_value(k, path)
    tag = f"lin-cs-ap[{k},cut{len(cut)}]"
    uses = [flows[rid] for rid in path.arcs]
    _path_slack(row, tag, path, s_val, block.duals[0], block.tolls, uses)
    context.ir.add_block(row)
    cut.add(arcs)
    return tag


def solve_with_vfcs_cuts(
    context: HybridModel,
    backend: Optional[Backend] = None,
    budget: float = DEFAULT_BUDGET,
    max_rounds: int = MAX_CUT_ROUNDS,
) -> SolveResult:
    """Solve ``context`` to optimality under the feasibility cut loop.

    ``budget`` caps the total wall time across rounds.  When it runs out,
    between rounds or inside one, the last incumbent is returned with
    budget-exhausted status; its objective may overstate the true optimum,
    since its pending cuts were never checked or applied.  Models without
    cut-needing blocks go through a single plain solve.  Every outcome
    leaves the loop at one exit, which sets the result's ``cut_rounds``,
    its ``mip_nodes`` (the nodes of every round) and its ``wall_time``
    (every round and cut check).
    """
    chosen = backend if backend is not None else ScipyBackend()
    start = time.monotonic()
    deadline = start + budget
    rounds = 0
    nodes = 0
    result: Optional[SolveResult] = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            if result is None:
                result = SolveResult(
                    status=STATUS_BUDGET, objective=None, best_bound=None, backend=chosen.name
                )
            result.status = STATUS_BUDGET
            break
        result = solve(context.ir, budget=remaining, backend=chosen)
        nodes += result.mip_nodes
        if not context.needs_cuts:
            break
        if result.status == STATUS_FEASIBLE:
            # Stopped inside the round: the point was never checked for
            # cuts, so it is no more certified than a between-rounds stop.
            result.status = STATUS_BUDGET
        if result.status != STATUS_OPTIMAL or vfcs_feasibility_cut(context, result) is None:
            break
        rounds += 1
        if rounds > max_rounds:
            raise SolverError(
                f"feasibility cut loop still adding rows after {max_rounds} rounds"
            )
    result.cut_rounds = rounds
    result.mip_nodes = nodes
    result.wall_time = time.monotonic() - start
    return result
