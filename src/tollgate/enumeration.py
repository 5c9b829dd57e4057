"""Bilevel-feasible path enumeration for one commodity.

A path is bilevel feasible when some nonnegative toll vector makes it a
cheapest route for its commodity.  Two facts drive everything here:

* a path ``p`` is *dominated* when another path uses a subset of its tolled
  arcs at no greater base cost: whenever ``p`` is a cheapest route, so is
  the other, earning the leader as much under the optimistic rule,
* once a toll-free path is emitted in cost order, no later path can be
  bilevel feasible, so enumeration can stop.

:func:`enumerate_paths` produces candidate paths in nondecreasing base cost by
a deviation scheme: each emitted path spawns one subproblem per tolled arc on
its suffix, which excludes that arc, pins the prefix before the spur node, and
re-solves a shortest path from the spur node.  The subproblem regions
partition the remaining path space, so nothing is emitted twice and pruning is
safe.  :func:`dominance_filter` then removes dominated paths; the survivors
are exactly the undominated paths whenever enumeration ran to its toll-free
stopping point.  Costs may tie: no perturbation is needed.

This is Lawler's scheme for the K best solutions (Management Science, 1972),
and it emits paths in cost order: every pending candidate strictly cheaper
than the cheapest toll-free path is emitted before that path, and none
dearer than it.  So every spur search is bounded by the toll-free cost
less the pinned prefix's cost: a replacement dearer than that could only
make a candidate that is never emitted, and the search skips every label
that cannot beat it.  A capped run also stops as soon as the candidates
strictly cheaper than the toll-free cost and the paths already emitted
fill its cap, since its set is then certain to be truncated.

Both per-destination rows an enumeration reads come from the network's
caches: the zero-toll row (:meth:`Network.zero_toll_row`) is the A*
potential of every spur search, and the toll-free row
(:meth:`Network.toll_free_row`) gives every run its bound and a capped
run its stopping cost.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .network import ArcId, Commodity, InstanceError, Network, Path, ProblemInstance
from .shortest_path import NO_EXCLUSIONS, ExclusionSet, _search, shortest_path


class ConsistencyError(RuntimeError):
    """An internal invariant failed (bad input state rather than bad argument)."""


@dataclass(frozen=True)
class BilevelFeasibleSet:
    """The filtered candidate paths of one commodity, in nondecreasing base cost.

    ``exhaustive`` records whether enumeration reached its natural stopping
    point (the cheapest toll-free path was emitted); only then is the set
    guaranteed complete, which downstream consumers (graph reduction, the
    brute-force reference solver) require.
    """

    commodity: int
    paths: tuple[Path, ...]
    exhaustive: bool

    def __post_init__(self) -> None:
        costs = [p.cost for p in self.paths]
        if any(b < a for a, b in zip(costs, costs[1:])):
            raise ConsistencyError("feasible-set paths must have nondecreasing costs")
        # Distinct tolled sets also leave at most one toll-free path.
        tolled = [p.tolled_set for p in self.paths]
        if len(set(tolled)) != len(tolled):
            raise ConsistencyError("feasible-set paths must have distinct tolled sets")
        if self.paths and self.exhaustive and not self.paths[-1].is_toll_free():
            raise ConsistencyError("an exhaustive set must end with the toll-free path")

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    @property
    def arc_union(self) -> frozenset[ArcId]:
        out: set[ArcId] = set()
        for p in self.paths:
            out.update(p.arcs)
        return frozenset(out)


@dataclass
class EnumerationResult:
    """Raw output of :func:`enumerate_paths` for one commodity."""

    commodity: int
    paths: list[Path]
    _bfset: Optional[BilevelFeasibleSet] = field(default=None, repr=False)

    def feasible_set(self) -> BilevelFeasibleSet:
        """Dominance-filter the emitted paths (cached)."""
        if self._bfset is None:
            self._bfset = dominance_filter(self.paths, commodity=self.commodity)
        return self._bfset


def perturb_costs(network: Network, seed: int) -> Network:
    """Add a tiny positive rational to every arc cost to break cost ties.

    Draws are i.i.d. uniform on a fine grid in ``(0, magnitude]``; a reversed
    twin arc (same endpoints swapped, same cost) receives the same draw so that
    symmetric instances stay symmetric.  The magnitude is one billionth of the
    smallest arc cost, small enough never to reorder paths whose costs already
    differ.
    """
    magnitude = min(a.cost for a in network.arcs) / 10**9
    rng = random.Random(seed)
    grid = 2**30
    drawn: dict[tuple[int, int, Fraction], Fraction] = {}
    costs: dict[ArcId, Fraction] = {}
    for arc in network.arcs:
        twin = drawn.get((arc.head, arc.tail, arc.cost))
        if twin is None:
            twin = Fraction(rng.randrange(1, grid + 1), grid) * magnitude
            drawn[(arc.tail, arc.head, arc.cost)] = twin
        costs[arc.index] = arc.cost + twin
    return network.with_costs(costs)


def perturbed(instance: ProblemInstance, seed: int) -> ProblemInstance:
    """A copy of ``instance`` with its costs perturbed at ``seed``."""
    return ProblemInstance(
        perturb_costs(instance.network, seed=seed), instance.commodities, instance.label
    )


def enumerate_paths(
    network: Network,
    commodity: Commodity,
    cap: Optional[int] = None,
    commodity_index: int = 0,
) -> EnumerationResult:
    """Emit candidate paths in nondecreasing base cost until done or capped.

    ``cap`` bounds the number of emitted paths; ``None`` means unbounded, in
    which case the run always ends at the cheapest toll-free path.  Ties in
    the candidate pool break toward the lexicographically smallest arc index
    sequence.  The run stops at the first toll-free path, so the result's
    feasible set is ``exhaustive`` exactly when the output is complete.

    A capped run is exhaustive exactly when the uncapped run's toll-free
    path comes within its first ``cap`` paths; its paths are then the
    uncapped run's.  Otherwise it is truncated, and may hold fewer than
    ``cap`` paths: it stops after an emission once the paths emitted plus
    the pending candidates strictly cheaper than the origin's toll-free
    cost reach ``cap``, since each of those candidates comes before any
    toll-free path.  Either way its paths are a prefix of the uncapped
    run's, in the same order.  The toll-free cost is read from
    :meth:`Network.toll_free_row` once, up front, and bounds every search
    (see the module docstring); on a network that came through instance
    validation, that row is already swept.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be at least 1 (or None for unbounded)")
    origin, dest = commodity.origin, commodity.destination
    int_costs, scale = network.int_costs, network.scale
    # Every search runs toward ``dest``, so its exact zero-toll distances
    # are an A* potential for all of them (see shortest_path).
    potential = network.zero_toll_row(dest)
    # No candidate dearer than the origin's toll-free cost can come before
    # the toll-free path, so no search looks for one.
    found = network.toll_free_row(dest)[origin]
    free = math.inf if found is None else found
    first = _search(network, origin, dest, NO_EXCLUSIONS, potential, free)
    if first is None:
        raise ConsistencyError(f"no path from {origin} to {dest}")

    tolled = [arc.tolled for arc in network.arcs]
    heads = [arc.head for arc in network.arcs]
    counter = itertools.count()
    # Heap entries: (cost times scale, arc sequence, tiebreak, spur position,
    # excluded arcs).  The spur position indexes the path's node sequence;
    # arcs before it are pinned, and the excluded set carries the deviations
    # that define this candidate's region of the path space.  A candidate
    # becomes a Path only when it is emitted.
    heap: list[tuple[int, tuple[ArcId, ...], int, int, frozenset[ArcId]]] = [
        (first[0], first[1], next(counter), 0, frozenset())
    ]

    emitted: list[Path] = []
    # The number of pending candidates strictly cheaper than the toll-free cost.
    below = int(first[0] < free)
    while heap:
        cost, arcs, _, spur_pos, banned = heapq.heappop(heap)
        if cost < free:
            below -= 1
        nodes = (origin,) + tuple(heads[a] for a in arcs)
        tolled_set = frozenset(a for a in arcs if tolled[a])
        emitted.append(Path(arcs, nodes, Fraction(cost, scale), tolled_set))
        if not tolled_set:
            break
        # Every candidate counted in ``below`` comes before the toll-free
        # path, so with the cap reached the run spawns no more children.
        if cap is not None and len(emitted) + below >= cap:
            break

        prefix_costs = [0]
        for aid in arcs:
            prefix_costs.append(prefix_costs[-1] + int_costs[aid])

        # One subproblem per tolled arc on the suffix that starts at the spur
        # node.  For the i-th of them the prefix is pinned through the head of
        # the (i-1)-th, the arc itself is excluded, and nodes strictly before
        # the new spur node are removed so the replacement stays simple.
        spur = spur_pos
        for pos in range(spur_pos, len(arcs)):
            if not tolled[arcs[pos]]:
                continue
            child_banned = banned | {arcs[pos]}
            replacement = _search(
                network,
                nodes[spur],
                dest,
                ExclusionSet(arcs=child_banned, nodes=frozenset(nodes[:spur])),
                potential,
                free - prefix_costs[spur],
            )
            if replacement is not None:
                child_cost = prefix_costs[spur] + replacement[0]
                if child_cost < free:
                    below += 1
                heapq.heappush(
                    heap,
                    (
                        child_cost,
                        arcs[:spur] + replacement[1],
                        next(counter),
                        spur,
                        child_banned,
                    ),
                )
            spur = pos + 1
    return EnumerationResult(commodity_index, emitted)


def enumerate_all(
    instance: ProblemInstance, cap: Optional[int] = None
) -> tuple[EnumerationResult, ...]:
    """:func:`enumerate_paths` for every commodity of ``instance``, in order."""
    return tuple(
        enumerate_paths(instance.network, com, cap=cap, commodity_index=k)
        for k, com in enumerate(instance.commodities)
    )


def dominance_filter(paths: Sequence[Path], commodity: int = 0) -> BilevelFeasibleSet:
    """Drop every path dominated by one kept before it.

    ``p`` dominates ``q`` when ``p``'s tolled arcs are a subset of ``q``'s and
    ``p`` costs no more.  Input must be sorted by nondecreasing base cost (an
    :class:`InstanceError` otherwise: costs come from the instance).  Paths
    are visited stably by (cost, number of tolled arcs), so a subset comes
    before its equal-cost supersets and of equal tolled sets the first is
    kept; input without ties is visited in its own order.  The set is exhaustive when the input ends with a toll-free
    path, as a run of :func:`enumerate_paths` that stopped there does; the
    survivors then are exactly the undominated paths.
    """
    costs = [p.cost for p in paths]
    for a, b in zip(costs, costs[1:]):
        if b < a:
            raise InstanceError(
                f"paths must be sorted by nondecreasing base cost (saw {a} then {b})"
            )
    exhaustive = bool(paths) and paths[-1].is_toll_free()
    paths = sorted(paths, key=lambda p: (p.cost, len(p.tolled_set)))
    survivors: list[Path] = []
    for candidate in paths:
        if any(kept.tolled_set <= candidate.tolled_set for kept in survivors):
            continue
        survivors.append(candidate)
    return BilevelFeasibleSet(commodity, tuple(survivors), exhaustive)


def is_bilevel_feasible(network: Network, path: Path, commodity: Commodity) -> bool:
    """Witness check: can some toll vector make ``path`` a cheapest route?

    Setting the tolls on the path's own tolled arcs to zero and pricing every
    other tolled arc out of the market is the most favorable world for the
    path; it is bilevel feasible iff it is a shortest path in that world.
    """
    if path.origin != commodity.origin or path.destination != commodity.destination:
        raise ValueError("path endpoints do not match the commodity")
    rivals = frozenset(
        a for a in network.tolled_ids if a not in path.tolled_set
    )
    best = shortest_path(
        network,
        commodity.origin,
        commodity.destination,
        excluded=ExclusionSet(arcs=rivals),
    )
    if best is None:
        raise ConsistencyError("path exists but witness search found nothing")
    return best.cost == path.cost
