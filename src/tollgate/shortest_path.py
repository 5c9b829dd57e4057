"""Zero-toll shortest paths with arc/node exclusions.

Every point-to-point search here prices each arc at its base cost, that is
with tolls at zero; a search that must avoid some arcs, such as the tolled
arcs off a witness path, excludes them.  Distance rows come from
:meth:`Network.sweep`, which takes one price per arc instead, and a
``None`` price is the only way it skips an arc: :func:`distances_to` turns
its exclusions into ``None`` prices.

Ties between equal-cost paths break toward the lexicographically smallest arc
index sequence, which makes every search in this package deterministic.

The searches run on exact integers: each arc's price is its cost times the
network's ``scale``, the common denominator of the costs.  Scaling by one
positive integer preserves every sum and comparison, so the results equal
those of a search on the rationals.  Values leave this module as
``Fraction``: :attr:`Path.cost` and the entries of :func:`distances_to`.

One search loop serves every point-to-point query: A* (Hart, Nilsson &
Raphael, 1968) over a per-node integer *potential*, a lower bound on the
cost still to go.  Plain Dijkstra is the zero potential, which
:func:`shortest_path` uses; path enumeration passes the exact zero-toll
distances to the target, swept once per destination per network (see
:meth:`Network.zero_toll_row`), so its spur searches head straight for the
target.  Those distances stay a valid potential under any exclusion set,
since excluding arcs or nodes only lengthens paths, and a node they mark
unreachable is never entered.

The potential must be *consistent*: ``h[u] <= cost(u, v) + h[v]`` for every
usable arc.  Then goal direction changes no result, tie-breaks included.
Heap entries are ``(cost + h[node], cost, arc sequence, node)``.  Two labels
at the same node share ``h[node]``, so they compare exactly as
``(cost, arc sequence)`` does without a potential.  A node's minimal label
is popped before any other label of that node: while it is pending, some
prefix of its path is on the heap, and by consistency that prefix's key is
no larger, and its cost strictly smaller, since arc costs are positive.
Every node A* settles, the target included, therefore gets the label
plain Dijkstra gives it.

A search may also be given a *limit* on the cost of the path it returns.
It then skips every label whose cost plus potential exceeds the limit.  The
potential is a lower bound, so no path through such a label fits, and every
label of a path that fits is kept: the search returns the unlimited
search's path when that costs at most the limit, and None otherwise.  Path
enumeration bounds each spur search so by its commodity's toll-free cost
(see :func:`~tollgate.enumeration.enumerate_paths`); :func:`shortest_path`
sets no limit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .network import ArcId, Network, Node, Path

Cost = Union[Fraction, float]  # float only for math.inf markers
INFINITY: float = math.inf

# Integer lower bound per node on the cost still to go; None marks a node
# that cannot reach the target.
Potential = Sequence[Optional[int]]


@dataclass(frozen=True)
class ExclusionSet:
    """Arcs and nodes a search must not touch.

    Excluding a node removes every arc incident to it.  The empty exclusion
    set is shared as :data:`NO_EXCLUSIONS`.
    """

    arcs: frozenset[ArcId] = frozenset()
    nodes: frozenset[Node] = frozenset()


NO_EXCLUSIONS = ExclusionSet()


def _search(
    network: Network,
    source: Node,
    target: Node,
    excluded: ExclusionSet,
    potential: Potential,
    limit: Union[int, float] = INFINITY,
) -> Optional[tuple[int, tuple[ArcId, ...]]]:
    """Integer zero-toll cost and arc sequence of the cheapest ``source -> target`` path.

    A* with ``potential`` as the estimate of each node's remaining cost; a
    node whose potential is None is never entered.  Returns None when no
    path exists, or when none costs at most ``limit``.  See the module
    docstring for the conditions the potential must meet.
    """
    start = potential[source]
    if start is None or start > limit:
        return None
    banned_arcs, banned_nodes = excluded.arcs, excluded.nodes
    out_adj, prices = network.out_adj, network.int_costs
    # Entries are (cost + potential, cost, arc sequence, node).  Positive
    # costs and a consistent potential make the first pop per node carry its
    # minimal (cost, sequence) label.
    heap: list[tuple[int, int, tuple[ArcId, ...], Node]] = [(start, 0, (), source)]
    # Cheapest cost pushed per node; a strictly dearer label is never pushed.
    best: dict[Node, int] = {}
    settled: set[Node] = set()
    while heap:
        _, cost, arcs, node = heapq.heappop(heap)
        if node in settled:
            continue
        if node == target:
            return cost, arcs
        settled.add(node)
        for head, aid in out_adj[node]:
            if head in settled or aid in banned_arcs or head in banned_nodes:
                continue
            estimate = potential[head]
            if estimate is None:
                continue
            candidate = cost + prices[aid]
            if candidate + estimate > limit:
                continue
            known = best.get(head)
            if known is not None and candidate > known:
                continue
            best[head] = candidate
            heapq.heappush(heap, (candidate + estimate, candidate, arcs + (aid,), head))
    return None


def shortest_path(
    network: Network,
    source: Node,
    target: Node,
    excluded: ExclusionSet = NO_EXCLUSIONS,
) -> Optional[Path]:
    """Cheapest zero-toll ``source -> target`` path avoiding ``excluded``, or None.

    Among equal-cost paths the one with the lexicographically smallest arc
    index sequence wins.
    """
    if not (0 <= source < network.num_nodes and 0 <= target < network.num_nodes):
        raise ValueError("source or target out of range")
    if source in excluded.nodes or target in excluded.nodes:
        raise ValueError("source and target must not be excluded")
    if source == target:
        raise ValueError("source equals target")
    found = _search(network, source, target, excluded, [0] * network.num_nodes)
    return None if found is None else network.path(found[1])


def distances_to(
    network: Network, target: Node, excluded: ExclusionSet = NO_EXCLUSIONS
) -> dict[Node, Cost]:
    """Zero-toll cost of the cheapest path from every node to ``target``.

    Runs one backward sweep over reversed arcs, with every excluded arc and
    every arc at an excluded node priced None.  Unreachable nodes map to
    ``math.inf`` (comparisons against Fractions behave as expected); an
    excluded target leaves every node unreachable.
    """
    if not (0 <= target < network.num_nodes):
        raise ValueError("target out of range")
    arcs, nodes = excluded.arcs, excluded.nodes
    if target in nodes:
        return dict.fromkeys(range(network.num_nodes), INFINITY)
    prices = [
        None if arc.index in arcs or arc.tail in nodes or arc.head in nodes else price
        for arc, price in zip(network.arcs, network.int_costs)
    ]
    scale = network.scale
    return {
        node: INFINITY if value is None else Fraction(value, scale)
        for node, value in enumerate(network.sweep(target, prices))
    }
