"""Shortest paths under the three toll regimes, with arc/node exclusions.

Regimes fix how tolled arcs are priced while toll-free arcs always cost their
base cost:

* ``"zero"``      tolled arcs cost their base cost (tolls at zero),
* ``"capped"``    tolled arcs cost base + cap (caller supplies the caps),
* ``"infinite"``  tolled arcs are unusable (removed, not priced).

Ties between equal-cost paths break toward the lexicographically smallest arc
index sequence, which makes every search in this package deterministic.

The searches run on exact integers: every arc's regime price is its cost
times a common denominator (the network's ``scale``, or under ``"capped"``
the least common multiple of ``scale`` and the cap denominators).  Scaling
by one positive integer preserves every sum and comparison, so the results
equal those of a search on the rationals.  Values leave this module as
``Fraction``: :attr:`Path.cost` and the entries of :func:`distances_to`.

One search loop serves every point-to-point query: A* (Hart, Nilsson &
Raphael, 1968) over a per-node integer *potential*, a lower bound on the
cost still to go.  Plain Dijkstra is the zero potential, which
:func:`shortest_path` uses; path enumeration passes the exact zero-regime
distances to the target, computed once per destination per network (see
:func:`zero_distances`), so its spur searches head straight for the
target.  Those distances stay a valid potential under any exclusion set,
since excluding arcs or nodes only lengthens paths, and a node they mark
unreachable is never entered.

The potential must be *consistent*: ``h[u] <= price(u, v) + h[v]`` for every
usable arc.  Then goal direction changes no result, tie-breaks included.
Heap entries are ``(cost + h[node], cost, arc sequence, node)``.  Two labels
at the same node share ``h[node]``, so they compare exactly as
``(cost, arc sequence)`` does without a potential.  A node's minimal label
is popped before any other label of that node: while it is pending, some
prefix of its path is on the heap, and by consistency that prefix's key is
no larger, and its cost strictly smaller, since arc costs are positive.
Every node A* settles, the target included, therefore gets the label
plain Dijkstra gives it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .network import ArcId, Network, Node, Path

REGIMES = ("zero", "capped", "infinite")

Cost = Union[Fraction, float]  # float only for math.inf markers
INFINITY: float = math.inf

# Integer price per arc id; None marks an arc the regime makes unusable.
Prices = Sequence[Optional[int]]
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


def _check_regime(network: Network, regime: str, caps: Optional[Mapping[ArcId, Fraction]]) -> None:
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    if regime == "capped":
        if caps is None:
            raise ValueError("capped regime needs a cap per tolled arc")
        missing = [a for a in network.tolled_ids if a not in caps]
        if missing:
            raise ValueError(f"capped regime is missing caps for tolled arcs {missing}")


def _regime_prices(
    network: Network, regime: str, caps: Optional[Mapping[ArcId, Fraction]]
) -> tuple[Prices, int]:
    """Integer price of every arc under the regime, and their denominator."""
    if regime == "zero":
        return network.int_costs, network.scale
    if regime == "infinite":
        return [
            None if arc.tolled else cost
            for arc, cost in zip(network.arcs, network.int_costs)
        ], network.scale
    tolled_caps = {aid: Fraction(caps[aid]) for aid in network.tolled_ids}  # type: ignore[index]
    scale = math.lcm(network.scale, *(c.denominator for c in tolled_caps.values()))
    factor = scale // network.scale
    prices = [cost * factor for cost in network.int_costs]
    for aid, cap in tolled_caps.items():
        prices[aid] += cap.numerator * (scale // cap.denominator)
    return prices, scale


def _distances(
    network: Network, target: Node, prices: Prices, excluded: ExclusionSet
) -> list[Optional[int]]:
    """Integer cost of the cheapest path from every node to ``target``.

    One backward Dijkstra sweep over reversed arcs; None marks a node that
    cannot reach ``target``.
    """
    dist: list[Optional[int]] = [None] * network.num_nodes
    if target in excluded.nodes:
        return dist
    banned_arcs, banned_nodes = excluded.arcs, excluded.nodes
    in_adj = network.in_adj
    dist[target] = 0
    heap: list[tuple[int, Node]] = [(0, target)]
    settled: set[Node] = set()
    while heap:
        cost, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for tail, aid in in_adj[node]:
            if tail in settled or aid in banned_arcs or tail in banned_nodes:
                continue
            price = prices[aid]
            if price is None:
                continue
            candidate = cost + price
            best = dist[tail]
            if best is None or candidate < best:
                dist[tail] = candidate
                heapq.heappush(heap, (candidate, tail))
    return dist


def zero_distances(network: Network, target: Node) -> tuple[Optional[int], ...]:
    """Integer zero-regime cost of the cheapest path from every node to ``target``.

    The sweep runs once per destination per network: the first call stores
    its result on ``network`` and later calls return that same tuple.  None
    marks a node that cannot reach ``target``.  Path enumeration uses these
    distances as its A* potential and :func:`~tollgate.bigm.compute_bigm`
    as ``lam_lo``.
    """
    cache = network._zero_distances
    dist = cache.get(target)
    if dist is None:
        dist = cache[target] = tuple(
            _distances(network, target, network.int_costs, NO_EXCLUSIONS)
        )
    return dist


def _search(
    network: Network,
    source: Node,
    target: Node,
    prices: Prices,
    excluded: ExclusionSet,
    potential: Potential,
) -> Optional[tuple[int, tuple[ArcId, ...]]]:
    """Integer cost and arc sequence of the cheapest ``source -> target`` path.

    A* with ``potential`` as the estimate of each node's remaining cost; a
    node whose potential is None is never entered.  Returns None when no
    path exists.  See the module docstring for the conditions the potential
    must meet.
    """
    start = potential[source]
    if start is None:
        return None
    banned_arcs, banned_nodes = excluded.arcs, excluded.nodes
    out_adj = network.out_adj
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
            price = prices[aid]
            if price is None:
                continue
            estimate = potential[head]
            if estimate is None:
                continue
            candidate = cost + price
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
    regime: str = "zero",
    caps: Optional[Mapping[ArcId, Fraction]] = None,
    excluded: ExclusionSet = NO_EXCLUSIONS,
    commodity: int = -1,
) -> Optional[Path]:
    """Cheapest ``source -> target`` path under the regime, or None.

    Among equal-cost paths the one with the lexicographically smallest arc
    index sequence wins.  The returned :class:`Path` carries base costs (the
    regime only steers the search), so its ``cost`` equals the regime cost
    only under ``"zero"``.
    """
    _check_regime(network, regime, caps)
    if not (0 <= source < network.num_nodes and 0 <= target < network.num_nodes):
        raise ValueError("source or target out of range")
    if source in excluded.nodes or target in excluded.nodes:
        raise ValueError("source and target must not be excluded")
    if source == target:
        raise ValueError("source equals target")

    prices, _ = _regime_prices(network, regime, caps)
    found = _search(network, source, target, prices, excluded, [0] * network.num_nodes)
    return None if found is None else network.path(found[1], commodity)


def distances_to(
    network: Network,
    target: Node,
    regime: str = "zero",
    caps: Optional[Mapping[ArcId, Fraction]] = None,
    excluded: ExclusionSet = NO_EXCLUSIONS,
) -> dict[Node, Cost]:
    """Cost of the cheapest path from every node to ``target`` under the regime.

    Runs one backward sweep over reversed arcs.  Unreachable nodes map to
    ``math.inf`` (comparisons against Fractions behave as expected).
    """
    _check_regime(network, regime, caps)
    if not (0 <= target < network.num_nodes):
        raise ValueError("target out of range")
    prices, scale = _regime_prices(network, regime, caps)
    return {
        node: INFINITY if value is None else Fraction(value, scale)
        for node, value in enumerate(_distances(network, target, prices, excluded))
    }
