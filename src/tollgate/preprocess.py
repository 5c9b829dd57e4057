"""Commodity-specific graph reductions that preserve the pricing optimum.

Both reductions bypass nodes through one routine: each in-arc of a bypassed
node joins each of its out-arcs into one toll-free arc, and between two
nodes only the cheapest toll-free arc is kept.  Chain costs are integers
over the origin network's ``scale`` until each reduced arc gets its cost.

* :func:`path_based_reduce` keeps only the arcs of the commodity's
  bilevel-feasible paths and contracts maximal toll-free chains.  It needs
  a complete feasible set (the enumeration must have run to its toll-free
  stopping point), otherwise arcs a feasible path uses could be lost.

* :func:`spgm_transform` (the shortest-path graph model) bypasses every node
  that touches no tolled arc and is neither endpoint of the commodity.  It
  never needs enumeration, only the graph.

Both return a :class:`ReducedGraph` that remembers how reduced arcs map back
to original arc chains, so paths, tolls, and solutions lift faithfully.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable

from .enumeration import BilevelFeasibleSet, ConsistencyError
from .network import Arc, ArcId, Commodity, Network, Node, Path


@dataclass(eq=False)
class _ProtoArc:
    """Arc record used while a reduction is under construction."""

    tail: Node
    head: Node
    cost: int  # times the origin network's scale
    tolled: bool
    chain: tuple[ArcId, ...]  # original arc ids, in path order


@dataclass(frozen=True)
class ReducedGraph:
    """A reduced network plus the maps back to the graph it came from.

    ``arc_origin[r]`` lists the original arc ids a reduced arc ``r`` stands
    for (a single id unless chains were contracted); ``node_origin[i]`` gives
    the original id of reduced node ``i``.  Cost of a reduced arc equals the
    sum over its chain, and tolled reduced arcs always map to exactly one
    original tolled arc.
    """

    network: Network
    origin_network: Network
    node_origin: tuple[Node, ...]
    arc_origin: tuple[tuple[ArcId, ...], ...]
    _node_map: dict[Node, Node] = field(default_factory=dict, repr=False, compare=False)
    # Reduced arc id by the first original arc of its chain.
    _first_arc: dict[ArcId, ArcId] = field(default_factory=dict, repr=False, compare=False)
    # Values other modules derive from the graph alone and keep for its
    # lifetime, by name (formulations keeps its block row patterns here).
    _derived: dict[str, object] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._node_map.update(
            {orig: red for red, orig in enumerate(self.node_origin)}
        )
        self._first_arc.update(
            {chain[0]: rid for rid, chain in enumerate(self.arc_origin)}
        )
        origin_costs, origin_scale = self.origin_network.int_costs, self.origin_network.scale
        for rid, chain in enumerate(self.arc_origin):
            arc = self.network.arc(rid)
            total = sum(origin_costs[a] for a in chain)
            if total * arc.cost.denominator != arc.cost.numerator * origin_scale:
                raise ConsistencyError(
                    f"reduced arc {rid}: chain cost {Fraction(total, origin_scale)} != {arc.cost}"
                )
            if arc.tolled and len(chain) != 1:
                raise ConsistencyError(f"tolled reduced arc {rid} maps to a chain")

    @classmethod
    def identity(cls, network: Network) -> "ReducedGraph":
        """The trivial reduction (same graph, identity maps)."""
        return cls(
            network,
            network,
            tuple(range(network.num_nodes)),
            tuple((a.index,) for a in network.arcs),
        )

    def reduced_node(self, original: Node) -> Node:
        try:
            return self._node_map[original]
        except KeyError:
            raise KeyError(f"original node {original} was dropped by the reduction") from None

    def original_tolled_id(self, reduced_arc: ArcId) -> ArcId:
        """The single original arc behind a tolled reduced arc."""
        chain = self.arc_origin[reduced_arc]
        if not self.network.arc(reduced_arc).tolled:
            raise ValueError(f"arc {reduced_arc} is not tolled")
        return chain[0]

    def map_path(self, path: Path) -> Path:
        """Re-express an original-graph path in reduced arc ids.

        Works whenever the path's arcs survived verbatim or as contracted
        chains (which path-based reduction guarantees for every path of the
        feasible set it was built from).
        """
        reduced: list[ArcId] = []
        pos = 0
        while pos < len(path.arcs):
            rid = self._first_arc.get(path.arcs[pos])
            if rid is None:
                raise ConsistencyError(
                    f"arc {path.arcs[pos]} of the path is not represented in the reduction"
                )
            chain = self.arc_origin[rid]
            if tuple(path.arcs[pos : pos + len(chain)]) != chain:
                raise ConsistencyError(
                    f"path diverges from the contracted chain at arc {path.arcs[pos]}"
                )
            reduced.append(rid)
            pos += len(chain)
        return self.network.path(reduced)

    def map_feasible_set(self, bfset: BilevelFeasibleSet) -> BilevelFeasibleSet:
        """Map every path of a feasible set into the reduced graph."""
        return BilevelFeasibleSet(
            bfset.commodity,
            tuple(self.map_path(p) for p in bfset.paths),
            bfset.exhaustive,
        )

    def stats(self) -> dict[str, int]:
        net = self.network
        return {
            "nodes": net.num_nodes,
            "arcs": net.num_arcs,
            "tolled": len(net.tolled_ids),
        }


def _bypass(
    origin_network: Network,
    arc_ids: Iterable[ArcId],
    nodes: set[Node],
    bypassed: Iterable[Node],
) -> ReducedGraph:
    """Bypass nodes of the subgraph ``arc_ids`` on ``nodes``; renumber densely.

    Nodes go in ascending id order: each in-arc of the node joins each of its
    out-arcs into one toll-free arc, except pairs that would form a
    self-loop.  Between two nodes only the cheapest toll-free arc is kept
    (ties: the smallest chain).  Bypassed nodes must touch no tolled arc.
    """
    ins: dict[Node, list[_ProtoArc]] = {x: [] for x in nodes}
    outs: dict[Node, list[_ProtoArc]] = {x: [] for x in nodes}
    # The cheapest toll-free arc by (tail, head); entries of bypassed nodes
    # go stale, but no later arc has such an endpoint.
    free: dict[tuple[Node, Node], _ProtoArc] = {}

    def add(*fields) -> None:  # the fields of a _ProtoArc
        p = _ProtoArc(*fields)
        if not p.tolled:
            rival = free.get((p.tail, p.head))
            if rival is not None:
                if (rival.cost, rival.chain) < (p.cost, p.chain):
                    return
                ins[p.head].remove(rival)
                outs[p.tail].remove(rival)
            free[p.tail, p.head] = p
        ins[p.head].append(p)
        outs[p.tail].append(p)

    int_costs = origin_network.int_costs
    for a in map(origin_network.arc, arc_ids):
        add(a.tail, a.head, int_costs[a.index], a.tolled, (a.index,))
    for x in sorted(bypassed):
        pins, pouts = ins.pop(x), outs.pop(x)
        for pin in pins:
            outs[pin.tail].remove(pin)
        for pout in pouts:
            ins[pout.head].remove(pout)
        for pin, pout in product(pins, pouts):
            if pin.tail != pout.head:
                add(pin.tail, pout.head, pin.cost + pout.cost, False, pin.chain + pout.chain)

    node_origin = tuple(sorted(ins))  # the nodes not bypassed
    node_map = {orig: red for red, orig in enumerate(node_origin)}
    protos = sorted((p for x in node_origin for p in outs[x]), key=lambda p: p.chain)
    scale = origin_network.scale
    reduced = [
        Arc(rid, node_map[p.tail], node_map[p.head], Fraction(p.cost, scale), p.tolled)
        for rid, p in enumerate(protos)
    ]
    chains = tuple(p.chain for p in protos)
    return ReducedGraph(Network(len(node_origin), reduced), origin_network, node_origin, chains)


def path_based_reduce(network: Network, bfset: BilevelFeasibleSet) -> ReducedGraph:
    """Restrict the graph to one commodity's feasible paths, then contract.

    Keeps the union of arcs over ``bfset`` and bypasses each interior node
    with one kept arc in and one out, both toll-free.  That leaves every
    other node's arcs in and out as many and as tolled, so the set is fixed
    up front.  Raises if the feasible set is not exhaustive: an incomplete
    set gives no license to delete anything.
    """
    if not bfset.exhaustive:
        raise ValueError(
            "path-based reduction needs an exhaustive feasible set "
            "(enumeration must reach its toll-free stopping path)"
        )
    if not bfset.paths:
        raise ValueError("feasible set is empty")
    origin = bfset.paths[0].origin
    dest = bfset.paths[0].destination

    kept_ids = sorted(bfset.arc_union)
    ins: dict[Node, list[Arc]] = defaultdict(list)
    outs: dict[Node, list[Arc]] = defaultdict(list)
    for a in map(network.arc, kept_ids):
        ins[a.head].append(a)
        outs[a.tail].append(a)
    nodes = {origin, dest, *ins, *outs}
    bypassed = []
    for x in nodes - {origin, dest}:
        if len(ins[x]) == len(outs[x]) == 1:
            (pin,), (pout,) = ins[x], outs[x]
            if not (pin.tolled or pout.tolled):
                bypassed.append(x)
    # Parallel toll-free arcs never occur here: a path over the dearer of
    # two is dominated by the same path over the cheaper, and of two equal
    # chains enumeration and _bypass both keep the smaller.
    return _bypass(network, kept_ids, nodes, bypassed)


def spgm_transform(network: Network, commodity: Commodity) -> ReducedGraph:
    """Bypass every node that touches no tolled arc (shortest-path graph model).

    Tolled arcs, their endpoints and the commodity's endpoints survive.  Each
    pair of kept nodes keeps its cheapest toll-free arc, which stands for
    the cheapest path between them through bypassed nodes.
    """
    keep = {commodity.origin, commodity.destination}
    for aid in network.tolled_ids:
        arc = network.arc(aid)
        keep.update((arc.tail, arc.head))
    nodes = set(range(network.num_nodes))
    return _bypass(network, range(network.num_arcs), nodes, nodes - keep)
