"""Commodity-specific graph reductions that preserve the pricing optimum.

Two reductions are provided:

* :func:`path_based_reduce` keeps only the arcs and nodes that appear in some
  bilevel-feasible path of the commodity, then contracts maximal toll-free
  chains through interior degree-1-in/1-out nodes.  It needs a complete
  feasible set (the enumeration must have run to its toll-free stopping
  point), otherwise arcs a feasible path uses could be lost.

* :func:`spgm_transform` eliminates every node that touches no tolled arc and
  is neither endpoint of the commodity, splicing each (incoming, outgoing)
  arc pair into one toll-free shortcut; parallel toll-free arcs collapse to
  the cheapest.  It never needs enumeration, only the graph.

Both return a :class:`ReducedGraph` that remembers how reduced arcs map back
to original arc chains, so paths, tolls, and solutions lift faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .enumeration import BilevelFeasibleSet, ConsistencyError
from .network import Arc, ArcId, Commodity, Network, Node, Path


@dataclass
class _ProtoArc:
    """Mutable arc record used while a reduction is under construction."""

    tail: Node
    head: Node
    cost: Fraction
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
        return self.network.path(reduced, path.commodity)

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


def _finish(
    origin_network: Network,
    protos: list[_ProtoArc],
    keep_nodes: set[Node],
) -> ReducedGraph:
    """Renumber nodes and arcs densely and build the ReducedGraph."""
    node_origin = tuple(sorted(keep_nodes))
    node_map = {orig: red for red, orig in enumerate(node_origin)}
    protos = sorted(protos, key=lambda p: p.chain)
    arcs = [
        Arc(rid, node_map[p.tail], node_map[p.head], p.cost, p.tolled)
        for rid, p in enumerate(protos)
    ]
    reduced = Network(len(node_origin), arcs)
    return ReducedGraph(reduced, origin_network, node_origin, tuple(p.chain for p in protos))


def path_based_reduce(network: Network, bfset: BilevelFeasibleSet) -> ReducedGraph:
    """Restrict the graph to one commodity's feasible paths, then contract.

    Keeps the union of arcs over ``bfset``, then repeatedly merges interior
    nodes with exactly one kept incoming and one kept outgoing arc, both
    toll-free, into a single toll-free arc.  Origin and destination are never
    contracted, and contractions that would create a self-loop are skipped.
    Raises if the feasible set is not exhaustive: an incomplete set gives no
    license to delete anything.
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
    protos = [
        _ProtoArc(a.tail, a.head, a.cost, a.tolled, (a.index,))
        for a in (network.arc(i) for i in kept_ids)
    ]
    nodes = {origin, dest}
    for p in protos:
        nodes.add(p.tail)
        nodes.add(p.head)

    changed = True
    while changed:
        changed = False
        for x in sorted(nodes):
            if x in (origin, dest):
                continue
            ins = [p for p in protos if p.head == x]
            outs = [p for p in protos if p.tail == x]
            if len(ins) != 1 or len(outs) != 1:
                continue
            if ins[0].tolled or outs[0].tolled:
                continue
            if ins[0].tail == outs[0].head:
                continue  # contracting would create a self-loop
            merged = _ProtoArc(
                ins[0].tail,
                outs[0].head,
                ins[0].cost + outs[0].cost,
                False,
                ins[0].chain + outs[0].chain,
            )
            protos.remove(ins[0])
            protos.remove(outs[0])
            protos.append(merged)
            nodes.discard(x)
            changed = True
            break
    return _finish(network, protos, nodes)


def _dedup_toll_free(protos: list[_ProtoArc]) -> list[_ProtoArc]:
    """Collapse parallel toll-free arcs to the cheapest (ties: smallest chain)."""
    best: dict[tuple[Node, Node], _ProtoArc] = {}
    out: list[_ProtoArc] = []
    for p in protos:
        if p.tolled:
            out.append(p)
            continue
        key = (p.tail, p.head)
        rival = best.get(key)
        if rival is None or (p.cost, p.chain) < (rival.cost, rival.chain):
            best[key] = p
    out.extend(best.values())
    return out


def spgm_transform(network: Network, commodity: Commodity) -> ReducedGraph:
    """Eliminate nodes that touch no tolled arc (shortest-path graph model).

    Every eliminated node is bypassed by splicing its incoming and outgoing
    arcs pairwise into toll-free shortcuts; splices that would form a
    self-loop are dropped, and parallel toll-free arcs keep only the cheapest
    representative.  Tolled arcs and their endpoints survive untouched, as do
    the commodity's origin and destination.
    """
    touched: set[Node] = set()
    for aid in network.tolled_ids:
        arc = network.arc(aid)
        touched.add(arc.tail)
        touched.add(arc.head)
    keep = touched | {commodity.origin, commodity.destination}

    protos = [
        _ProtoArc(a.tail, a.head, a.cost, a.tolled, (a.index,)) for a in network.arcs
    ]
    nodes = set(range(network.num_nodes))
    for x in sorted(nodes - keep):
        ins = [p for p in protos if p.head == x]
        outs = [p for p in protos if p.tail == x]
        protos = [p for p in protos if p.head != x and p.tail != x]
        for pin, pout in product(ins, outs):
            if pin.tail == pout.head:
                continue
            protos.append(
                _ProtoArc(
                    pin.tail,
                    pout.head,
                    pin.cost + pout.cost,
                    False,
                    pin.chain + pout.chain,
                )
            )
        protos = _dedup_toll_free(protos)
        nodes.discard(x)
    protos = _dedup_toll_free(protos)
    return _finish(network, protos, nodes)

