"""Directed toll networks, commodities, and the plain-text instance format.

A network is a directed multigraph whose arcs split into a tolled set and a
toll-free set.  Arc costs are exact rationals and stay exact through every
transformation in this package; floating point only appears when a model is
handed to a numeric solver.

Costs have two exact forms.  At the edges of the graph layer (instance I/O,
``Arc.cost``, ``Path.cost``) they are ``Fraction`` values.  Inside it they
are Python integers over one common denominator: :attr:`Network.scale` is
the least common multiple of the arc-cost denominators, and
``Network.int_costs[a]`` equals ``arcs[a].cost * scale``.  Searches add and
compare those integers, which orders paths exactly as the rationals would,
and convert back to ``Fraction`` only for the values they return.

The instance file format is line oriented::

    npp <num_nodes> <num_arcs> <num_commodities>
    arc <tail> <head> <cost> <T|F>        (one line per arc)
    commodity <origin> <destination> <demand>

Costs and demands are decimal literals (or ``p/q`` rationals) parsed exactly.
Blank lines and ``#`` comments are ignored.  Parallel arcs are permitted;
self-loops are not.

A :class:`Network` also owns its per-destination distance rows: one
backward Dijkstra sweep, :meth:`Network.sweep`, and two rows it caches per
destination, the zero-toll row and the toll-free one.  Validation reads the
toll-free row; path enumeration and the big-M constants reuse both.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path as FilePath
from typing import Mapping, Optional, Sequence, Union

Node = int
ArcId = int

RationalLike = Union[int, Fraction, str]

# Integer distance to a destination per node; None marks a node that cannot
# reach it.
Row = tuple[Optional[int], ...]


class InstanceError(ValueError):
    """A malformed instance file or an invalid in-memory instance."""


def as_fraction(value: RationalLike) -> Fraction:
    """Convert an exact input (int, Fraction, or literal string) to Fraction.

    Floats are rejected on purpose: they would silently break the exactness
    guarantees the rest of the package relies on.  A ``Fraction`` is
    returned as is (it is immutable).
    """
    # An exact type test first: isinstance against Fraction is an ABC check.
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a valid rational value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"not an exact rational literal: {value!r}") from exc
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def as_exact(value: RationalLike) -> Union[int, Fraction]:
    """``value`` itself if it is an int or a Fraction, else :func:`as_fraction` of it."""
    kind = type(value)
    return value if kind is int or kind is Fraction else as_fraction(value)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as the shortest exact literal the parser accepts.

    Integers render bare, denominators of the form 2^a * 5^b render as exact
    decimals, anything else falls back to ``p/q``.
    """
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        digits = max(twos, fives)
        scaled = value.numerator * 10**digits // value.denominator
        sign = "-" if scaled < 0 else ""
        text = str(abs(scaled)).rjust(digits + 1, "0")
        return f"{sign}{text[:-digits]}.{text[-digits:]}"
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Arc:
    """One directed arc.  ``tolled`` marks membership in the priced set."""

    index: ArcId
    tail: Node
    head: Node
    cost: Fraction
    tolled: bool

    def __post_init__(self) -> None:
        if self.tail == self.head:
            raise InstanceError(f"arc {self.index}: self-loop at node {self.tail}")
        if self.cost <= 0:
            raise InstanceError(f"arc {self.index}: cost must be positive, got {self.cost}")


@dataclass(frozen=True)
class Commodity:
    """An origin-destination pair with a positive demand."""

    origin: Node
    destination: Node
    demand: Fraction

    def __post_init__(self) -> None:
        if self.origin == self.destination:
            raise InstanceError(f"commodity {self.origin}->{self.destination}: origin equals destination")
        if self.demand <= 0:
            raise InstanceError(f"commodity {self.origin}->{self.destination}: demand must be positive")


@dataclass(frozen=True)
class Path:
    """A simple directed path, stored as the arc index sequence it follows.

    ``cost`` is the toll-free (base) cost of the path and ``tolled_set`` the
    set of tolled arc indices it uses.
    """

    arcs: tuple[ArcId, ...]
    nodes: tuple[Node, ...]
    cost: Fraction
    tolled_set: frozenset[ArcId]

    def __len__(self) -> int:
        return len(self.arcs)

    @property
    def origin(self) -> Node:
        return self.nodes[0]

    @property
    def destination(self) -> Node:
        return self.nodes[-1]

    def is_toll_free(self) -> bool:
        return not self.tolled_set


class Network:
    """An immutable directed multigraph with exact arc costs.

    Besides the :class:`Arc` records it keeps the integer form of the costs
    that the searches run on: ``scale``, the common denominator of the arc
    costs; ``int_costs``, each arc's cost times ``scale``; and ``out_adj`` /
    ``in_adj``, per node, one ``(other endpoint, arc id)`` pair per outgoing /
    incoming arc, in arc order.

    It also caches two distance rows per destination, each swept on first
    use: :meth:`zero_toll_row` and :meth:`toll_free_row`.  Validation, path
    enumeration and the big-M constants share them, so each runs at most
    once per destination.  Each row is a pure function of the immutable
    graph, stored as a tuple; threads that fill a cache at once can at
    worst repeat a sweep and store an equal row.
    """

    def __init__(self, num_nodes: int, arcs: Sequence[Arc]):
        if num_nodes < 2:
            raise InstanceError(f"a network needs at least 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes
        self.arcs: tuple[Arc, ...] = tuple(arcs)
        for pos, arc in enumerate(self.arcs):
            if arc.index != pos:
                raise InstanceError(f"arc at position {pos} carries index {arc.index}")
            if not (0 <= arc.tail < num_nodes and 0 <= arc.head < num_nodes):
                raise InstanceError(f"arc {arc.index}: endpoint out of range")
        out: list[list[tuple[Node, ArcId]]] = [[] for _ in range(num_nodes)]
        into: list[list[tuple[Node, ArcId]]] = [[] for _ in range(num_nodes)]
        for arc in self.arcs:
            out[arc.tail].append((arc.head, arc.index))
            into[arc.head].append((arc.tail, arc.index))
        self.out_adj: tuple[tuple[tuple[Node, ArcId], ...], ...] = tuple(map(tuple, out))
        self.in_adj: tuple[tuple[tuple[Node, ArcId], ...], ...] = tuple(map(tuple, into))
        self.tolled_ids: tuple[ArcId, ...] = tuple(a.index for a in self.arcs if a.tolled)
        self.scale: int = math.lcm(*(a.cost.denominator for a in self.arcs))
        self.int_costs: tuple[int, ...] = tuple(
            a.cost.numerator * (self.scale // a.cost.denominator) for a in self.arcs
        )
        self._zero_rows: dict[Node, Row] = {}
        self._toll_free_rows: dict[Node, Row] = {}

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def arc(self, index: ArcId) -> Arc:
        return self.arcs[index]

    def sweep(self, target: Node, prices: Sequence[Optional[int]]) -> Row:
        """Integer cost of the cheapest path from every node to ``target``.

        One backward Dijkstra sweep over reversed arcs, at one integer price
        per arc id; an arc priced None is skipped.  None marks a node that
        cannot reach ``target``.
        """
        dist: list[Optional[int]] = [None] * self.num_nodes
        in_adj = self.in_adj
        dist[target] = 0
        heap: list[tuple[int, Node]] = [(0, target)]
        settled: set[Node] = set()
        while heap:
            cost, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            for tail, aid in in_adj[node]:
                price = prices[aid]
                if price is None or tail in settled:
                    continue
                candidate = cost + price
                best = dist[tail]
                if best is None or candidate < best:
                    dist[tail] = candidate
                    heapq.heappush(heap, (candidate, tail))
        return tuple(dist)

    def zero_toll_row(self, target: Node) -> Row:
        """The sweep to ``target`` with every toll at zero, cached per destination."""
        row = self._zero_rows.get(target)
        if row is None:
            row = self._zero_rows[target] = self.sweep(target, self.int_costs)
        return row

    def toll_free_row(self, target: Node) -> Row:
        """The sweep to ``target`` with tolled arcs unusable, cached per destination."""
        row = self._toll_free_rows.get(target)
        if row is None:
            prices = [None if arc.tolled else p for arc, p in zip(self.arcs, self.int_costs)]
            row = self._toll_free_rows[target] = self.sweep(target, prices)
        return row

    def with_costs(self, costs: Mapping[ArcId, Fraction]) -> "Network":
        """Return a copy whose arcs carry the costs in ``costs`` (others kept)."""
        replaced = [
            Arc(a.index, a.tail, a.head, Fraction(costs.get(a.index, a.cost)), a.tolled)
            for a in self.arcs
        ]
        return Network(self.num_nodes, replaced)

    def path(self, arc_ids: Sequence[ArcId]) -> Path:
        """Build a :class:`Path` from contiguous arc indices, validating it."""
        if not arc_ids:
            raise InstanceError("a path needs at least one arc")
        arcs = [self.arcs[a] for a in arc_ids]
        nodes = [arcs[0].tail]
        for arc in arcs:
            if arc.tail != nodes[-1]:
                raise InstanceError(f"arc {arc.index} does not continue the path at node {nodes[-1]}")
            nodes.append(arc.head)
        if len(set(nodes)) != len(nodes):
            raise InstanceError("path revisits a node")
        cost = Fraction(sum(self.int_costs[a] for a in arc_ids), self.scale)
        tolled = frozenset(a.index for a in arcs if a.tolled)
        return Path(tuple(arc_ids), tuple(nodes), cost, tolled)


@dataclass(frozen=True)
class ProblemInstance:
    """A network plus its commodities.

    ``_derived`` holds values other modules derive from the instance alone
    and keep for its lifetime, by key: :mod:`~tollgate.experiments` keeps
    its sweep preparations there, by breakpoint.  No value in
    it may refer back to the instance, so that reference counting alone
    frees the instance and its values together.
    """

    network: Network
    commodities: tuple[Commodity, ...]
    label: str = "instance"
    _derived: dict[object, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.commodities:
            raise InstanceError("an instance needs at least one commodity")


def validate_instance(instance: ProblemInstance) -> None:
    """Check the structural rules every instance must satisfy.

    Arc-level rules (positive costs, no self-loops, endpoints in range) are
    enforced at construction; this adds the commodity rules, notably that every
    commodity keeps at least one toll-free route to its destination.  Without
    that guarantee the pricing problem is unbounded.  The check reads each
    destination's cached toll-free row, which the big-M constants and a
    capped enumeration then reuse.
    """
    net = instance.network
    for k, com in enumerate(instance.commodities):
        for label, node in (("origin", com.origin), ("destination", com.destination)):
            if not (0 <= node < net.num_nodes):
                raise InstanceError(f"commodity {k}: {label} {node} out of range")
        if net.toll_free_row(com.destination)[com.origin] is None:
            raise InstanceError(
                f"commodity {k} ({com.origin}->{com.destination}) has no toll-free path"
            )


def parse_instance(text: str, label: str = "instance") -> ProblemInstance:
    """Parse the line-oriented instance format.  Costs are parsed exactly."""
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    if not lines:
        raise InstanceError("empty instance")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "npp":
        raise InstanceError(f"bad header line: {lines[0]!r}")
    try:
        num_nodes, num_arcs, num_commodities = (int(tok) for tok in header[1:])
    except ValueError as exc:
        raise InstanceError(f"bad header counts: {lines[0]!r}") from exc
    if min(num_nodes, num_arcs, num_commodities) < 0:
        raise InstanceError(f"bad header counts: {lines[0]!r}")
    if len(lines) != 1 + num_arcs + num_commodities:
        raise InstanceError(
            f"expected {num_arcs} arc and {num_commodities} commodity lines, "
            f"got {len(lines) - 1} body lines"
        )
    arcs: list[Arc] = []
    for pos, line in enumerate(lines[1 : 1 + num_arcs]):
        parts = line.split()
        if len(parts) != 5 or parts[0] != "arc":
            raise InstanceError(f"bad arc line: {line!r}")
        if parts[4] not in ("T", "F"):
            raise InstanceError(f"arc line must end with T or F: {line!r}")
        tail, head = _node_ids(parts, line)
        arcs.append(Arc(pos, tail, head, as_fraction(parts[3]), parts[4] == "T"))
    commodities: list[Commodity] = []
    for line in lines[1 + num_arcs :]:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "commodity":
            raise InstanceError(f"bad commodity line: {line!r}")
        origin, dest = _node_ids(parts, line)
        commodities.append(Commodity(origin, dest, as_fraction(parts[3])))
    instance = ProblemInstance(Network(num_nodes, arcs), tuple(commodities), label)
    validate_instance(instance)
    return instance


def _node_ids(parts: list[str], line: str) -> tuple[int, int]:
    """The two node ids after an arc or commodity line's keyword."""
    try:
        return int(parts[1]), int(parts[2])
    except ValueError:
        raise InstanceError(f"node ids must be integers: {line!r}") from None


def serialize_instance(instance: ProblemInstance) -> str:
    """Render an instance back to the file format, exactly round-trippable."""
    net = instance.network
    out = [f"npp {net.num_nodes} {net.num_arcs} {len(instance.commodities)}"]
    for arc in net.arcs:
        flag = "T" if arc.tolled else "F"
        out.append(f"arc {arc.tail} {arc.head} {format_rational(arc.cost)} {flag}")
    for com in instance.commodities:
        out.append(
            f"commodity {com.origin} {com.destination} {format_rational(com.demand)}"
        )
    return "\n".join(out) + "\n"


def load_instance(path: Union[str, FilePath]) -> ProblemInstance:
    """Read and parse an instance file; the label is the file stem."""
    path = FilePath(path)
    return parse_instance(path.read_text(), label=path.stem)
