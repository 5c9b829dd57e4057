"""Random instance generation on grid, Delaunay, and Voronoi topologies.

All topologies are built as undirected planar-ish graphs and then doubled
into symmetric twin arcs.  Costs are drawn per edge (both directions equal)
with a fraction pinned to the top of the range, commodities are distant
node pairs, and the most-travelled edges become tolled, keeping every
commodity a toll-free route.  One breadth-first search (:func:`_reach`)
answers every question of toll-free connectivity: a node's component when
pairs are drawn, and whether a toll candidate cuts a pair off.  Everything
is driven by one seeded RNG, so a config reproduces its instance bit for
bit.  Delaunay and Voronoi graphs come from ``scipy.spatial.Delaunay``,
imported on first use and given the points as a list; grids need no
``scipy.spatial``.
"""

from __future__ import annotations

import random
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .network import (
    Arc,
    Commodity,
    Network,
    ProblemInstance,
    validate_instance,
)
from .shortest_path import shortest_path

Edge = tuple[int, int]


class GenError(ValueError):
    pass


@dataclass(frozen=True)
class GenConfig:
    """Everything :func:`generate` needs, with the defaults used throughout.

    ``topology`` is ``("grid", (rows, cols))``, ``("delaunay", n)``, or
    ``("voronoi", n)``; :func:`parse_topology` produces it from a string.
    """

    topology: tuple[str, object]
    num_commodities: int
    toll_ratio: float = 0.20
    cost_low: int = 5
    cost_high: int = 35
    high_cost_fraction: float = 0.20
    seed: int = 0

    def __post_init__(self) -> None:
        shape, size = self.topology
        if shape == "grid":
            rows, cols = size  # type: ignore[misc]
            if rows * cols < 4:
                raise GenError(f"grid {rows}x{cols} is below the 4-node minimum")
        elif shape in ("delaunay", "voronoi"):
            # qhull needs 4 points for its first simplex.  4 points make 2 or
            # 3 mutually adjacent triangles, the nodes of the Voronoi graph, so
            # no pair lies two hops apart and no commodity can be drawn.
            least = 4 if shape == "delaunay" else 5
            if not isinstance(size, int) or size < least:
                raise GenError(f"{shape} needs at least {least} points, got {size}")
        else:
            raise GenError(f"unknown topology {shape!r}")
        if not 0 < self.toll_ratio < 1:
            raise GenError(f"toll_ratio must be in (0, 1), got {self.toll_ratio}")
        if not 0 <= self.high_cost_fraction <= 1:
            raise GenError(
                f"high_cost_fraction must be in [0, 1], got {self.high_cost_fraction}"
            )
        if self.cost_low < 1 or self.cost_high < self.cost_low:
            raise GenError(f"bad cost range [{self.cost_low}, {self.cost_high}]")
        if self.num_commodities < 1:
            raise GenError("at least one commodity is required")


def parse_topology(text: str) -> tuple[str, object]:
    """Parse ``grid:5x12``, ``delaunay:40``, or ``voronoi:40``."""
    m = re.fullmatch(r"grid:(\d+)x(\d+)", text)
    if m:
        return ("grid", (int(m.group(1)), int(m.group(2))))
    m = re.fullmatch(r"(delaunay|voronoi):(\d+)", text)
    if m:
        return (m.group(1), int(m.group(2)))
    raise GenError(
        f"cannot parse topology {text!r}; expected grid:RxC, delaunay:N, or voronoi:N"
    )


def _topology_name(topology: tuple[str, object]) -> str:
    shape, size = topology
    if shape == "grid":
        rows, cols = size  # type: ignore[misc]
        return f"grid{rows}x{cols}"
    return f"{shape}{size}"


def grid_edges(rows: int, cols: int) -> tuple[int, list[Edge]]:
    edges: list[Edge] = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return rows * cols, edges


def _delaunay(n: int, rng: random.Random) -> "scipy.spatial.Delaunay":
    # Imported here, the one place that needs it: scipy.spatial takes longer
    # to import than the rest of the package.
    from scipy import spatial

    points = [[rng.random(), rng.random()] for _ in range(n)]
    # QJ joggles collinear inputs, which pure-random points can produce.
    return spatial.Delaunay(points, qhull_options="QJ")


def delaunay_edges(n: int, rng: random.Random) -> tuple[int, list[Edge]]:
    tri = _delaunay(n, rng)
    pairs = set()
    for simplex in tri.simplices:
        a, b, c = (int(v) for v in simplex)
        pairs.update(
            (min(u, v), max(u, v)) for u, v in ((a, b), (b, c), (a, c))
        )
    return n, sorted(pairs)


def voronoi_edges(n: int, rng: random.Random) -> tuple[int, list[Edge]]:
    """The dual graph: one node per triangle, edges between adjacent ones."""
    tri = _delaunay(n, rng)
    count = len(tri.simplices)
    pairs = set()
    for s, neighbors in enumerate(tri.neighbors):
        for nb in neighbors:
            if nb >= 0:
                pairs.add((min(s, int(nb)), max(s, int(nb))))
    if count < 2:
        raise GenError("the point set triangulated to a single cell; use more points")
    return count, sorted(pairs)


def _build_edges(cfg: GenConfig, rng: random.Random) -> tuple[int, list[Edge]]:
    shape, size = cfg.topology
    if shape == "grid":
        rows, cols = size  # type: ignore[misc]
        return grid_edges(rows, cols)
    if shape == "delaunay":
        return delaunay_edges(size, rng)  # type: ignore[arg-type]
    return voronoi_edges(size, rng)  # type: ignore[arg-type]


def _reach(
    adjacency: list[list[int]], source: int, target: int = -1
) -> set[int] | None:
    """The nodes reachable from ``source``, or None once ``target`` is met.

    Breadth first, so that a near ``target`` ends the search early; the
    default, -1, is no node, and the search always runs to its end.
    """
    seen = {source}
    frontier = [source]
    while frontier:
        ahead = []
        for node in frontier:
            for other in adjacency[node]:
                if other == target:
                    return None
                if other not in seen:
                    seen.add(other)
                    ahead.append(other)
        frontier = ahead
    return seen


def _bridge_spares(side: set[int], pairs: Sequence[Edge]) -> bool:
    """Does every pair keep its route once a bridge is gone?

    ``side`` is what one end of the bridge still reaches.  Every pair was
    connected before, so a pair is cut off exactly when the bridge now
    parts its ends: when one lies on ``side`` and the other does not.
    """
    return all((origin in side) == (dest in side) for origin, dest in pairs)


def generate(cfg: GenConfig) -> ProblemInstance:
    """Generate one instance; the same config always yields the same bytes.

    A toll-conversion shortfall (too few edges convertible without cutting
    off a commodity) is reported as a warning and recorded in the label.

    An edge is converted only if every commodity keeps a toll-free route.
    Twin arcs share their toll state, so that is a question about the
    undirected toll-free graph, whose adjacency is kept across
    conversions.  Every pair is connected before a conversion, so only a
    bridge of that graph can cut one off: a candidate whose tail still
    reaches its head without it is converted, and for a bridge the nodes
    that search reached decide every commodity at once
    (:func:`_bridge_spares`).
    """
    rng = random.Random(cfg.seed)
    num_nodes, edges = _build_edges(cfg, rng)
    if not edges:
        raise GenError("the topology produced no edges")

    costs = [rng.randint(cfg.cost_low, cfg.cost_high) for _ in edges]
    forced = round(cfg.high_cost_fraction * len(edges))
    for pos in rng.sample(range(len(edges)), forced):
        costs[pos] = cfg.cost_high

    adjacency: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    # A pair lies at least two hops apart when it is connected, distinct
    # and not adjacent.  ``members[node]`` is node's component, ascending.
    members: list[list[int]] = [[] for _ in range(num_nodes)]
    eligible: list[Edge] = []
    for origin in range(num_nodes):
        if not members[origin]:
            component = sorted(_reach(adjacency, origin))
            for node in component:
                members[node] = component
        near = set(adjacency[origin])
        near.add(origin)
        eligible.extend(
            (origin, dest) for dest in members[origin] if dest not in near
        )
    if len(eligible) < cfg.num_commodities:
        raise GenError(
            f"only {len(eligible)} origin-destination pairs lie at least two "
            f"hops apart; cannot place {cfg.num_commodities} commodities"
        )
    chosen_pairs = rng.sample(eligible, cfg.num_commodities)
    demands = [rng.randint(1, 100) for _ in chosen_pairs]

    free_arcs = []
    for pos, (u, v) in enumerate(edges):
        cost = Fraction(costs[pos])
        free_arcs.append(Arc(2 * pos, u, v, cost, False))
        free_arcs.append(Arc(2 * pos + 1, v, u, cost, False))
    base_net = Network(num_nodes, free_arcs)

    usage = [0] * len(edges)
    for origin, dest in chosen_pairs:
        path = shortest_path(base_net, origin, dest)
        if path is None:
            raise GenError(f"pair {origin}->{dest} became unreachable")
        for aid in path.arcs:
            usage[aid // 2] += 1

    target = round(cfg.toll_ratio * len(free_arcs) / 2)
    from_usage = round(target * 2 / 3)
    by_usage = sorted(range(len(edges)), key=lambda pos: (-usage[pos], pos))
    tolled_edges: set[int] = set()

    # ``adjacency`` is the toll-free graph from here on: a conversion takes
    # its edge out for good.
    def try_convert(pos: int) -> None:
        u, v = edges[pos]
        adjacency[u].remove(v)
        adjacency[v].remove(u)
        side = _reach(adjacency, u, v)
        if side is None or _bridge_spares(side, chosen_pairs):
            tolled_edges.add(pos)
        else:
            adjacency[u].append(v)
            adjacency[v].append(u)

    for pos in by_usage:
        if len(tolled_edges) >= from_usage:
            break
        try_convert(pos)
    rest = [pos for pos in range(len(edges)) if pos not in tolled_edges]
    rng.shuffle(rest)
    for pos in rest:
        if len(tolled_edges) >= target:
            break
        try_convert(pos)

    label = f"{_topology_name(cfg.topology)}-k{cfg.num_commodities}-s{cfg.seed}"
    deficit = target - len(tolled_edges)
    if deficit > 0:
        warnings.warn(
            f"{label}: only {len(tolled_edges)} of {target} edges could be "
            "tolled without cutting a commodity off",
            stacklevel=2,
        )
        label += f"-short{deficit}"

    arcs = []
    for pos, (u, v) in enumerate(edges):
        tolled = pos in tolled_edges
        cost = Fraction(costs[pos], 2) if tolled else Fraction(costs[pos])
        arcs.append(Arc(2 * pos, u, v, cost, tolled))
        arcs.append(Arc(2 * pos + 1, v, u, cost, tolled))
    commodities = tuple(
        Commodity(origin, dest, Fraction(demand))
        for (origin, dest), demand in zip(chosen_pairs, demands)
    )
    instance = ProblemInstance(Network(num_nodes, arcs), commodities, label)
    validate_instance(instance)
    return instance
