"""Slow, independent reference implementations for cross-checking.

Everything here is written from the definitions, sharing no logic with the
package: exhaustive path search by recursion, dominance by pairwise subset
comparison, and random instances assembled straight from arc lists.  Tests
freeze values computed by these functions and compare the package against
them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from tollgate.network import Arc, Commodity, Network, ProblemInstance


def all_simple_paths(
    network: Network, origin: int, dest: int
) -> list[tuple[int, ...]]:
    """Every simple path as an arc-id tuple, by depth-first search."""
    found: list[tuple[int, ...]] = []
    trail: list[int] = []
    seen = {origin}

    def walk(node: int) -> None:
        if node == dest:
            found.append(tuple(trail))
            return
        for head, aid in network.out_adj[node]:
            if head in seen:
                continue
            seen.add(head)
            trail.append(aid)
            walk(head)
            trail.pop()
            seen.remove(head)

    walk(origin)
    return found


def path_cost(network: Network, arcs: tuple[int, ...]) -> Fraction:
    return sum((network.arc(a).cost for a in arcs), Fraction(0))


def tolled_part(network: Network, arcs: tuple[int, ...]) -> frozenset[int]:
    return frozenset(a for a in arcs if network.arc(a).tolled)


def naive_feasible_paths(
    network: Network, origin: int, dest: int
) -> list[tuple[int, ...]]:
    """The undominated paths, cheapest first.

    A path is dominated when some other path reaches the destination at no
    greater cost using a subset of its tolled arcs (strictly cheaper, or a
    strict subset at equal cost).  With all path costs distinct the strict
    cases never tie, and the survivors are exactly the paths some toll
    vector makes uniquely optimal.
    """
    paths = all_simple_paths(network, origin, dest)
    costs = {p: path_cost(network, p) for p in paths}
    tolled = {p: tolled_part(network, p) for p in paths}
    keep = []
    for p in paths:
        dominated = False
        for q in paths:
            if q == p:
                continue
            if tolled[q] <= tolled[p] and (
                costs[q] < costs[p]
                or (costs[q] == costs[p] and tolled[q] < tolled[p])
            ):
                dominated = True
                break
            if tolled[q] == tolled[p] and costs[q] == costs[p] and q < p:
                dominated = True  # arbitrary but deterministic tie owner
                break
        if not dominated:
            keep.append(p)
    keep.sort(key=lambda p: (costs[p], p))
    return keep


def toll_free_reaches(network: Network, origin: int, dest: int) -> bool:
    seen = [False] * network.num_nodes
    seen[origin] = True
    stack = [origin]
    while stack:
        node = stack.pop()
        if node == dest:
            return True
        for head, aid in network.out_adj[node]:
            if not network.arcs[aid].tolled and not seen[head]:
                seen[head] = True
                stack.append(head)
    return False


def random_digraph_instance(seed: int) -> Optional[ProblemInstance]:
    """A small random digraph with up to two commodities, or None.

    Costs are huge random integers, so distinct arc subsets collide with
    negligible probability; the chosen test seeds are verified collision
    free.  Returns None when the draw has no usable commodity pair, so the
    caller can move on to the next seed.
    """
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    raw = []
    for tail in range(n):
        for head in range(n):
            if tail != head and rng.random() < 0.25:
                raw.append(
                    (tail, head, rng.randint(1, 10**12), rng.random() < 0.35)
                )
    if not raw:
        return None
    net = Network(
        n,
        [
            Arc(i, tail, head, Fraction(cost), tolled)
            for i, (tail, head, cost, tolled) in enumerate(raw)
        ],
    )
    pairs = [
        (o, d)
        for o in range(n)
        for d in range(n)
        if o != d and toll_free_reaches(net, o, d)
    ]
    if not pairs:
        return None
    chosen = rng.sample(pairs, min(2, len(pairs)))
    commodities = tuple(
        Commodity(o, d, Fraction(rng.randint(1, 10))) for o, d in chosen
    )
    return ProblemInstance(net, commodities, f"random-{seed}")
