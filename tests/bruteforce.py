"""Slow, independent reference implementations for cross-checking.

Everything here is written from the definitions, sharing no logic with the
package: exhaustive path search by recursion, dominance by pairwise subset
comparison, random instances assembled straight from arc lists, the full
decomposition of a lit flow into its path and cycles, a two-phase
simplex on a dense tableau of ``Fraction`` values, an LP writer that
renders one row at a time, term by term, model emitters that add every
row term by term, by variable name, and graph reductions that merge or
eliminate one node at a time on ``Fraction`` costs, rescanning every arc
each time, and toll-free connectivity by one search per commodity.  Tests
freeze
values computed by these functions and compare the package against them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from tollgate.bigm import BigMParams
from tollgate.enumeration import BilevelFeasibleSet, ConsistencyError
from tollgate.exactlp import LPResult, Row
from tollgate.formulations import (
    ARC,
    COMPL_SLACK,
    DIRECT,
    PATH,
    ROLE_DROPPED,
    STRONG_DUALITY,
    SUBSTITUTION,
    HybridModel,
    var_L,
    var_T,
    var_lambda,
    var_t,
    var_tau,
    var_x,
    var_y,
    var_z,
)
from tollgate.model_ir import ModelIR
from tollgate.network import Arc, Commodity, Network, Path, ProblemInstance
from tollgate.preprocess import ReducedGraph


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


def fraction_distances(network: Network, target: int, price) -> dict:
    """Bellman-Ford to ``target`` on Fractions; ``price(arc)`` None = unusable.

    Maps every node to its cheapest cost to ``target``, None when it has none.
    """
    dist = {node: None for node in range(network.num_nodes)}
    dist[target] = Fraction(0)
    for _ in range(network.num_nodes):
        changed = False
        for arc in network.arcs:
            cost = price(arc)
            if cost is None or dist[arc.head] is None:
                continue
            candidate = cost + dist[arc.head]
            if dist[arc.tail] is None or candidate < dist[arc.tail]:
                dist[arc.tail] = candidate
                changed = True
        if not changed:
            break
    return dist


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


def pairs_reach_avoiding(
    network: Network, tolled_edges: set[int], pairs: Sequence[tuple[int, int]]
) -> bool:
    """Does every pair stay connected once the edges in ``tolled_edges`` are tolled?

    An edge is a pair of twin arcs, ``2 * edge`` and ``2 * edge + 1``; the
    network's own toll flags are ignored.  One directed search per pair.
    """
    for origin, dest in pairs:
        seen = [False] * network.num_nodes
        seen[origin] = True
        stack = [origin]
        while stack and not seen[dest]:
            node = stack.pop()
            for head, aid in network.out_adj[node]:
                if aid // 2 not in tolled_edges and not seen[head]:
                    seen[head] = True
                    stack.append(head)
        if not seen[dest]:
            return False
    return True


def random_digraph_instance(
    seed: int, cost_high: int = 10**12
) -> Optional[ProblemInstance]:
    """A small random digraph with up to two commodities, or None.

    Costs are random integers in ``[1, cost_high]``.  By default they are
    huge, so distinct arc subsets collide with negligible probability; the
    chosen test seeds are verified collision free.  A small ``cost_high``
    makes path costs tie.  Returns None when the draw has no usable
    commodity pair, so the caller can move on to the next seed.
    """
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    raw = []
    for tail in range(n):
        for head in range(n):
            if tail != head and rng.random() < 0.25:
                raw.append(
                    (tail, head, rng.randint(1, cost_high), rng.random() < 0.35)
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


# -- graph reductions, one merge at a time ----------------------------------


@dataclass
class _RefArc:
    """An arc of a reduction under construction, with its exact cost."""

    tail: int
    head: int
    cost: Fraction
    tolled: bool
    chain: tuple[int, ...]  # original arc ids, in path order


def _ref_arcs(network: Network, arc_ids) -> list[_RefArc]:
    return [
        _RefArc(a.tail, a.head, a.cost, a.tolled, (a.index,))
        for a in (network.arc(i) for i in arc_ids)
    ]


def _ref_finish(network: Network, protos: list[_RefArc], keep: set[int]) -> ReducedGraph:
    """Renumber nodes and arcs densely and build the ReducedGraph."""
    node_origin = tuple(sorted(keep))
    node_map = {orig: red for red, orig in enumerate(node_origin)}
    protos = sorted(protos, key=lambda p: p.chain)
    arcs = [
        Arc(rid, node_map[p.tail], node_map[p.head], p.cost, p.tolled)
        for rid, p in enumerate(protos)
    ]
    reduced = Network(len(node_origin), arcs)
    return ReducedGraph(reduced, network, node_origin, tuple(p.chain for p in protos))


def path_reduce_by_merges(network: Network, bfset: BilevelFeasibleSet) -> ReducedGraph:
    """Path-based reduction, rescanning the whole graph after every merge.

    Keeps the union of arcs over ``bfset``, then repeatedly merges an
    interior node with exactly one kept incoming and one kept outgoing arc,
    both toll-free, into a single toll-free arc, unless the merge would
    create a self-loop.
    """
    origin = bfset.paths[0].origin
    dest = bfset.paths[0].destination
    protos = _ref_arcs(network, sorted(bfset.arc_union))
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
            merged = _RefArc(
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
    return _ref_finish(network, protos, nodes)


def _dedup_toll_free(protos: list[_RefArc]) -> list[_RefArc]:
    """Collapse parallel toll-free arcs to the cheapest (ties: smallest chain)."""
    best: dict[tuple[int, int], _RefArc] = {}
    out: list[_RefArc] = []
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


def spgm_by_rescans(network: Network, commodity: Commodity) -> ReducedGraph:
    """The shortest-path graph model, rescanning every arc per eliminated node.

    Each node that touches no tolled arc and is neither endpoint of the
    commodity is eliminated in ascending order: its incoming and outgoing
    arcs are spliced pairwise into toll-free shortcuts (splices that would
    form a self-loop are dropped), and then parallel toll-free arcs keep
    only the cheapest.
    """
    touched: set[int] = set()
    for aid in network.tolled_ids:
        arc = network.arc(aid)
        touched.add(arc.tail)
        touched.add(arc.head)
    keep = touched | {commodity.origin, commodity.destination}

    protos = _ref_arcs(network, range(network.num_arcs))
    nodes = set(range(network.num_nodes))
    for x in sorted(nodes - keep):
        ins = [p for p in protos if p.head == x]
        outs = [p for p in protos if p.tail == x]
        protos = [p for p in protos if p.head != x and p.tail != x]
        for pin, pout in product(ins, outs):
            if pin.tail == pout.head:
                continue
            protos.append(
                _RefArc(
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
    return _ref_finish(network, protos, nodes)


# -- flow decomposition ----------------------------------------------------


def _pop_cycle(out_pool: dict[int, list[Arc]], start: int, k: int) -> list[Arc]:
    """Extract one cycle from a pool of balanced leftover arcs."""
    walk: list[Arc] = []
    pos = {start: 0}
    node = start
    while True:
        pool = out_pool.get(node)
        if not pool:
            raise ConsistencyError(f"commodity {k}: flow dead-ends at node {node}")
        arc = pool.pop()
        walk.append(arc)
        node = arc.head
        first = pos.get(node)
        if first is not None:
            for unused in walk[:first]:
                out_pool[unused.tail].append(unused)
            return walk[first:]
        pos[node] = len(walk)


def decompose_flow(
    lit: list[Arc], origin: int, dest: int, k: int
) -> tuple[list[Arc], list[list[Arc]]]:
    """Split a unit flow's lit arcs into the routed path and every cycle.

    The full decomposition the cut loop once ran: the walk from ``origin``
    cuts out each cycle it closes on its way to ``dest``, and the arcs left
    over are then taken apart into cycles one by one.
    """
    out_pool: dict[int, list[Arc]] = {}
    for arc in lit:
        out_pool.setdefault(arc.tail, []).append(arc)
    walk: list[Arc] = []
    cycles: list[list[Arc]] = []
    pos = {origin: 0}
    node = origin
    while node != dest:
        pool = out_pool.get(node)
        if not pool:
            raise ConsistencyError(f"commodity {k}: flow dead-ends at node {node}")
        arc = pool.pop()
        walk.append(arc)
        node = arc.head
        first = pos.get(node)
        if first is not None:
            loop = walk[first:]
            del walk[first:]
            for looped in loop:
                if looped.head != node:
                    pos.pop(looped.head, None)
            cycles.append(loop)
        else:
            pos[node] = len(walk)
    while True:
        start = next((t for t, pool in out_pool.items() if pool), None)
        if start is None:
            break
        cycles.append(_pop_cycle(out_pool, start, k))
    return walk, cycles


# -- rational simplex ------------------------------------------------------


def _rational_pivot(
    tableau: list[list[Fraction]],
    basis: list[int],
    row: int,
    col: int,
    pivots: Optional[list] = None,
) -> None:
    if pivots is not None:
        pivots.append((row, col))
    pivot = tableau[row][col]
    if pivot == 0:
        raise ZeroDivisionError("pivot on a zero entry")
    tableau[row] = [v / pivot for v in tableau[row]]
    pivot_row = tableau[row]
    for r in range(len(tableau)):
        if r == row:
            continue
        factor = tableau[r][col]
        if factor != 0:
            tableau[r] = [v - factor * w for v, w in zip(tableau[r], pivot_row)]
    basis[row] = col


def _rational_optimize(
    tableau: list[list[Fraction]],
    basis: list[int],
    costs: list[Fraction],
    allowed: list[bool],
    pivots: Optional[list] = None,
) -> str:
    """Maximize ``costs`` over the current basic feasible solution (Bland)."""
    m = len(tableau)
    ncols = len(costs)
    while True:
        in_basis = set(basis)
        duals = [costs[b] for b in basis]
        entering = -1
        for j in range(ncols):
            if not allowed[j] or j in in_basis:
                continue
            reduced = costs[j]
            for i in range(m):
                coef = tableau[i][j]
                if coef != 0:
                    reduced -= duals[i] * coef
            if reduced > 0:
                entering = j  # smallest improving index: Bland's rule
                break
        if entering < 0:
            return "optimal"
        leaving = -1
        best: Optional[Fraction] = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = tableau[i][-1] / coef
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _rational_pivot(tableau, basis, leaving, entering, pivots)


def rational_solve_lp(
    objective: Sequence[tuple[object, str]],
    rows: Sequence[Row],
    maximize: bool = True,
    events: Optional[Counter] = None,
    pivots: Optional[list] = None,
) -> LPResult:
    """``tollgate.exactlp.solve_lp`` on a dense ``Fraction`` tableau.

    The same two phases, column layout and Bland's rule, with every entry a
    reduced rational and the pivot row divided by the pivot.  ``events``,
    when given, counts the phase-1 clean-up's row deletions
    (``"deleted_row"``) and its pivots on negative entries
    (``"negative_pivot"``); ``pivots`` collects every pivot's
    ``(row, column)`` in order.
    """
    names: list[str] = []
    index: dict[str, int] = {}

    def col_of(name: str) -> int:
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    obj: dict[int, Fraction] = {}
    for coef, name in objective:
        j = col_of(name)
        obj[j] = obj.get(j, Fraction(0)) + Fraction(coef)
    parsed: list[tuple[dict[int, Fraction], str, Fraction]] = []
    for terms, sense, rhs in rows:
        if sense not in ("<=", "=", ">="):
            raise ValueError(f"bad row sense {sense!r}")
        acc: dict[int, Fraction] = {}
        for coef, name in terms:
            j = col_of(name)
            acc[j] = acc.get(j, Fraction(0)) + Fraction(coef)
        parsed.append((acc, sense, Fraction(rhs)))

    n = len(names)
    sign = 1 if maximize else -1

    # Nonnegative right-hand sides; columns: structural | slack | artificial.
    slack_cols = 0
    normalized: list[tuple[dict[int, Fraction], str, Fraction]] = []
    for acc, sense, rhs in parsed:
        if rhs < 0:
            acc = {j: -c for j, c in acc.items()}
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        normalized.append((acc, sense, rhs))
        if sense in ("<=", ">="):
            slack_cols += 1

    total = n + slack_cols + sum(1 for _, s, _ in normalized if s != "<=")
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    zero = Fraction(0)
    slack_at = n
    art_at = n + slack_cols
    for acc, sense, rhs in normalized:
        line = [zero] * (total + 1)
        for j, c in acc.items():
            line[j] = c
        line[-1] = rhs
        if sense == "<=":
            line[slack_at] = Fraction(1)
            basis.append(slack_at)
            slack_at += 1
        elif sense == ">=":
            line[slack_at] = Fraction(-1)
            slack_at += 1
            line[art_at] = Fraction(1)
            basis.append(art_at)
            art_at += 1
        else:
            line[art_at] = Fraction(1)
            basis.append(art_at)
            art_at += 1
        tableau.append(line)

    first_art = n + slack_cols
    allowed = [True] * total

    if first_art < total:
        phase1 = [zero] * total
        for j in range(first_art, total):
            phase1[j] = Fraction(-1)
        status = _rational_optimize(tableau, basis, phase1, allowed, pivots)
        assert status == "optimal"  # bounded below by zero artificials
        infeasibility = -sum(
            tableau[i][-1] for i in range(len(tableau)) if basis[i] >= first_art
        )
        if infeasibility < 0:
            return LPResult("infeasible", None, {})
        # Pivot leftover artificials out; rows that cannot pivot are redundant.
        for i in range(len(tableau) - 1, -1, -1):
            if basis[i] < first_art:
                continue
            pivot_col = next(
                (j for j in range(first_art) if tableau[i][j] != 0), None
            )
            if pivot_col is None:
                del tableau[i]
                del basis[i]
                if events is not None:
                    events["deleted_row"] += 1
            else:
                if events is not None and tableau[i][pivot_col] < 0:
                    events["negative_pivot"] += 1
                _rational_pivot(tableau, basis, i, pivot_col, pivots)
        for j in range(first_art, total):
            allowed[j] = False

    costs = [zero] * total
    for j, c in obj.items():
        costs[j] = sign * c
    status = _rational_optimize(tableau, basis, costs, allowed, pivots)
    if status == "unbounded":
        return LPResult("unbounded", None, {})

    values: dict[str, Fraction] = {name: Fraction(0) for name in names}
    for i, b in enumerate(basis):
        if b < n:
            values[names[b]] = tableau[i][-1]
    objective_value = sum(
        (c * values[names[j]] for j, c in obj.items()), Fraction(0)
    )
    return LPResult("optimal", objective_value, values)


# -- LP text, one row at a time ---------------------------------------------


def _lp_number(value) -> str:
    if type(value) is not int:
        if value.denominator != 1:
            # The quotient of two ints is correctly rounded, as float() is.
            return f"{value.numerator / value.denominator:.12g}"
        value = value.numerator
    return str(value)


def _lp_terms(coefs: Sequence, idents: Sequence[str]) -> str:
    """A sum of terms (at least one) as LP text, one identifier per coefficient."""
    parts: list[str] = []
    for coef, text in zip(coefs, idents):
        if type(coef) is not int:
            if coef.denominator != 1:
                number = _lp_number(coef)
                if number[0] == "-":
                    parts.append(f"- {number[1:]} {text}")
                else:
                    parts.append(f"+ {number} {text}")
                continue
            coef = coef.numerator
        if coef == 1:
            parts.append("+ " + text)
        elif coef == -1:
            parts.append("- " + text)
        elif coef > 0:
            parts.append(f"+ {coef} {text}")
        else:
            parts.append(f"- {-coef} {text}")
    # The first term carries no "+", and a number's sign is glued to it.
    head = parts[0]
    if head[0] == "+":
        parts[0] = head[2:]
    elif coefs[0] != -1:
        parts[0] = "-" + head[2:]
    return " ".join(parts)


def lp_text_by_rows(model: ModelIR) -> str:
    """``model`` as CPLEX LP text, each row formatted term by term.

    The dialect of :func:`tollgate.lp_format.write_lp`; names are encoded
    here as that module documents, and the model is read through its lists.
    """
    idents = [
        name.replace("[", "__").replace("]", "").replace(",", "_") for name in model.names
    ]
    column = {name: j for j, name in enumerate(model.names)}
    out = [f"\\ {model.label}\n", "Maximize\n"]
    obj = model.objective
    if obj:
        terms = _lp_terms([c for c, _ in obj], [idents[column[n]] for _, n in obj])
    else:
        terms = "0 " + idents[0] if idents else "0"
    out.append(f" obj: {terms}\n")
    out.append("Subject To\n")
    starts = model.starts
    for i, (sense, rhs) in enumerate(zip(model.senses, model.rhs)):
        a, b = starts[i], starts[i + 1]
        terms = _lp_terms(model.coefs[a:b], [idents[j] for j in model.cols[a:b]])
        out.append(f" c{i}: {terms} {sense} {_lp_number(rhs)}\n")
    out.append("Bounds\n")
    binaries: list[str] = []
    for name, lo, hi, binary in zip(idents, model.lower, model.upper, model.binary):
        if binary:
            binaries.append(f" {name}\n")
        elif lo is None and hi is None:
            out.append(f" {name} free\n")
        elif hi is None:
            if lo != 0:
                out.append(f" {_lp_number(lo)} <= {name}\n")
        elif lo is None:
            out.append(f" -inf <= {name} <= {_lp_number(hi)}\n")
        else:
            out.append(f" {_lp_number(lo)} <= {name} <= {_lp_number(hi)}\n")
    if binaries:
        out.append("Binaries\n")
        out += binaries
    out.append("End\n")
    return "".join(out)


# -- model rows, term by term, by name ----------------------------------------


class _NamedBlock:
    """The variable names of commodity ``k``'s block in its working graph."""

    def __init__(self, kind, k, com, graph, bfset) -> None:
        net = graph.network
        self.kind = kind
        self.k = k
        self.graph = graph
        self.suffix = kind.primal_rep[0] + kind.dual_rep[0]
        self.paths = bfset.paths if kind.needs_paths else ()
        self.origin = graph.reduced_node(com.origin)
        self.dest = graph.reduced_node(com.destination)
        self.tolls = {
            rid: var_T(graph.original_tolled_id(rid)) for rid in net.tolled_ids
        }
        if kind.primal_rep == ARC:
            self.routes = net.arcs
            self.primal = [
                var_x(k, arc.index) if arc.tolled else var_y(k, arc.index)
                for arc in net.arcs
            ]
        else:
            self.routes = self.paths
            self.primal = [var_z(k, pos) for pos in range(len(self.paths))]
        self.potentials = []
        if kind.dual_rep == ARC:
            self.potentials = [var_lambda(k, node) for node in range(net.num_nodes)]
        if kind.linearization == DIRECT:
            self.revenue = [var_t(k, graph.original_tolled_id(rid)) for rid in net.tolled_ids]
        else:
            self.revenue = [var_tau(k)]

    def users(self, arc: Arc) -> list[str]:
        if self.kind.primal_rep == ARC:
            return [self.primal[arc.index]]
        return [
            name
            for p, name in zip(self.paths, self.primal)
            if arc.index in (p.tolled_set if arc.tolled else p.arcs)
        ]

    def arc_dual_terms(self, arc: Arc) -> list:
        terms = [(1, self.potentials[arc.tail]), (-1, self.potentials[arc.head])]
        if arc.tolled:
            terms.append((-1, self.tolls[arc.index]))
        return terms


def _path_bound_terms(k: int, path: Path, tolls) -> list:
    return [(1, var_L(k))] + [(-1, tolls[rid]) for rid in sorted(path.tolled_set)]


def path_slack_by_terms(
    model: ModelIR, tag: str, k: int, path: Path, s_val, tolls, flows
) -> None:
    """``path``'s slackness row over commodity ``k``'s arc flows, by name.

    ``tolls`` names the ``T`` of each working tolled arc and ``flows`` the
    flow of each working arc, by arc id.
    """
    terms = _path_bound_terms(k, path, tolls)
    terms += [(-s_val, flows[rid]) for rid in path.arcs]
    model.add_constraint(tag, terms, ">=", path.cost - s_val * len(path.arcs))


def _named_block(model: ModelIR, b: _NamedBlock, bigm: BigMParams, paper_exact: bool) -> None:
    kind, k, net = b.kind, b.k, b.graph.network
    # Routing variables and rows.
    if kind.primal_rep == PATH:
        model.add_variables(b.primal, 0, 1, binary=True)
        model.add_constraint(f"pp[{k}]", [(1, name) for name in b.primal], "=", 1)
    else:
        binary = True if kind.opt_cond == COMPL_SLACK else [a.tolled for a in net.arcs]
        model.add_variables(b.primal, 0, 1, binary=binary)
        for node in range(net.num_nodes):
            terms = [(1, b.primal[aid]) for _, aid in net.out_adj[node]]
            terms += [(-1, b.primal[aid]) for _, aid in net.in_adj[node]]
            rhs = 1 if node == b.origin else -1 if node == b.dest else 0
            if terms:
                model.add_constraint(f"pa[{k},{node}]", terms, "=", rhs)
    # Dual feasibility.
    if kind.dual_rep == ARC:
        model.add_variables(b.potentials, None, None)
        for arc in net.arcs:
            tag = f"da{1 if arc.tolled else 2}[{k},{arc.index}]"
            model.add_constraint(tag, b.arc_dual_terms(arc), "<=", arc.cost)
    else:
        model.add_variable(var_L(k), None, None)
        for pos, path in enumerate(b.paths):
            terms = _path_bound_terms(k, path, b.tolls)
            model.add_constraint(f"dp[{k},{pos}]", terms, "<=", path.cost)
    model.add_variables(b.revenue, 0, None)

    def value_tie(tag: str, sense: str = "=") -> None:
        terms = [(route.cost, name) for route, name in zip(b.routes, b.primal)]
        terms += [(1, name) for name in b.revenue]
        if kind.dual_rep == ARC:
            terms += [(-1, b.potentials[b.origin]), (1, b.potentials[b.dest])]
        else:
            terms.append((-1, var_L(k)))
        model.add_constraint(f"{tag}-{b.suffix}[{k}]", terms, sense, 0)

    def direct_rows(two_sided: bool) -> None:
        side = b.suffix[0]
        neg_m = -bigm.m_value(k)
        n_val = bigm.toll_cap
        for rid, tname in zip(net.tolled_ids, b.revenue):
            toll = b.tolls[rid]
            usage = b.users(net.arcs[rid])
            upper = [(1, tname)] + [(neg_m, name) for name in usage]
            model.add_constraint(f"direct{side}1[{k},{rid}]", upper, "<=", 0)
            rest = [(1, toll), (-1, tname)] + [(n_val, name) for name in usage]
            model.add_constraint(f"direct{side}2[{k},{rid}]", rest, "<=", n_val)
            if two_sided:
                lower = [(1, tname), (-1, toll)]
                model.add_constraint(f"direct{side}2lo[{k},{rid}]", lower, "<=", 0)

    def cs_rows() -> None:
        if kind.dual_rep == ARC:
            lam_lo, lam_hi = bigm.lam_lo[k], bigm.lam_hi[k]
            for arc in net.arcs:
                # The bound at the arc's original endpoints, from its definition.
                tail, head = b.graph.node_origin[arc.tail], b.graph.node_origin[arc.head]
                rise = lam_hi[head] - lam_lo[tail] + (bigm.N if arc.tolled else 0)
                r_val = arc.cost + Fraction(rise, bigm.scale)
                terms = b.arc_dual_terms(arc) + [(-r_val, name) for name in b.users(arc)]
                tag = f"lin-cs-{b.suffix}{1 if arc.tolled else 2}[{k},{arc.index}]"
                model.add_constraint(tag, terms, ">=", arc.cost - r_val)
            return
        for pos, path in enumerate(b.paths):
            s_val = bigm.s_value(k, path, pos)
            tag = f"lin-cs-{b.suffix}[{k},{pos}]"
            if kind.primal_rep == PATH:
                terms = _path_bound_terms(k, path, b.tolls) + [(-s_val, b.primal[pos])]
                model.add_constraint(tag, terms, ">=", path.cost - s_val)
            else:
                path_slack_by_terms(model, tag, k, path, s_val, b.tolls, b.primal)

    if kind.opt_cond == STRONG_DUALITY:
        value_tie("lin-sd")
        direct_rows(two_sided=False)
    else:
        cs_rows()
        if kind.linearization == SUBSTITUTION:
            value_tie("lin-subs-sd")
        else:
            direct_rows(two_sided=True)
            if not paper_exact:
                value_tie("vi-sd", "<=")


def model_by_terms(hybrid: HybridModel, paper_exact: bool = False) -> ModelIR:
    """``hybrid``'s model emitted again from its assignments, term by term.

    Every row goes through :meth:`ModelIR.add_constraint` by variable name,
    block after block, as the builders' emitters did before they stamped
    per-graph row patterns by column id.
    """
    instance, bigm = hybrid.instance, hybrid.bigm
    model = ModelIR(hybrid.ir.label)
    model.add_variables([var_T(a) for a in instance.network.tolled_ids], 0, bigm.toll_cap)
    for part in hybrid.assignments:
        if part.role == ROLE_DROPPED:
            continue
        com = instance.commodities[part.commodity]
        block = _NamedBlock(part.kind, part.commodity, com, part.graph, part.bfset)
        _named_block(model, block, bigm, paper_exact)
        for name in block.revenue:
            model.add_objective_term(com.demand, name)
    return model
