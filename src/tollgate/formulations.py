"""Single-level MILP builders for the toll pricing problem.

A formulation kind picks one primal representation (arc flows or path
choice), one dual representation (node potentials or a path bound), one
optimality coupling (strong duality or complementary slackness), and one
revenue linearization (direct per-arc variables or a substituted total).
Twelve combinations are valid; :data:`FORMULATIONS` lists them all.

Models are assembled per commodity.  Each commodity block owns its flow,
potential, and revenue variables; only the toll variables ``T[a]`` are
shared across blocks.  Blocks can be built on a reduced graph, in which
case every name still refers to reduced arc ids except ``T`` and ``t``,
which are keyed by the original tolled arc so that reduced and unreduced
blocks price the same tolls.

Each commodity block gathers its rows in a :class:`RowBlock`, which the
model adds in one :meth:`ModelIR.add_block` call.  What depends only on a
working graph is built once per graph and kept on it (``_GraphPattern``):
variable names and row tags as templates that take the commodity index,
the arc costs, and the flow balance and arc dual rows as
:class:`RowPattern` objects.  Their columns are slots: a potential, a
toll, a revenue or a route of the graph.  Their coefficients are
positions in a table that each stamp passes: ``(1, -1)`` for the balance
and arc dual rows, and the block's big-M or slackness constants for the
direct and arc slackness rows.  What reads a block's routes
(its direct and arc slackness rows, and its value tie's route costs)
comes from a ``_RoutePatterns``, made from the routes through each arc:
its flow, or the feasible paths through it.  A graph keeps the path ones
for the last paths read.  A ``_Block`` declares one commodity's variables
and maps the slots to its model columns; the emitters stamp each pattern
through that table and patch only what depends on the commodity: the
balance right-hand sides at origin and destination, the potentials in
the value tie, the big-M values and the demand.  An arc slackness block's
coefficients and right-hand sides depend on the big-M constants and the
commodity, and are kept per graph and commodity for the last constants
read (:func:`_slack_constants`).  Every fallback block of a hybrid model
and every block of an unreduced build shares the original graph's
patterns, and every kind built from one hybrid plan shares the plan's.
The model checks a pattern once, when it is made, and each stamp of it
only where copies differ (see :mod:`tollgate.model_ir`).  Rows over
feasible paths are gathered by column id one path at a time and get every
check term by term, and every path slackness row comes from
:func:`_path_slack`.  One emitter per modelling choice writes rows:
primal, dual, direct, slackness, and the value tie of route cost plus
revenue against the dual objective.  Cut-loop blocks stay on the
:class:`HybridModel`.
Each commodity's modelling decision is one :class:`CommodityAssignment`:
role, kind, working graph and feasible set.  Both builders,
:func:`build_single` and :func:`assemble_hybrid`, only make the assignments
and pass them to one assembly loop.  A hybrid model's roles and working
graphs do not depend on the kinds that fill them, so :func:`plan_hybrid`
makes the assignments once, without kinds, and sweeps share them across
kinds.

By default every complementary-slackness block with direct linearization
(CS1, VFCS1, PACS1, PCS1) also carries the strong-duality row as a valid
inequality, ``vi-sd-{suffix}[k]``: route cost plus revenue is at most the
dual objective.  Complementary slackness implies strong duality, so every
bilevel-feasible point meets it with equality; without it those kinds
bound revenue only through their big-M rows, and their LP relaxation sits
far above the optimum.  ``paper_exact=True`` leaves the row out and builds
the paper's own form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

from .bigm import BigMParams, BuildError
from .enumeration import BilevelFeasibleSet, EnumerationResult
from .model_ir import Coef, ModelIR, RowBlock, RowPattern
from .network import Arc, ArcId, Commodity, Network, Node, Path, ProblemInstance
from .preprocess import ReducedGraph, path_based_reduce, spgm_transform

ARC = "arc"
PATH = "path"
STRONG_DUALITY = "strong-duality"
COMPL_SLACK = "compl-slack"
DIRECT = "direct"
SUBSTITUTION = "substitution"

ROLE_DROPPED = "dropped"
ROLE_MAIN = "main"
ROLE_FALLBACK = "fallback"


@dataclass(frozen=True)
class FormulationKind:
    label: str
    primal_rep: str
    dual_rep: str
    opt_cond: str
    linearization: str

    def __post_init__(self) -> None:
        if self.primal_rep not in (ARC, PATH) or self.dual_rep not in (ARC, PATH):
            raise BuildError(f"{self.label}: representations must be arc or path")
        if self.opt_cond not in (STRONG_DUALITY, COMPL_SLACK):
            raise BuildError(f"{self.label}: unknown optimality coupling {self.opt_cond}")
        if self.linearization not in (DIRECT, SUBSTITUTION):
            raise BuildError(f"{self.label}: unknown linearization {self.linearization}")
        if self.opt_cond == STRONG_DUALITY and self.linearization != DIRECT:
            raise BuildError(f"{self.label}: strong duality pairs only with direct linearization")

    @property
    def is_arc_arc(self) -> bool:
        return self.primal_rep == ARC and self.dual_rep == ARC

    @property
    def needs_paths(self) -> bool:
        return PATH in (self.primal_rep, self.dual_rep)

    @property
    def needs_cut_loop(self) -> bool:
        """True for the kinds whose dual-path rows do not cover arc flows.

        With arc flows on the primal side and a path bound on the dual side,
        the follower can route over a path that has no slackness row, so the
        model is only correct when driven by the feasibility cut loop.
        """
        return (
            self.primal_rep == ARC
            and self.dual_rep == PATH
            and self.opt_cond == COMPL_SLACK
        )

    def __str__(self) -> str:
        return self.label


FORMULATIONS: tuple[FormulationKind, ...] = (
    FormulationKind("STD", ARC, ARC, STRONG_DUALITY, DIRECT),
    FormulationKind("VF", ARC, PATH, STRONG_DUALITY, DIRECT),
    FormulationKind("PASTD", PATH, ARC, STRONG_DUALITY, DIRECT),
    FormulationKind("PVF", PATH, PATH, STRONG_DUALITY, DIRECT),
    FormulationKind("CS1", ARC, ARC, COMPL_SLACK, DIRECT),
    FormulationKind("CS2", ARC, ARC, COMPL_SLACK, SUBSTITUTION),
    FormulationKind("VFCS1", ARC, PATH, COMPL_SLACK, DIRECT),
    FormulationKind("VFCS2", ARC, PATH, COMPL_SLACK, SUBSTITUTION),
    FormulationKind("PACS1", PATH, ARC, COMPL_SLACK, DIRECT),
    FormulationKind("PACS2", PATH, ARC, COMPL_SLACK, SUBSTITUTION),
    FormulationKind("PCS1", PATH, PATH, COMPL_SLACK, DIRECT),
    FormulationKind("PCS2", PATH, PATH, COMPL_SLACK, SUBSTITUTION),
)

_BY_LABEL = {kind.label: kind for kind in FORMULATIONS}

KindLike = Union[str, FormulationKind]


def get_kind(label: KindLike) -> FormulationKind:
    if isinstance(label, FormulationKind):
        return label
    try:
        return _BY_LABEL[label.upper()]
    except KeyError:
        known = ", ".join(k.label for k in FORMULATIONS)
        raise BuildError(f"unknown formulation {label!r}; choose one of {known}") from None


# -- variable names ----------------------------------------------------------
#
# T and t are keyed by original tolled arc id; everything else lives in the
# commodity's working graph.

def var_T(arc: ArcId) -> str:
    return f"T[{arc}]"


def var_x(k: int, arc: ArcId) -> str:
    return f"x[{k},{arc}]"


def var_y(k: int, arc: ArcId) -> str:
    return f"y[{k},{arc}]"


def var_z(k: int, pos: int) -> str:
    return f"z[{k},{pos}]"


def var_t(k: int, arc: ArcId) -> str:
    return f"t[{k},{arc}]"


def var_tau(k: int) -> str:
    return f"tau[{k}]"


def var_lambda(k: int, node: int) -> str:
    return f"lambda[{k},{node}]"


def var_L(k: int) -> str:
    return f"L[{k}]"


def declare_tolls(model: ModelIR, network: Network, bigm: BigMParams) -> None:
    """Declare one shared ``T[a]`` per original tolled arc, bounded by N."""
    model.add_variables([var_T(aid) for aid in network.tolled_ids], 0, bigm.toll_cap)


def _flow_name(k: int, arc: Arc) -> str:
    return var_x(k, arc.index) if arc.tolled else var_y(k, arc.index)


def _reduced_endpoint(graph: ReducedGraph, node: int, k: int, which: str) -> int:
    try:
        return graph.reduced_node(node)
    except KeyError:
        raise BuildError(
            f"commodity {k}: {which} node {node} is absent from the working graph"
        ) from None


# -- per-graph row patterns --------------------------------------------------

#: Stands for the commodity index in a name or tag template.
_K = "\0"


#: Every template part made so far, once each, kept for the process.
_PARTS: dict[str, str] = {}


def _template(name: str) -> tuple[str, str]:
    """``name`` split around its ``_K``: ``str(k).join`` of it names commodity ``k``'s.

    The templates of every graph share their parts through ``_PARTS``.
    ``sys.intern`` would share them too, but the path kinds build some
    patterns per feasible path set and drop them with it, so its table of
    interned strings would fill with deleted entries and grow when it is
    rebuilt (gate25 grew by 0.5-0.9 MB of memory at its eighth to tenth
    pass).  The parts are bounded by the row families times the largest
    graph.
    """
    before, after = name.split(_K)
    return _PARTS.setdefault(before, before), _PARTS.setdefault(after, after)


# Positions in the coefficient tables: (1, -1) of the balance and arc dual
# rows, (1, -1, -M_k, N) of the direct rows, and (1, -1, -r_0, -r_1, ...)
# of the slackness rows.
_ONE, _MINUS_ONE, _NEG_M, _CAP = range(4)
_UNIT = (1, -1)


def _direct_rows(
    net: Network, side: str, users: Sequence[Sequence[int]], toll_slot: Mapping[ArcId, int],
    revenue: int, two_sided: bool,
) -> RowPattern:
    """Tie each per-arc revenue ``t`` to ``T`` times the arc's usage.

    Per tolled arc: ``t - M_k·use <= 0`` and ``T - t + N·use <= N``, then,
    two-sided, ``t - T <= 0``.  ``users[a]`` holds the slots of the routes
    through working arc ``a``, ``toll_slot`` the slot of each tolled arc's
    ``T``, and the ``t`` of the ``j``-th tolled arc is slot ``revenue + j``.
    """
    rows = []
    for j, rid in enumerate(net.tolled_ids):
        t, toll, use = revenue + j, toll_slot[rid], users[rid]
        rows += [
            (_template(f"direct{side}1[{_K},{rid}]"), [t, *use], [_ONE, *[_NEG_M] * len(use)]),
            (
                _template(f"direct{side}2[{_K},{rid}]"),
                [toll, t, *use], [_ONE, _MINUS_ONE, *[_CAP] * len(use)],
            ),
        ]
        if two_sided:
            rows.append((_template(f"direct{side}2lo[{_K},{rid}]"), [t, toll], [_ONE, _MINUS_ONE]))
    return RowPattern(rows)


def _arc_dual(arc: Arc, toll_slot: Mapping[ArcId, int]) -> tuple[list[int], list[int]]:
    """The slots and coefficient positions of the potential drop along ``arc`` less its toll."""
    if arc.tolled:
        return [arc.tail, arc.head, toll_slot[arc.index]], [_ONE, _MINUS_ONE, _MINUS_ONE]
    return [arc.tail, arc.head], [_ONE, _MINUS_ONE]


def _slack_rows(
    net: Network, suffix: str, users: Sequence[Sequence[int]], toll_slot: Mapping[ArcId, int]
) -> RowPattern:
    """Force the dual row of every used working arc to be tight.

    Per arc ``a``: ``lambda[tail] - lambda[head] - T - r_a·use >= cost -
    r_a``, with ``users`` and ``toll_slot`` as in :func:`_direct_rows`.
    Coefficients are positions in the table ``(1, -1, -r_0, -r_1, ...)``.
    """
    rows = []
    for arc in net.arcs:
        use = users[arc.index]
        slots, positions = _arc_dual(arc, toll_slot)
        rows.append((
            _template(f"lin-cs-{suffix}{1 if arc.tolled else 2}[{_K},{arc.index}]"),
            slots + use, positions + [2 + arc.index] * len(use),
        ))
    return RowPattern(rows)


class _GraphPattern:
    """What every block on one working graph shares, whatever its commodity.

    Patterns name columns by slot: the potential of node ``i`` is slot
    ``i``, the ``T`` and the revenue ``t`` of the ``j``-th tolled arc are
    slots ``tolls + j`` and ``revenue + j``, the flow on arc ``a`` is slot
    ``flows + a``, and the ``z`` of feasible path ``p`` is slot ``paths +
    p``.  A block maps slots to its model columns (``_Block.table``).
    Names and tags are templates (see :func:`_template`).

    Holds the names, the arc costs, the flow balance and arc dual rows, and
    the route patterns of arc-flow blocks (``by_flows``) and of the path
    blocks over the last feasible paths read (``for_paths``).
    """

    def __init__(self, graph: ReducedGraph) -> None:
        # Keep the network, not the graph: the graph holds this object, and a
        # reference back would leave the pair to the cyclic collector.
        self.network = net = graph.network
        tolled = net.tolled_ids
        self.originals = [graph.original_tolled_id(rid) for rid in tolled]
        self.toll_names = [var_T(a) for a in self.originals]
        self.tolls = net.num_nodes
        self.revenue = self.tolls + len(tolled)
        self.flows = self.revenue + len(tolled)
        self.paths = self.flows + net.num_arcs
        self.toll_slot = {rid: self.tolls + j for j, rid in enumerate(tolled)}
        # Per commodity: the big-M constants and the arc slackness constants
        # made from them (see _slack_constants).
        self.slack_constants: dict[int, tuple[BigMParams, list, list]] = {}
        # The last feasible paths a path block read here, and their patterns.
        self.path_routes: Optional[tuple[tuple[Path, ...], _RoutePatterns]] = None

    def for_paths(self, paths: tuple[Path, ...]) -> _RoutePatterns:
        """The route patterns of the path blocks over ``paths``, kept until other paths come.

        On a plan's graphs every block reads the same paths, whatever its
        kind.  Threads that build them at once can at worst build them twice.
        """
        held = self.path_routes
        if held is None or held[0] is not paths:
            users: list[list[int]] = [[] for _ in self.network.arcs]
            for pos, path in enumerate(paths):
                for rid in path.arcs:
                    users[rid].append(self.paths + pos)
            routes = _RoutePatterns(self, "p", users, [path.cost for path in paths])
            held = self.path_routes = (paths, routes)
        return held[1]

    # The rest is built on first use: a path block reads none of it.

    @cached_property
    def by_flows(self) -> _RoutePatterns:
        """The route patterns of arc-flow blocks, whose only route through an arc is its flow."""
        users = [[self.flows + arc.index] for arc in self.network.arcs]
        return _RoutePatterns(self, "a", users, self.costs)

    @cached_property
    def revenue_names(self) -> list[tuple[str, str]]:
        return [_template(var_t(_K, a)) for a in self.originals]  # type: ignore[arg-type]

    @cached_property
    def flow_names(self) -> list[tuple[str, str]]:
        return [_template(_flow_name(_K, arc)) for arc in self.network.arcs]  # type: ignore[arg-type]

    @cached_property
    def potential_names(self) -> list[tuple[str, str]]:
        nodes = range(self.network.num_nodes)
        return [_template(var_lambda(_K, node)) for node in nodes]  # type: ignore[arg-type]

    @cached_property
    def tolled(self) -> list[bool]:
        return [arc.tolled for arc in self.network.arcs]

    @cached_property
    def costs(self) -> list[Fraction]:
        return [arc.cost for arc in self.network.arcs]

    @cached_property
    def balance(self) -> tuple[RowPattern, dict[Node, int]]:
        """Flow balance rows, out minus in, and each node's row position.

        Only nodes that an arc touches have a row.  Coefficients are
        positions in ``_UNIT``.
        """
        net, flows = self.network, self.flows
        rows = []
        position: dict[Node, int] = {}
        for node in range(net.num_nodes):
            out, into = net.out_adj[node], net.in_adj[node]
            if out or into:
                position[node] = len(rows)
                rows.append((
                    _template(f"pa[{_K},{node}]"),
                    [flows + aid for _, aid in out] + [flows + aid for _, aid in into],
                    [_ONE] * len(out) + [_MINUS_ONE] * len(into),
                ))
        return RowPattern(rows), position

    @cached_property
    def arc_dual(self) -> RowPattern:
        """Per arc: the potential drop along it less its toll, at most its cost.

        Coefficients are positions in ``_UNIT``.
        """
        return RowPattern([
            (_template(f"da{1 if arc.tolled else 2}[{_K},{arc.index}]"),
             *_arc_dual(arc, self.toll_slot))
            for arc in self.network.arcs
        ])


class _RoutePatterns:
    """The rows of one primal representation on one graph that read its routes.

    ``users[a]`` holds the slots of the routes through working arc ``a``:
    its flow under the arc primal, the ``z`` of every feasible path through
    it under the path primal.  ``costs`` holds each route's cost, in slot
    order, and ``side`` is the primal's letter in the tags, ``a`` or ``p``.
    The direct rows, one- and two-sided, and the slackness rows under the
    arc dual are made from them on first use.  It keeps what it reads of
    its graph's :class:`_GraphPattern`, not that object, which holds it: a
    reference back would leave the pair to the cyclic collector.
    """

    def __init__(self, pattern: _GraphPattern, side: str, users: list, costs: list) -> None:
        self.network = pattern.network
        self.toll_slot = pattern.toll_slot
        self.revenue = pattern.revenue
        self.side = side
        self.users = users
        self.costs = costs
        self._direct: dict[bool, RowPattern] = {}

    def direct(self, two_sided: bool) -> RowPattern:
        """The direct rows, one-sided or two-sided."""
        rows = self._direct.get(two_sided)
        if rows is None:
            rows = self._direct[two_sided] = _direct_rows(
                self.network, self.side, self.users, self.toll_slot, self.revenue, two_sided
            )
        return rows

    @cached_property
    def slack(self) -> RowPattern:
        """The slackness rows under the arc dual."""
        return _slack_rows(self.network, self.side + "a", self.users, self.toll_slot)


def _graph_pattern(graph: ReducedGraph) -> _GraphPattern:
    """``graph``'s row patterns, built on first use and kept on the graph.

    Every block on ``graph`` shares them: the fallback blocks of a hybrid
    model, and the blocks of every kind built from one hybrid plan.  They
    live as long as the graph.  Building them is a pure function of the
    graph, so threads that build them at once can at worst build them twice.
    """
    pattern = graph._derived.get("block patterns")
    if pattern is None:
        pattern = graph._derived["block patterns"] = _GraphPattern(graph)
    return pattern


def _path_bound(bound: int, path: Path, tolls: Mapping[ArcId, int]) -> tuple[list[int], list[int]]:
    """Columns and coefficients of ``L[k]`` (column ``bound``) less the tolls on ``path``."""
    cols = [bound] + [tolls[rid] for rid in sorted(path.tolled_set)]
    return cols, [1] + [-1] * len(path.tolled_set)


def _path_slack(
    rows: RowBlock,
    tag: str,
    path: Path,
    s_val: Fraction,
    bound: int,
    tolls: Mapping[ArcId, int],
    uses: list[int],
) -> None:
    """Add ``path``'s slackness row to ``rows``.

    The row, ``L[k] - sum T[a] over path's tolled arcs - s * sum uses >=
    cost - s * len(uses)``, binds when every column of ``uses`` is 1; each
    that is 0 relaxes it by ``s``.  ``uses`` is ``[z_p]`` in a path block
    and the flows on the path's arcs in a flow block and in a cut.
    ``bound`` is the column of ``L[k]`` and ``tolls`` maps working tolled
    arc ids to ``T`` columns.  Every path slackness row comes from here.
    """
    cols, coefs = _path_bound(bound, path, tolls)
    if s_val:  # else the use terms drop out
        cols += uses
        coefs += [-s_val] * len(uses)
    rows.add(tag, cols, coefs, ">=", path.cost - s_val * len(uses))


# -- one commodity block -----------------------------------------------------

class _Block:
    """Commodity ``k``'s block: its variables, its graph's patterns, its columns.

    Making one declares the block's variables, in this order: ``routes`` (a
    flow per working arc, by arc id, or a binary ``z`` per feasible path),
    ``duals`` (a free potential per node under the arc dual, else a free
    ``L``) and ``revenue`` (a ``t`` per tolled arc under direct
    linearization, else ``tau``).  Those attributes hold their model
    columns, ``revenue_names`` the revenue names, and ``tolls`` the shared
    ``T`` column of each tolled working arc.  ``table`` maps the patterns'
    slots to model columns; the slots of variables the kind lacks map to
    -1, which no row may use.  ``by_routes`` holds the route patterns of
    its primal: its graph's flows, or its feasible paths.  ``rows`` gathers
    the block's rows until one ``add_block`` call puts them in the model.
    """

    def __init__(self, model: ModelIR, part: CommodityAssignment, com: Commodity) -> None:
        self.kind = kind = part.kind
        self.k = k = part.commodity
        self.key = key = str(k)
        self.graph = graph = part.graph
        net = graph.network
        bfset = part.bfset
        self.suffix = kind.primal_rep[0] + kind.dual_rep[0]  # "aa", "ap", "pa", "pp"
        self.paths: tuple[Path, ...] = ()
        if kind.needs_paths:
            if bfset is None:
                raise BuildError(f"commodity {k}: kind {kind} needs a bilevel feasible set")
            if not bfset.exhaustive:
                raise BuildError(
                    f"commodity {k}: kind {kind} needs an exhaustive feasible set; "
                    "raise the enumeration cap"
                )
            if not bfset.paths:
                raise BuildError(f"commodity {k}: the feasible set is empty")
            self.paths = bfset.paths
        self.origin = _reduced_endpoint(graph, com.origin, k, "origin")
        self.dest = _reduced_endpoint(graph, com.destination, k, "destination")
        self.pattern = pattern = _graph_pattern(graph)
        tolls = list(map(model.column.__getitem__, pattern.toll_names))
        self.tolls = dict(zip(net.tolled_ids, tolls))
        arc_primal = kind.primal_rep == ARC
        arc_dual = kind.dual_rep == ARC
        direct = kind.linearization == DIRECT
        if arc_primal:
            binary = True if kind.opt_cond == COMPL_SLACK else pattern.tolled
            routes = list(map(key.join, pattern.flow_names))
        else:
            binary = True
            routes = [var_z(k, pos) for pos in range(len(self.paths))]
        duals = list(map(key.join, pattern.potential_names)) if arc_dual else [var_L(k)]
        self.revenue_names = (
            list(map(key.join, pattern.revenue_names)) if direct else [var_tau(k)]
        )
        self.routes = model.add_variables(routes, 0, 1, binary)
        self.duals = model.add_variables(duals, None, None)
        self.revenue = model.add_variables(self.revenue_names, 0, None)
        absent = [-1]
        self.table = [
            *(self.duals if arc_dual else absent * net.num_nodes),
            *tolls,
            *(self.revenue if direct else absent * len(tolls)),
            *(self.routes if arc_primal else absent * net.num_arcs),
            *(() if arc_primal else self.routes),
        ]
        self.rows = RowBlock()
        self.by_routes = pattern.by_flows if arc_primal else pattern.for_paths(self.paths)

    def stamp(self, family: RowPattern, table: Sequence[Coef], sense: str, rhs: list) -> None:
        """Add ``family``'s rows for this commodity, with coefficients from ``table``.

        ``rhs`` holds the right-hand sides (see :meth:`RowBlock.stamp`).
        """
        self.rows.stamp(family, self.key, self.table, sense, rhs, table)


def _emit_primal(b: _Block) -> None:
    """Add the block's routing rows.

    Arc representation: a flow balance row per non-isolated node over the
    flow variables (binary ``x`` on tolled arcs, ``y`` on toll-free arcs,
    binary only under complementary slackness).  Path representation: a
    single convexity row over the binary ``z`` of the feasible paths.
    """
    k = b.k
    if b.kind.primal_rep == PATH:
        count = len(b.routes)
        b.rows.add(f"pp[{k}]", b.routes, [1] * count, "=", 1)
        return
    balance, position = b.pattern.balance
    rhs = [0] * len(balance.tags)
    for node, value in sorted([(b.origin, 1), (b.dest, -1)]):
        at = position.get(node)
        if at is None:
            raise BuildError(f"commodity {k}: node {node} is isolated but must carry flow")
        rhs[at] = value
    b.stamp(balance, _UNIT, "=", rhs)


def _emit_dual(b: _Block) -> None:
    """Add the block's dual feasibility rows.

    Arc representation: one row per working arc bounding the drop of the
    free potentials ``lambda[k,i]`` by the arc's tolled cost.  Path
    representation: one row per feasible path bounding the free ``L[k]``.
    """
    if b.kind.dual_rep == ARC:
        b.stamp(b.pattern.arc_dual, _UNIT, "<=", b.pattern.costs)
        return
    for pos, path in enumerate(b.paths):
        cols, coefs = _path_bound(b.duals[0], path, b.tolls)
        b.rows.add(f"dp[{b.k},{pos}]", cols, coefs, "<=", path.cost)


def _emit_value_tie(b: _Block, tag: str, sense: str = "=") -> None:
    """Route cost (tolls included, as revenue) against the dual objective."""
    cols = [*b.routes, *b.revenue]
    coefs = [*b.by_routes.costs, *[1] * len(b.revenue)]
    if b.kind.dual_rep == ARC:
        cols += [b.duals[b.origin], b.duals[b.dest]]
        coefs += [-1, 1]
    else:
        cols.append(b.duals[0])
        coefs.append(-1)
    b.rows.add(f"{tag}-{b.suffix}[{b.k}]", cols, coefs, sense, 0)


def _emit_direct_rows(b: _Block, bigm: BigMParams, two_sided: bool) -> None:
    """Tie each per-arc revenue ``t`` to ``T`` times the arc's usage.

    The upper pair (``t ≤ M·use``, ``T − t ≤ N·(1 − use)``) is always
    emitted.  The lower row ``t ≤ T`` is only needed under complementary
    slackness; with a strong duality equality in the model it is implied.
    """
    n_val = bigm.toll_cap
    # One -M object per block: the LP writer formats each coefficient object once.
    table = (1, -1, -bigm.m_value(b.k), n_val)
    rhs = [0, n_val, 0] if two_sided else [0, n_val]
    b.stamp(b.by_routes.direct(two_sided), table, "<=", rhs * len(b.tolls))


def _slack_constants(b: _Block, bigm: BigMParams) -> tuple[list[Coef], list[Coef]]:
    """The table ``(1, -1, -r_0, ...)`` and right-hand sides ``cost - r`` of ``b``'s slackness rows.

    They depend on ``bigm``, the commodity and the working graph, not on the
    kind, so they are kept on the graph's pattern per commodity, for the
    ``bigm`` they were made from: the kinds built from one preparation make
    them once.  Threads that make them at once can at worst make them twice.
    """
    held = b.pattern.slack_constants.get(b.k)
    if held is None or held[0] is not bigm:
        r_vals = bigm.arc_slack_bounds(b.k, b.graph)
        table = [1, -1, *[-r for r in r_vals]]
        rhs = [cost - r for cost, r in zip(b.pattern.costs, r_vals)]
        held = b.pattern.slack_constants[b.k] = (bigm, table, rhs)
    return held[1], held[2]


def _emit_cs_rows(b: _Block, bigm: BigMParams) -> None:
    """Force the dual row of every used arc or path to be tight."""
    k = b.k
    if b.kind.dual_rep == ARC:
        table, rhs = _slack_constants(b, bigm)
        b.stamp(b.by_routes.slack, table, ">=", rhs)
        return
    for pos, path in enumerate(b.paths):
        uses = [b.routes[pos]] if b.kind.primal_rep == PATH else [b.routes[r] for r in path.arcs]
        s_val = bigm.s_value(k, path, pos)
        tag = f"lin-cs-{b.suffix}[{k},{pos}]"
        _path_slack(b.rows, tag, path, s_val, b.duals[0], b.tolls, uses)


def _emit_block(
    model: ModelIR, part: CommodityAssignment, com: Commodity, bigm: BigMParams,
    paper_exact: bool,
) -> _Block:
    """Emit one commodity's full block plus its objective contribution.

    Strong duality kinds equate route cost (tolls included) with the dual
    objective and carry per-arc revenue variables.  Complementary slackness
    kinds instead force used rows tight, with revenue either per arc (direct)
    or as one substituted total ``tau[k]``.  Unless ``paper_exact``, direct
    revenue under slackness is also capped by the strong-duality inequality.
    Returns the block, without its row buffer once the model holds its rows.
    """
    b = _Block(model, part, com)
    kind = b.kind
    _emit_primal(b)
    _emit_dual(b)
    if kind.opt_cond == STRONG_DUALITY:
        _emit_value_tie(b, "lin-sd")
        _emit_direct_rows(b, bigm, two_sided=False)
    else:
        _emit_cs_rows(b, bigm)
        if kind.linearization == SUBSTITUTION:
            _emit_value_tie(b, "lin-subs-sd")
        else:
            _emit_direct_rows(b, bigm, two_sided=True)
            if not paper_exact:
                _emit_value_tie(b, "vi-sd", "<=")
    model.add_block(b.rows)
    del b.rows
    for name in b.revenue_names:
        model.add_objective_term(com.demand, name)
    return b


# -- whole-instance assembly -------------------------------------------------

@dataclass(frozen=True)
class CommodityAssignment:
    """How one commodity is modeled inside an assembled instance.

    :func:`plan_hybrid` makes one per commodity with ``kind`` None; the
    builders fill in the kind and keep the feasible set, in working arc
    ids, only where the kind reads paths.  A dropped commodity has no kind
    and no working graph, and gets no block.
    """

    commodity: int
    role: str
    kind: Optional[FormulationKind]
    graph: Optional[ReducedGraph]
    bfset: Optional[BilevelFeasibleSet]


@dataclass
class HybridModel:
    """An assembled model plus everything the cut loop needs to extend it.

    ``cut_blocks`` holds, in commodity order, the block of every commodity
    whose kind needs the cut loop: the loop reads their columns there.
    """

    ir: ModelIR
    instance: ProblemInstance
    bigm: BigMParams
    assignments: tuple[CommodityAssignment, ...]
    cut_blocks: tuple[_Block, ...]
    cut_paths: dict[int, set[tuple[ArcId, ...]]] = field(default_factory=dict)
    cut_cycles: dict[int, set[tuple[ArcId, ...]]] = field(default_factory=dict)

    @property
    def needs_cuts(self) -> bool:
        return bool(self.cut_blocks)


def _feasible_sets(
    instance: ProblemInstance,
    enum_results: Optional[Sequence[EnumerationResult]],
) -> list[Optional[BilevelFeasibleSet]]:
    if enum_results is None:
        return [None] * len(instance.commodities)
    if len(enum_results) != len(instance.commodities):
        raise BuildError(
            f"{len(enum_results)} enumeration results for "
            f"{len(instance.commodities)} commodities"
        )
    sets: list[Optional[BilevelFeasibleSet]] = []
    for k, result in enumerate(enum_results):
        if result.commodity != k:
            raise BuildError(f"enumeration result at position {k} is for commodity {result.commodity}")
        sets.append(result.feasible_set())
    return sets


def _check_cut_driver(kind: FormulationKind, allow_vfcs: bool) -> None:
    if kind.needs_cut_loop and not allow_vfcs:
        raise BuildError(
            f"kind {kind} is only exact under the feasibility cut loop; "
            "pass allow_vfcs=True and solve through solve_with_vfcs_cuts"
        )


def _assemble(
    instance: ProblemInstance,
    label: str,
    bigm: BigMParams,
    parts: Sequence[CommodityAssignment],
    paper_exact: bool,
) -> HybridModel:
    """Emit a block for every commodity with a kind into one model over shared tolls."""
    model = ModelIR(label)
    declare_tolls(model, instance.network, bigm)
    cut_blocks = []
    for part in parts:
        if part.kind is not None:
            com = instance.commodities[part.commodity]
            block = _emit_block(model, part, com, bigm, paper_exact)
            if part.kind.needs_cut_loop:
                cut_blocks.append(block)
    return HybridModel(model, instance, bigm, tuple(parts), tuple(cut_blocks))


def plan_hybrid(
    instance: ProblemInstance,
    breakpoint: Optional[int],
    enum_results: Sequence[EnumerationResult],
    map_paths: bool = True,
) -> tuple[CommodityAssignment, ...]:
    """Each commodity's assignment in a hybrid model, before any kind fills it.

    Commodities whose feasible set is a single path are dropped (they can
    never pay a toll, their block would be constant).  Commodities with an
    exhaustive feasible set of at most ``breakpoint`` paths are main: they
    work on their path-reduced graph, and with ``map_paths`` their feasible
    set is mapped into it.  Everything else falls back to the original
    graph.  ``breakpoint=None`` means no size limit.  Every assignment has
    ``kind`` None.
    """
    if breakpoint is not None and breakpoint < 1:
        raise BuildError(f"breakpoint must be at least 1, got {breakpoint}")
    plan = []
    # Every fallback commodity works on the unreduced graph.
    identity: Optional[ReducedGraph] = None
    for k, bfset in enumerate(_feasible_sets(instance, enum_results)):
        if bfset is None:
            raise BuildError(f"commodity {k}: hybrid assembly needs enumeration results")
        working = None
        if bfset.exhaustive and len(bfset) == 1:
            role, graph = ROLE_DROPPED, None
        elif bfset.exhaustive and (breakpoint is None or len(bfset) <= breakpoint):
            role, graph = ROLE_MAIN, path_based_reduce(instance.network, bfset)
            if map_paths:
                working = graph.map_feasible_set(bfset)
        else:
            if identity is None:
                identity = ReducedGraph.identity(instance.network)
            role, graph = ROLE_FALLBACK, identity
        plan.append(CommodityAssignment(k, role, None, graph, working))
    return tuple(plan)


def assemble_hybrid(
    instance: ProblemInstance,
    breakpoint: Optional[int],
    main_kind: KindLike,
    fallback_kind: KindLike,
    bigm: BigMParams,
    enum_results: Sequence[EnumerationResult],
    allow_vfcs: bool = False,
    paper_exact: bool = False,
    plan: Optional[Sequence[CommodityAssignment]] = None,
) -> HybridModel:
    """Assemble one model with a per-commodity formulation choice.

    Each commodity's role comes from :func:`plan_hybrid`: dropped
    commodities get no block, main ones get ``main_kind`` on their
    path-reduced graph, fallback ones ``fallback_kind`` on the original
    graph.  ``breakpoint=None`` means no size limit.  A ``plan`` that
    :func:`plan_hybrid` made from the same instance, breakpoint and
    enumeration results, with ``map_paths`` set, is used as given; the
    model is the same.  ``paper_exact`` builds the paper's form, without the
    strong-duality inequality in direct-linearization slackness blocks.
    """
    main = get_kind(main_kind)
    fallback = get_kind(fallback_kind)
    if not fallback.is_arc_arc:
        raise BuildError(
            f"fallback kind {fallback} uses path blocks; only arc-arc kinds "
            "can model a commodity without an exhaustive feasible set"
        )
    _check_cut_driver(main, allow_vfcs)
    if plan is None:
        plan = plan_hybrid(instance, breakpoint, enum_results, main.needs_paths)
    kinds = {ROLE_DROPPED: None, ROLE_MAIN: main, ROLE_FALLBACK: fallback}
    # Only main commodities have a feasible set in the plan.
    parts = [
        replace(part, kind=kinds[part.role], bfset=part.bfset if main.needs_paths else None)
        for part in plan
    ]
    name = f"{instance.label}:{main}/{fallback}:N={'inf' if breakpoint is None else breakpoint}"
    return _assemble(instance, name, bigm, parts, paper_exact)


def build_single(
    instance: ProblemInstance,
    kind: KindLike,
    bigm: BigMParams,
    enum_results: Optional[Sequence[EnumerationResult]] = None,
    preprocess: str = "paths",
    allow_vfcs: bool = False,
    paper_exact: bool = False,
) -> HybridModel:
    """Model every commodity with the same ``kind`` (no dropping).

    ``preprocess`` picks the working graph per commodity: ``"paths"`` keeps
    only arcs on feasible paths (needs enumeration results), ``"spgm"``
    applies the shortest-path graph reduction, ``"none"`` models the
    original graph.  Path-based kinds need enumeration results regardless.
    ``paper_exact`` is as in :func:`assemble_hybrid`.
    """
    kind = get_kind(kind)
    if preprocess not in ("paths", "spgm", "none"):
        raise BuildError(f"unknown preprocess mode {preprocess!r}")
    _check_cut_driver(kind, allow_vfcs)
    if preprocess == "spgm" and not kind.is_arc_arc:
        raise BuildError(
            "the shortest-path graph reduction can drop feasible paths, so "
            "only arc-arc kinds may be built on it"
        )
    parts = []
    sets = _feasible_sets(instance, enum_results)
    # Every commodity of an unreduced build works on one graph.
    identity = ReducedGraph.identity(instance.network) if preprocess == "none" else None
    for k, (com, bfset) in enumerate(zip(instance.commodities, sets)):
        if preprocess == "paths":
            if bfset is None:
                raise BuildError(
                    f"commodity {k}: path-based preprocessing needs enumeration results"
                )
            if not bfset.exhaustive:
                raise BuildError(
                    f"commodity {k}: path-based preprocessing needs an exhaustive "
                    "feasible set; raise the enumeration cap"
                )
            graph = path_based_reduce(instance.network, bfset)
        elif preprocess == "spgm":
            graph = spgm_transform(instance.network, com)
        else:
            graph = identity
        # Only kinds that read paths get the set mapped: a reduction that
        # drops non-shortest splices may not hold its paths.
        working = None
        if kind.needs_paths and bfset is not None:
            working = graph.map_feasible_set(bfset)
        parts.append(CommodityAssignment(k, ROLE_MAIN, kind, graph, working))
    return _assemble(instance, f"{instance.label}:{kind}:{preprocess}", bigm, parts, paper_exact)
