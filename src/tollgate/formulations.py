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

A block's names are worked out once, in a ``_Block`` record: the ``T`` of
each tolled working arc, the primal variables (flows or ``z``), the reduced
origin and destination, and the potentials.  One emitter per modelling
choice writes rows from it: primal, dual, direct, slackness, and the value
tie of route cost plus revenue against the dual objective.  Both builders,
:func:`build_single` and :func:`assemble_hybrid`, only plan each commodity
(role, kind, working graph, feasible set) and pass the plan to one assembly
loop.  A hybrid model's roles and working graphs do not depend on the kinds
that fill them, so :func:`plan_hybrid` makes them once and sweeps share them
across kinds.

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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .bigm import BigMParams
from .enumeration import BilevelFeasibleSet, EnumerationResult
from .model_ir import ModelIR
from .network import Arc, ArcId, Commodity, Network, Path, ProblemInstance
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


class BuildError(ValueError):
    """A model cannot be built from the pieces given."""


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


def _flow_names(k: int, net: Network) -> list[str]:
    """Commodity ``k``'s flow variable name for every arc, by arc id."""
    return [_flow_name(k, arc) for arc in net.arcs]


def _reduced_endpoint(graph: ReducedGraph, node: int, k: int, which: str) -> int:
    try:
        return graph.reduced_node(node)
    except KeyError:
        raise BuildError(
            f"commodity {k}: {which} node {node} is absent from the working graph"
        ) from None


def _toll_names(model: ModelIR, graph: ReducedGraph) -> dict[ArcId, str]:
    """The shared ``T`` variable of every tolled working arc, by working arc id."""
    names: dict[ArcId, str] = {}
    for rid in graph.network.tolled_ids:
        name = var_T(graph.original_tolled_id(rid))
        if not model.has_variable(name):
            raise BuildError(f"{name} is not declared; call declare_tolls first")
        names[rid] = name
    return names


def _r_bound(bigm: BigMParams, k: int, arc: Arc, graph: ReducedGraph) -> Fraction:
    tail = graph.node_origin[arc.tail]
    head = graph.node_origin[arc.head]
    try:
        return bigm.r_value(k, arc.cost, arc.tolled, tail, head)
    except KeyError:
        raise BuildError(
            f"commodity {k}: arc {tail}->{head} has no finite dual slack bound "
            "(an endpoint cannot reach the destination)"
        ) from None


# -- one commodity block -----------------------------------------------------

class _Block:
    """The names of commodity ``k``'s block in its working graph, worked out once.

    ``primal`` names the route variables: one flow per working arc, by arc
    id, or one ``z`` per feasible path.  ``routes`` holds the arcs or paths
    they stand for, in the same order.  ``potentials`` holds ``lambda`` by
    node under the arc dual and is empty under the path dual.  ``revenue``
    holds the per-arc ``t`` under direct linearization, else ``tau``.
    """

    def __init__(
        self, model: ModelIR, kind: FormulationKind, k: int, com: Commodity,
        graph: ReducedGraph, bfset: Optional[BilevelFeasibleSet],
    ) -> None:
        net = graph.network
        self.kind = kind
        self.k = k
        self.graph = graph
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
        self.tolls = _toll_names(model, graph)
        if kind.primal_rep == ARC:
            self.routes: Sequence[Union[Arc, Path]] = net.arcs
            self.primal = _flow_names(k, net)
        else:
            self.routes = self.paths
            self.primal = [var_z(k, pos) for pos in range(len(self.paths))]
        self.potentials: list[str] = []
        if kind.dual_rep == ARC:
            self.potentials = [var_lambda(k, node) for node in range(net.num_nodes)]
        if kind.linearization == DIRECT:
            self.revenue = [var_t(k, graph.original_tolled_id(rid)) for rid in net.tolled_ids]
        else:
            self.revenue = [var_tau(k)]

    def users(self, arc: Arc) -> list[str]:
        """The primal variables of the routes through working arc ``arc``."""
        if self.kind.primal_rep == ARC:
            return [self.primal[arc.index]]
        return [
            name
            for p, name in zip(self.paths, self.primal)
            if arc.index in (p.tolled_set if arc.tolled else p.arcs)
        ]

    def arc_dual_terms(self, arc: Arc) -> list[tuple[int, str]]:
        """The potential drop along ``arc`` less its toll."""
        terms = [(1, self.potentials[arc.tail]), (-1, self.potentials[arc.head])]
        if arc.tolled:
            terms.append((-1, self.tolls[arc.index]))
        return terms


def _path_bound_terms(
    k: int, path: Path, tolls: Mapping[ArcId, str]
) -> list[tuple[Union[int, Fraction], str]]:
    """``L[k]`` less the tolls on ``path``."""
    return [(1, var_L(k))] + [(-1, tolls[rid]) for rid in sorted(path.tolled_set)]


def _emit_primal(model: ModelIR, b: _Block) -> None:
    """Add the block's routing variables and rows.

    Arc representation: one flow variable per working arc (binary ``x`` on
    tolled arcs, ``y`` on toll-free arcs, binary only under complementary
    slackness) and a flow balance row per non-isolated node.  Path
    representation: one binary ``z`` per feasible path and a single
    convexity row.
    """
    if b.kind.primal_rep == PATH:
        model.add_variables(b.primal, 0, 1, binary=True)
        model.add_constraint(f"pp[{b.k}]", [(1, name) for name in b.primal], "=", 1)
        return
    net = b.graph.network
    if b.kind.opt_cond == COMPL_SLACK:
        model.add_variables(b.primal, 0, 1, binary=True)
    else:
        model.add_variables(b.primal, 0, 1, binary=[arc.tolled for arc in net.arcs])
    for node in range(net.num_nodes):
        terms = [(1, b.primal[aid]) for _, aid in net.out_adj[node]]
        terms += [(-1, b.primal[aid]) for _, aid in net.in_adj[node]]
        rhs = 1 if node == b.origin else -1 if node == b.dest else 0
        if not terms:
            if rhs:
                raise BuildError(f"commodity {b.k}: node {node} is isolated but must carry flow")
            continue
        model.add_constraint(f"pa[{b.k},{node}]", terms, "=", rhs)


def _emit_dual(model: ModelIR, b: _Block) -> None:
    """Add the block's dual feasibility rows.

    Arc representation: free potentials ``lambda[k,i]`` with one row per
    working arc bounding the potential drop by the arc's tolled cost.  Path
    representation: a free bound ``L[k]`` with one row per feasible path.
    """
    if b.kind.dual_rep == ARC:
        model.add_variables(b.potentials, None, None)
        for arc in b.graph.network.arcs:
            tag = f"da{1 if arc.tolled else 2}[{b.k},{arc.index}]"
            model.add_constraint(tag, b.arc_dual_terms(arc), "<=", arc.cost)
        return
    model.add_variable(var_L(b.k), None, None)
    for pos, path in enumerate(b.paths):
        terms = _path_bound_terms(b.k, path, b.tolls)
        model.add_constraint(f"dp[{b.k},{pos}]", terms, "<=", path.cost)


def _emit_value_tie(model: ModelIR, b: _Block, tag: str, sense: str = "=") -> None:
    """Route cost (tolls included, as revenue) against the dual objective."""
    terms = [(route.cost, name) for route, name in zip(b.routes, b.primal)]
    terms += [(1, name) for name in b.revenue]
    if b.kind.dual_rep == ARC:
        terms += [(-1, b.potentials[b.origin]), (1, b.potentials[b.dest])]
    else:
        terms.append((-1, var_L(b.k)))
    model.add_constraint(f"{tag}-{b.suffix}[{b.k}]", terms, sense, 0)


def _emit_direct_rows(model: ModelIR, b: _Block, bigm: BigMParams, two_sided: bool) -> None:
    """Tie each per-arc revenue ``t`` to ``T`` times the arc's usage.

    The upper pair (``t ≤ M·use``, ``T − t ≤ N·(1 − use)``) is always
    emitted.  The lower row ``t ≤ T`` is only needed under complementary
    slackness; with a strong duality equality in the model it is implied.
    """
    net = b.graph.network
    side = b.suffix[0]
    # One -M object per block: the LP writer formats each coefficient object once.
    neg_m = -bigm.m_value(b.k)
    n_val = bigm.toll_cap
    for rid, tname in zip(net.tolled_ids, b.revenue):
        toll = b.tolls[rid]
        usage = b.users(net.arcs[rid])
        upper = [(1, tname)] + [(neg_m, name) for name in usage]
        model.add_constraint(f"direct{side}1[{b.k},{rid}]", upper, "<=", 0)
        rest = [(1, toll), (-1, tname)] + [(n_val, name) for name in usage]
        model.add_constraint(f"direct{side}2[{b.k},{rid}]", rest, "<=", n_val)
        if two_sided:
            lower = [(1, tname), (-1, toll)]
            model.add_constraint(f"direct{side}2lo[{b.k},{rid}]", lower, "<=", 0)


def _emit_cs_rows(model: ModelIR, b: _Block, bigm: BigMParams) -> None:
    """Force the dual row of every used arc or path to be tight."""
    k = b.k
    if b.kind.dual_rep == ARC:
        for arc in b.graph.network.arcs:
            r_val = _r_bound(bigm, k, arc, b.graph)
            neg_r = -r_val
            terms = b.arc_dual_terms(arc) + [(neg_r, name) for name in b.users(arc)]
            tag = f"lin-cs-{b.suffix}{1 if arc.tolled else 2}"
            model.add_constraint(f"{tag}[{k},{arc.index}]", terms, ">=", arc.cost - r_val)
        return
    for pos, path in enumerate(b.paths):
        s_val = bigm.s_value(k, path, pos)
        tag = f"lin-cs-{b.suffix}[{k},{pos}]"
        if b.kind.primal_rep == PATH:
            terms = _path_bound_terms(k, path, b.tolls) + [(-s_val, b.primal[pos])]
            model.add_constraint(tag, terms, ">=", path.cost - s_val)
        else:
            _emit_path_slack_on_flows(model, tag, k, path, s_val, b.tolls, b.primal)


def _emit_path_slack_on_flows(
    model: ModelIR,
    tag: str,
    k: int,
    path: Path,
    s_val: Fraction,
    tolls: Mapping[ArcId, str],
    flows: Sequence[str],
) -> None:
    """Add ``path``'s slackness row over commodity ``k``'s arc flows.

    The row, ``L[k] - sum T[a] over path's tolled arcs - s * sum x over its
    arcs >= cost - s * len(path)``, binds when the flow lights every arc of
    the path; each unlit arc relaxes it by ``s``.  ``tolls`` maps working
    tolled arc ids to ``T`` names and ``flows`` names every working arc's
    flow by arc id.  Both the feasible-set rows and the cut loop's rows for
    uncovered paths come from here.
    """
    terms = _path_bound_terms(k, path, tolls)
    neg_s = -s_val
    terms += [(neg_s, flows[rid]) for rid in path.arcs]
    model.add_constraint(tag, terms, ">=", path.cost - s_val * len(path.arcs))


def _emit_block(
    model: ModelIR,
    kind: FormulationKind,
    k: int,
    com: Commodity,
    graph: ReducedGraph,
    bfset: Optional[BilevelFeasibleSet],
    bigm: BigMParams,
    paper_exact: bool = False,
) -> None:
    """Emit one commodity's full block plus its objective contribution.

    Strong duality kinds equate route cost (tolls included) with the dual
    objective and carry per-arc revenue variables.  Complementary slackness
    kinds instead force used rows tight, with revenue either per arc (direct)
    or as one substituted total ``tau[k]``.  Unless ``paper_exact``, direct
    revenue under slackness is also capped by the strong-duality inequality.
    """
    b = _Block(model, kind, k, com, graph, bfset)
    _emit_primal(model, b)
    _emit_dual(model, b)
    model.add_variables(b.revenue, 0, None)
    if kind.opt_cond == STRONG_DUALITY:
        _emit_value_tie(model, b, "lin-sd")
        _emit_direct_rows(model, b, bigm, two_sided=False)
    else:
        _emit_cs_rows(model, b, bigm)
        if kind.linearization == SUBSTITUTION:
            _emit_value_tie(model, b, "lin-subs-sd")
        else:
            _emit_direct_rows(model, b, bigm, two_sided=True)
            if not paper_exact:
                _emit_value_tie(model, b, "vi-sd", "<=")
    for name in b.revenue:
        model.add_objective_term(com.demand, name)


# -- whole-instance assembly -------------------------------------------------

@dataclass(frozen=True)
class CommodityAssignment:
    """How one commodity was modeled inside an assembled instance."""

    commodity: int
    role: str
    kind: Optional[FormulationKind]
    graph: Optional[ReducedGraph]
    bfset: Optional[BilevelFeasibleSet]


@dataclass
class HybridModel:
    """An assembled model plus everything the cut loop needs to extend it."""

    ir: ModelIR
    instance: ProblemInstance
    bigm: BigMParams
    breakpoint: Optional[int]
    assignments: tuple[CommodityAssignment, ...]
    cut_paths: dict[int, set[tuple[ArcId, ...]]] = field(default_factory=dict)
    cut_cycles: dict[int, set[tuple[ArcId, ...]]] = field(default_factory=dict)

    @property
    def needs_cuts(self) -> bool:
        return any(
            a.kind is not None and a.kind.needs_cut_loop for a in self.assignments
        )


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


_Plan = tuple[
    str, Optional[FormulationKind], Optional[ReducedGraph], Optional[BilevelFeasibleSet]
]


def _assemble(
    instance: ProblemInstance,
    label: str,
    bigm: BigMParams,
    breakpoint: Optional[int],
    plan: Sequence[_Plan],
    paper_exact: bool,
) -> HybridModel:
    """Emit every planned commodity block into one model over shared tolls.

    ``plan`` holds one ``(role, kind, working graph, feasible set in working
    arc ids)`` per commodity; a dropped commodity gets no block.  The
    feasible set is ``None`` unless the kind reads paths.
    """
    model = ModelIR(label)
    declare_tolls(model, instance.network, bigm)
    assignments = []
    for k, (role, kind, graph, working) in enumerate(plan):
        if role != ROLE_DROPPED:
            com = instance.commodities[k]
            _emit_block(model, kind, k, com, graph, working, bigm, paper_exact)
        assignments.append(CommodityAssignment(k, role, kind, graph, working))
    return HybridModel(model, instance, bigm, breakpoint, tuple(assignments))


#: Per commodity, ``(role, working graph, feasible set in working arc ids)``.
HybridPlan = tuple[
    tuple[str, Optional[ReducedGraph], Optional[BilevelFeasibleSet]], ...
]


def plan_hybrid(
    instance: ProblemInstance,
    breakpoint: Optional[int],
    enum_results: Sequence[EnumerationResult],
    map_paths: bool = True,
) -> HybridPlan:
    """Each commodity's role in a hybrid model, whatever kinds fill it.

    Commodities whose feasible set is a single path are dropped (they can
    never pay a toll, their block would be constant).  Commodities with an
    exhaustive feasible set of at most ``breakpoint`` paths are main: they
    work on their path-reduced graph, and with ``map_paths`` their feasible
    set is mapped into it.  Everything else falls back to the original
    graph.  ``breakpoint=None`` means no size limit.
    """
    if breakpoint is not None and breakpoint < 1:
        raise BuildError(f"breakpoint must be at least 1, got {breakpoint}")
    plan = []
    # Every fallback commodity works on the unreduced graph.
    identity: Optional[ReducedGraph] = None
    for k, bfset in enumerate(_feasible_sets(instance, enum_results)):
        if bfset is None:
            raise BuildError(f"commodity {k}: hybrid assembly needs enumeration results")
        if bfset.exhaustive and len(bfset) == 1:
            plan.append((ROLE_DROPPED, None, None))
        elif bfset.exhaustive and (breakpoint is None or len(bfset) <= breakpoint):
            graph = path_based_reduce(instance.network, bfset)
            working = graph.map_feasible_set(bfset) if map_paths else None
            plan.append((ROLE_MAIN, graph, working))
        else:
            if identity is None:
                identity = ReducedGraph.identity(instance.network)
            plan.append((ROLE_FALLBACK, identity, None))
    return tuple(plan)


def assemble_hybrid(
    instance: ProblemInstance,
    breakpoint: Optional[int],
    main_kind: KindLike,
    fallback_kind: KindLike,
    bigm: BigMParams,
    enum_results: Sequence[EnumerationResult],
    allow_vfcs: bool = False,
    label: Optional[str] = None,
    paper_exact: bool = False,
    plan: Optional[HybridPlan] = None,
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
    _check_cut_driver(fallback, allow_vfcs)
    if plan is None:
        plan = plan_hybrid(instance, breakpoint, enum_results, main.needs_paths)
    kinds = {ROLE_DROPPED: None, ROLE_MAIN: main, ROLE_FALLBACK: fallback}
    blocks: list[_Plan] = []
    for role, graph, working in plan:
        kind = kinds[role]
        reads_paths = kind is not None and kind.needs_paths
        blocks.append((role, kind, graph, working if reads_paths else None))
    name = label or (
        f"{instance.label}:{main}/{fallback}"
        f":N={'inf' if breakpoint is None else breakpoint}"
    )
    return _assemble(instance, name, bigm, breakpoint, blocks, paper_exact)


def build_single(
    instance: ProblemInstance,
    kind: KindLike,
    bigm: BigMParams,
    enum_results: Optional[Sequence[EnumerationResult]] = None,
    preprocess: str = "paths",
    allow_vfcs: bool = False,
    label: Optional[str] = None,
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
    plan: list[_Plan] = []
    sets = _feasible_sets(instance, enum_results)
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
            graph = ReducedGraph.identity(instance.network)
        # Only kinds that read paths get the set mapped: a reduction that
        # drops non-shortest splices may not hold its paths.
        working = None
        if kind.needs_paths and bfset is not None:
            working = graph.map_feasible_set(bfset)
        plan.append((ROLE_MAIN, kind, graph, working))
    name = label or f"{instance.label}:{kind}:{preprocess}"
    return _assemble(instance, name, bigm, None, plan, paper_exact)
