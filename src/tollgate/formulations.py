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
from .model_ir import ModelIR, _gc_paused
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
    """Declare one shared ``T[a]`` per original tolled arc, bounded by N_a."""
    for aid in network.tolled_ids:
        model.add_variable(var_T(aid), 0, bigm.N[aid])


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


def _require_path_set(
    bfset: Optional[BilevelFeasibleSet], k: int, where: str
) -> BilevelFeasibleSet:
    if bfset is None:
        raise BuildError(f"commodity {k}: {where} needs a bilevel feasible set")
    if not bfset.exhaustive:
        raise BuildError(
            f"commodity {k}: {where} needs an exhaustive feasible set; "
            "raise the enumeration cap"
        )
    if not bfset.paths:
        raise BuildError(f"commodity {k}: the feasible set is empty")
    return bfset


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


# -- block builders ----------------------------------------------------------

def _build_primal(
    model: ModelIR,
    rep: str,
    k: int,
    com: Commodity,
    graph: ReducedGraph,
    bfset: Optional[BilevelFeasibleSet] = None,
    binary_y: bool = False,
) -> None:
    """Add commodity ``k``'s routing variables and rows.

    Arc representation: one flow variable per working arc (binary ``x`` on
    tolled arcs, ``y`` on toll-free arcs, binary only when ``binary_y``) and
    a flow balance row per non-isolated node.  Path representation: one
    binary ``z`` per feasible path and a single convexity row.
    """
    net = graph.network
    if rep == PATH:
        bfset = _require_path_set(bfset, k, "the primal path block")
        terms = []
        for pos in range(len(bfset.paths)):
            model.add_variable(var_z(k, pos), 0, 1, binary=True)
            terms.append((1, var_z(k, pos)))
        model.add_constraint(f"pp[{k}]", terms, "=", 1)
        return
    if rep != ARC:
        raise BuildError(f"unknown primal representation {rep!r}")
    origin = _reduced_endpoint(graph, com.origin, k, "origin")
    dest = _reduced_endpoint(graph, com.destination, k, "destination")
    flows = _flow_names(k, net)
    for arc, name in zip(net.arcs, flows):
        model.add_variable(name, 0, 1, binary=arc.tolled or binary_y)
    for node in range(net.num_nodes):
        terms = [(1, flows[aid]) for _, aid in net.out_adj[node]]
        terms += [(-1, flows[aid]) for _, aid in net.in_adj[node]]
        rhs = 1 if node == origin else -1 if node == dest else 0
        if not terms:
            if rhs:
                raise BuildError(f"commodity {k}: node {node} is isolated but must carry flow")
            continue
        model.add_constraint(f"pa[{k},{node}]", terms, "=", rhs)


def _build_dual(
    model: ModelIR,
    rep: str,
    k: int,
    com: Commodity,
    graph: ReducedGraph,
    bfset: Optional[BilevelFeasibleSet] = None,
) -> None:
    """Add commodity ``k``'s dual feasibility rows.

    Arc representation: free potentials ``lambda[k,i]`` with one row per
    working arc bounding the potential drop by the arc's tolled cost.  Path
    representation: a free bound ``L[k]`` with one row per feasible path.
    """
    net = graph.network
    tolls = _toll_names(model, graph)
    if rep == ARC:
        potentials = [var_lambda(k, node) for node in range(net.num_nodes)]
        for name in potentials:
            model.add_variable(name, None, None)
        for arc in net.arcs:
            terms = [(1, potentials[arc.tail]), (-1, potentials[arc.head])]
            if arc.tolled:
                terms.append((-1, tolls[arc.index]))
                model.add_constraint(f"da1[{k},{arc.index}]", terms, "<=", arc.cost)
            else:
                model.add_constraint(f"da2[{k},{arc.index}]", terms, "<=", arc.cost)
        return
    if rep != PATH:
        raise BuildError(f"unknown dual representation {rep!r}")
    bfset = _require_path_set(bfset, k, "the dual path block")
    bound = model.add_variable(var_L(k), None, None)
    for pos, path in enumerate(bfset.paths):
        terms = [(1, bound)]
        terms += [(-1, tolls[rid]) for rid in sorted(path.tolled_set)]
        model.add_constraint(f"dp[{k},{pos}]", terms, "<=", path.cost)


def _base_cost_terms(
    kind: FormulationKind,
    graph: ReducedGraph,
    bfset: Optional[BilevelFeasibleSet],
    primal: Sequence[str],
) -> list[tuple[Fraction, str]]:
    """The chosen route's toll-free cost, in whichever primal variables exist."""
    if kind.primal_rep == ARC:
        return [(a.cost, name) for a, name in zip(graph.network.arcs, primal)]
    assert bfset is not None
    return [(p.cost, name) for p, name in zip(bfset.paths, primal)]


def _dual_objective_terms(
    kind: FormulationKind, k: int, com: Commodity, graph: ReducedGraph
) -> list[tuple[int, str]]:
    if kind.dual_rep == ARC:
        origin = _reduced_endpoint(graph, com.origin, k, "origin")
        dest = _reduced_endpoint(graph, com.destination, k, "destination")
        return [(-1, var_lambda(k, origin)), (1, var_lambda(k, dest))]
    return [(-1, var_L(k))]


def _coupling_suffix(kind: FormulationKind) -> str:
    return ("a" if kind.primal_rep == ARC else "p") + (
        "a" if kind.dual_rep == ARC else "p"
    )


def _emit_direct_rows(
    model: ModelIR,
    kind: FormulationKind,
    k: int,
    graph: ReducedGraph,
    bfset: Optional[BilevelFeasibleSet],
    bigm: BigMParams,
    tolls: Mapping[ArcId, str],
    primal: Sequence[str],
    two_sided: bool,
) -> None:
    """Tie each per-arc revenue ``t`` to ``T`` times the arc's usage.

    The upper pair (``t ≤ M·use``, ``T − t ≤ N·(1 − use)``) is always
    emitted.  The lower row ``t ≤ T`` is only needed under complementary
    slackness; with a strong duality equality in the model it is implied.
    """
    net = graph.network
    suffix = "a" if kind.primal_rep == ARC else "p"
    for rid in net.tolled_ids:
        orig = graph.original_tolled_id(rid)
        tname = var_t(k, orig)
        toll = tolls[rid]
        m_val = bigm.M[(k, orig)]
        n_val = bigm.N[orig]
        if kind.primal_rep == ARC:
            usage = [primal[rid]]
        else:
            assert bfset is not None
            usage = [name for p, name in zip(bfset.paths, primal) if rid in p.tolled_set]
        model.add_constraint(
            f"direct{suffix}1[{k},{rid}]",
            [(1, tname)] + [(-m_val, name) for name in usage],
            "<=",
            0,
        )
        model.add_constraint(
            f"direct{suffix}2[{k},{rid}]",
            [(1, toll), (-1, tname)] + [(n_val, name) for name in usage],
            "<=",
            n_val,
        )
        if two_sided:
            model.add_constraint(
                f"direct{suffix}2lo[{k},{rid}]", [(1, tname), (-1, toll)], "<=", 0
            )


def _emit_cs_rows(
    model: ModelIR,
    kind: FormulationKind,
    k: int,
    graph: ReducedGraph,
    bfset: Optional[BilevelFeasibleSet],
    bigm: BigMParams,
    tolls: Mapping[ArcId, str],
    primal: Sequence[str],
) -> None:
    """Force the dual row of every used arc or path to be tight."""
    net = graph.network
    if kind.dual_rep == ARC:
        potentials = [var_lambda(k, node) for node in range(net.num_nodes)]
        for arc in net.arcs:
            r_val = _r_bound(bigm, k, arc, graph)
            terms = [(1, potentials[arc.tail]), (-1, potentials[arc.head])]
            if arc.tolled:
                terms.append((-1, tolls[arc.index]))
            if kind.primal_rep == ARC:
                terms.append((-r_val, primal[arc.index]))
                tag = "lin-cs-aa1" if arc.tolled else "lin-cs-aa2"
            else:
                assert bfset is not None
                for p, name in zip(bfset.paths, primal):
                    used = (
                        arc.index in p.tolled_set if arc.tolled else arc.index in p.arcs
                    )
                    if used:
                        terms.append((-r_val, name))
                tag = "lin-cs-pa1" if arc.tolled else "lin-cs-pa2"
            model.add_constraint(
                f"{tag}[{k},{arc.index}]", terms, ">=", arc.cost - r_val
            )
        return
    bfset = _require_path_set(bfset, k, "the slackness block")
    bound = var_L(k)
    for pos, path in enumerate(bfset.paths):
        s_val = bigm.S.get((k, pos))
        if s_val is None:
            s_val = bigm.s_value(
                k, path.cost, [graph.original_tolled_id(r) for r in path.tolled_set]
            )
        if kind.primal_rep == PATH:
            terms: list[tuple[Union[int, Fraction], str]] = [(1, bound)]
            terms += [(-1, tolls[rid]) for rid in sorted(path.tolled_set)]
            terms.append((-s_val, primal[pos]))
            model.add_constraint(
                f"lin-cs-pp[{k},{pos}]", terms, ">=", path.cost - s_val
            )
        else:
            _emit_path_slack_on_flows(
                model, f"lin-cs-ap[{k},{pos}]", k, path, s_val, tolls, primal
            )


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
    terms: list[tuple[Union[int, Fraction], str]] = [(1, var_L(k))]
    terms += [(-1, tolls[rid]) for rid in sorted(path.tolled_set)]
    terms += [(-s_val, flows[rid]) for rid in path.arcs]
    model.add_constraint(tag, terms, ">=", path.cost - s_val * len(path.arcs))


def _build_coupling(
    model: ModelIR,
    kind: KindLike,
    k: int,
    com: Commodity,
    graph: ReducedGraph,
    bfset: Optional[BilevelFeasibleSet],
    bigm: BigMParams,
    paper_exact: bool = False,
) -> None:
    """Couple commodity ``k``'s primal and dual blocks and linearize revenue.

    Strong duality kinds equate route cost (tolls included) with the dual
    objective and carry per-arc revenue variables.  Complementary slackness
    kinds instead force used rows tight, with revenue either per arc (direct)
    or as one substituted total ``tau[k]``.  Unless ``paper_exact``, direct
    revenue under slackness is also capped by the strong-duality inequality.
    """
    kind = get_kind(kind)
    suffix = _coupling_suffix(kind)
    if kind.needs_paths:
        bfset = _require_path_set(bfset, k, f"kind {kind}")
    net = graph.network
    tolls = _toll_names(model, graph)
    # The primal variable names: flows by arc id, or z by feasible-set position.
    if kind.primal_rep == ARC:
        primal = _flow_names(k, net)
    else:
        assert bfset is not None
        primal = [var_z(k, pos) for pos in range(len(bfset.paths))]
    # Revenue: per-arc t under direct linearization, else one substituted tau.
    if kind.linearization == DIRECT:
        revenue = [var_t(k, graph.original_tolled_id(rid)) for rid in net.tolled_ids]
    else:
        revenue = [var_tau(k)]
    for name in revenue:
        model.add_variable(name, 0, None)

    def tie_value(tag: str, sense: str = "=") -> None:
        """Route cost plus revenue against the dual objective, ``=`` by default."""
        terms = _base_cost_terms(kind, graph, bfset, primal)
        terms += [(1, name) for name in revenue]
        terms += _dual_objective_terms(kind, k, com, graph)
        model.add_constraint(tag, terms, sense, 0)

    if kind.opt_cond == STRONG_DUALITY:
        tie_value(f"lin-sd-{suffix}[{k}]")
        _emit_direct_rows(
            model, kind, k, graph, bfset, bigm, tolls, primal, two_sided=False
        )
        return

    _emit_cs_rows(model, kind, k, graph, bfset, bigm, tolls, primal)
    if kind.linearization == DIRECT:
        _emit_direct_rows(
            model, kind, k, graph, bfset, bigm, tolls, primal, two_sided=True
        )
        if not paper_exact:
            tie_value(f"vi-sd-{suffix}[{k}]", "<=")
    else:
        tie_value(f"lin-subs-sd-{suffix}[{k}]")


def _emit_block(
    model: ModelIR,
    kind: KindLike,
    k: int,
    com: Commodity,
    graph: ReducedGraph,
    bfset: Optional[BilevelFeasibleSet],
    bigm: BigMParams,
    paper_exact: bool = False,
) -> None:
    """Emit one commodity's full block plus its objective contribution."""
    kind = get_kind(kind)
    if kind.needs_paths:
        bfset = _require_path_set(bfset, k, f"kind {kind}")
    _build_primal(
        model,
        kind.primal_rep,
        k,
        com,
        graph,
        bfset,
        binary_y=kind.opt_cond == COMPL_SLACK,
    )
    _build_dual(model, kind.dual_rep, k, com, graph, bfset)
    _build_coupling(model, kind, k, com, graph, bfset, bigm, paper_exact)
    if kind.linearization == DIRECT:
        for rid in graph.network.tolled_ids:
            model.add_objective_term(
                com.demand, var_t(k, graph.original_tolled_id(rid))
            )
    else:
        model.add_objective_term(com.demand, var_tau(k))


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

    def cut_count(self) -> int:
        added = sum(len(v) for v in self.cut_paths.values())
        return added + sum(len(v) for v in self.cut_cycles.values())


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


@_gc_paused()
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
) -> HybridModel:
    """Assemble one model with a per-commodity formulation choice.

    Commodities whose feasible set is a single path are dropped (they can
    never pay a toll, their block would be constant).  Commodities with an
    exhaustive feasible set of at most ``breakpoint`` paths get ``main_kind``
    on their path-reduced graph; everything else gets ``fallback_kind`` on
    the original graph.  ``breakpoint=None`` means no size limit.
    ``paper_exact`` builds the paper's form, without the strong-duality
    inequality in direct-linearization slackness blocks.

    The cyclic garbage collector is paused while the model is assembled and
    restored afterwards (see :mod:`tollgate.model_ir`).
    """
    main = get_kind(main_kind)
    fallback = get_kind(fallback_kind)
    if breakpoint is not None and breakpoint < 1:
        raise BuildError(f"breakpoint must be at least 1, got {breakpoint}")
    if not fallback.is_arc_arc:
        raise BuildError(
            f"fallback kind {fallback} uses path blocks; only arc-arc kinds "
            "can model a commodity without an exhaustive feasible set"
        )
    _check_cut_driver(main, allow_vfcs)
    _check_cut_driver(fallback, allow_vfcs)

    sets = _feasible_sets(instance, enum_results)
    name = label or (
        f"{instance.label}:{main}/{fallback}"
        f":N={'inf' if breakpoint is None else breakpoint}"
    )
    model = ModelIR(name)
    declare_tolls(model, instance.network, bigm)
    assignments: list[CommodityAssignment] = []
    # Every fallback commodity works on the unreduced graph.
    identity: Optional[ReducedGraph] = None
    for k, com in enumerate(instance.commodities):
        bfset = sets[k]
        if bfset is None:
            raise BuildError(f"commodity {k}: hybrid assembly needs enumeration results")
        small = breakpoint is None or len(bfset) <= breakpoint
        if bfset.exhaustive and len(bfset) == 1:
            assignments.append(
                CommodityAssignment(k, ROLE_DROPPED, None, None, None)
            )
            continue
        if bfset.exhaustive and small:
            graph = path_based_reduce(instance.network, bfset)
            working = graph.map_feasible_set(bfset)
            _emit_block(model, main, k, com, graph, working, bigm, paper_exact)
            assignments.append(
                CommodityAssignment(k, ROLE_MAIN, main, graph, working)
            )
            continue
        if identity is None:
            identity = ReducedGraph.identity(instance.network)
        _emit_block(model, fallback, k, com, identity, None, bigm, paper_exact)
        assignments.append(
            CommodityAssignment(k, ROLE_FALLBACK, fallback, identity, None)
        )
    return HybridModel(model, instance, bigm, breakpoint, tuple(assignments))


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
    sets = _feasible_sets(instance, enum_results)
    name = label or f"{instance.label}:{kind}:{preprocess}"
    model = ModelIR(name)
    declare_tolls(model, instance.network, bigm)
    assignments: list[CommodityAssignment] = []
    for k, com in enumerate(instance.commodities):
        bfset = sets[k]
        if preprocess == "paths":
            if bfset is None:
                raise BuildError(
                    f"commodity {k}: path-based preprocessing needs enumeration results"
                )
            graph = path_based_reduce(instance.network, bfset)
        elif preprocess == "spgm":
            graph = spgm_transform(instance.network, com)
        else:
            graph = ReducedGraph.identity(instance.network)
        working = graph.map_feasible_set(bfset) if bfset is not None else None
        if kind.needs_paths:
            _require_path_set(working, k, f"kind {kind}")
        _emit_block(model, kind, k, com, graph, working, bigm, paper_exact)
        assignments.append(CommodityAssignment(k, ROLE_MAIN, kind, graph, working))
    return HybridModel(model, instance, bigm, None, tuple(assignments))
