"""Big-M constants for the single-level reformulations.

All quantities derive from three exact shortest-path sweeps per destination
``d``, each pricing the tolled arcs differently:

* ``lam_lo[k][i]``  cheapest ``i -> d`` cost with every toll at zero,
* ``lam_hi[k][i]``  cheapest ``i -> d`` cost with every toll at its cap
  (tolled arcs stay usable at ``cost + N``; removing them instead could
  disconnect nodes and blow the bounds up to infinity),
* ``pi_cost[k]``    cheapest ``origin -> d`` cost with tolled arcs unusable.

From these:

* ``N``     toll cap, the same for every tolled arc: the largest surplus
  any commodity could ever be charged, ``max_k max(0, pi_cost - L_lo)``,
* ``M[k]``  per-commodity cap on collected toll, ``min(N, pi_cost - L_lo)``
  clamped at zero; since ``N`` is the largest such gap, this is the
  commodity's own gap,
* ``S[k, p]``  slack bound for path rows, ``base(p) + N * |tolled(p)| -
  L_lo``.

The sweeps depend on a commodity only through its destination, so each
runs once per destination and commodities that share a destination share
one row.  The zero-toll and toll-free rows are the network's cached ones
(:meth:`Network.zero_toll_row`, :meth:`Network.toll_free_row`), shared
with instance validation and path enumeration; only the capped row is
swept here, by :meth:`Network.sweep` on a price vector built from
``network.int_costs``.

Every constant is stored as an integer over ``network.scale``, and becomes a
``Fraction`` only where it leaves this module: through the accessors the
model builders call (:attr:`BigMParams.toll_cap`, :meth:`~BigMParams.m_value`,
:meth:`~BigMParams.arc_slack_bounds`, :meth:`~BigMParams.s_value`) and the
per-commodity ``L_lo`` and ``pi_cost``.

Values are computed once on the original network and looked up by original
node id, which keeps them valid on every reduced graph (the witness dual
vector for any optimal toll lives on the original network and transfers to
subgraphs).  A node that cannot reach the destination has None in the
distance rows.

The slack bound of a dual arc row, ``cost (+ N if tolled) - lam_lo[tail] +
lam_hi[head]``, is not stored: :meth:`BigMParams.arc_slack_bounds` evaluates
it for all of a working graph's arcs at once, from their original
endpoints, which also covers contracted arcs.  An endpoint that cannot
reach the destination leaves the bound infinite, and raises
:class:`BuildError` naming the arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .enumeration import BilevelFeasibleSet
from .network import Commodity, InstanceError, Network, Path, Row
from .preprocess import ReducedGraph


class BuildError(ValueError):
    """A model cannot be built from the pieces given."""


@dataclass(frozen=True)
class BigMParams:
    """Exact big-M constants as integers over ``scale``.

    ``lam_lo`` and ``lam_hi`` hold one distance row per commodity, indexed by
    original node id; commodities with one destination share the row object.
    ``S`` is keyed by ``(commodity, position in the feasible set)``;
    :meth:`s_value` also bounds paths outside the set (cut generation needs
    that).
    """

    scale: int
    N: int
    M: tuple[int, ...]
    S: Mapping[tuple[int, int], int]
    lam_lo: tuple[Row, ...]
    lam_hi: tuple[Row, ...]
    L_lo: tuple[Fraction, ...]
    pi_cost: tuple[Fraction, ...]

    @property
    def toll_cap(self) -> Fraction:
        """The upper bound N of every toll."""
        return Fraction(self.N, self.scale)

    def m_value(self, commodity: int) -> Fraction:
        """The most toll ``commodity`` can be charged on any one arc."""
        return Fraction(self.M[commodity], self.scale)

    def s_value(self, commodity: int, path: Path, position: Optional[int] = None) -> Fraction:
        """The path slack bound for a path of ``commodity``.

        ``position`` names the path's place in the commodity's feasible set,
        whose bound is stored; any other path is bounded from its base cost
        and its number of tolled arcs.
        """
        stored = self.S.get((commodity, position))
        if stored is not None:
            return Fraction(stored, self.scale)
        toll = Fraction(self.N * len(path.tolled_set), self.scale)
        return path.cost - self.L_lo[commodity] + toll

    def arc_slack_bounds(self, commodity: int, graph: ReducedGraph) -> list[Fraction]:
        """The dual slack bound of every arc of ``graph``, in arc order.

        Each bound is read at the arc's original endpoints, so a toll-free
        chain's slack is bounded by the same endpoint distances that bound
        a single arc.  Raises :class:`BuildError`, naming the first arc
        with an endpoint that cannot reach the commodity's destination (the
        bound would be infinite there).
        """
        lo, hi, cap, scale = self.lam_lo[commodity], self.lam_hi[commodity], self.N, self.scale
        origin = graph.node_origin
        arcs = graph.network.arcs
        ends = [(origin[arc.tail], origin[arc.head]) for arc in arcs]
        try:
            # cost + rise / scale, as one fraction.
            return [
                Fraction(
                    arc.cost.numerator * scale
                    + (hi[head] - lo[tail] + (cap if arc.tolled else 0)) * arc.cost.denominator,
                    arc.cost.denominator * scale,
                )
                for arc, (tail, head) in zip(arcs, ends)
            ]
        except TypeError:
            tail, head = next((t, h) for t, h in ends if lo[t] is None or hi[h] is None)
            raise BuildError(
                f"commodity {commodity}: arc {tail}->{head} has no finite dual slack bound "
                "(an endpoint cannot reach the destination)"
            ) from None


def compute_bigm(
    network: Network,
    commodities: Sequence[Commodity],
    bfsets: Optional[Mapping[int, BilevelFeasibleSet]] = None,
) -> BigMParams:
    """Compute all big-M families on the original network.

    ``bfsets`` is only needed for the path bounds ``S``; pass the feasible
    sets of whichever commodities will be modeled with path rows.
    """
    arcs, int_costs, scale = network.arcs, network.int_costs, network.scale
    destinations = dict.fromkeys(com.destination for com in commodities)
    lo = {d: network.zero_toll_row(d) for d in destinations}
    free = {d: network.toll_free_row(d) for d in destinations}
    lo_int: list[int] = []
    pi_int: list[int] = []
    for k, com in enumerate(commodities):
        pi = free[com.destination][com.origin]
        if pi is None:
            raise InstanceError(
                f"commodity {k} has no toll-free path; toll caps are undefined"
            )
        pi_int.append(pi)
        lo_int.append(lo[com.destination][com.origin])  # type: ignore[arg-type]

    gaps = tuple(max(0, p - l) for p, l in zip(pi_int, lo_int))
    cap = max(gaps, default=0)
    capped = [cost + cap if arc.tolled else cost for arc, cost in zip(arcs, int_costs)]
    hi = {d: network.sweep(d, capped) for d in destinations}

    S: dict[tuple[int, int], int] = {}
    for k, bfset in (bfsets or {}).items():
        for pos, path in enumerate(bfset.paths):
            base = sum(int_costs[a] for a in path.arcs)
            S[(k, pos)] = base + cap * len(path.tolled_set) - lo_int[k]

    return BigMParams(
        scale=scale,
        N=cap,
        M=gaps,
        S=S,
        lam_lo=tuple(lo[com.destination] for com in commodities),
        lam_hi=tuple(hi[com.destination] for com in commodities),
        L_lo=tuple(Fraction(v, scale) for v in lo_int),
        pi_cost=tuple(Fraction(v, scale) for v in pi_int),
    )
