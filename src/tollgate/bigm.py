"""Big-M constants for the single-level reformulations.

All quantities derive from three families of exact shortest-path values per
commodity ``k`` with destination ``d``:

* ``lam_lo[k, i]``  cheapest ``i -> d`` cost with every toll at zero,
* ``lam_hi[k, i]``  cheapest ``i -> d`` cost with every toll at its cap
  (tolled arcs stay usable at ``cost + N``; removing them instead could
  disconnect nodes and blow the bounds up to infinity),
* ``pi_cost[k]``    cheapest toll-free ``origin -> d`` cost.

From these:

* ``N[a]``     toll cap, the same for every tolled arc: the largest surplus
  any commodity could ever be charged, ``max_k max(0, pi_cost - L_lo)``,
* ``M[k, a]``  per-commodity cap on collected toll, ``min(N, pi_cost - L_lo)``
  clamped at zero,
* ``S[k, p]``  slack bound for path rows, ``base(p) + sum of N over p's tolled
  arcs - L_lo``.

The three families depend on a commodity only through its destination
(and ``pi_cost`` also through its origin), so each sweep runs once per
destination: ``lam_lo`` reuses the network's cached zero-regime distances,
which path enumeration already swept as its A* potential, and the
infinite-toll and capped-toll sweeps are shared by every commodity with the
same destination.

Values are computed once on the original network and looked up by original
arc id, which keeps them valid on every reduced graph (the witness dual
vector for any optimal toll lives on the original network and transfers to
subgraphs).  Entries whose supporting distance is infinite are simply absent;
builders raise when they need one, naming the arc.

The slack bound of a dual arc row, ``cost (+ N if tolled) - lam_lo[tail] +
lam_hi[head]``, is not stored: :meth:`BigMParams.r_value` evaluates it from
the arc's original endpoints, which also covers contracted arcs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .enumeration import BilevelFeasibleSet
from .network import ArcId, Commodity, InstanceError, Network, Node
from .shortest_path import NO_EXCLUSIONS, Prices, _distances, _regime_prices, zero_distances


@dataclass(frozen=True)
class BigMParams:
    """Exact big-M constants, keyed by original arc/node ids.

    ``S`` is keyed by ``(commodity, position in the feasible set)``; use
    :meth:`s_value` for paths outside the set (cut generation needs that).
    """

    N: Mapping[ArcId, Fraction]
    M: Mapping[tuple[int, ArcId], Fraction]
    S: Mapping[tuple[int, int], Fraction]
    lam_lo: Mapping[tuple[int, Node], Fraction]
    lam_hi: Mapping[tuple[int, Node], Fraction]
    L_lo: Mapping[int, Fraction]
    pi_cost: Mapping[int, Fraction]

    def s_value(
        self, commodity: int, base_cost: Fraction, tolled_original_ids: Iterable[ArcId]
    ) -> Fraction:
        """The path slack bound for an arbitrary path of this commodity."""
        total = base_cost - self.L_lo[commodity]
        for aid in tolled_original_ids:
            total += self.N[aid]
        return total

    @cached_property
    def _toll_cap(self) -> Fraction:
        """The largest toll cap, computed once (a :meth:`scaled` copy has its own)."""
        return max(self.N.values(), default=Fraction(0))

    def r_value(
        self,
        commodity: int,
        cost: Fraction,
        tolled: bool,
        orig_tail: Node,
        orig_head: Node,
    ) -> Fraction:
        """Dual slack bound for an arc given by its original endpoints.

        Works for contracted arcs too: a toll-free chain's slack is bounded by
        the same endpoint distances that bound a single arc.  Raises KeyError
        when an endpoint cannot reach the commodity's destination (the bound
        would be infinite there).
        """
        bound = cost - self.lam_lo[(commodity, orig_tail)] + self.lam_hi[(commodity, orig_head)]
        if tolled:
            bound += self._toll_cap
        return bound

    def scaled(self, factor: int) -> "BigMParams":
        """Every big-M multiplied by ``factor`` (validity stress testing)."""
        if factor < 1:
            raise ValueError("scale factor must be at least 1")
        f = Fraction(factor)
        return replace(
            self,
            N={k: v * f for k, v in self.N.items()},
            M={k: v * f for k, v in self.M.items()},
            S={k: v * f for k, v in self.S.items()},
        )


def compute_bigm(
    network: Network,
    commodities: Sequence[Commodity],
    bfsets: Optional[Mapping[int, BilevelFeasibleSet]] = None,
) -> BigMParams:
    """Compute all big-M families on the original network.

    ``bfsets`` is only needed for the path bounds ``S``; pass the feasible
    sets of whichever commodities will be modeled with path rows.

    Every value is computed on integers over ``network.scale`` and becomes a
    ``Fraction`` once per destination, when it is stored.  The toll cap is
    such a value, so the capped distances stay over the same denominator.
    """
    scale = network.scale
    int_costs = network.int_costs

    def exact(value: int) -> Fraction:
        return Fraction(value, scale)

    destinations = dict.fromkeys(com.destination for com in commodities)

    def sweeps(prices: Prices) -> dict[Node, list[Optional[int]]]:
        return {d: _distances(network, d, prices, NO_EXCLUSIONS) for d in destinations}

    def per_commodity(
        dists: Mapping[Node, Sequence[Optional[int]]]
    ) -> dict[tuple[int, Node], Fraction]:
        """Finite distances keyed by ``(commodity, node)``, exact once per destination."""
        rows = {
            d: [(node, exact(value)) for node, value in enumerate(dist) if value is not None]
            for d, dist in dists.items()
        }
        out: dict[tuple[int, Node], Fraction] = {}
        for k, com in enumerate(commodities):
            for node, value in rows[com.destination]:
                out[(k, node)] = value
        return out

    lo = {d: zero_distances(network, d) for d in destinations}
    free = sweeps(_regime_prices(network, "infinite", None)[0])
    lam_lo = per_commodity(lo)
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
    L_lo = {k: lam_lo[(k, com.origin)] for k, com in enumerate(commodities)}
    pi_cost = {k: exact(pi) for k, pi in enumerate(pi_int)}

    gaps = [max(0, pi - lo) for pi, lo in zip(pi_int, lo_int)]
    cap_int = max(gaps, default=0)
    cap = exact(cap_int)
    N = {aid: cap for aid in network.tolled_ids}
    M: dict[tuple[int, ArcId], Fraction] = {}
    for k, gap in enumerate(gaps):
        bound = exact(min(cap_int, gap))
        for aid in network.tolled_ids:
            M[(k, aid)] = bound

    # The cap's denominator divides ``scale``, so these prices (tolled arcs at
    # base + cap) stay over the same denominator.
    capped_prices, _ = _regime_prices(network, "capped", N)
    lam_hi = per_commodity(sweeps(capped_prices))

    S: dict[tuple[int, int], Fraction] = {}
    if bfsets:
        for k, bfset in bfsets.items():
            for pos, path in enumerate(bfset.paths):
                base = sum(int_costs[a] for a in path.arcs)
                S[(k, pos)] = exact(base + cap_int * len(path.tolled_set) - lo_int[k])

    return BigMParams(N, M, S, lam_lo, lam_hi, L_lo, pi_cost)
