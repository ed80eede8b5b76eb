"""Management-traffic cost formulas for the three management models.

All functions are pure and compute in exact rational arithmetic
(``fractions.Fraction``), so results are reproducible to the last byte
regardless of summation order. Costs are bytes; fractional bytes are
allowed because agent sizes like 3.2 * 1024 produce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ItineraryTooShort
from .hierarchy import ManagerTree
from .topology import Network, NodeId, NumberLike

__all__ = [
    "CostParams",
    "CostBreakdown",
    "cost_centralized",
    "cost_centralized_polled",
    "cost_flatbed",
    "cost_flatbed_polled",
    "cost_domain_flatbed",
    "cost_imasnm_deploy",
    "cost_imasnm_poll",
    "cost_imasnm_total",
]


def _size(value: NumberLike, name: str) -> Fraction:
    try:
        size = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{name} must be a number, got {value!r}") from exc
    if size < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return size


def _count(value: object, name: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class CostParams:
    """Message and agent sizes shared by the cost formulas.

    All sizes are bytes. Values are normalized to ``Fraction``; pass
    decimal strings or ``Decimal`` to keep decimal literals exact (a
    Python float is taken at its binary value).

    s_req/s_res: one polling request/response pair. num_vars: variables
    fetched per node per poll (scales centralized polling only). s_ma and
    d: flat-bed agent code size and per-node data it accretes. ma_size:
    a manager agent being deployed. mda_size: the data agent a manager
    circulates inside its own domain. ma_res: one child-to-mother health
    report.
    """

    s_req: Fraction
    s_res: Fraction
    num_vars: int
    s_ma: Fraction
    d: Fraction
    ma_size: Fraction
    mda_size: Fraction
    ma_res: Fraction

    def __post_init__(self) -> None:
        for name in ("s_req", "s_res", "s_ma", "d", "ma_size", "mda_size", "ma_res"):
            object.__setattr__(self, name, _size(getattr(self, name), name))
        object.__setattr__(self, "num_vars", _count(self.num_vars, "num_vars", 1))


@dataclass(frozen=True)
class CostBreakdown:
    """Deploy/poll decomposition of a hierarchical-model cost."""

    deploy: Fraction
    per_poll: Fraction
    polls: int
    include_deploy: bool

    @property
    def total(self) -> Fraction:
        """Total bytes: polls * per_poll, plus deploy once if included."""
        total = self.per_poll * self.polls
        if self.include_deploy:
            total += self.deploy
        return total


def cost_centralized(
    net: Network,
    mgr: NodeId,
    targets: Sequence[NodeId],
    params: CostParams,
) -> Fraction:
    """Bytes for one centralized poll of ``targets`` from ``mgr``.

    Every target costs path_cost(mgr, target) * (s_req + s_res) *
    num_vars. The manager may appear among the targets; it contributes
    zero because its path cost to itself is zero.
    """
    pair = (params.s_req + params.s_res) * params.num_vars
    return pair * sum(
        (net.path_cost(mgr, target) for target in targets), Fraction(0)
    )


def cost_centralized_polled(
    net: Network,
    mgr: NodeId,
    targets: Sequence[NodeId],
    params: CostParams,
    p: int,
) -> Fraction:
    """Centralized polling repeated ``p`` times."""
    polls = _count(p, "p")
    return cost_centralized(net, mgr, targets, params) * polls


def cost_flatbed(
    net: Network,
    itinerary: Sequence[NodeId],
    params: CostParams,
) -> Fraction:
    """Bytes for one flat-bed round trip over ``itinerary``.

    The agent leaves the first node carrying ``s_ma`` bytes, grows by
    ``d`` bytes at every node it visits, and finally hops from the last
    node back to the first. Hop costs are minimum path costs, so an
    itinerary may skip over intermediate nodes.
    """
    stops = list(itinerary)
    if len(stops) < 2:
        raise ItineraryTooShort(
            f"flat-bed itinerary needs at least 2 nodes, got {len(stops)}"
        )
    total = Fraction(0)
    for hop, (here, there) in enumerate(zip(stops, stops[1:])):
        total += net.path_cost(here, there) * (params.s_ma + hop * params.d)
    visited = len(stops) - 1
    total += net.path_cost(stops[-1], stops[0]) * (
        params.s_ma + visited * params.d
    )
    return total


def cost_flatbed_polled(
    net: Network,
    itinerary: Sequence[NodeId],
    params: CostParams,
    p: int,
) -> Fraction:
    """Flat-bed round trip repeated ``p`` times."""
    polls = _count(p, "p")
    return cost_flatbed(net, itinerary, params) * polls


def cost_domain_flatbed(
    r_q: int,
    k_q: NumberLike,
    params: CostParams,
) -> Fraction:
    """Bytes for a manager's data agent to sweep its own domain.

    ``r_q`` is the number of managed nodes beside the manager's host;
    ``k_q`` the domain's intra-domain link coefficient. The sweep costs
    mda_size * (r_q + 1) * k_q.
    """
    managed = _count(r_q, "r_q")
    coeff = _size(k_q, "k_q")
    return params.mda_size * (managed + 1) * coeff


def _domain_coefficient(
    domain_k: Mapping[str, NumberLike] | None, domain_id: str
) -> Fraction:
    if domain_k is None:
        return Fraction(1)
    value = domain_k.get(domain_id)
    if value is None:
        return Fraction(1)
    return _size(value, f"domain_k[{domain_id!r}]")


def cost_imasnm_deploy(
    net: Network,
    tree: ManagerTree,
    params: CostParams,
) -> Fraction:
    """One-time bytes to ship a manager agent down every parent link."""
    return sum(
        (
            net.path_cost(mother.manager_host, child.manager_host)
            * params.ma_size
            for mother, child in tree.parent_child_edges()
        ),
        Fraction(0),
    )


def cost_imasnm_poll(
    net: Network,
    tree: ManagerTree,
    params: CostParams,
    domain_k: Mapping[str, NumberLike] | None = None,
) -> Fraction:
    """Bytes for one whole-network status poll of the hierarchy.

    Every child manager sends one ``ma_res`` report up its parent link,
    and every manager sweeps its own domain with a data agent. Per-domain
    coefficients come from ``domain_k`` (keyed by dotted domain id) and
    default to 1.
    """
    reports = sum(
        (
            net.path_cost(mother.manager_host, child.manager_host)
            * params.ma_res
            for mother, child in tree.parent_child_edges()
        ),
        Fraction(0),
    )
    sweeps = sum(
        (
            cost_domain_flatbed(
                domain.managed_count,
                _domain_coefficient(domain_k, str(domain.id)),
                params,
            )
            for domain in tree.domains()
        ),
        Fraction(0),
    )
    return reports + sweeps


def cost_imasnm_total(
    net: Network,
    tree: ManagerTree,
    params: CostParams,
    p: int,
    include_deploy: bool,
    domain_k: Mapping[str, NumberLike] | None = None,
) -> CostBreakdown:
    """Deploy + polling breakdown for ``p`` polls of the hierarchy.

    Deployment is a one-time cost: it is never multiplied by ``p`` and
    enters the total only when ``include_deploy`` is set.
    """
    polls = _count(p, "p")
    return CostBreakdown(
        deploy=cost_imasnm_deploy(net, tree, params),
        per_poll=cost_imasnm_poll(net, tree, params, domain_k),
        polls=polls,
        include_deploy=bool(include_deploy),
    )
