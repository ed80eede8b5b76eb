"""Management-traffic cost formulas for the three management models.

All functions are pure and compute in exact rational arithmetic
(``fractions.Fraction``), so results are reproducible to the last byte
regardless of summation order. Costs are bytes; fractional bytes are
allowed because agent sizes like 3.2 * 1024 produce them.

Each model total is regrouped as a few sums of integer-weighted path or
domain coefficients, every one multiplied once by its message size. A
sum is added up in plain ``int``s: numerators are collected per
denominator and brought over the least common multiple of the
denominators at the end, so one ``Fraction`` is built per sum instead of
one per term, and the value is the same exact ``Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ItineraryTooShort
from .hierarchy import DomainState, ManagerTree
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


def _weighted_sum(terms: Iterable[tuple[int, Fraction]]) -> Fraction:
    """Exact sum of ``weight * value`` over ``(int, Fraction)`` terms.

    Numerators are added up as ints, one running total per denominator,
    and the totals are brought over the least common multiple of the
    denominators once, at the end.
    """
    numerators: dict[int, int] = {}
    for weight, value in terms:
        numerator, denominator = value.as_integer_ratio()
        numerators[denominator] = (
            numerators.get(denominator, 0) + weight * numerator
        )
    if not numerators:
        return Fraction(0)
    common = math.lcm(*numerators)
    return Fraction(
        sum(total * (common // den) for den, total in numerators.items()), common
    )


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
    return pair * _weighted_sum((1, net.path_cost(mgr, target)) for target in targets)


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

    With k_h the cost of hop h and the return hop numbered V, the number
    of stops visited, the round trip costs s_ma * sum(k_h) +
    d * sum(h * k_h).
    """
    stops = list(itinerary)
    if len(stops) < 2:
        raise ItineraryTooShort(
            f"flat-bed itinerary needs at least 2 nodes, got {len(stops)}"
        )
    hops = [net.path_cost(here, there) for here, there in zip(stops, stops[1:])]
    hops.append(net.path_cost(stops[-1], stops[0]))
    code = _weighted_sum((1, k) for k in hops)
    payload = _weighted_sum(enumerate(hops))
    return params.s_ma * code + params.d * payload


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
    domain_k: Mapping[str, NumberLike] | None, name: str
) -> Fraction:
    if not domain_k:
        return Fraction(1)
    value = domain_k.get(name)
    if value is None:
        return Fraction(1)
    return _size(value, f"domain_k[{name!r}]")


def _parent_links(net: Network, states: Sequence[DomainState]) -> Fraction:
    """Sum of the path costs from each state's parent's manager host to its own."""
    hosts = {state.id: state.manager_host for state in states}
    return _weighted_sum(
        (1, net.path_cost(hosts[state.parent], state.manager_host))
        for state in states
        if state.parent is not None
    )


def cost_imasnm_deploy(
    net: Network,
    tree: ManagerTree,
    params: CostParams,
) -> Fraction:
    """One-time bytes to ship a manager agent down every parent link."""
    return params.ma_size * _parent_links(net, tree.states())


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
    default to 1. The sweeps add up to mda_size * sum((r_q + 1) * k_q),
    the sum of ``cost_domain_flatbed`` over the domains. Both parts read
    one ``tree.states()`` call, the tree's cached ``DomainState``s.
    """
    states = tree.states()
    reports = params.ma_res * _parent_links(net, states)
    sweeps = params.mda_size * _weighted_sum(
        (len(state.members), _domain_coefficient(domain_k, state.id))
        for state in states
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
