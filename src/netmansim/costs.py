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

One private step, ``_prices``, prices any of the three models at one
pricing point, and builds each family of terms once: the poll pairs of
``cs``, the hops of the flat-bed round trip (both of its sums added up
in one pass), the parent links of ``imasnm`` (one walk for its reports
and its deployment) and its domain sweeps. It asks ``Network.path_cost``
once per term. A simulation run prices every model through it, and each
public ``cost_*`` function is a thin wrapper over it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._record import Record
from .errors import ItineraryTooShort, Unreachable
from .hierarchy import DomainState, ManagerTree
from .topology import Network, NodeId, NumberLike, _count

__all__ = [
    "CostParams",
    "CostBreakdown",
    "cost_centralized",
    "cost_centralized_polled",
    "cost_flatbed",
    "cost_flatbed_polled",
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


def _total(numerators: dict[int, int]) -> Fraction:
    """Exact sum of ``{denominator: numerator}`` totals, over their common multiple."""
    if not numerators:
        return Fraction(0)
    common = math.lcm(*numerators)
    return Fraction(
        sum(total * (common // den) for den, total in numerators.items()), common
    )


def _weighted_sum(terms: Iterable[tuple[int, Fraction]]) -> Fraction:
    """Exact sum of ``weight * value`` over ``(int, Fraction)`` terms.

    Numerators are added up as ints, one running total per denominator.
    """
    numerators: dict[int, int] = {}
    for weight, value in terms:
        numerator, denominator = value.as_integer_ratio()
        numerators[denominator] = (
            numerators.get(denominator, 0) + weight * numerator
        )
    return _total(numerators)


class CostParams(Record):
    """Message and agent sizes shared by the cost formulas.

    All sizes are bytes. Values are normalized to ``Fraction``; pass
    decimal strings or ``Decimal`` to keep decimal literals exact (a
    Python float is taken at its binary value).

    s_req/s_res: one polling request/response pair. num_vars: variables
    fetched per node per poll (scales centralized polling only). s_ma and
    d: flat-bed agent code size and per-node data it accretes. ma_size:
    a manager agent being deployed. mda_size: the data agent a manager
    circulates inside its own domain. ma_res: one child-to-mother health
    report. The sizes are checked in field order and ``num_vars`` last,
    so the first bad size is the one reported.
    """

    __slots__ = (
        "s_req", "s_res", "num_vars", "s_ma", "d", "ma_size", "mda_size", "ma_res"
    )

    def __init__(
        self, s_req: NumberLike, s_res: NumberLike, num_vars: int, s_ma: NumberLike,
        d: NumberLike, ma_size: NumberLike, mda_size: NumberLike, ma_res: NumberLike,
    ) -> None:
        sizes = (s_req, s_res, s_ma, d, ma_size, mda_size, ma_res)
        names = ("s_req", "s_res", "s_ma", "d", "ma_size", "mda_size", "ma_res")
        for name, value in zip(names, sizes):
            object.__setattr__(self, name, _size(value, name))
        object.__setattr__(self, "num_vars", _count(num_vars, "num_vars", 1))


class CostBreakdown(Record):
    """Deploy/poll decomposition of a hierarchical-model cost."""

    __slots__ = ("deploy", "per_poll", "polls", "include_deploy")

    def __init__(
        self, deploy: Fraction, per_poll: Fraction, polls: int, include_deploy: bool
    ) -> None:
        object.__setattr__(self, "deploy", deploy)
        object.__setattr__(self, "per_poll", per_poll)
        object.__setattr__(self, "polls", polls)
        object.__setattr__(self, "include_deploy", include_deploy)

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
    return _prices(net, params, ("cs",), mgr, targets)[0]["cs"]


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

    With k_h the cost of hop h, numbered from 0 so that the return hop
    is V - 1 for V stops, the round trip costs s_ma * sum(k_h) +
    d * sum(h * k_h).
    """
    stops = list(itinerary)
    if len(stops) < 2:
        raise ItineraryTooShort(
            f"flat-bed itinerary needs at least 2 nodes, got {len(stops)}"
        )
    return _prices(net, params, ("flatbed",), itinerary=stops)[0]["flatbed"]


def cost_flatbed_polled(
    net: Network,
    itinerary: Sequence[NodeId],
    params: CostParams,
    p: int,
) -> Fraction:
    """Flat-bed round trip repeated ``p`` times."""
    polls = _count(p, "p")
    return cost_flatbed(net, itinerary, params) * polls


# Shared defaults: a Fraction is immutable.
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _domain_coefficient(
    domain_k: Mapping[str, NumberLike] | None, name: str
) -> Fraction:
    if not domain_k:
        return _ONE
    value = domain_k.get(name)
    if value is None:
        return _ONE
    return _size(value, f"domain_k[{name!r}]")


def cost_imasnm_deploy(
    net: Network,
    tree: ManagerTree,
    params: CostParams,
) -> Fraction:
    """One-time bytes to ship a manager agent down every parent link."""
    return _prices(net, params, ("imasnm",), states=tree.states())[1]["imasnm"]


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
    default to 1. A domain of n members, its manager's host included,
    costs mda_size * n * k_q to sweep. Both parts read one
    ``tree.states()`` call, the tree's cached ``DomainState``s.
    """
    per_poll, _ = _prices(
        net, params, ("imasnm",), states=tree.states(), domain_k=domain_k
    )
    return per_poll["imasnm"]


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
    per_poll, deploy = _prices(
        net, params, ("imasnm",), states=tree.states(), domain_k=domain_k
    )
    return CostBreakdown(
        deploy=deploy["imasnm"],
        per_poll=per_poll["imasnm"],
        polls=polls,
        include_deploy=bool(include_deploy),
    )


def _prices(
    net: Network,
    params: CostParams,
    models: Iterable[str],
    manager: NodeId | None = None,
    targets: Iterable[NodeId] = (),
    itinerary: Sequence[NodeId] = (),
    states: Sequence[DomainState] = (),
    domain_k: Mapping[str, NumberLike] | None = None,
) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """Per-poll and deploy bytes of each of ``models``, keyed by model.

    The models are priced in the order given, and each one's terms are
    built once: ``cs`` polls ``targets`` from ``manager``; ``flatbed``
    makes a round trip over ``itinerary``, if it has two stops or more,
    adding up both of its sums in one pass; ``imasnm`` walks the parent
    links of ``states`` once, for both its reports and its deployment,
    and sweeps each domain at its ``domain_k`` coefficient.
    ``Network.path_cost`` is asked once per term. An ``Unreachable``
    error names the model being priced in its ``model``.
    """
    path_cost = net.path_cost
    per_poll: dict[str, Fraction] = {}
    deploy = dict.fromkeys(models, _ZERO)
    for model in deploy:
        try:
            if model == "cs":
                pair = (params.s_req + params.s_res) * params.num_vars
                polls = _weighted_sum((1, path_cost(manager, t)) for t in targets)
                per_poll[model] = pair * polls
            elif model == "flatbed":
                # Hop h, from 0, leaves stop h; the last one returns to the first.
                stops = itinerary if len(itinerary) > 1 else ()
                hops = zip(stops, [*stops[1:], *stops[:1]])
                codes: dict[int, int] = {}
                loads: dict[int, int] = {}
                for hop, (here, there) in enumerate(hops):
                    numerator, denominator = path_cost(here, there).as_integer_ratio()
                    codes[denominator] = codes.get(denominator, 0) + numerator
                    loads[denominator] = loads.get(denominator, 0) + hop * numerator
                per_poll[model] = params.s_ma * _total(codes) + params.d * _total(loads)
            else:
                hosts = {state.id: state.manager_host for state in states}
                links = _weighted_sum(
                    (1, path_cost(hosts[state.parent], state.manager_host))
                    for state in states
                    if state.parent is not None
                )
                sweeps = _weighted_sum(
                    (len(state.members), _domain_coefficient(domain_k, state.id))
                    for state in states
                )
                per_poll[model] = params.ma_res * links + params.mda_size * sweeps
                deploy[model] = params.ma_size * links
        except Unreachable as exc:
            exc.model = model
            raise
    return per_poll, deploy
