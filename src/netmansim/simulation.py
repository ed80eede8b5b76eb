"""Scenario files and the deterministic event-driven simulation engine.

A scenario describes an initial network, a manager hierarchy parameter
set, an ordered list of growth events, and which cost models to evaluate
at which polling counts. ``run`` executes the events and prices the final
network under each requested model. Everything is deterministic: equal
scenarios produce equal results, value for value.
"""

from __future__ import annotations

import gc
import json
import sys
from collections import ChainMap
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import BinaryIO, Container, Iterable, Iterator, Mapping, TextIO, Union

from ._record import Record
from .costs import CostParams, _prices
from .errors import (
    DuplicateNode,
    NegativeCoeff,
    ParseError,
    TopologyError,
    Unreachable,
    ValidationError,
)
from .hierarchy import DomainId, DomainState, ManagerTree
from .topology import Network, NodeId, _check_node_id, _coeff, _link_key

__all__ = [
    "MODEL_NAMES",
    "AddNode",
    "Snapshot",
    "Event",
    "Scenario",
    "DomainState",
    "SnapshotRecord",
    "SimulationState",
    "SimulationResult",
    "load_scenario",
    "load_scenario_file",
    "load_bundled_scenario",
    "bundled_scenario_names",
    "apply_event",
    "run",
]

MODEL_NAMES = ("cs", "flatbed", "imasnm")

_SCENARIO_SUFFIX = ".scenario.json"


class AddNode(Record):
    """A discovered node joins a domain, optionally with new links."""

    __slots__ = ("node", "domain", "links")

    def __init__(
        self, node: NodeId, domain: DomainId,
        links: tuple[tuple[NodeId, Fraction], ...] = (),
    ) -> None:
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "links", links)


class Snapshot(Record):
    """Record the hierarchy as it stands, under a label."""

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        object.__setattr__(self, "label", label)


Event = Union[AddNode, Snapshot]


class Scenario(Record):
    """A fully validated scenario, ready to run.

    Making one checks every rule of its meaning, whether the loader or
    other code makes it. Made in code, its ``network`` is built from
    ``nodes``, ``links`` and ``k_override``, and raises the
    ``TopologyError`` the ``Network`` constructor raises. Then
    ``ValidationError``, with the JSON path of the fault, is raised
    unless:

    - ``name`` is a non-empty string; ``central`` and ``m_max`` are
      integers of at least 1; ``params`` is a ``CostParams``; each of
      ``polling_counts`` is an integer of at least 0; and each of
      ``models`` is one of ``MODEL_NAMES``, named once, checked in that
      order;
    - ``nodes`` is not empty and holds ``central``;
    - each event is an ``AddNode`` or a ``Snapshot``;
    - each join adds a new node, links it, by ``(peer, coeff)`` pairs,
      to nodes known by then, each peer once and never itself, at a
      non-negative coefficient, and joins a ``DomainId`` that exists
      then;
    - snapshot labels are unique;
    - every ``k_override`` id is a node that is initial or joins later;
    - every ``domain_k`` value is a non-negative number, and its key a
      domain id that exists by the end;
    - a ``flatbed_itinerary`` is not empty, names known nodes once each,
      starts at ``central`` and visits every node that ever joins.

    A fault that the loader finds too is reported with the loader's
    path and message. With faults in more than one field, the one reported first can
    differ from the loader's: the loader checks the shape of every
    field, events and ``domain_k`` included, before ``polling_counts``
    and ``models``, which this constructor checks before its events.

    The domain rules replay the joins on member and child counts alone
    (``ManagerTree._replay_shape``), not on a tree. A pair that a model
    needs but cannot reach is found only when ``run`` prices it.
    ``network`` is left out of equality and ``repr``. A scenario has no
    hash: its ``domain_k`` is a dict.

    The loader builds the network itself, as it reads each link and pin
    (see ``load_scenario``), and hands it to ``_loaded``, which checks
    every other rule. A file with a fault in its nodes, links or pins is
    made through this constructor, so the fault reads as it does here.
    """

    __slots__ = (
        "name", "nodes", "links", "k_override", "central", "m_max", "params",
        "domain_k", "events", "polling_counts", "models", "flatbed_itinerary",
        "notes", "network",
    )
    _fields = __slots__[:-1]

    def __init__(
        self, name: str, nodes: tuple[NodeId, ...],
        links: tuple[tuple[NodeId, NodeId, Fraction], ...],
        k_override: tuple[tuple[NodeId, NodeId, Fraction], ...],
        central: NodeId, m_max: int, params: CostParams, domain_k: dict[str, Fraction],
        events: tuple[Event, ...], polling_counts: tuple[int, ...],
        models: tuple[str, ...], flatbed_itinerary: tuple[NodeId, ...] | None = None,
        notes: str | None = None,
    ) -> None:
        fields = (
            name, nodes, links, k_override, central, m_max, params, domain_k,
            events, polling_counts, models, flatbed_itinerary, notes,
        )
        self._fill(Network(nodes, links, k_override), fields, pins=True)

    @classmethod
    def _loaded(cls, network: Network, *fields: object) -> "Scenario":
        """The scenario of ``fields``, in ``_fields`` order, over ``network``.

        The loader has built ``network`` from the ``links`` and
        ``k_override`` among the fields, and found every link and pin
        sound and every pinned id initial or joining. So neither the
        network nor the pins are checked again; every other rule is, in
        the order ``__init__`` checks it.
        """
        scenario = cls.__new__(cls)
        scenario._fill(network, fields, pins=False)
        return scenario

    def _fill(self, network: Network, fields: tuple, pins: bool) -> None:
        """Set the fields and ``network``; check every other rule, pins if ``pins``."""
        for field, value in zip(self._fields, fields):
            object.__setattr__(self, field, value)
        object.__setattr__(self, "network", network)
        _check_name(self.name)
        _expect_int(self.central, "central", minimum=1)
        _expect_int(self.m_max, "m_max", minimum=1)
        if not isinstance(self.params, CostParams):
            message = f"expected a CostParams, got {type(self.params).__name__}"
            raise ValidationError("params", message)
        _check_polling_counts(self.polling_counts)
        _check_models(self.models)
        if not self.nodes:
            raise ValidationError("nodes", "must not be empty")
        known = dict.fromkeys(self.nodes)
        if self.central not in known:
            message = f"central node {self.central} is not in nodes"
            raise ValidationError("central", message)
        joins = self._check_events(known)
        if pins:
            self._check_pins(known)
        self._check_itinerary(known)
        self._check_domains(joins)

    def _check_events(self, known: dict[NodeId, None]) -> dict[int, DomainId]:
        """Check each event's type, join and label; add joins to ``known``.

        Returns the domain of each join, keyed by its event index.
        """
        joins: dict[int, DomainId] = {}
        labels: set[str] = set()
        for index, event in enumerate(self.events):
            if isinstance(event, AddNode):
                node = event.node
                if not (type(node) is int and node > 0):
                    _expect_int(node, f"events[{index}].add_node.node", minimum=1)
                if node in known:
                    path = f"events[{index}].add_node.node"
                    raise ValidationError(path, f"duplicate node {node}")
                known[node] = None
                if not isinstance(event.domain, DomainId):
                    path = f"events[{index}].add_node.domain"
                    message = f"expected a DomainId, got {event.domain!r}"
                    raise ValidationError(path, message)
                try:
                    links = iter(event.links)
                except TypeError:
                    path = f"events[{index}].add_node.links"
                    message = f"expected an array, got {type(event.links).__name__}"
                    raise ValidationError(path, message) from None
                taken: set[tuple[NodeId, NodeId]] = set()  # this join's links
                for peer_index, link in enumerate(links):
                    try:
                        peer, coeff = link
                    except (TypeError, ValueError):
                        path = f"events[{index}].add_node.links[{peer_index}]"
                        message = f"expected a (peer, coeff) pair, got {link!r}"
                        raise ValidationError(path, message) from None
                    if not (type(peer) is int and peer > 0):
                        path = f"events[{index}].add_node.links[{peer_index}][0]"
                        _expect_int(peer, path, minimum=1)
                    try:
                        taken.add(_link_key(node, peer, known, taken))
                    except TopologyError as exc:
                        path = f"events[{index}].add_node.links[{peer_index}][0]"
                        raise ValidationError(path, str(exc)) from None
                    # add_link's own check; a loaded join passes inline.
                    if not (type(coeff) is Fraction and coeff.numerator >= 0):
                        try:
                            _coeff(coeff, "link", node, peer)
                        except NegativeCoeff:
                            path = f"events[{index}].add_node.links[{peer_index}][1]"
                            message = f"must be non-negative, got {coeff}"
                            raise ValidationError(path, message) from None
                        except TypeError:
                            path = f"events[{index}].add_node.links[{peer_index}][1]"
                            message = f"expected a number, got {coeff!r}"
                            raise ValidationError(path, message) from None
                joins[index] = event.domain
            elif isinstance(event, Snapshot):
                if event.label in labels:
                    path = f"events[{index}].snapshot"
                    raise ValidationError(path, f"duplicate label {event.label!r}")
                labels.add(event.label)
            else:
                message = f"expected an AddNode or a Snapshot, got {event!r}"
                raise ValidationError(f"events[{index}]", message)
        return joins

    def _check_pins(self, known: dict[NodeId, None]) -> None:
        """Every pinned id is ``known``, in triples or a mapping by pair."""
        pins = self.k_override
        keyed = isinstance(pins, Mapping)
        if keyed:
            pins = [(a, b, cost) for (a, b), cost in pins.items()]
        for index, (a, b, _) in enumerate(pins):
            if a not in known or b not in known:
                end, node = (0, a) if a not in known else (1, b)
                entry = f"[{(a, b)}]" if keyed else f"[{index}][{end}]"
                raise ValidationError(f"k_override{entry}", f"unknown node {node}")

    def _check_itinerary(self, known: dict[NodeId, None]) -> None:
        """A given itinerary visits each ``known`` node once, from ``central``."""
        itinerary = self.flatbed_itinerary
        if itinerary is None:
            return
        stops: set[NodeId] = set()
        for index, stop in enumerate(itinerary):
            if stop not in known:
                path = f"flatbed_itinerary[{index}]"
                raise ValidationError(path, f"unknown node {stop}")
            if stop in stops:
                path = f"flatbed_itinerary[{index}]"
                raise ValidationError(path, f"node {stop} repeated")
            stops.add(stop)
        if not stops:
            raise ValidationError("flatbed_itinerary", "must not be empty")
        if itinerary[0] != self.central:
            message = f"itinerary must start at the central node {self.central}"
            raise ValidationError("flatbed_itinerary[0]", message)
        if len(stops) < len(known):
            # the first node left out, in nodes-then-joins order
            missing = next(node for node in known if node not in stops)
            message = f"node {missing} is never visited"
            raise ValidationError("flatbed_itinerary", message)

    def _check_domains(self, joins: dict[int, DomainId]) -> None:
        """Each join's domain exists then; each ``domain_k`` value, then key."""
        domains = list(joins.values())
        shape, replayed = ManagerTree._replay_shape(
            len(self.nodes), self.m_max, domains
        )
        if replayed < len(domains):
            path = f"events[{list(joins)[replayed]}].add_node.domain"
            raise ValidationError(path, f"no such domain: {domains[replayed]}")
        for key, value in self.domain_k.items():
            path = f"domain_k.{key}"
            try:
                number = Fraction(value)
            except (TypeError, ValueError, ZeroDivisionError):
                message = f"expected a number, got {value!r}"
                raise ValidationError(path, message) from None
            if number < 0:
                raise ValidationError(path, f"must be non-negative, got {value}")
            try:
                domain = DomainId.parse(key)
            except ValueError as exc:
                raise ValidationError(path, str(exc)) from None
            if domain.path not in shape:
                raise ValidationError(path, f"no such domain: {key}")


class SnapshotRecord(Record):
    """The hierarchy captured by one Snapshot event.

    ``per_poll`` and ``deploy`` are the model-keyed cost tables of that
    instant, filled in only by ``run(..., costs_at_snapshots=True)``.
    """

    __slots__ = ("label", "domains", "per_poll", "deploy")

    def __init__(
        self, label: str, domains: tuple[DomainState, ...],
        per_poll: dict[str, Fraction] | None = None,
        deploy: dict[str, Fraction] | None = None,
    ) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "per_poll", per_poll)
        object.__setattr__(self, "deploy", deploy)

    @property
    def managers(self) -> tuple[str, ...]:
        return tuple(state.id for state in self.domains)


class SimulationState(Record):
    """Mutable state threaded through apply_event.

    A join that ``apply_event`` has checked joins ``tree`` at once and
    waits for the network. Reading ``network`` adds every waiting join,
    in order, in one new ``Network`` version, so a stepwise replay makes
    one version per read, not one per node and link. Setting ``network``
    replaces it and drops the waiting joins.

    It compares and prints by ``network``, ``tree`` and ``snapshots``, as
    a record does, but its fields can be set, so it has no hash.
    """

    __slots__ = ("_network", "_waiting", "tree", "snapshots")
    _fields = ("network", "tree", "snapshots")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, network: Network, tree: ManagerTree,
        snapshots: list[SnapshotRecord] | None = None,
    ) -> None:
        # Each waiting join's node -> its (peer, coeff) links.
        self._waiting: dict[NodeId, tuple[tuple[NodeId, Fraction], ...]] = {}
        self.network = network
        self.tree = tree
        self.snapshots = [] if snapshots is None else snapshots

    @property
    def network(self) -> Network:
        if self._waiting:
            self._network = self._network._joined(self._waiting.items())
            self._waiting.clear()
        return self._network

    @network.setter
    def network(self, network: Network) -> None:
        self._network = network
        self._waiting.clear()


class SimulationResult(Record):
    """Final state and cost tables produced by ``run``.

    ``per_poll`` and ``deploy`` map each model, in ``models`` order, to
    its bytes for one poll and its one-time deployment bytes.
    """

    __slots__ = (
        "scenario", "models", "polling_counts", "per_poll", "deploy", "snapshots",
        "final_domains",
    )

    def __init__(
        self, scenario: str, models: tuple[str, ...], polling_counts: tuple[int, ...],
        per_poll: dict[str, Fraction], deploy: dict[str, Fraction],
        snapshots: tuple[SnapshotRecord, ...], final_domains: tuple[DomainState, ...],
    ) -> None:
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "polling_counts", polling_counts)
        object.__setattr__(self, "per_poll", per_poll)
        object.__setattr__(self, "deploy", deploy)
        object.__setattr__(self, "snapshots", snapshots)
        object.__setattr__(self, "final_domains", final_domains)

    def per_poll_of(self, model: str) -> Fraction:
        return self.per_poll[model]

    def deploy_of(self, model: str) -> Fraction:
        return self.deploy[model]

    def total_of(self, model: str, polls: int) -> Fraction:
        return self.per_poll[model] * polls


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; resume it only if it was on.

    ``load_scenario`` and the command line run under it. Each builds
    tens of thousands of containers, such as the parsed JSON, link and
    pin triples, network tables and domain states, that mostly stay
    alive until it returns, and a load leaves no cyclic garbage. So a
    collection during the call walks live data and frees nothing:
    loading a 10^4-node scenario in a fresh interpreter ran about 100
    passes, about a fifth of the load. The first pass after the pause
    walks what the call made once; it starts at the next allocation, in
    the pause's own exit, so still inside the call. A pause inside
    another is a no-op. Whether the collector is on is process-global:
    a thread that turns it off while a pause is open has it turned back
    on when the pause ends.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


# -- scenario loading -------------------------------------------------------


def _reject_constant(token: str) -> None:
    raise ValueError(f"non-finite number {token!r} is not allowed")


def _expect_object(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_array(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(path, f"expected an array, got {type(value).__name__}")
    return value


def _expect_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(path, f"expected a string, got {type(value).__name__}")
    return value


def _expect_int(value: object, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(path, f"must be at least {minimum}, got {value}")
    return value


def _check_name(value: object) -> str:
    if not _expect_str(value, "name"):
        raise ValidationError("name", "must not be empty")
    return value


def _check_polling_counts(counts: Iterable[object]) -> None:
    """Each polling count is an integer of at least 0."""
    # An entry that fails the inline test has its JSON path formatted.
    for index, count in enumerate(counts):
        if not (type(count) is int and count >= 0):
            _expect_int(count, f"polling_counts[{index}]", minimum=0)


def _check_models(models: Iterable[object]) -> None:
    """Each model is a string, one of ``MODEL_NAMES``, named once."""
    seen: set[str] = set()
    for index, model in enumerate(models):
        path = f"models[{index}]"
        if _expect_str(model, path) not in MODEL_NAMES:
            message = f"unknown model {model!r} (choose from {MODEL_NAMES})"
            raise ValidationError(path, message)
        if model in seen:
            raise ValidationError(path, f"duplicate model {model!r}")
        seen.add(model)


# Exact types, which leave out bool, the one int subclass json makes.
_NUMBER_TYPES = (int, Decimal)


def _expect_number(
    value: object, path: str, memo: dict[object, Fraction]
) -> Fraction:
    """``value`` as a non-negative Fraction, one per distinct value.

    json parsing maps floats to Decimal, so decimal literals stay exact.
    ``memo`` keeps one Fraction per value, shared by "1" and "1.0" alike.
    A Decimal whose digits and exponent together pass the interpreter's
    int digit limit, which json already applies to integer literals, is
    rejected before it becomes a huge exact integer.
    """
    if type(value) not in _NUMBER_TYPES:
        raise ValidationError(path, f"expected a number, got {value!r}")
    number = memo.get(value)
    if number is None:
        if value < 0:
            raise ValidationError(path, f"must be non-negative, got {value}")
        if type(value) is Decimal:
            _, digits, exponent = value.as_tuple()
            size = len(digits) + abs(exponent)
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if 0 < limit < size:
                message = f"has {size} digits counting its exponent, over {limit}"
                raise ValidationError(path, message)
        number = memo[value] = Fraction(value)
    return number


def _entries(
    top: dict, where: str, memo: dict, known: Container
) -> tuple[tuple[tuple[NodeId, NodeId, Fraction], ...], dict, bool]:
    """The ``where`` array of ``top`` as triples, its table, and whether sound.

    One pass checks each entry's shape and meaning. Shape: each entry is
    an ``[id, id, number]`` list, its items tested in order; a JSON path
    is formatted only for the error raised, or for a number not yet in
    ``memo``. Meaning: an entry is sound when both ids are in ``known``,
    its ids differ (a pin, in ``k_override``, may also set a node's cost
    to itself at 0), and its ``(low, high)`` key is not yet in the table.
    A sound entry is added to the table, the ``Network`` table of its
    kind. An unsound one only makes the result False: ``Scenario``
    reports it, after every fault of shape in the file. The array is
    popped from ``top`` and each entry cleared once read, so their lists
    are freed as the pass goes, not held until the load ends: the traced
    peak of loading the seed-1 10^4-node pinned benchmark file is
    10.79 MB, against 12.44 MB with the entries kept.
    """
    array = _expect_array(top.pop(where, []), where)
    pins = where == "k_override"
    table: dict[tuple[NodeId, NodeId], Fraction] = {}
    triples = []
    append = triples.append
    sound = True
    for index, entry in enumerate(array):
        if type(entry) is not list or len(entry) != 3:
            path = f"{where}[{index}]"
            shape = "[i, j, cost]" if pins else "[a, b, coeff]"
            got = len(_expect_array(entry, path))
            raise ValidationError(path, f"expected {shape}, got {got} items")
        a, b, value = entry
        if type(a) is not int or a < 1:
            _expect_int(a, f"{where}[{index}][0]", minimum=1)
        if type(b) is not int or b < 1:
            _expect_int(b, f"{where}[{index}][1]", minimum=1)
        number = memo.get(value) if type(value) in _NUMBER_TYPES else None
        if number is None:
            number = _expect_number(value, f"{where}[{index}][2]", memo)
        array[index] = None
        append((a, b, number))
        key = (a, b) if a <= b else (b, a)
        if (
            a in known
            and b in known
            and (a != b or (pins and not number))
            and key not in table
        ):
            table[key] = number
        else:
            sound = False
    return tuple(triples), table, sound


def _expect_keys(
    obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise ValidationError(f"{path}.{key}" if path else key, "unknown key")
    missing = [key for key in required if key not in obj]
    if missing:
        key = min(missing)
        raise ValidationError(f"{path}.{key}" if path else key, "missing required key")


def _parse_domain_id(text: str, memo: dict[str, DomainId]) -> DomainId:
    """``text`` as a ``DomainId``, one per distinct text.

    ``memo`` maps each text parsed so far to its id. A text whose parent
    text, all before its last dot, is in ``memo`` is built from the
    parent's id, so a join domain named after its parent costs one part
    to parse, not one per level. ``DomainId.parse`` checks that part.
    Any other text, or one whose last part fails, goes to the full
    ``DomainId.parse``, which raises ValueError for every malformed id,
    so an id fails the same way on either path.
    """
    domain = memo.get(text)
    if domain is not None:
        return domain
    head, _, last = text.rpartition(".")
    parent = memo.get(head)
    if parent is not None:
        try:
            domain = parent.child(DomainId.parse(last).path[0])
        except ValueError:
            pass  # the full parse below raises the error
    if domain is None:
        domain = DomainId.parse(text)
    memo[text] = domain
    return domain


def _event(entry: object, index: int, memo: dict, domain_memo: dict) -> Event:
    """``events[index]``, a join or a snapshot, its items tested in order.

    A JSON path is formatted only for the error raised, or for a number
    not yet in ``memo``.
    """
    if type(entry) is not dict or len(entry) != 1:
        _expect_object(entry, f"events[{index}]")
        raise ValidationError(f"events[{index}]", "event must have exactly one key")
    body = entry.get("add_node")
    if type(body) is not dict:  # a snapshot, or a fault
        ((kind, value),) = entry.items()
        if kind == "snapshot":
            if type(value) is not str:
                _expect_str(value, f"events[{index}].snapshot")
            return Snapshot(value)
        if kind != "add_node":
            raise ValidationError(f"events[{index}].{kind}", "unknown event kind")
        _expect_object(body, f"events[{index}].add_node")
    node, text, pairs = body.get("node"), body.get("domain"), body.get("links", [])
    # A key held at null passes here and fails its own test below.
    if len(body) != 2 + ("links" in body) or node is None or text is None:
        _expect_keys(body, f"events[{index}].add_node", ("node", "domain"), ("links",))
    if type(node) is not int or node < 1:
        _expect_int(node, f"events[{index}].add_node.node", minimum=1)
    if type(text) is not str:
        _expect_str(text, f"events[{index}].add_node.domain")
    try:
        domain = _parse_domain_id(text, domain_memo)
    except ValueError as exc:
        raise ValidationError(f"events[{index}].add_node.domain", str(exc)) from None
    if type(pairs) is not list:
        _expect_array(pairs, f"events[{index}].add_node.links")
    links = []
    for pair in pairs:  # the pair's index is len(links)
        if type(pair) is not list or len(pair) != 2:
            path = f"events[{index}].add_node.links[{len(links)}]"
            got = len(_expect_array(pair, path))
            raise ValidationError(path, f"expected [peer, coeff], got {got} items")
        peer, value = pair
        if type(peer) is not int or peer < 1:
            path = f"events[{index}].add_node.links[{len(links)}][0]"
            _expect_int(peer, path, minimum=1)
        coeff = memo.get(value) if type(value) in _NUMBER_TYPES else None
        if coeff is None:
            path = f"events[{index}].add_node.links[{len(links)}][1]"
            coeff = _expect_number(value, path, memo)
        links.append((peer, coeff))
    return AddNode(node, domain, tuple(links))


@_collector_paused()
def load_scenario(source: Union[BinaryIO, TextIO, bytes, str]) -> Scenario:
    """Parse and fully validate a scenario from a stream or JSON text.

    Raises ParseError for malformed JSON and ValidationError (carrying the
    offending field path) for a fault. The loader checks the JSON's shape:
    types, keys, int minimums, number signs and sizes, event kinds, the
    syntax of each join's domain, and the models. A join domain whose
    parent an earlier join named, such as ``"1.3.2"`` after ``"1.3"``,
    costs one part to parse, not one per level. The format is strict:
    unknown keys are rejected. Making the ``Scenario`` checks the rest,
    and a ``TopologyError`` from its ``Network`` becomes a ValidationError
    at the path of the rejected entry.

    Each link and pin is read once, by one pass that checks its shape,
    tests its meaning and fills the network's tables. If a node repeats
    or a link or pin fails that test, the loader checks the rest of the
    file's shape and then makes the ``Scenario`` through its
    constructor, which reports the fault as it does for one made in code.

    The load runs with the cyclic collector paused (see
    ``_collector_paused``), which it turns back on, if it was on, before
    it returns or raises. A collection during the load would walk only
    live data: the load leaves no cyclic garbage.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = source
    if isinstance(data, (bytes, bytearray)):
        try:
            text = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"scenario is not valid UTF-8: {exc}") from exc
    else:
        text = data
    try:
        # equal float literals share one Decimal, whose hash is then cached
        raw = json.loads(
            text, parse_float=lru_cache(None)(Decimal), parse_constant=_reject_constant
        )
    except (json.JSONDecodeError, ValueError) as exc:
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("scenario is nested too deeply to parse") from None
    return _scenario_from_raw(raw)


def load_scenario_file(path) -> Scenario:
    """Open ``path`` and load the scenario it contains."""
    with open(path, "rb") as stream:
        return load_scenario(stream)


def bundled_scenario_names() -> tuple[str, ...]:
    """Names of the scenario files shipped inside the package."""
    from importlib import resources

    directory = resources.files(__package__).joinpath("scenarios")
    names = []
    for entry in directory.iterdir():
        if entry.name.endswith(_SCENARIO_SUFFIX):
            names.append(entry.name[: -len(_SCENARIO_SUFFIX)])
    return tuple(sorted(names))


def load_bundled_scenario(name: str) -> Scenario:
    """Load a scenario shipped with the package, by name or file name."""
    from importlib import resources

    if name.endswith(_SCENARIO_SUFFIX):
        name = name[: -len(_SCENARIO_SUFFIX)]
    entry = resources.files(__package__).joinpath(
        "scenarios", name + _SCENARIO_SUFFIX
    )
    if not entry.is_file():
        known = ", ".join(bundled_scenario_names())
        raise FileNotFoundError(
            f"no bundled scenario {name!r} (have: {known})"
        )
    with entry.open("rb") as stream:
        return load_scenario(stream)


def _scenario_from_raw(raw: object) -> Scenario:
    top = _expect_object(raw, "")
    _expect_keys(
        top,
        "",
        required=(
            "name",
            "nodes",
            "links",
            "central",
            "m_max",
            "params",
            "events",
            "polling_counts",
            "models",
        ),
        optional=("k_override", "domain_k", "flatbed_itinerary", "notes"),
    )

    name = _check_name(top["name"])

    # Repeats, emptiness and every rule across fields are Scenario's to check.
    nodes = tuple(_expect_array(top["nodes"], "nodes"))
    for index, node in enumerate(nodes):
        if type(node) is not int or node < 1:
            _expect_int(node, f"nodes[{index}]", minimum=1)
    # The network's node table; a repeated node leaves it short.
    order = dict(zip(nodes, range(len(nodes))))
    sound = len(order) == len(nodes)

    # one Fraction per distinct number literal (see _expect_number)
    memo: dict[object, Fraction] = {}
    # one DomainId per distinct join domain text (see _parse_domain_id)
    domain_memo: dict[str, DomainId] = {}
    links, link_table, links_sound = _entries(top, "links", memo, order)
    central = _expect_int(top["central"], "central", minimum=1)
    m_max = _expect_int(top["m_max"], "m_max", minimum=1)

    params_obj = _expect_object(top["params"], "params")
    param_fields = (
        "s_req",
        "s_res",
        "num_vars",
        "s_ma",
        "d",
        "ma_size",
        "mda_size",
        "ma_res",
    )
    _expect_keys(params_obj, "params", required=param_fields)
    num_vars = _expect_int(params_obj["num_vars"], "params.num_vars", minimum=1)
    sizes = {
        name: _expect_number(params_obj[name], f"params.{name}", memo)
        for name in param_fields
        if name != "num_vars"
    }
    params = CostParams(num_vars=num_vars, **sizes)

    events = [
        _event(entry, index, memo, domain_memo)
        for index, entry in enumerate(_expect_array(top["events"], "events"))
    ]

    # A pin may name a node that joins later.
    ends = order.copy()
    for event in events:
        if type(event) is AddNode:
            ends[event.node] = None
    k_override, pin_table, pins_sound = _entries(top, "k_override", memo, ends)
    del ends

    domain_k: dict[str, Fraction] = {}
    if "domain_k" in top:
        dk_obj = _expect_object(top["domain_k"], "domain_k")
        for key in dk_obj:
            domain_k[key] = _expect_number(dk_obj[key], f"domain_k.{key}", memo)

    polling_counts = _expect_array(top["polling_counts"], "polling_counts")
    _check_polling_counts(polling_counts)
    models = _expect_array(top["models"], "models")
    _check_models(models)

    flatbed_itinerary: tuple[NodeId, ...] | None = None
    if "flatbed_itinerary" in top:
        stops = _expect_array(top["flatbed_itinerary"], "flatbed_itinerary")
        for index, stop in enumerate(stops):
            if not (type(stop) is int and stop >= 1):
                _expect_int(stop, f"flatbed_itinerary[{index}]", minimum=1)
        flatbed_itinerary = tuple(stops)

    notes: str | None = None
    if "notes" in top:
        value = top["notes"]
        if isinstance(value, str):
            notes = value
        elif isinstance(value, list):
            parts = [
                _expect_str(part, f"notes[{i}]") for i, part in enumerate(value)
            ]
            notes = "\n".join(parts)
        else:
            raise ValidationError("notes", "expected a string or array of strings")

    fields = (
        name, nodes, links, k_override, central, m_max, params, domain_k,
        tuple(events), tuple(polling_counts), tuple(models), flatbed_itinerary, notes,
    )
    if sound and links_sound and pins_sound:
        return Scenario._loaded(Network._of(order, link_table, pin_table), *fields)
    # Scenario builds the network again and reports the first fault.
    try:
        return Scenario(*fields)
    except TopologyError as exc:
        raise ValidationError(exc.entry, str(exc)) from None


# -- engine -----------------------------------------------------------------


def apply_event(state: SimulationState, event: Event) -> SimulationState:
    """Apply one event to the state, in place, and return the state.

    AddNode checks the node and then each of its links as
    ``Network.add_node`` and ``add_link`` would, raising their errors,
    then hands the node to the hierarchy, which may clone a child
    domain. Only once both steps have succeeded does the join wait for
    the network (see ``SimulationState``), so a failed join leaves the
    state as it was.
    Snapshot appends a record of the current hierarchy and changes
    nothing else.
    """
    if isinstance(event, AddNode):
        node, waiting, order = event.node, state._waiting, state._network._order
        _check_node_id(node)
        if node in order or node in waiting:
            raise DuplicateNode(f"duplicate node {node}")
        known = ChainMap({node: None}, waiting, order)
        taken: set[tuple[NodeId, NodeId]] = set()  # this join's links
        links = []
        for peer, coeff in event.links:
            taken.add(_link_key(node, peer, known, taken))
            links.append((peer, _coeff(coeff, "link", node, peer)))
        state.tree.add_node_to_domain(node, event.domain)
        waiting[node] = tuple(links)
    elif isinstance(event, Snapshot):
        state.snapshots.append(SnapshotRecord(event.label, state.tree.states()))
    else:
        raise TypeError(f"unknown event type: {event!r}")
    return state


def _model_costs(
    scenario: Scenario, state: SimulationState, models: tuple[str, ...]
) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """Price the current state: (per-poll, deploy) bytes keyed by model.

    With no model asked, both tables are empty and the network is not
    read, so its waiting joins go on waiting.
    """
    if not models:
        return {}, {}
    network, central = state.network, scenario.central
    present = network.nodes if "cs" in models or "flatbed" in models else ()
    targets = sorted(present)
    itinerary: tuple[NodeId, ...] = ()
    if "flatbed" in models:
        if scenario.flatbed_itinerary is None:
            itinerary = (central, *(n for n in targets if n != central))
        else:
            # at a snapshot, the listed stops that have joined
            itinerary = tuple(n for n in scenario.flatbed_itinerary if n in present)
    try:
        per_poll, deploy = _prices(
            network, scenario.params, models, central, targets, itinerary,
            state.tree.states(), scenario.domain_k,
        )
    except Unreachable as exc:
        message = f"{exc.model} cannot be priced: {exc}"
        raise ValidationError("models", message) from None
    return per_poll, deploy


def run(
    scenario: Scenario,
    *,
    models: Iterable[str] | None = None,
    polling_counts: Iterable[int] | None = None,
    costs_at_snapshots: bool = False,
) -> SimulationResult:
    """Execute a scenario from its ``network``; price the final one.

    ``models`` and ``polling_counts`` default to the scenario's own; pass
    them to override from a CLI or a sweep. Costs are evaluated on the
    final post-event state; with ``costs_at_snapshots`` every snapshot
    additionally carries the per-model costs at that instant. A pair a
    model needs but cannot reach raises ``ValidationError`` at ``models``.

    ``run`` replays the joins checked when the scenario was made, not
    through ``apply_event``: each joins the tree through
    ``ManagerTree.add_node_to_domain`` at once and waits in the
    ``SimulationState``, as a checked step's join does, until a version
    is priced, at a snapshot under ``costs_at_snapshots`` and at the end.
    So a run makes one ``Network`` version per pricing point, not one per
    node and link. It prices from a version of its own over the
    scenario's tables, made in O(1) since no version's tables change, so
    no run builds a path engine on ``scenario.network``. When no model
    is asked it makes no version and prices nothing, and a snapshot
    under ``costs_at_snapshots`` carries empty tables. Snapshots go
    through ``apply_event``.

    Unlike ``load_scenario``, a run leaves the cyclic collector as the
    caller set it.
    """
    chosen = tuple(scenario.models if models is None else models)
    for model in chosen:
        if model not in MODEL_NAMES:
            raise ValueError(f"unknown model {model!r} (choose from {MODEL_NAMES})")
    ordered_models = tuple(m for m in MODEL_NAMES if m in set(chosen))

    raw_counts = (
        scenario.polling_counts if polling_counts is None else polling_counts
    )
    counts: list[int] = []
    for count in raw_counts:
        if isinstance(count, bool) or not isinstance(count, int):
            raise ValueError(f"polling count must be an int, got {count!r}")
        if count < 0:
            raise ValueError(f"polling count must be non-negative, got {count}")
        counts.append(count)
    ordered_counts = tuple(sorted(set(counts)))

    tree = ManagerTree.initial_partition(
        scenario.nodes, scenario.m_max, scenario.central
    )
    network = scenario.network
    if ordered_models:  # else no version is read
        network = Network._of(network._order, network._links, network._override)
    state = SimulationState(network=network, tree=tree)
    waiting = state._waiting
    # The tables of the latest snapshot, while no AddNode has changed
    # the state since: the final state is then priced already.
    priced = None
    for event in scenario.events:
        if isinstance(event, AddNode):
            tree.add_node_to_domain(event.node, event.domain)
            waiting[event.node] = event.links
            priced = None
            continue
        apply_event(state, event)
        if costs_at_snapshots:
            priced = _model_costs(scenario, state, ordered_models)
            taken = state.snapshots[-1]
            state.snapshots[-1] = SnapshotRecord(taken.label, taken.domains, *priced)

    per_poll, deploy = priced or _model_costs(scenario, state, ordered_models)
    return SimulationResult(
        scenario=scenario.name,
        models=ordered_models,
        polling_counts=ordered_counts,
        per_poll=per_poll,
        deploy=deploy,
        snapshots=tuple(state.snapshots),
        final_domains=state.tree.states(),
    )
