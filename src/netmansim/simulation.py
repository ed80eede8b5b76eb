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
from typing import (
    BinaryIO, Container, Iterable, Iterator, Mapping, Sequence, TextIO, Union,
)

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
        set_node, set_domain, set_links = _JOIN_SETTERS
        set_node(self, node)
        set_domain(self, domain)
        set_links(self, links)


# A loader makes one AddNode per join: it sets the fields through their
# slot descriptors, past Record.__setattr__ (see DomainState).
_JOIN_SETTERS = tuple([vars(AddNode)[name].__set__ for name in AddNode.__slots__])


class Snapshot(Record):
    """Record the hierarchy as it stands, under a label."""

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        object.__setattr__(self, "label", label)


Event = Union[AddNode, Snapshot]

# The nodes known once every join is in, initial ones first, and each
# join's domain by event index: what sound events give.
_CheckedEvents = tuple[dict[NodeId, object], dict[int, DomainId]]


class Scenario(Record):
    """A fully validated scenario, ready to run.

    Making one checks every rule of its meaning, whether the loader or
    other code makes it. Made in code, its ``network`` is built from
    ``nodes``, ``links`` and ``k_override``, and raises what the
    ``Network`` constructor raises: a ``TopologyError`` for a fault of
    meaning, and a ``TypeError`` or ``ValueError`` for an entry of the
    wrong type, such as a node ``"5"`` (``node id must be an int, got
    '5'``) or a node 0 (``node id must be positive, got 0``). A
    ``nodes`` that cannot be iterated, or a link or pin that is not a
    triple (pins in a mapping or an iterator aside), raises the loader's
    ``ValidationError`` instead (``nodes: expected an array, got
    NoneType``, ``links[0]: expected [a, b, coeff], got 2 items``).
    Either way the first entry at fault is named.
    Then ``ValidationError``, with the JSON path of the fault, is raised
    unless:

    - ``name`` is a non-empty string; ``central`` and ``m_max`` are
      integers of at least 1; ``params`` is a ``CostParams``; each of
      ``polling_counts`` is an integer of at least 0; each of
      ``models`` is one of ``MODEL_NAMES``, named once; and ``notes``
      is ``None`` or a string, checked in that order;
    - ``nodes`` is not empty and holds ``central``;
    - each event is an ``AddNode`` or a ``Snapshot`` whose label is a
      string;
    - each join adds a new node, links it, by ``(peer, coeff)`` pairs,
      to nodes known by then, each peer once and never itself, at a
      non-negative coefficient, and joins a ``DomainId`` that exists
      then;
    - snapshot labels are unique;
    - every ``k_override`` id is a node that is initial or joins later;
    - ``domain_k`` is a mapping; every value is a non-negative number,
      and its key a domain id that exists by the end;
    - a ``flatbed_itinerary`` is a sequence of integers of at least 1, is not
      empty, names known nodes once each, starts at ``central`` and
      visits every node that ever joins.

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

    The loader builds the network itself, as it reads each link and pin,
    and tests each join and snapshot as it reads the event (see
    ``load_scenario``). It hands the network, the nodes known by the
    end and the join domains to ``_loaded``, which checks every other
    rule. A file with a fault in its nodes, links, pins or events is
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
        self._fill((
            name, nodes, links, k_override, central, m_max, params, domain_k,
            events, polling_counts, models, flatbed_itinerary, notes,
        ))

    @classmethod
    def _loaded(
        cls, network: Network, *fields: object, checked: _CheckedEvents | None = None
    ) -> "Scenario":
        """The scenario of ``fields``, in ``_fields`` order, over ``network``.

        The loader has built ``network`` from the ``links`` and
        ``k_override`` among the fields, and found every link and pin
        sound and every pinned id initial or joining. So neither the
        network nor the pins are checked again. Given ``checked``, what
        the loader's pass over sound events found (see ``_events``), the
        events are not walked again either. Every other rule is checked,
        in the order ``__init__`` checks it.
        """
        scenario = cls.__new__(cls)
        scenario._fill(fields, network, checked)
        return scenario

    def _fill(
        self, fields: tuple, network: Network | None = None,
        checked: _CheckedEvents | None = None,
    ) -> None:
        """Set the fields and ``network``; check every other rule.

        Without a ``network``, build it from the fields and check the
        pins. Without ``checked``, check the events, which give the known
        nodes and the join domains; with it, the events are sound.
        """
        for field, value in zip(self._fields, fields):
            object.__setattr__(self, field, value)
        built = network is None
        if built:
            try:
                network = Network(self.nodes, self.links, self.k_override)
            except TopologyError:
                raise
            except (TypeError, ValueError):
                # An entry of the wrong form is named as the loader names it.
                _check_network_form(self.nodes, self.links, self.k_override)
                raise
        object.__setattr__(self, "network", network)
        _check_name(self.name)
        _expect_int(self.central, "central", minimum=1)
        _expect_int(self.m_max, "m_max", minimum=1)
        if not isinstance(self.params, CostParams):
            message = f"expected a CostParams, got {type(self.params).__name__}"
            raise ValidationError("params", message)
        _check_ints(self.polling_counts, "polling_counts", 0)
        _check_models(self.models)
        if self.notes is not None:
            _expect_str(self.notes, "notes")
        if not self.nodes:
            raise ValidationError("nodes", "must not be empty")
        if self.central not in network._order:
            message = f"central node {self.central} is not in nodes"
            raise ValidationError("central", message)
        if checked is None:
            known = dict.fromkeys(self.nodes)
            joins = self._check_events(known)
        else:
            known, joins = checked
        if built:
            self._check_pins(known)
        self._check_itinerary(known)
        self._check_domains(joins)

    def _check_events(self, known: dict[NodeId, None]) -> dict[int, DomainId]:
        """Check each event's type, join and label; add joins to ``known``.

        Returns the domain of each join, keyed by its event index.
        """
        joins: dict[int, DomainId] = {}
        labels: set[str] = set()
        for index, event in enumerate(_iterate(self.events, "events")):
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
                if type(event.label) is not str:
                    _expect_str(event.label, f"events[{index}].snapshot")
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

    def _check_itinerary(self, known: Mapping[NodeId, object]) -> None:
        """A given itinerary visits each ``known`` node once, from ``central``."""
        itinerary = self.flatbed_itinerary
        if itinerary is None:
            return
        if not isinstance(itinerary, Sequence):  # it is indexed below
            message = f"expected an array, got {type(itinerary).__name__}"
            raise ValidationError("flatbed_itinerary", message)
        _check_ints(itinerary, "flatbed_itinerary", 1)
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
        if not isinstance(self.domain_k, Mapping):
            message = f"expected an object, got {type(self.domain_k).__name__}"
            raise ValidationError("domain_k", message)
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
        return tuple([state.id for state in self.domains])


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


def _iterate(value: object, path: str) -> Iterator:
    """``iter(value)``; a value that cannot be iterated raises at ``path``."""
    try:
        return iter(value)
    except TypeError:
        message = f"expected an array, got {type(value).__name__}"
        raise ValidationError(path, message) from None


def _check_ints(values: object, where: str, minimum: int) -> None:
    """Each of the ``where`` values is an integer of at least ``minimum``."""
    # An entry that fails the inline test has its JSON path formatted.
    for index, value in enumerate(_iterate(values, where)):
        if not (type(value) is int and value >= minimum):
            _expect_int(value, f"{where}[{index}]", minimum=minimum)


# The form of a link and of a pin, as a file writes them.
_ENTRY_SHAPES = {"links": "[a, b, coeff]", "k_override": "[i, j, cost]"}


def _check_network_form(nodes: object, links: object, pins: object) -> None:
    """Raise the loader's error if ``Network`` failed on an entry's form.

    ``Network`` reads the nodes, then each link, then each pin, and
    unpacks a link or pin before it checks its ids and number. It has
    raised a ``TypeError`` or ``ValueError``, so every entry before the
    one it failed on is sound. The walk stops at the first entry whose
    form, ids or number is at fault, and raises only for a fault of
    form: a node list that cannot be iterated, or a link or pin that is
    not an array of three. A bad id or number is left to ``Network``'s
    own error, and so are a mapping of pins, keyed by pair, and an
    iterator, which the build has read already.
    """
    iterator = _iterate(nodes, "nodes")
    if iterator is nodes:
        return
    for node in iterator:
        try:
            _check_node_id(node)
        except (TypeError, ValueError):
            return
    pins = () if pins is None or isinstance(pins, Mapping) else pins
    for where, entries in (("links", links), ("k_override", pins)):
        iterator = _iterate(entries, where)
        if iterator is entries:
            return
        for index, entry in enumerate(iterator):
            try:
                size = len(entry)
            except TypeError:
                _iterate(entry, f"{where}[{index}]")
                return  # an iterable with no length, read as Network reads it
            if size != 3:
                message = f"expected {_ENTRY_SHAPES[where]}, got {size} items"
                raise ValidationError(f"{where}[{index}]", message)
            a, b, value = entry
            try:
                _check_node_id(a)
                _check_node_id(b)
                _coeff(value, where, a, b)
            except (TypeError, ValueError):
                return


def _check_models(models: object) -> None:
    """Each model is a string, one of ``MODEL_NAMES``, named once."""
    seen: set[str] = set()
    for index, model in enumerate(_iterate(models, "models")):
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
            got = len(_expect_array(entry, path))
            message = f"expected {_ENTRY_SHAPES[where]}, got {got} items"
            raise ValidationError(path, message)
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
    obj: dict, path: str, keys: tuple[str, ...], optional: tuple[str, ...] = ()
) -> None:
    """Every key of ``obj`` is in ``keys``, and every key not ``optional`` in ``obj``."""
    for key in obj:
        if key not in keys:
            raise ValidationError(f"{path}.{key}" if path else key, "unknown key")
    missing = [key for key in keys if key not in obj and key not in optional]
    if missing:
        key = min(missing)
        raise ValidationError(f"{path}.{key}" if path else key, "missing required key")


def _parse_domain_id(text: str, memo: dict[str, DomainId]) -> DomainId:
    """``text`` as a ``DomainId``, one per distinct text.

    ``memo`` maps each text parsed so far to its id. A text whose parent
    text, all before its last dot, is in ``memo`` and whose last part is
    canonical ASCII digits is the parent's path plus that part, so a join
    domain named after its parent costs one part to parse, not one per
    level. Any other text goes to the full ``DomainId.parse``, which
    raises ValueError for every malformed id. The one step's ``int``
    fails only past the int digit limit, as ``parse``'s own does, so an
    id fails the same way on either path.
    """
    domain = memo.get(text)
    if domain is not None:
        return domain
    head, _, last = text.rpartition(".")
    parent = memo.get(head)
    # isdigit() alone also takes non-ASCII digits such as "٢" and "²".
    if parent is not None and last.isascii() and last.isdigit() and last[0] != "0":
        domain = DomainId._unchecked(parent.path + (int(last),))
    else:
        domain = DomainId.parse(text)
    memo[text] = domain
    return domain


def _events(
    array: list, memo: dict, domain_memo: dict, known: dict[NodeId, object]
) -> tuple[tuple[Event, ...], dict[int, DomainId] | None]:
    """The events, and each join's domain by event index if all are sound.

    One pass checks each event's shape and tests its meaning. Shape: a
    join or a snapshot, its items tested in order; a JSON path is
    formatted only for the error raised, or for a number not yet in
    ``memo``. Meaning: a join is sound when its node is not in
    ``known``, and each peer is in ``known`` and named once in the join;
    a snapshot is sound when its label is new. Each join's node is added
    to ``known`` after its peers are tested, so a peer that is the node
    itself fails the test. An unsound event only makes the domains None:
    ``Scenario`` reports it, after every fault of shape in the file (see
    ``_entries``).

    These tests restate, for checked ids and numbers, the rules
    ``Scenario._check_events`` enforces through ``_link_key``; a change
    to either must be made to both.
    """
    events: list[Event] = []
    joins: dict[int, DomainId] = {}
    labels: set[str] = set()
    sound = True
    for index, entry in enumerate(array):
        if type(entry) is not dict or len(entry) != 1:
            _expect_object(entry, f"events[{index}]")
            raise ValidationError(f"events[{index}]", "event must have exactly one key")
        body = entry.get("add_node")
        if type(body) is not dict:  # a snapshot, or a fault
            ((kind, value),) = entry.items()
            if kind == "snapshot":
                if type(value) is not str:
                    _expect_str(value, f"events[{index}].snapshot")
                if value in labels:
                    sound = False
                labels.add(value)
                events.append(Snapshot(value))
                continue
            if kind != "add_node":
                raise ValidationError(f"events[{index}].{kind}", "unknown event kind")
            _expect_object(body, f"events[{index}].add_node")
        node, text, pairs = body.get("node"), body.get("domain"), body.get("links", [])
        # A key held at null passes here and fails its own test below.
        if len(body) != 2 + ("links" in body) or node is None or text is None:
            _expect_keys(body, f"events[{index}].add_node", AddNode._fields, ("links",))
        if type(node) is not int or node < 1:
            _expect_int(node, f"events[{index}].add_node.node", minimum=1)
        if type(text) is not str:
            _expect_str(text, f"events[{index}].add_node.domain")
        try:
            domain = _parse_domain_id(text, domain_memo)
        except ValueError as exc:
            path = f"events[{index}].add_node.domain"
            raise ValidationError(path, str(exc)) from None
        if type(pairs) is not list:
            _expect_array(pairs, f"events[{index}].add_node.links")
        if node in known:
            sound = False
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
            if peer not in known:
                sound = False
        if len(links) > 1 and len({peer for peer, _ in links}) < len(links):
            sound = False
        known[node] = None
        joins[index] = domain
        events.append(AddNode(node, domain, tuple(links)))
    return tuple(events), joins if sound else None


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

    Each link, pin and event is read once, by one pass that checks its
    shape and tests its meaning. The links and pins fill the network's
    tables; each join's node joins the known nodes, which the pins and
    the itinerary are checked against, and its domain the list that
    ``ManagerTree._replay_shape`` replays once. If a node repeats, or a
    link, pin, join or snapshot label fails that test, the loader checks
    the rest of the file's shape and then makes the ``Scenario`` through
    its constructor, which reports the fault as it does for one made in
    code.

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


# The keys a scenario file may omit; its other keys are Scenario's fields.
_OPTIONAL = ("k_override", "domain_k", "flatbed_itinerary", "notes")


def _scenario_from_raw(raw: object) -> Scenario:
    top = _expect_object(raw, "")
    _expect_keys(top, "", Scenario._fields, _OPTIONAL)

    name = _check_name(top["name"])

    # Repeats, emptiness and every rule across fields are Scenario's to check.
    nodes = tuple(_expect_array(top["nodes"], "nodes"))
    _check_ints(nodes, "nodes", 1)
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
    _expect_keys(params_obj, "params", CostParams._fields)
    num_vars = _expect_int(params_obj["num_vars"], "params.num_vars", minimum=1)
    sizes = {
        name: _expect_number(params_obj[name], f"params.{name}", memo)
        for name in CostParams._fields
        if name != "num_vars"
    }
    params = CostParams(num_vars=num_vars, **sizes)

    # The initial nodes, then each join's node: a pin may name one.
    known: dict[NodeId, object] = order.copy()
    events, joins = _events(
        _expect_array(top["events"], "events"), memo, domain_memo, known
    )
    k_override, pin_table, pins_sound = _entries(top, "k_override", memo, known)

    domain_k: dict[str, Fraction] = {}
    if "domain_k" in top:
        dk_obj = _expect_object(top["domain_k"], "domain_k")
        for key in dk_obj:
            domain_k[key] = _expect_number(dk_obj[key], f"domain_k.{key}", memo)

    polling_counts = _expect_array(top["polling_counts"], "polling_counts")
    _check_ints(polling_counts, "polling_counts", 0)
    models = _expect_array(top["models"], "models")
    _check_models(models)

    flatbed_itinerary: tuple[NodeId, ...] | None = None
    if "flatbed_itinerary" in top:
        stops = _expect_array(top["flatbed_itinerary"], "flatbed_itinerary")
        _check_ints(stops, "flatbed_itinerary", 1)
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
        events, tuple(polling_counts), tuple(models), flatbed_itinerary, notes,
    )
    if sound and links_sound and pins_sound and joins is not None:
        network = Network._of(order, link_table, pin_table)
        return Scenario._loaded(network, *fields, checked=(known, joins))
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
