"""The base class of netmansim's frozen records.

The records are plain classes because ``dataclasses`` imports ``inspect``
and ``exec``s each class's methods, which made ``import netmansim`` slow.
"""

from __future__ import annotations


class Record:
    """Equality, hashing, ``repr`` and immutability over a class's fields.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``object.__setattr__`` or, where records are made
    often, with each slot descriptor's ``__set__``, which costs about
    half as much. ``_fields``, by default its
    ``__slots__``, are the fields compared, hashed and shown, in order.
    As for a frozen dataclass, a record equals only a record of its own
    class with equal fields, and hashes as the tuple of those fields.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "__slots__" in vars(cls):  # else it keeps its parent's fields
            cls._fields = cls.__match_args__ = vars(cls).get("_fields", cls.__slots__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        # copy and pickle restore slots by setattr, which a record refuses
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
