"""The base of the result records, and the memory probe: shared by every layer, so `simulate` needs no `core`."""

from __future__ import annotations

import operator


class _Record:
    """A frozen record whose fields are its class's ``__slots__``, in order.

    As a frozen dataclass does, equality (between records of one class),
    hash and repr read the tuple of field values, and assigning or
    deleting a field raises AttributeError. The one ``__init__`` sets the
    fields unchecked, in ``__slots__`` order, from positional and keyword
    arguments, as a dataclass's does; a missing, unknown, repeated or
    surplus argument raises TypeError. A subclass that checks its
    arguments ends its own ``__init__`` in ``super().__init__(...)``;
    `PartialStats`, which `running_stats` builds per checkpoint, sets each
    field by a `_set` call, as a loop makes it about a third slower. A
    record pickles and copies by its field values, put back unchecked by
    `_restore` through the same loop. A subclass that declares no slots
    keeps its base's fields.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__dict__.get("__slots__")
        if fields:
            get = operator.attrgetter(*fields)  # a lone field comes back bare, not in a tuple
            cls._fields = fields
            cls._values = property(get if len(fields) > 1 else lambda record: (get(record),))
            cls.__match_args__ = cls.__dict__.get("__match_args__", fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        values = {**dict(zip(fields, args)), **kwargs}
        if len(values) != len(args) + len(kwargs) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__qualname__}() takes its fields {fields} once each, by position or by name")
        for name in fields:
            _set(self, name, values[name])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return _restore, (type(self), self._values)


_set = object.__setattr__  # sets a field of a record under construction


def _restore(cls: type, values: tuple) -> _Record:
    """A `cls` record holding the field `values`, unchecked."""
    record = object.__new__(cls)
    _Record.__init__(record, *values)
    return record


def _probe_memory(size: int, what: str) -> None:
    """Raise MemoryError at once when `size` bytes for `what` cannot be had.

    ``bytes(size)`` asks calloc for zeroed memory, so the probe neither
    touches nor keeps it; work whose result cannot fit fails here instead
    of after a long loop.
    """
    try:
        bytes(size)
    except OverflowError:  # larger than any address space
        raise MemoryError(what) from None
