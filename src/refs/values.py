"""Bases for the package's value types: slotted classes that act like dataclasses.

A subclass names its fields in ``__slots__``, in constructor order, and
sets them in ``__init__``; its own subclasses inherit them. Equality
compares the fields against an instance of the same class only; ``repr``
reads ``Name(field=value, ...)``.
No ``dataclasses`` here: importing it loads ``inspect``, ``ast`` and ``dis``,
and building each class costs about a millisecond, at every command's start.

A ``Frozen`` type refuses assignment, so its ``__init__`` sets each field
through the slot's own descriptor: ``slot_setters(cls)``, called once
after the class, gives each slot descriptor's ``__set__``. That skips the
attribute lookup by name that ``object.__setattr__`` does on every call,
and value types are built on every read of a stored entry.
"""

from __future__ import annotations


class Value:
    """A mutable value: field-wise equality, and unhashable like a dataclass."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]
    _field_names: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._field_names = cls._field_names + tuple(cls.__dict__.get("__slots__", ()))

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._field_names])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()  # type: ignore[attr-defined]
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._field_names])
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Value):
    """An immutable value, hashed by its fields.

    ``__init__`` sets each field once, through its setter from
    ``slot_setters``. Copies and pickles rebuild the instance through its
    constructor.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


def slot_setters(cls: type[Frozen]) -> tuple:
    """The ``__set__`` of each field's slot descriptor, in field order.

    ``set_name(obj, value)`` stores a field the way ``object.__setattr__``
    would, bypassing ``Frozen.__setattr__``.
    """
    return tuple([getattr(cls, name).__set__ for name in cls._field_names])
