"""The base of the algebra's value classes.

It gives them what ``@dataclass(frozen=True)`` generated, without the
cost of ``import dataclasses`` (which loads ``inspect``, ``ast`` and
``dis``) and of decorating each class (which ``exec``s every method).
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """An immutable record of the fields named in ``_fields``, in
    constructor order; a subclass's ``__init__`` stores them with
    ``_assign`` and ``_values`` reads them back as a tuple.  Instances are
    equal only to instances of exactly the same class with equal fields,
    hash like the tuple of their fields, and print as
    ``Name(field=value, ...)``.  Copy and pickle restore ``__dict__``
    directly, so they need no ``__reduce__``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)  # bare, not a 1-tuple, for a lone field
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
