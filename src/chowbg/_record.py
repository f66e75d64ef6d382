"""Immutable value records without the start-up cost of ``dataclasses``.

A ``Record`` subclass lists its fields in ``__slots__`` and writes its own
``__init__``, storing each field with ``object.__setattr__``.  ``Record``
gives it what a frozen dataclass would: equality only with instances of the
same class, a hash over the field values, the ``Name(field=value, ...)``
repr, ``__match_args__`` for positional ``match`` patterns, pickling
through the constructor, and ``FrozenInstanceError`` on assignment or
deletion.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        cls.__match_args__ = fields
        if len(fields) > 1:
            values = attrgetter(*fields)
        elif fields:
            one = attrgetter(fields[0])
            values = lambda self: (one(self),)  # noqa: E731
        else:
            values = lambda self: ()  # noqa: E731
        cls._values = staticmethod(values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._values(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
