"""Immutable value records without the start-up cost of ``dataclasses``.

A ``Record`` subclass lists its fields in ``__slots__``; ``Record.__init__``
stores them in order through the slot setters it records as ``_setters``, so
a validating subclass ends its ``__init__`` with ``super().__init__(...)``.
``Record`` gives what a frozen dataclass would: equality only with instances
of the same class, a hash over the field values, the ``Name(field=value,
...)`` repr, ``__match_args__`` for positional ``match`` patterns, pickling
through the constructor, and ``FrozenInstanceError`` on assignment or
deletion.  A slot named ``_...`` is a cache, which eq, hash, pickling and repr skip.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__slots__
        cls.__match_args__ = slots
        cls._setters = tuple(getattr(cls, name).__set__ for name in slots)
        cls._fields = fields = tuple(name for name in slots if not name.startswith("_"))
        if len(fields) > 1:
            values = attrgetter(*fields)
        elif fields:
            one = attrgetter(fields[0])
            values = lambda self: (one(self),)  # noqa: E731
        else:
            values = lambda self: ()  # noqa: E731
        cls._values = staticmethod(values)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            name, n = self.__class__.__qualname__, len(setters)
            raise TypeError(f"{name}() takes {n} positional arguments but {len(values)} were given")
        for store, value in zip(setters, values):
            store(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._values(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
