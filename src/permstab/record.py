"""The base of the package's immutable value types.

A record class declares its fields as its own annotations, in order; a
value in the class body is that field's default.  So no annotation that
is not a field may go on a record class: a class constant goes unannotated.
``Record(*values, **named)`` stores the fields by position or by name,
and a validating class checks its arguments, then calls
``super().__init__``.  ``cls._trusted(*values)`` stores the fields by
position without running ``__init__``, so without the class's checks;
it is for values valid by construction.  Both store with
``object.__setattr__``, since assignment raises.  The base compares and
hashes records by all their fields and prints them as
``Name(field=value, ...)``.  Records keep a ``__dict__``, so a
``functools.cached_property`` can store into it; a cached value is not
a field and takes no part in equality.
"""

from __future__ import annotations

from operator import attrgetter

_new = object.__new__
_set = object.__setattr__


class Record:
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            rest = fields[len(values):]
            if len(values) > len(fields) or not named.keys() <= set(rest):
                raise TypeError(f"{type(self).__name__} takes the fields {fields}")
            named = {**self._defaults, **named}
            missing = [name for name in rest if name not in named]
            if missing:
                raise TypeError(f"{type(self).__name__} misses the fields {missing}")
            values += tuple(named[name] for name in rest)
        for name, value in zip(fields, values):
            _set(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """A record of ``values`` in field order, unchecked."""
        self = _new(cls)
        for name, value in zip(cls._fields, values):
            _set(self, name, value)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
