"""The base of the package's immutable value types.

A record class names its fields in ``_fields``, and its own ``__init__``
stores them with ``_set`` (``object.__setattr__``), since assignment
raises.  The base compares and hashes records by their fields
(by ``_compare`` where a class names fewer) and prints them as
``Name(field=value, ...)``.  Records keep a ``__dict__``, so a
``functools.cached_property`` can store into it; a cached value is not a
field and takes no part in equality.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()
    _compare: tuple[str, ...] = ()  # the fields equality reads, if not all

    def __init_subclass__(cls):
        cls._key = attrgetter(*(cls._compare or cls._fields))

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
