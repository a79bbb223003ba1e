"""Frozen: the base of the package's immutable value classes.

A subclass lists its fields in __slots__, in constructor order, and sets
them in its own __init__ through set_field. The base then gives
what a frozen dataclass gives: assignment and deletion raise
AttributeError, equality and hashing go by the tuple of fields, and the
repr is the dataclass one. It is a plain class because importing
dataclasses loads inspect, and creating each dataclass compiles code at
import time: for the six value classes, a third to a half of the time
`import polyvol.cli` takes.
"""


# object.__setattr__ under a module-level name: it bypasses Frozen.__setattr__,
# and the call costs less than looking up the attribute of object each time
set_field = object.__setattr__


class Frozen:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__: the default
        # restores slot state by setattr, which __setattr__ refuses
        return type(self), self._fields()
