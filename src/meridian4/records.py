"""Bases of the package's record classes.

A record's fields are the __slots__ of its class, in order, and its
__init__ is written out. `@dataclass` would generate these methods and
compile them with exec at every import, which no bytecode cache keeps: about
1 ms a class. Only minkowski.Vec4 stays a dataclass.

The bases keep the contract the dataclasses had. A field whose name starts
with an underscore is a cache: it is left out of repr and comparison, and a
Frozen record's __init__ takes its other fields in slot order."""

__all__ = ["Record", "Frozen", "set_fields"]


class Record:
    """Prints as Name(field=value, ...) and equals only a record of its own
    class with equal fields. Like a mutable dataclass it is unhashable."""

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({shown})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None


class Frozen(Record):
    """A record that refuses assignment and deletion once its __init__ has
    set its fields with set_fields; a cache may still be filled with
    object.__setattr__. Equal records hash alike, and copy and pickle
    rebuild a record through its __init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


def set_fields(record: Frozen, *values):
    """Set the fields of a Frozen record being built, in slot order."""
    for name, value in zip(record.__slots__, values):
        object.__setattr__(record, name, value)
