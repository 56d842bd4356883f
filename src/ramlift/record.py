"""Immutable value classes without generated code.

Record is the base of ramlift's spec, map and result classes.  A subclass
names its fields in ``_fields`` and defines no ``__init__``; Record derives
everything else from that tuple:

- construction takes the fields by position, then the rest by name, and
  raises TypeError for a field that is missing, unknown or given twice;
- equality holds only against the same class, field by field;
- the hash is the hash of the field tuple, so equal values built apart are
  the same ``lru_cache`` key; it is computed once and kept beside the
  fields (``_hash``), because specs key every cache lookup and their field
  tuples nest;
- assigning or deleting an attribute raises AttributeError;
- repr is ``Name(field=value, ...)``.

``dataclasses`` would generate and exec these methods for every class at
import time, which dominated the start-up of each command-line call.
"""

from operator import attrgetter

# Record forbids assignment, so __init__ stores fields through object's
# __setattr__.  Writing to self.__dict__ instead would make each instance
# carry a full dict: 168 instead of 105 bytes for four fields (CPython 3.11).
set_field = object.__setattr__


class Record:
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # attrgetter of two or more names returns their values as a tuple
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values, **named):
        fields = self._fields
        if len(values) > len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes {len(fields)} "
                            f"arguments but {len(values)} were given")
        for name, value in zip(fields, values):
            set_field(self, name, value)
        for name in fields[len(values):]:
            if name not in named:
                raise TypeError(f"{type(self).__qualname__}() missing argument {name!r}")
            set_field(self, name, named.pop(name))
        if named:
            name = next(iter(named))
            how = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{type(self).__qualname__}() got {how} argument {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key(self))
            set_field(self, "_hash", h)
            return h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
