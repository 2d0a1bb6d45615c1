"""Frozen records: immutable value classes with named fields.

A record class lists its fields in __slots__ (a subclass of a record adds
its own after its parent's) and may give defaults in _defaults.  Record
gives it construction by position or keyword, equality and a hash over the
fields (equality only between instances of the same class), the repr
Name(field=value, ...), an AttributeError on assignment or deletion, and
copy and pickle by reconstruction.  A record that validates its fields
defines _check, which runs once every field is set.

These records are written out as slotted classes on purpose.  Generating
them at import with the standard library's frozen-record decorator loads
inspect, ast, dis and tokenize and compiles each class's methods: about
10 ms of a fresh CLI process, a third of its imports.  NamedTuples would
compare equal to any tuple of the same values (a U label to a T label, a
Signature to a Weight) and would add and repeat as tuples.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(vars(cls).get("__slots__", ()))
        if len(cls._fields) < 2:
            raise TypeError("a record has at least two fields")
        # one C-level read of every field, as a tuple: eq, hash and reduce
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            _set(self, name, value)
        self._check()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values in order, from positions, keywords and defaults."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} "
                            f"fields, got {len(args)}")
        values = list(args)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated "
                            f"fields {sorted(kwargs)}")
        return values

    def _check(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)
