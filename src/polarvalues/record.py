"""Immutable value records: the base of the package's report and data types.

A record class declares its fields as annotations, in order, with
optional defaults, like a frozen dataclass:

    class StepRecord(Record):
        index: int
        values: ValueSet

The base reads the annotations once, when the class is created, and
gives every record an `__init__` that takes the fields positionally or
by keyword (then calls `__post_init__`), value equality and hashing,
`Name(field=value, ...)` as its repr, and no assignment or deletion of
attributes.  A class keyword `uncompared` names the fields that equality
and hashing ignore, such as timings:

    class RunRecord(Record, uncompared=("millis",)):
        ...

A record keeps its fields in its instance `__dict__`; a `__post_init__`
or an `__init__` of its own sets them with `object.__setattr__`.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of the immutable value records (see the module docstring)."""

    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        cls._fields = fields
        cls._defaults = {
            name: cls.__dict__[name] for name in fields if name in cls.__dict__
        }
        cls._compared = attrgetter(
            *(name for name in fields if name not in uncompared)
        )

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                "%s() takes %d arguments, %d given"
                % (type(self).__name__, len(fields), len(args))
            )
        values = self.__dict__
        values.update(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(
                    "%s() got an unexpected or repeated argument %r"
                    % (type(self).__name__, name)
                )
            values[name] = value
        if len(values) < len(fields):
            for name in fields:
                if name not in values:
                    if name not in self._defaults:
                        raise TypeError(
                            "%s() missing argument %r"
                            % (type(self).__name__, name)
                        )
                    values[name] = self._defaults[name]
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(
            "cannot assign to %r of an immutable record" % name
        )

    def __delattr__(self, name):
        raise AttributeError(
            "cannot delete %r of an immutable record" % name
        )

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._compared
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._compared(self))

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join(
                "%s=%r" % (name, getattr(self, name)) for name in self._fields
            ),
        )

    def replace(self, **changes):
        """A record of the same class with `changes` applied to the fields."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)
