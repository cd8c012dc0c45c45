"""Immutable value records, their methods written once for every class.

A ``Record`` subclass names its fields in its own ``__slots__`` and may give
defaults for them in ``_defaults``.  The base supplies a constructor taking
the fields positionally or by keyword, equality and hashing on the class and
the field values, a ``Name(field=value, ...)`` repr, and refusal of
assignment.  A subclass may define ``__post_init__`` to check or coerce its
fields; it sets one with ``object.__setattr__``.

The records are not generated from their annotations: the standard module
that does that imports ``inspect``, ``ast`` and ``dis`` and compiles each
class's methods from source, which costs the command line about a quarter
of its start-up.
"""


class Record:
    __slots__ = ()

    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = _bind(type(self), args, kwargs)
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self):
        return hash((self.__class__, _values(self)))

    def __repr__(self):
        body = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which may assign
        return type(self), _values(self)

    def __setattr__(self, field, _value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """The field values of a call that names some fields or leaves some out."""
    fields, name = cls.__slots__, cls.__name__
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    values = dict(zip(fields, args))
    for field, value in kwargs.items():
        if field not in fields or field in values:
            raise TypeError(f"{name}() got an unexpected or repeated argument {field!r}")
        values[field] = value
    for field in fields[len(args):]:
        if field not in values:
            if field not in cls._defaults:
                raise TypeError(f"{name}() missing argument {field!r}")
            values[field] = cls._defaults[field]
    return tuple(values[field] for field in fields)


def _values(record: Record) -> tuple:
    return tuple(getattr(record, field) for field in record.__slots__)
