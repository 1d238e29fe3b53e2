"""Immutable records: the part of a frozen dataclass this package uses.

A subclass lists its fields as ``__slots__``, in constructor order, and the
defaults of trailing fields in ``_defaults`` (a class attribute named like a
slot is an error).  A slot whose name starts with an underscore is private
state, left out of the constructor, equality, hash and repr.  ``__init__`` binds the arguments, then calls ``__post_init__``
through normal attribute lookup, so a wrapper set on the class sees every
construction.  Equality, hash and repr are those of
``@dataclass(frozen=True)``.  Code that builds a record from values it has
already checked may bypass ``__init__`` with ``object.__new__`` and
``object.__setattr__``.
"""

_set = object.__setattr__


class Frozen:
    """Base of the package's immutable records; it has no fields of its own."""

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        own = cls.__dict__.get("__slots__", ())
        cls._fields += tuple(name for name in own if not name.startswith("_"))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """One value per field: ``args`` in order, then ``kwargs``, then defaults."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            field = next(iter(kwargs))
            how = "multiple values for" if field in fields else "an unexpected keyword"
            raise TypeError(f"{name}() got {how} argument {field!r}")
        return values

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()
