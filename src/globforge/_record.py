"""Slotted records: a dataclass's field equality, hashing and repr, without
importing dataclasses (which pulls in inspect) or exec-ing code per class.

A subclass lists its fields once, `__slots__ = _fields = (...)`; it writes its
own `__init__` only for defaults, derived slots or speed.  Records are frozen;
an assignable one sets `__setattr__`, `__delattr__` and `__hash__` to
object's and None, as a non-frozen dataclass.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))  # a tuple, as dataclasses hash

    def __init__(self, *args, **kwargs) -> None:
        """Bind the fields by position or keyword, as a dataclass does."""
        values = args + tuple(kwargs.pop(name) for name in self._fields[len(args):] if name in kwargs)
        if kwargs or len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__name__}() takes the fields {', '.join(self._fields)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{self.__class__.__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__
