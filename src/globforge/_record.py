"""Slotted records: a dataclass's field equality, hashing and repr, without
importing dataclasses (which pulls in inspect) or exec-ing code per class.

A subclass lists its fields once, `__slots__ = _fields = (...)`, and the
defaults of trailing fields in `_defaults`, where a class stands for a fresh
instance per record, as a dataclass's default_factory; it writes its own
`__init__` only for derived slots or speed.  Records are frozen;
an assignable one sets `__setattr__`, `__delattr__` and `__hash__` to
object's and None, as a non-frozen dataclass.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))  # a tuple, as dataclasses hash
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)  # the slots' own, past __setattr__

    def __init__(self, *args, **kwargs) -> None:
        """Bind the fields by position or keyword, as a dataclass does; a field left out takes its default."""
        if kwargs or len(args) != len(self._fields):
            rest = self._fields[len(args):]
            args += tuple(kwargs.pop(name) if name in kwargs else self._default(name) for name in rest)
            if kwargs or len(args) != len(self._fields) or _MISSING in args:
                raise TypeError(f"{self.__class__.__name__}() takes the fields {', '.join(self._fields)}")
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def _default(self, name: str):
        default = self._defaults.get(name, _MISSING)
        return default() if isinstance(default, type) else default

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


_MISSING = object()  # a field left out that has no default
