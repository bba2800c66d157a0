"""The base of the records that check their fields when they are built.

Such a record names its fields in ``__slots__``, in the order of its
``__init__`` parameters, and sets them once, in ``__init__`` after its
checks, through ``_set``.  Assigning or deleting a field afterwards raises
AttributeError.  Two records of one class are equal when their fields are,
and hash alike; a copy or an unpickled record is built by ``__init__``
again.  The records with nothing to check are ``typing.NamedTuple``
classes instead.
"""


class Record:
    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())
