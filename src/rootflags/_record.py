"""The immutable base of the library's value records."""


class Record:
    """A value whose fields are stored once, by its ``__init__``, through
    ``self.__dict__``; assigning or deleting an attribute afterwards raises
    ``AttributeError``.  Each subclass writes out its ``__init__``,
    ``__eq__``, ``__hash__`` and ``__repr__`` over its own fields."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
