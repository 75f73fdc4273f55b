"""The immutable base of the library's value records."""

from operator import itemgetter


class Record:
    """A value whose fields are stored once, by its ``__init__``, through
    ``self.__dict__``; assigning or deleting an attribute afterwards raises
    ``AttributeError``.

    Each subclass names its fields in ``_fields``, in ``__init__`` order.
    Two records are equal when they have the same class and equal fields;
    the hash covers ``_hashed``, which defaults to ``_fields``; the repr is
    ``Name(field=value, ...)``.  A lazily cached attribute, such as a
    ``cached_property``, is not a field and takes part in none of them.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _hashed: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._key = itemgetter(*cls._fields)
        cls._hash_key = itemgetter(*getattr(cls, "_hashed", cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self.__dict__) == self._key(other.__dict__)

    def __hash__(self) -> int:
        return hash(self._hash_key(self.__dict__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
