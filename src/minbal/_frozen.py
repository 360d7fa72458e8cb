"""The base of minbal's immutable value classes.

Each subclass names its compared fields in ``_fields`` and sets them in
its own ``__init__`` with ``object.__setattr__``.  Any other assignment
or deletion raises ``AttributeError``; ``functools.cached_property``
still works, as it writes to the instance ``__dict__`` directly.  Two
objects are equal when they are of one class and their fields are
equal; the hash is that of the tuple of fields, and ``repr`` names the
class and its fields.  These are the methods ``@dataclass(frozen=True)``
would generate, without building them with ``exec`` at import.  A
class that stores its fields in another, canonical form compares and
hashes that form by overriding ``_values``, as ``SetFunction`` does.
"""


class Frozen:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__qualname__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__qualname__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
