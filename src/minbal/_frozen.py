"""The base of minbal's immutable value classes.

A subclass declares its fields as class annotations, in order; they
become its ``_fields`` unless it sets ``_fields`` itself, and a subclass
with no annotations of its own inherits them.  The one constructor takes
the fields by position or keyword, a missing one taking its class
attribute as default (``name: str = "x"``), and sets each with
``object.__setattr__``; a class that checks or converts its arguments
defines its own ``__init__`` and stores through this one.  Any other
assignment or deletion raises ``AttributeError``;
``functools.cached_property`` still works, as it writes to the instance
``__dict__`` directly.  Two objects are equal when they are of one class
and their fields are equal; the hash is that of the tuple of fields, and
``repr`` names the class and its fields.  These are the methods
``@dataclass(frozen=True)`` would generate, without building them with
``exec`` at import.  A class that stores its fields in another, canonical
form compares and hashes that form by overriding ``_values``, as
``SetFunction`` does.
"""

_setattr = object.__setattr__


class Frozen:
    _fields: tuple[str, ...] = ()
    _required = 0  # the fields a positional call gives, up to the last without a default

    def __init_subclass__(cls) -> None:
        # on 3.10+ a class's __annotations__ are its own, or {}
        if "_fields" not in cls.__dict__ and cls.__annotations__:
            cls._fields = tuple(cls.__annotations__)
        cls._required = max((i + 1 for i, name in enumerate(cls._fields) if name not in cls.__dict__), default=0)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        # a positional call sets the fields it gives, and the others read their class attribute
        if kwargs or not self._required <= len(args) <= len(fields):
            args = self._bind(args, kwargs)
        # not through __dict__, which would make the instance build a dict
        for name, value in zip(fields, args):
            _setattr(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords: the positional
        arguments, then each later field by keyword, else its class
        attribute."""
        rest = cls._fields[len(args):]
        values = {name: cls.__dict__[name] for name in rest if name in cls.__dict__} | kwargs
        if len(args) > len(cls._fields) or values.keys() != set(rest):
            raise TypeError(f"{cls.__qualname__}() takes {', '.join(cls._fields)}: "
                            f"got {len(args)} by position and {', '.join(kwargs) or 'none'} by keyword")
        return [*args, *map(values.__getitem__, rest)]

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
