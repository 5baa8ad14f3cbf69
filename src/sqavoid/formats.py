"""The library's records and the codec that applies the schema's string rules.

`Record` is the base of every record the library returns.  It generates no
code when a record class is defined, so importing the package stays cheap.

Values can outgrow any float or fixed-width integer, so every field of an
emitted record is a string (docs/schema.md):

* integers are decimal strings and rationals "p" or "p/q";
* booleans are "true" / "false" and a missing value is "";
* display-only floats carry six decimal places;
* a tuple or a nested record is a JSON string (nested records with
  sorted keys).

`value` encodes one field; `record` encodes a record, field by field,
in declaration order.
"""

from __future__ import annotations

import json
from fractions import Fraction

SCHEMA_VERSION = "1"


class Record:
    """An immutable record: its fields are the class annotations, in order.

    A class attribute named like a field is its default.  Records are built
    positionally or by keyword, then `__post_init__` may normalise fields
    (with `object.__setattr__`) or refuse them.  The fields are the instance
    `__dict__`, which `==`, `hash` and `repr` read; assigning or deleting an
    attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        # A dict of its own, not one grown inside the instance: attribute
        # reads on a grown one miss the interpreter's fast path.
        object.__setattr__(self, "__dict__", dict(zip(names, args)))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from a call that is not all positional."""
        names, call = cls._fields, f"{cls.__name__}()"
        if len(args) > len(names):
            raise TypeError(f"{call} takes {len(names)} positional arguments but {len(args)} were given")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
            if name in names[: len(args)]:
                raise TypeError(f"{call} got multiple values for argument {name!r}")
        given = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        missing = [name for name in names if name not in given]
        if missing:
            raise TypeError(f"{call} missing required arguments: {', '.join(map(repr, missing))}")
        return [given[name] for name in names]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"cannot change {name!r}: a {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={x!r}" for name, x in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


def value(x) -> str:
    """One field as its schema string; TypeError for a type the schema lacks."""
    if x is None:
        return ""
    if isinstance(x, bool):  # before int: bool is an int subclass
        return "true" if x else "false"
    if isinstance(x, (int, Fraction, str)):
        return str(x)
    if isinstance(x, float):
        return f"{x:.6f}"
    if isinstance(x, tuple):
        return json.dumps([value(item) for item in x])
    if isinstance(x, Record):
        return json.dumps(record(x), sort_keys=True)
    raise TypeError(f"no schema encoding for {type(x).__name__}")


def record(obj: Record) -> dict[str, str]:
    """The record obj as {field name: value(field)}, in declaration order."""
    return {name: value(x) for name, x in vars(obj).items()}
