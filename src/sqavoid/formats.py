"""The record codec: the one place the schema's string rules are applied.

Values can outgrow any float or fixed-width integer, so every field of an
emitted record is a string (docs/schema.md):

* integers are decimal strings and rationals "p" or "p/q";
* booleans are "true" / "false" and a missing value is "";
* display-only floats carry six decimal places;
* a tuple or a nested dataclass is a JSON string (nested records with
  sorted keys).

`value` encodes one field; `record` encodes a dataclass, field by field,
in declaration order.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

SCHEMA_VERSION = "1"


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
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return json.dumps(record(x), sort_keys=True)
    raise TypeError(f"no schema encoding for {type(x).__name__}")


def record(obj) -> dict[str, str]:
    """The dataclass obj as {field name: value(field)}, in declaration order."""
    return {f.name: value(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
