"""Tests for the record codec that applies the schema's string rules."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import pytest

from sqavoid.formats import record, value
from sqavoid.progression import SquareWitness


def test_value_encodes_each_schema_type():
    assert value(None) == ""
    assert (value(True), value(False)) == ("true", "false")  # not "1" / "0"
    assert value(-(10**30)) == "-" + "1" + "0" * 30
    assert (value(Fraction(6, 3)), value(Fraction(-338, 15))) == ("2", "-338/15")
    assert value("one_d") == "one_d"
    assert value(2 / 3) == "0.666667"
    assert json.loads(value((4, -1))) == ["4", "-1"]
    assert value(SquareWitness(-2, 2, 2)) == '{"n": "2", "x1": "-2", "x2": "2"}'
    for unknown in ([1, 2], {"x": 1}, b"1", SquareWitness):
        with pytest.raises(TypeError):
            value(unknown)


def test_record_keeps_declaration_order():
    @dataclass
    class Row:
        z: int
        a: bool
        m: Fraction | None

    assert list(record(Row(1, True, None)).items()) == [("z", "1"), ("a", "true"), ("m", "")]
