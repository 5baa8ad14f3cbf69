"""Tests for the record codec that applies the schema's string rules."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import sqavoid
from sqavoid.formats import Record, record, value
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
    class Row(Record):
        z: int
        a: bool
        m: Fraction | None

    assert list(record(Row(1, True, None)).items()) == [("z", "1"), ("a", "true"), ("m", "")]


def _samples() -> list[Record]:
    """One record of each public record class, as the library builds them."""
    box = sqavoid.TwoDAP(12, 20, 9, 9)
    step = sqavoid.reduce_step(6, 10, 4, 4)
    point = sqavoid.ExponentPoint(Fraction(1, 2), Fraction(3, 5))
    swept = sqavoid.sweep(sqavoid.SweepConfig(1000, budget=5))
    instance = sqavoid.build_instance(13)
    return [
        box,
        sqavoid.find_square_witness(box, 10_000),
        sqavoid.certify_box(box, 10_000),
        sqavoid.congruence_lattice(17, 2, 3),
        step,
        sqavoid.verify_reduction(step, sqavoid.TwoDAP(6, 10, 4, 4), 1000),
        sqavoid.reduce_box(12, 20, 9, 9, 10_000),
        point,
        sqavoid.case_exponent(point),
        sqavoid.construct_small_square(5, 7, 3),
        sqavoid.small_square_survey(20),
        swept,
        swept.config,
        swept.best,
        instance,
        sqavoid.residue_certificate(instance),
        sqavoid.least_nonresidue_scan(50)[0],
    ]


def test_every_public_record_keeps_the_record_contract():
    samples = _samples()
    public = {
        obj for obj in map(vars(sqavoid).get, sqavoid.__all__) if isinstance(obj, type) and issubclass(obj, Record)
    }
    assert {type(rec) for rec in samples} == public and len(public) == 17
    for rec in samples:
        cls, fields = type(rec), list(rec.__annotations__)
        assert list(vars(rec)) == fields and list(record(rec)) == fields
        want = ", ".join(f"{name}={getattr(rec, name)!r}" for name in fields)
        assert repr(rec) == f"{cls.__qualname__}({want})"
        for name in fields:
            kept = getattr(rec, name)
            with pytest.raises(AttributeError):
                setattr(rec, name, kept)
            with pytest.raises(AttributeError):
                delattr(rec, name)
            assert getattr(rec, name) is kept
        # Equal fields, equal records; one field apart, unequal.
        twin = cls(*vars(rec).values())
        assert twin is not rec and twin == rec and hash(twin) == hash(rec)
        assert cls(**vars(rec)) == rec
        for name in fields:
            other = object.__new__(cls)
            object.__setattr__(other, "__dict__", {**vars(rec), name: object()})
            assert other != rec and not other == rec
        assert rec != tuple(vars(rec).values())


def test_records_compare_by_value_not_by_type_of_number():
    # An integer radius stays an int and a rational one becomes a Fraction;
    # the two spellings of one box are one record, so they hash alike.
    a, b = sqavoid.TwoDAP(3, 5, 3, Fraction(7, 2)), sqavoid.TwoDAP(3, 5, Fraction(3), 3.5)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != sqavoid.TwoDAP(3, 5, 3, 3)


def test_record_construction_refuses_bad_calls_like_a_function():
    w = SquareWitness(1, 2, 3)
    assert SquareWitness(1, x2=2, n=3) == SquareWitness(n=3, x2=2, x1=1) == w
    for args, kwargs, message in [
        ((1, 2), {}, "missing required arguments: 'n'"),
        ((), {"x1": 1}, "missing required arguments: 'x2', 'n'"),
        ((1, 2, 3, 4), {}, "takes 3 positional arguments but 4 were given"),
        ((1, 2, 3), {"x1": 1}, "got multiple values for argument 'x1'"),
        ((1, 2, 3), {"y": 1}, "got an unexpected keyword argument 'y'"),
    ]:
        with pytest.raises(TypeError, match=message):
            SquareWitness(*args, **kwargs)


def test_sweep_config_defaults():
    config = sqavoid.SweepConfig(1000)
    assert (config.families, config.budget, config.seed) == (tuple(sorted(sqavoid.FAMILIES)), 200, 0)
    assert sqavoid.SweepConfig(t=1000, seed=3) == sqavoid.SweepConfig(1000, sqavoid.FAMILIES, 200, 3)
    # Families are kept sorted and once each, whatever order they came in.
    assert sqavoid.SweepConfig(1000, ("one_d", "lower_bound", "one_d")).families == ("lower_bound", "one_d")
    with pytest.raises(TypeError, match="missing required arguments: 't'"):
        sqavoid.SweepConfig(budget=5)
