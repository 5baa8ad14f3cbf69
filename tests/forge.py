"""Forged records for the tests that check a verifier refuses them."""

from __future__ import annotations


def forge(record, **changes):
    """A copy of `record` with the fields in `changes` replaced.

    The copy is built through the record's class, so the forged fields meet
    every check its constructor makes, as the library's own records do.
    """
    return type(record)(**{**vars(record), **changes})
