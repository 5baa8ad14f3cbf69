"""Every demo script runs to completion, with its asserts and under ``python -O``."""

from __future__ import annotations

from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
each_demo = pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])


@each_demo
def test_demo_runs_optimized(demo, run_python):
    proc = run_python("-O", str(demo))
    assert proc.returncode == 0, proc.stderr


@each_demo
def test_demo_checks_pass(demo, run_python):
    # Without -O, so the demo's own asserts run too.
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
