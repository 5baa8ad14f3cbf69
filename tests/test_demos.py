"""Every demo script runs to completion under ``python -O``."""

from __future__ import annotations

from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_optimized(demo, run_python):
    proc = run_python("-O", str(demo))
    assert proc.returncode == 0, proc.stderr
