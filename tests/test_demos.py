"""Every demo script runs to completion, with its asserts and under ``python -O``,
and so does README's library quick start."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
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


def test_readme_python_example_runs(run_python):
    # Without -O, so the example's asserts run too.
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    proc = run_python("-c", blocks[0])
    assert proc.returncode == 0, proc.stderr
