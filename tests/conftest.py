"""Shared test fixtures."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def run_python():
    """Run a fresh interpreter (`run_python("-O", "-c", code)`) on the checkout's src.

    The tests' own helpers, such as `forge`, are importable there too.

    `timeout` (seconds, default 120) bounds the run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")) if p)

    def run(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )

    return run
