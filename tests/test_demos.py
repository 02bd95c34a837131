"""Every demo script runs to completion against the package sources and
prints its committed stdout, tests/data/demos/<name>.out."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDENS = ROOT / "tests" / "data" / "demos"
# demo 04 times its estimates; the golden holds "-s wall clock"
WALL_CLOCK = re.compile(r"[0-9.]+s wall clock$", re.MULTILINE)


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    golden = (GOLDENS / f"{demo.stem}.out").read_text()
    assert WALL_CLOCK.sub("-s wall clock", result.stdout) == golden
