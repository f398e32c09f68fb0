"""The serving demos in ``examples/`` run to completion.

Each demo drives the public serving API end to end, so an API change
that breaks one fails here instead of going unnoticed until someone
runs it by hand.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["serving_demo", "chaos_demo",
                                  "fleet_failover_demo",
                                  "tenant_tiers_demo"])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{demo}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []  # a demo leaves no files behind
