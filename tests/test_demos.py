"""The demos print exactly their committed outputs in ``tests/golden``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_four_demos():
    assert [d.stem[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_golden(demo):
    env = {k: v for k, v in os.environ.items() if not k.startswith("VVEIS_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_text()
