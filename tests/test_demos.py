"""The quick demos run to completion.

Demos 03 and 04 train models for several seconds each and are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fapft

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", ["01_angle_metric.py", "02_parameter_accounting.py"])
def test_demo_exits_zero(demo):
    src = str(Path(fapft.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
