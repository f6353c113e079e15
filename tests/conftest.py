"""Fixtures shared by the test modules."""
import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def child_env():
    """Environment for a child Python process, with this checkout's src/
    first on its path, so `python -m vehicle3d` runs uninstalled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
