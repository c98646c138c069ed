import os
import subprocess
import sys
from pathlib import Path

import pytest

import chorepick

SRC = Path(chorepick.__file__).parents[1]


@pytest.fixture
def run_python():
    """Run a fresh interpreter that imports this checkout's package; a run
    past ``timeout`` seconds raises subprocess.TimeoutExpired."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

    def run(*flags_and_code, timeout=120):
        return subprocess.run([sys.executable, *flags_and_code], capture_output=True,
                              text=True, env=env, timeout=timeout)
    return run
