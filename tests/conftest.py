import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import multiphoton

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")


@pytest.fixture
def fresh_python():
    """Run Python source in a new interpreter that imports the multiphoton
    under test; fails the test when it exits non-zero."""
    path = os.pathsep.join(
        filter(None, [str(Path(multiphoton.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    )

    def run(code: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
