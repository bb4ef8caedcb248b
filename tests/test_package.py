import os
import subprocess
import sys
from pathlib import Path

import pytest

import modtwist


def test_import_loads_no_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(modtwist.__file__).parent.parent))
    code = "import modtwist, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project.get("dependencies", []) == []
