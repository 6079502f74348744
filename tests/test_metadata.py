"""Package metadata must not lie: the README's stdlib-only claim and the
single version number are both checked here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_import_repro_does_not_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('numpy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_pyproject_version_comes_from_package():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as handle:
        config = tomllib.load(handle)
    project = config["project"]
    assert "version" not in project
    assert "version" in project["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }
    assert project["dependencies"] == []
