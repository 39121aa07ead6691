"""The package's ``__version__`` and the one ``pyproject.toml`` declares move together."""

import re
from pathlib import Path

import expclt

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    # a regex, not tomllib: Python 3.10 has no TOML reader in the standard library
    project = PYPROJECT.read_text(encoding="utf-8").split("[project]", 1)[1]
    found = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert found is not None and found.group(1) == expclt.__version__
