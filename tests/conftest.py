"""Test-session setup shared by every test module."""

from __future__ import annotations

import os


def pytest_configure(config) -> None:
    # Tests start ``python -m docmt`` children from temporary working
    # directories; a relative PYTHONPATH entry (such as ``src``) would not
    # resolve there, so make every entry absolute first.
    entries = os.environ.get("PYTHONPATH")
    if entries:
        os.environ["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(entry) if entry else entry
            for entry in entries.split(os.pathsep)
        )
