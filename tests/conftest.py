"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def bytediff():
    """``tools/bytediff.py`` as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "bytediff.py"
    spec = importlib.util.spec_from_file_location("bytediff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
