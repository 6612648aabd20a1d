"""The ``REPRO_*`` knob registry: one reader, and no stale declarations."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro import envknobs

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_read_returns_the_declared_value():
    assert envknobs.read("REPRO_NO_FSYNC", {"REPRO_NO_FSYNC": "1"}) == "1"
    assert envknobs.read("REPRO_NO_FSYNC", {}) is None


def test_undeclared_key_raises():
    with pytest.raises(ValueError, match="REPRO_TYPO"):
        envknobs.read("REPRO_TYPO")


def _read_keys(path: Path):
    """Keys passed to ``envknobs.read`` in one module: string literals, or
    module-level string constants."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    constants = {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "read"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "envknobs"
            and node.args
        ):
            key = node.args[0]
            if isinstance(key, ast.Constant):
                yield key.value
            elif isinstance(key, ast.Name):
                yield constants.get(key.id)


def test_every_declared_knob_is_read_somewhere():
    read = {
        key
        for top in ("src", "benchmarks")
        for path in (REPO_ROOT / top).rglob("*.py")
        for key in _read_keys(path)
    }
    assert set(envknobs.KNOWN_KNOBS) <= read, "stale KNOWN_KNOBS entries"
