"""Rule ``env-knobs`` — ``REPRO_*`` env vars are read only in the registry.

Every ``REPRO_*`` knob is declared in ``repro/envknobs.py`` and read
through ``envknobs.read``, which raises on an undeclared key. This rule
closes the one way around that: a direct environment access with a
``REPRO_*`` key anywhere outside the registry module is a finding.

Recognized access forms: ``os.environ.get(K)`` / ``os.environ[K]`` /
``os.getenv(K)`` / ``environ.get(K)``, where ``K`` is a string literal
or a module-level string constant in the same file.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Optional, Tuple

from ..config import Config
from ..core import FileChecker, Finding, SourceFile
from ._util import const_str


def _module_str_constants(tree: ast.Module) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = const_str(node.value)
            if isinstance(target, ast.Name) and value is not None:
                out[target.id] = value
    return out


def _is_environ(node: ast.expr) -> bool:
    """``os.environ`` or a bare ``environ`` name."""
    if isinstance(node, ast.Attribute) and node.attr == "environ":
        return isinstance(node.value, ast.Name) and node.value.id == "os"
    return isinstance(node, ast.Name) and node.id == "environ"


def _env_accesses(src: SourceFile) -> Iterator[Tuple[str, int]]:
    """(key, line) for every env access with a resolvable key."""
    constants = _module_str_constants(src.tree)
    for node in ast.walk(src.tree):
        key_node: Optional[ast.expr] = None
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and (
                (func.attr == "get" and _is_environ(func.value))
                or (
                    func.attr == "getenv"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"
                )
            ):
                key_node = node.args[0]
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            key_node = node.slice
        if key_node is None:
            continue
        key = const_str(key_node)
        if key is None and isinstance(key_node, ast.Name):
            key = constants.get(key_node.id)
        if key is not None:
            yield key, node.lineno


class EnvKnobsChecker(FileChecker):
    name = "env-knobs"
    rules = ("env-knobs",)

    def file_applies(self, rel: str, config: Config) -> bool:
        return not rel.endswith(config.env_registry_module)

    def check_file(self, src: SourceFile, config: Config) -> Iterable[Finding]:
        for key, line in _env_accesses(src):
            if key.startswith(config.env_prefix):
                yield Finding(
                    rule="env-knobs",
                    path=src.rel,
                    line=line,
                    message=(
                        f"env knob {key!r} is read directly; declare it in "
                        f"{config.env_registry_module} and read it through "
                        "envknobs.read"
                    ),
                )
