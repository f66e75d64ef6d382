"""Every name a ``chowbg`` module imports at module level is put to use.

No linter runs over the package, so this stdlib-``ast`` audit stands in for
pyflakes' F401: a module-level import must be used in its module, listed in
its ``__all__``, imported from that module by another ``chowbg`` module (a
binding others read), or marked ``# noqa: F401`` on its line.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chowbg"
MODULES = sorted(PACKAGE.glob("*.py"))


def _unused_imports(source: str, read_elsewhere=frozenset()) -> list[tuple[str, int]]:
    """(bound name, line) of each top-level import but ``__future__``'s that the
    module neither reads nor lists in ``__all__``, and that is not in
    ``read_elsewhere`` or marked ``# noqa: F401``."""
    tree, lines = ast.parse(source), source.splitlines()
    kept = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(read_elsewhere)
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", "") for t in node.targets] == ["__all__"]:
            kept |= set(ast.literal_eval(node.value))
    return [
        (name, alias.lineno)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", "") != "__future__"
        for alias in node.names
        if (name := alias.asname or alias.name.partition(".")[0]) not in kept
        and "# noqa: F401" not in lines[alias.lineno - 1]
    ]


def _read_by_siblings() -> dict[str, set[str]]:
    """Module stem -> the names other ``chowbg`` modules import from it, at any level."""
    read: dict[str, set[str]] = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != path.stem:
                read.setdefault(node.module, set()).update(a.name for a in node.names)
    return read


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text(), _read_by_siblings().get(path.stem, ())) == []


def test_the_audit_sees_an_unused_import():
    source = "from .fields import PRIME_FIELD, contains_mu\nimport os  # noqa: F401\ncontains_mu(k, 2)\n"
    assert _unused_imports(source) == [("PRIME_FIELD", 1)]
