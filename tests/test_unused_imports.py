"""Every module of the package, every test module and every demo uses each
name it imports. Deletions leave imports behind; the package's
``__init__.py`` imports only to re-export, so it is not read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# package modules by name, test modules and demos by folder and name
FILES = {path.name: path for path in (ROOT / "src" / "balsched").glob("*.py")
         if path.name != "__init__.py"}
FILES.update({f"{folder}/{path.name}": path
              for folder in ("tests", "demos") for path in (ROOT / folder).glob("*.py")})


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by import and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("module", sorted(FILES))
def test_a_module_reads_every_name_it_imports(module):
    assert unused_imports(FILES[module].read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\n"
        "from typing import Iterable, Mapping\n"
        "def f(x: Mapping) -> None:\n    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["np", "Iterable"]
