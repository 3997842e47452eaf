"""The package writes files in one place: no call in ``src/balsched/``
opens a file for writing, or writes one, outside ``fileio._write``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "balsched"
# os.open flags that let the call write
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _writes(call: ast.Call) -> bool:
    """Whether a call may write a file: write_text or write_bytes, os.open
    with a writing flag, or any other open whose mode is not a read-only
    string constant (a method's mode is its first argument, as in
    Path.open; a function's its second, as in open and io.open)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    owner = getattr(func, "value", None)
    module = owner.id if isinstance(owner, ast.Name) else None
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    at = 0 if owner is not None and module not in ("os", "io", "builtins") else 1
    modes = call.args[at:at + 1] + [k.value for k in call.keywords if k.arg in ("mode", "flags")]
    if module == "os":
        return any(getattr(node, "attr", None) in WRITE_FLAGS
                   for mode in modes for node in ast.walk(mode))
    return any(not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and set(mode.value).isdisjoint("wax+")) for mode in modes)


def writing_calls(source: str) -> list[str]:
    """'<function>:<line>' of each writing call in source, with the name of
    the innermost function around it ('' at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _writes(child):
                found.append(f"{function}:{child.lineno}")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_a_module_writes_files_only_in_the_write_path(module):
    found = writing_calls((PACKAGE / module).read_text(encoding="utf-8"))
    functions = {where.split(":")[0] for where in found}
    assert functions == ({"_write"} if module == "fileio.py" else set())


def test_the_scan_finds_every_writing_call():
    source = (
        "import io, os\n"
        "def read(p):\n"
        "    open(p); open(p, 'rb'); open(p, mode='r'); p.open(); p.open('rb')\n"
        "    os.open(p, os.O_RDONLY); p.read_text()\n"
        "def write(p, m):\n"
        "    open(p, 'w'); open(p, mode='a'); open(p, 'r+'); open(p, m); io.open(p, 'x')\n"
        "    p.open('w'); p.open(mode='ab'); os.open(p, flags=os.O_WRONLY | os.O_CREAT)\n"
        "    p.write_text('x'); p.write_bytes(b'x')\n"
        "with open('log', 'w') as handle:\n    pass\n"
    )
    assert writing_calls(source) == ["write:6"] * 5 + ["write:7"] * 3 + ["write:8"] * 2 + [":9"]
