"""Every narrative demo runs to completion and prints its working."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_readme_library_use_prints_what_its_comments_say():
    """README's "Library use" block runs, and each print gives the line its
    ``# …`` comment shows; a ``...`` in a comment stands for any text."""
    readme = (ROOT / "README.md").read_text()
    code = readme.split("\n## Library use\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    expected = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    got = result.stdout.splitlines()
    assert len(got) == len(expected) == 3
    for line, comment in zip(got, expected):
        head, dots, tail = comment.partition("...")
        if dots:
            assert line.startswith(head) and line.endswith(tail), (line, comment)
        else:
            assert line == comment
