"""`balsched improve --out` stays byte-identical on a fixed set of instances.

The set is kope-1982 and the seeded synthetic projects 72/16 seeds 12-27,
144/32 seeds 5-8, and 288/8 and 288/64 seed 3, each run with default
parameters and with ``--max-iters 3``. Kope, 72/16 seeds 12-15 and 144/32
seed 5 also run three iterations under budgets of 0.2 and 50, where the
greedy's early stop and its rounded ratios decide the picks.
``improve_outputs.json`` holds, per run, SHA-256 digests of stdout (less
its closing ``wrote <path>`` line) and of the written file, and the exit
code.

A change that alters these outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_improve_outputs.py

and names the runs whose digests changed.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from balsched.cli import main
from balsched.fileio import instance_to_dict
from balsched.fixtures import build_fixture
from synthetic import synthetic_document

DIGESTS = Path(__file__).with_name("improve_outputs.json")

INSTANCES = {
    "kope-1982": lambda: instance_to_dict(build_fixture("kope-1982")),
    **{f"72/16 seed {seed}": (lambda seed=seed: synthetic_document(72, 16, seed))
       for seed in range(12, 28)},
    **{f"144/32 seed {seed}": (lambda seed=seed: synthetic_document(144, 32, seed))
       for seed in range(5, 9)},
    "288/8 seed 3": lambda: synthetic_document(288, 8, 3),
    "288/64 seed 3": lambda: synthetic_document(288, 64, 3),
}

OPTIONS = {"default": [], "--max-iters 3": ["--max-iters", "3"]}
BUDGETS = {
    f"--budget {budget} --max-iters 3": ["--budget", budget, "--max-iters", "3"]
    for budget in ("0.2", "50")
}
BUDGET_RUNS = {"kope-1982", *(f"72/16 seed {seed}" for seed in range(12, 16)), "144/32 seed 5"}


def run_digests(name: str, directory: Path) -> dict[str, dict]:
    """Per option set, the digests and exit code of `improve --out` on the
    named instance, with its files in directory."""
    source, out = directory / "instance.json", directory / "out.json"
    source.write_text(json.dumps(INSTANCES[name]()))
    runs = {}
    options = {**OPTIONS, **(BUDGETS if name in BUDGET_RUNS else {})}
    for option, args in options.items():
        out.unlink(missing_ok=True)
        result = CliRunner().invoke(main, ["improve", str(source), *args, "--out", str(out)])
        lines = result.stdout.splitlines(keepends=True)
        assert lines[-1] == f"wrote {out}\n", result.output
        assert result.stderr == ""
        runs[option] = {
            "exit_code": result.exit_code,
            "stdout_sha256": hashlib.sha256("".join(lines[:-1]).encode()).hexdigest(),
            "out_sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
        }
    return runs


@pytest.mark.parametrize("name", list(INSTANCES))
def test_improve_output_matches_the_recorded_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        digests = {name: run_digests(name, Path(directory)) for name in INSTANCES}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {DIGESTS}")
