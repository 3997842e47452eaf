"""`evaluate`, `balance` and `report` stay byte-identical on home-building files.

The set is kope-1982 and the seeded synthetic projects 288/8 seeds 1-3.
``report`` runs with ``--detail d1``, the file's own d1 capacity and
``--csv``. ``evaluate_outputs.json`` holds, per file and command, the exit
code and the SHA-256 digests of stdout (less report's closing
``wrote <path>`` line) and stderr, and for report the digest of the CSV.

A change that alters these outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_evaluate_outputs.py

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

DIGESTS = Path(__file__).with_name("evaluate_outputs.json")

INSTANCES = {
    "kope-1982": lambda: instance_to_dict(build_fixture("kope-1982")),
    **{f"288/8 seed {seed}": (lambda seed=seed: synthetic_document(288, 8, seed))
       for seed in range(1, 4)},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(name: str, directory: Path) -> dict[str, dict]:
    """Per command, the exit code and the digests of its outputs on the
    named instance, with its files in directory."""
    document = INSTANCES[name]()
    source, curve = directory / "instance.json", directory / "curve.csv"
    source.write_text(json.dumps(document))
    capacity = repr(document["homebuilding"]["capacity"]["d1"])
    commands = {
        "evaluate": ["evaluate", str(source)],
        "balance": ["balance", str(source)],
        "report": ["report", str(source), "--detail", "d1", "--capacity", capacity,
                   "--csv", str(curve)],
    }
    runs = {}
    for command, args in commands.items():
        result = CliRunner().invoke(main, args)
        stdout = result.stdout
        run = {"exit_code": result.exit_code}
        if command == "report":
            lines = stdout.splitlines(keepends=True)
            assert lines[-1] == f"wrote {curve}\n", result.output
            stdout = "".join(lines[:-1])
            run["csv_sha256"] = _sha256(curve.read_bytes())
        run["stdout_sha256"] = _sha256(stdout.encode())
        run["stderr_sha256"] = _sha256(result.stderr.encode())
        runs[command] = run
    return runs


@pytest.mark.parametrize("name", list(INSTANCES))
def test_evaluate_output_matches_the_recorded_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        digests = {name: run_digests(name, Path(directory)) for name in INSTANCES}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {DIGESTS}")
