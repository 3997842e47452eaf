"""`validate`, `evaluate` and `balance` stay byte-identical on modular files.

The set is ``modular_document`` seeds 1-5 at full size, and seed 1 with one
broken schedule per rule: a lane of an unknown processor, an unknown job
id, a job placed twice, a negative start, a job past the horizon, an
overlap, a start that is no integer, and a start past int64.
``modular_outputs.json`` holds, per file and command, the exit code and the
SHA-256 digests of stdout and stderr.

A change that alters these outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_modular_outputs.py

and names the runs whose digests changed.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from balsched.cli import main
from synthetic import modular_document

DIGESTS = Path(__file__).with_name("modular_outputs.json")

COMMANDS = ("validate", "evaluate", "balance")


def _lane(doc, proc):
    return doc["modular"]["schedule"]["placements"][proc]


def _unknown_processor(doc):
    doc["modular"]["schedule"]["placements"]["P99"] = []


def _unknown_id(doc):
    _lane(doc, "P04")[7][0] = "j99999"


def _placed_twice(doc):
    _lane(doc, "P03").append([_lane(doc, "P01")[5][0], 2380])


def _negative_start(doc):
    _lane(doc, "P02")[0][1] = -2


def _past_horizon(doc):
    _lane(doc, "P05")[-1][1] = 2398


def _overlap(doc):
    _lane(doc, "P06")[10][1] = _lane(doc, "P06")[9][1] + 1


def _non_integer_start(doc):
    _lane(doc, "P07")[3][1] = 41.5


def _past_int64(doc):
    _lane(doc, "P08")[2][1] = 2**63


MUTANTS = {
    "unknown processor": _unknown_processor,
    "unknown id": _unknown_id,
    "placed twice": _placed_twice,
    "negative start": _negative_start,
    "past the horizon": _past_horizon,
    "overlap": _overlap,
    "non-integer start": _non_integer_start,
    "start past int64": _past_int64,
}


def document(name: str) -> dict:
    """The parsed JSON of the named file: "seed <n>", or a mutant of seed 1."""
    if name.startswith("seed "):
        return modular_document(int(name.removeprefix("seed ")))
    doc = modular_document(1)
    MUTANTS[name](doc)
    return doc


NAMES = [f"seed {seed}" for seed in range(1, 6)] + list(MUTANTS)


def run_digests(name: str, directory: Path) -> dict[str, dict]:
    """Per command, the exit code and the digests of stdout and stderr on
    the named file, written into directory."""
    path = directory / "modular.json"
    path.write_text(json.dumps(document(name)))
    runs = {}
    for command in COMMANDS:
        result = CliRunner().invoke(main, [command, str(path)])
        runs[command] = {
            "exit_code": result.exit_code,
            "stdout_sha256": hashlib.sha256(result.stdout.encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(result.stderr.encode()).hexdigest(),
        }
    return runs


@pytest.mark.parametrize("name", NAMES)
def test_modular_output_matches_the_recorded_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        digests = {name: run_digests(name, Path(directory)) for name in NAMES}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {DIGESTS}")
