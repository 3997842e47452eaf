"""The benchmark's seeded synthetic instances, for tests.

``perfbench/generators.py`` grows them from the kope-1982 templates with the
standard library only; it is loaded from its file, so the tests need no
package layout for the benchmark directory.
"""

import importlib.util
from pathlib import Path

from balsched.fileio import instance_from_dict, instance_to_dict
from balsched.fixtures import build_fixture

_GENERATORS = Path(__file__).resolve().parents[1] / "perfbench" / "generators.py"


def _generators():
    spec = importlib.util.spec_from_file_location("perfbench_generators", _GENERATORS)
    generators = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generators)
    return generators


def modular_document(seed, **sizes):
    """The parsed JSON of ``modular_instance(seed, **sizes)``."""
    return _generators().modular_instance(seed, **sizes)


def synthetic_document(n_buildings, n_teams, seed):
    """The parsed JSON of ``synthetic_project(n_buildings, n_teams, seed)``."""
    kope = instance_to_dict(build_fixture("kope-1982"))
    return _generators().synthetic_project(kope, n_buildings, n_teams, seed)


def synthetic_instance(n_buildings, n_teams, seed):
    """The loaded instance of ``synthetic_project(n_buildings, n_teams, seed)``."""
    return instance_from_dict(synthetic_document(n_buildings, n_teams, seed))
