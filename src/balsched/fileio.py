"""Instance files, CSV reports, and text Gantt rendering.

One JSON format carries both problem flavors, discriminated by ``mode``:
"modular" files hold an element universe, composite jobs, processors, a
grid, a slot schedule, and optionally a reference profile and window jobs;
"homebuilding" files hold section/building templates, buildings, a team
schedule, capacity, and optionally loop parameters and reference
requirement figures for comparison reports.

Saving writes the canonical text of ``instance_to_dict`` (sorted keys,
two-space indent, trailing newline) from the columns; ``load(save(x)) == x``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import stat
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, is_dataclass
from functools import cache, partial
from itertools import chain, islice, repeat
from typing import Any, Mapping, Sequence

import numpy as np

from .core import (
    CompositeJob,
    ElementUniverse,
    JobTable,
    SlotLane,
    SlotSchedule,
    TimeGrid,
)
from .homebuilding import (
    DETAIL_TYPES,
    FLOOR_TYPES,
    Building,
    BuildingTable,
    BuildingType,
    Project,
    RequirementTable,
    SectionType,
    TeamSchedule,
)
from .improve import ImproveParams
from .jit import PenaltyWeights, WindowJob, WindowTable

FORMAT_VERSION = 1

MODES = ("modular", "homebuilding")


class SchemaError(ValueError):
    """An instance file fails schema validation.

    ``issues`` hold "<json-pointer>: <problem>" strings.
    """

    def __init__(self, issues: Sequence[str]):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


@dataclass(frozen=True)
class InstanceFile:
    """Everything one run needs, as loaded from a single JSON file.

    A loaded file holds its modular jobs as a JobTable, its slot lanes as
    SlotLanes and its window jobs as a WindowTable; an instance built by hand
    may hold tuples of records and pairs instead, and compares equal to its
    loaded form. A project holds its buildings as a BuildingTable either way.
    """

    mode: str
    # modular
    universe: ElementUniverse | None = None
    jobs: JobTable | tuple[CompositeJob, ...] | None = None
    processors: tuple[str, ...] | None = None
    grid: TimeGrid | None = None
    schedule: SlotSchedule | None = None
    reference_profile: tuple[float, ...] | None = None
    proximity_threshold: float | None = None
    window_jobs: WindowTable | tuple[WindowJob, ...] | None = None
    penalty_weights: PenaltyWeights | None = None
    # homebuilding
    project: Project | None = None
    team_schedule: TeamSchedule | None = None
    capacity: Mapping[str, float] | None = None
    improve_params: ImproveParams | None = None
    reference_requirements: RequirementTable | None = None


# --- reading -----------------------------------------------------------------
#
# A reader takes one JSON value and returns it checked, or the domain object
# built from it, and raises _Bad on the first problem. The JSON-pointer path
# is collected only while a _Bad unwinds, so a valid file builds no paths.
# _field and _each turn failures into issues: a bad field or entry is
# reported and skipped, and reading goes on, so one run lists every problem.
#
# The modular jobs, each slot lane, the window jobs, the section types, the
# buildings object and each team lane first get one fast pass: exact type
# tests and defaults over whole columns, no path bookkeeping and no issues.
# Jobs become a JobTable of universe codes, slot lanes SlotLanes, window
# jobs a WindowTable and buildings a BuildingTable, so a valid file builds
# no job, placement or building records. If any entry misses a test, an
# element is not in the universe, or a table or record refuses an entry,
# the pass gives up and the whole list is read again by the path-tracking
# readers, so every issue keeps its text and order.
# load_instance pauses the cyclic collector while it parses and reads: a
# load allocates tens of thousands of containers but makes no reference
# cycles, so collections during it would free nothing.

class _Bad(Exception):
    """A value its reader refuses; ``keys`` is its path, innermost first."""

    def __init__(self, problem: str, *keys):
        super().__init__(problem)
        self.keys = list(keys)

    def at(self, path: str) -> str:
        return path + "".join(f"/{k}" for k in reversed(self.keys)) + f": {self}"


def _plain(kind: type, what: str):
    """A reader of values of exactly one JSON type."""
    def read(v):
        if type(v) is kind:  # exact: a bool is not an int
            return v
        raise _Bad(f"expected {what}")
    return read


_obj = _plain(dict, "an object")
_list = _plain(list, "a list")
_str = _plain(str, "a string")
_int = _plain(int, "an integer")
_MAX = sys.float_info.max
_REQUIRED = object()


def _float(v) -> float:
    # NaN, infinities and integers past the float range fail the bounds
    if (type(v) is float or type(v) is int) and -_MAX <= v <= _MAX:
        return float(v)
    raise _Bad("expected a finite number")


def _num(v) -> int | float:
    """A finite number, kept as it is: a JSON integer stays an int."""
    _float(v)
    return v


def _at(key, read, value):
    """read(value), with key prepended to the path of a failure. A domain
    constructor's ValueError becomes a failure at key."""
    try:
        return read(value)
    except _Bad as bad:
        bad.keys.append(key)
        raise
    except ValueError as exc:
        raise _Bad(str(exc), key) from None


def _get(data: dict, key: str, read, default=_REQUIRED):
    """read(data[key]); a key with a default may be absent or null."""
    value = data.get(key)
    if value is None:
        if default is _REQUIRED:
            raise _Bad("missing", key)
        return default
    return _at(key, read, value)


def _list_of(read, n: int | None = None):
    """A reader of a list (of exactly n items, if n is given) whose items
    are each read by read, in one pass. Only a failed list is read again,
    item by item, to find the index of the failure."""
    def read_list(v):
        v = _list(v)
        if n is not None and len(v) != n:
            raise _Bad(f"expected {n} items")
        try:
            return tuple(map(read, v))
        except (_Bad, ValueError):
            return tuple(_at(i, read, x) for i, x in enumerate(v))
    return read_list


_strs = _list_of(_str)


def _field(data: dict, key: str, read, issues: list, path: str, default=_REQUIRED):
    """_get, or None with the failure reported under path."""
    try:
        return _get(data, key, read, default)
    except _Bad as bad:
        issues.append(bad.at(path))


def _each(data: dict, key: str, kind, read, issues: list, path: str,
          default=_REQUIRED, fast=None):
    """data[key], an object (kind _obj) or a list (kind _list), read entry
    by entry with read(entry key, value) into a dict or a tuple. A bad
    entry is reported and skipped; a bad container gives None.

    fast, if given, reads a whole container at once and returns None (or
    raises KeyError, TypeError or ValueError) where some entry needs read."""
    items = _field(data, key, kind, issues, path, default)
    if items is None:
        return None
    if fast is not None:
        try:
            out = fast(items)
        except (KeyError, TypeError, ValueError):  # an entry of the wrong shape, or refused
            out = None
        if out is not None:
            return out
    out = {}
    for k, value in items.items() if kind is _obj else enumerate(items):
        try:
            out[k] = read(k, value)
        except _Bad as bad:
            issues.append(bad.at(f"{path}/{key}/{k}"))
        except ValueError as exc:  # a domain constructor refused the entry
            issues.append(f"{path}/{key}/{k}: {exc}")
    return out if kind is _obj else tuple(out.values())


def _lanes(data: dict, key: str, pair, issues: list, path: str, fast=None) -> dict:
    """An optional object of lanes, each a list of [id, start] pairs."""
    lanes = _field(data, key, _obj, issues, path, None) or {}
    return {lane: _each(lanes, lane, _list, pair, issues, f"{path}/{key}", fast=fast)
            for lane in lanes}


def _universe(v) -> ElementUniverse:
    v = _obj(v)
    return ElementUniverse(_get(v, "types", _strs), _get(v, "idle_index", _int))


def _job(_, v) -> CompositeJob:
    # chain elements are left to core.collect_violations (unknown element type)
    v = _obj(v)
    return CompositeJob(_get(v, "id", _str), tuple(_get(v, "chain", _list)))


def _column(items: list, key: str) -> list:
    """items[i].get(key) for every entry; a TypeError unless each is a dict."""
    return list(map(dict.get, items, repeat(key)))


def _job_table(universe: ElementUniverse | None, items: list) -> JobTable | None:
    """The fast pass of _job over a whole list, as a table of universe."""
    ids, chains = _column(items, "id"), _column(items, "chain")
    if (universe is not None and set(map(type, ids)) <= {str}
            and set(map(type, chains)) <= {list}):
        return JobTable.from_chains(universe, ids, chains)
    return None


def _grid(v) -> TimeGrid:
    v = _obj(v)
    return TimeGrid(_get(v, "interval_len_slots", _int), _get(v, "k", _int))


def _slot(_, v) -> tuple[str, int]:
    if type(v) is list and len(v) == 2 and type(v[0]) is str and type(v[1]) is int:
        return v[0], v[1]
    raise _Bad("expected [job id, start slot]")


def _slot_lane(items: list) -> SlotLane | None:
    """The fast pass of _slot over a whole lane, one type test a column."""
    if set(map(type, items)) <= {list} and set(map(len, items)) <= {2}:
        ids, starts = tuple(zip(*items)) or ((), ())
        if set(map(type, ids)) <= {str} and set(map(type, starts)) <= {int}:
            # an int64 column, which SlotLane takes as given, unless a start is past int64
            with suppress(OverflowError):
                starts = np.array(starts, np.int64)
            return SlotLane(ids, starts)
    return None


def _load_modular(block: dict, issues: list) -> dict:
    at = "/modular"
    out = {
        "universe": (universe := _field(block, "universe", _universe, issues, at)),
        "jobs": _each(block, "jobs", _list, _job, issues, at,
                      fast=partial(_job_table, universe)),
        "processors": _field(block, "processors", _strs, issues, at),
        "grid": _field(block, "grid", _grid, issues, at),
        "reference_profile": _field(
            block, "reference_profile", _list_of(_num), issues, at, None
        ),
        "proximity_threshold": _field(
            block, "proximity_threshold", _num, issues, at, None
        ),
    }
    schedule = _field(block, "schedule", _obj, issues, at)
    if schedule is not None:
        at += "/schedule"
        out["schedule"] = SlotSchedule(
            horizon_slots=_field(schedule, "horizon_slots", _int, issues, at),
            placements=_lanes(schedule, "placements", _slot, issues, at, fast=_slot_lane),
            processors=_field(schedule, "processors", _strs, issues, at),
        )
    return out


_detail_row = _list_of(_float, len(DETAIL_TYPES))


def _section_type(sid, rows) -> SectionType:
    rows = _obj(rows)
    return SectionType(
        sid, tuple(_get(rows, floor, _detail_row) for floor in FLOOR_TYPES)
    )


def _section_types(items: dict) -> dict[str, SectionType] | None:
    """The fast pass of _section_type over a whole object, one type test a
    column; SectionType refuses a negative entry."""
    rows = [row for floor in FLOOR_TYPES for row in _column(list(items.values()), floor)]
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {len(DETAIL_TYPES)}:
        values = _numbers(list(chain.from_iterable(rows)))
        if values is not None:
            rows = list(zip(*[iter(values)] * len(DETAIL_TYPES)))  # floor-major
            return {sid: SectionType(sid, tuple(rows[i::len(items)]))
                    for i, sid in enumerate(items)}
    return None


def _count(v) -> int:
    # a count past the float range could not scale a float ladder or
    # matrix; a negative count is left to the domain check
    if _int(v) <= _MAX:
        return v
    raise _Bad("integer past the float range")


def _counts(v) -> dict[str, int]:
    return {k: _at(k, _count, n) for k, n in _obj(v).items()}


def _building(bid, v) -> Building:
    v = _obj(v)
    return Building(
        id=bid,
        building_type=_get(v, "building_type", _str),
        section_counts=_get(v, "section_counts", _counts),
        assembly_duration=_get(v, "assembly_duration", _float),
        start=_get(v, "start", _float),
        general_square=_get(v, "general_square", _float, Building.general_square),
    )


def _building_table(items: dict) -> BuildingTable | None:
    """The fast pass of _building over a whole object. The types and the
    section compositions are checked once each; the table's own check
    refuses a building that Building would."""
    records = list(items.values())
    numbers = [_numbers(_column(records, key)) for key in ("assembly_duration", "start")]
    square = Building.general_square
    numbers.append(_numbers([square if v is None else v
                             for v in _column(records, "general_square")]))
    if None in numbers:
        return None
    table = BuildingTable.from_columns(
        tuple(items), _column(records, "building_type"),
        map(tuple, map(dict.items, _column(records, "section_counts"))), *numbers,
    )
    if set(map(type, table.building_types)) <= {str} and all(
        type(n) is int and n <= _MAX
        for counts in table.compositions for _section, n in counts
    ):
        return table
    return None


def _start(_, v) -> tuple[str, float]:
    if type(v) is list and len(v) == 2 and type(v[0]) is str:
        return v[0], _at(1, _float, v[1])
    raise _Bad("expected [building id, start]")


def _team_lane(items: list) -> tuple[tuple[str, float], ...] | None:
    """The fast pass of _start over a whole lane, one type test a column."""
    if set(map(type, items)) <= {list} and set(map(len, items)) <= {2}:
        ids, starts = tuple(zip(*items)) or ((), ())
        if set(map(type, ids)) <= {str} and (starts := _numbers(list(starts))) is not None:
            return tuple(zip(ids, starts))
    return None


def _detail(v) -> str:
    if _str(v) in DETAIL_TYPES:
        return v
    raise _Bad("unknown detail type")


def _capacity(detail, v) -> float:
    _detail(detail)
    capacity = _float(v)
    if capacity < 0:
        raise _Bad("expected a non-negative number")
    return capacity


def _improve(v) -> ImproveParams:
    v = _obj(v)
    return ImproveParams(
        _get(v, "budget", _float, ImproveParams.budget),
        _get(v, "max_iters", _int, ImproveParams.max_iters),
    )


def _reference(v) -> RequirementTable:
    v = _obj(v)
    details = _get(v, "details", _list_of(_detail), RequirementTable.details)
    months = _get(v, "months", _list_of(_int))
    values = _get(v, "values", _list_of(_list_of(_float, len(details))))
    if len(values) != len(months):
        raise _Bad("expected one row per month", "values")
    return RequirementTable(months, values, details)


def _load_homebuilding(block: dict, issues: list) -> dict:
    at = "/homebuilding"
    sections = _each(block, "section_types", _obj, _section_type, issues, at,
                     fast=_section_types)
    building_types = _each(
        block, "building_types", _obj,
        lambda bid, counts: BuildingType(bid, _counts(counts)), issues, at,
    )
    buildings = _each(block, "buildings", _obj, _building, issues, at, fast=_building_table)
    horizon = _field(block, "horizon_months", _int, issues, at)
    rate_basis = _field(block, "rate_basis", _str, issues, at, Project.rate_basis)
    out = {}
    schedule = _field(block, "team_schedule", _obj, issues, at)
    if schedule is not None:
        out["team_schedule"] = TeamSchedule(
            _field(schedule, "teams", _strs, issues, at + "/team_schedule"),
            _lanes(schedule, "assignments", _start, issues, at + "/team_schedule",
                   fast=_team_lane),
        )
    out["capacity"] = _each(block, "capacity", _obj, _capacity, issues, at, None)
    out["improve_params"] = _field(block, "improve", _improve, issues, at, None)
    out["reference_requirements"] = _field(
        block, "reference_requirements", _reference, issues, at, None
    )
    if not issues:  # else Project would also report the users of a bad record
        try:
            out["project"] = Project(
                sections, building_types, buildings, horizon, rate_basis
            )
        except ValueError as exc:
            issues.append(f"{at}: {exc}")
    return out


def _window_job(ids: set, _, v) -> WindowJob:
    v = _obj(v)
    job_id = _get(v, "id", _str)
    if job_id in ids:
        raise _Bad(f"duplicate id '{job_id}'", "id")
    ids.add(job_id)
    return WindowJob(
        id=job_id,
        processing_time=_get(v, "processing_time", _float),
        t1=_get(v, "t1", _float),
        t2=_get(v, "t2", _float),
        machine=_get(v, "machine", _int, WindowJob.machine),
        position=_get(v, "position", _int, WindowJob.position),
    )


def _numbers(values: list) -> list | None:
    """values, if each is a finite number (ints as floats), else None."""
    if set(map(type, values)) <= {float}:  # the usual case
        return values if all(map(math.isfinite, values)) else None
    try:
        return list(map(_float, values))
    except _Bad:
        return None


def _window_table(items: list) -> WindowTable | None:
    """The fast pass of _window_job over a whole list; the table's own
    check refuses an empty window or a negative processing time."""
    ids = _column(items, "id")
    numbers = [_numbers(_column(items, key)) for key in ("processing_time", "t1", "t2")]
    ints = [[default if n is None else n for n in _column(items, key)]
            for key, default in (("machine", WindowJob.machine),
                                 ("position", WindowJob.position))]
    if not (set(map(type, ids)) <= {str} and len(set(ids)) == len(ids)
            and None not in numbers
            and all(set(map(type, column)) <= {int} for column in ints)):
        return None
    return WindowTable(tuple(ids), *numbers, *ints)


def _weights(v) -> PenaltyWeights:
    v = _obj(v)
    return PenaltyWeights(_get(v, "alpha", _float), _get(v, "beta", _float))


def instance_from_dict(data: Any) -> InstanceFile:
    """Build an InstanceFile from parsed JSON, validating the schema.

    Raises:
        SchemaError: listing every problem with its JSON-pointer path.
    """
    issues: list[str] = []
    if type(data) is not dict:
        raise SchemaError(["/: expected a JSON object"])
    version = data.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        issues.append(
            f"/format_version: expected {FORMAT_VERSION}, got {version!r}"
        )
    mode = data.get("mode")
    if mode not in MODES:
        issues.append(f"/mode: expected one of {MODES}, got {mode!r}")
        raise SchemaError(issues)

    other = "homebuilding" if mode == "modular" else "modular"
    if data.get(other) is not None:
        issues.append(
            f"/{other}: must not be populated in '{mode}' mode"
        )
    block = _field(data, mode, _obj, issues, "")
    if block is None:
        raise SchemaError(issues)

    out = (_load_modular if mode == "modular" else _load_homebuilding)(block, issues)
    ids: set = set()
    out["window_jobs"] = _each(
        data, "window_jobs", _list, partial(_window_job, ids), issues, "", None,
        fast=_window_table,
    )
    out["penalty_weights"] = _field(
        data, "penalty_weights", _weights, issues, "", None
    )
    if issues:
        raise SchemaError(issues)
    return InstanceFile(mode=mode, **out)


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for the block. The pause is
    process-wide: no thread collects until it ends. The collector is turned
    back on only if it was on at entry, however the block exits."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _parse(text: str):
    """The JSON document in text, or a SchemaError naming where it breaks."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            [f"/: invalid JSON at line {exc.lineno} column {exc.colno}: "
             f"{exc.msg}"]
        ) from None
    except RecursionError:
        raise SchemaError(["/: invalid JSON: nested too deeply"]) from None


def _read(path) -> str:
    """The file's text; a SchemaError at its first byte that is not UTF-8."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise SchemaError([f"/: invalid UTF-8 at byte {exc.start}: {exc.reason}"]) from None


def load_instance(path) -> InstanceFile:
    """Read and schema-validate an instance file, with the cyclic garbage
    collector paused (process-wide) while it parses and reads.

    Raises:
        SchemaError: on a file that is not UTF-8 (with the byte offset),
            malformed JSON (with line/column) or schema issues.
        OSError: if the file cannot be read.
    """
    with _collector_paused():
        # the text and the parsed document are temporaries: the text is
        # freed once parsed, and the document before the collector resumes,
        # so the first collection after a load scans only the instance
        return instance_from_dict(_parse(_read(path)))


# --- writing -----------------------------------------------------------------
#
# One rule shapes every record: an object of its constructor fields under
# their own names, leaving out fields that are None. _SHAPES holds the
# values shaped another way; _document lays out the file around them.
# save_instance writes the bytes of json.dumps(instance_to_dict(x),
# indent=2, sort_keys=True) from the values: the buildings, section types,
# team lanes and requirement rows by templates, a row of finite floats by
# one float.__repr__ join, and every other value (a record a template
# cannot take included) by its shape. A value no layout takes (a bool,
# None, a non-finite float, a numpy scalar, a non-string key) sends the
# whole file to json, once: only hand-built instances hold such values.

_PLAIN = frozenset({str, int, float, bool, type(None)})
_quote = json.encoder.encode_basestring_ascii
_NONFINITE = frozenset({"inf", "-inf", "nan"})


def _record_writer(kind: type, skip: str | None = None):
    names = tuple(f.name for f in fields(kind) if f.init and f.name != skip)
    return lambda record: {n: v for n in names if (v := getattr(record, n)) is not None}


_SHAPES = {
    JobTable: list, SlotLane: list, WindowTable: list,
    BuildingTable: lambda table: dict(  # a building's id is its map key
        zip(table.ids, map(_record_writer(Building, skip="id"), table.values()))),
    SectionType: lambda st: dict(zip(FLOOR_TYPES, map(list, st.detail_matrix))),
    BuildingType: lambda bt: dict(bt.floor_counts),
    TeamSchedule: lambda ts: {"teams": ts.teams, "assignments": {
        t: list(map(list, ts.assignments.get(t, ()))) for t in ts.teams}},
}


def _shape(kind: type):
    """The function giving a value of kind as a dict or list, or None."""
    if kind not in _SHAPES:  # the first value of its type
        _SHAPES[kind] = (_record_writer(kind) if is_dataclass(kind)
                         else dict if issubclass(kind, Mapping) else None)
    return _SHAPES[kind]


def _emit(value):
    """The JSON-ready form of value."""
    if type(value) is dict:
        return {k: v if type(v) in _PLAIN else _emit(v) for k, v in value.items()}
    if type(value) is list or type(value) is tuple:
        return [v if type(v) in _PLAIN else _emit(v) for v in value]
    return value if (shape := _shape(type(value))) is None else _emit(shape(value))


def _document(instance: InstanceFile) -> dict:
    """The file's top-level object, its values not yet shaped."""
    block = _shape(InstanceFile)(instance)
    data = {"format_version": FORMAT_VERSION, "mode": block.pop("mode")}
    data |= {key: block.pop(key) for key in ("window_jobs", "penalty_weights") if key in block}
    block |= _shape(Project)(block.pop("project")) if "project" in block else {}
    block |= {"improve": block.pop("improve_params")} if "improve_params" in block else {}
    return data | {instance.mode: block}


def instance_to_dict(instance: InstanceFile) -> dict:
    """The JSON-ready dictionary form of an instance file."""
    return _emit(_document(instance))


def _floats(values) -> list[str]:
    """The texts of finite floats; TypeError on any other value."""
    if _NONFINITE.isdisjoint(texts := list(map(float.__repr__, values))):
        return texts
    raise TypeError("a float that is not finite")


def _join(texts, pad: str, ends: str = "[]") -> str:
    inner = "\n" + pad + "  "
    return f"{ends[0]}{inner}{(',' + inner).join(texts)}\n{pad}{ends[1]}" if texts else ends


def _text(value, pad: str) -> str:
    """The canonical text of value, its inner lines indented past pad;
    TypeError or ValueError on a key or value no layout takes."""
    if (layout := _LAYOUTS.get(type(value))) is not None:
        return layout(value, pad)
    if (shape := _shape(type(value))) is not None:
        return _text(shape(value), pad)
    raise TypeError(f"no layout for {type(value).__name__}")


def _buildings(table: BuildingTable, pad: str) -> str:
    """One template per building, its keys in sorted order."""
    types = list(map(_quote, table.building_types))
    counts = [_text(dict(items), pad + "    ") for items in table.compositions]
    keys = ("assembly_duration", "building_type", "general_square", "section_counts", "start")
    template = "{" + ",".join(f'\n{pad}    "{k}": %s' for k in keys) + "\n" + pad + "  }"
    records = map(template.__mod__, zip(
        _floats(table.assembly_duration.tolist()), [types[t] for t in table.type_codes.tolist()],
        _floats(table.general_square.tolist()),
        [counts[c] for c in table.composition_codes.tolist()], _floats(table.start.tolist())))
    return _join([f"{_quote(b)}: {record}"
                  for b, record in sorted(dict(zip(table.ids, records)).items())], pad, "{}")


class _Text(str):
    """A value's text, already laid out at its pad."""


def _rows(count: int, width: int, pad: str, texts) -> _Text:
    """count lists of width entries at pad, by one template over the texts."""
    return _Text(_join([_join(["%s"] * width, pad + "  ")] * count, pad) % tuple(texts))


@cache
def _section_template(pad: str) -> str:
    """A section type's text at pad, a %s slot per entry in detail_matrix
    order: FLOOR_TYPES is in sorted order."""
    return _text(dict.fromkeys(FLOOR_TYPES, [_Text("%s")] * len(DETAIL_TYPES)), pad)


def _section_layout(st: SectionType, pad: str) -> str:
    values = list(chain.from_iterable(st.detail_matrix))
    if {*map(type, values)} <= {float}:
        return _section_template(pad) % tuple(_floats(values))
    return _text(_SHAPES[SectionType](st), pad)


def _schedule_layout(ts: TeamSchedule, pad: str) -> str:
    """Each team in ts.teams once, its lane by one template over its pairs."""
    lanes = {team: ts.assignments.get(team, ()) for team in ts.teams}
    pairs = list(chain.from_iterable(lanes.values()))
    if {(len(p), *map(type, p)) for p in pairs} <= {(2, str, float)}:
        ids, starts = zip(*pairs) if pairs else ((), ())
        texts = iter(chain.from_iterable(zip(map(_quote, ids), _floats(starts))))
        return _text({"teams": ts.teams, "assignments": {
            team: _rows(len(lane), 2, pad + "    ", islice(texts, 2 * len(lane)))
            for team, lane in lanes.items()}}, pad)
    return _text(_SHAPES[TeamSchedule](ts), pad)


def _requirements_layout(table: RequirementTable, pad: str) -> str:
    record, rows = _shape(RequirementTable)(table), table.values
    if type(rows) is tuple and {*map(type, rows)} <= {tuple} and len({*map(len, rows)}) <= 1:
        values = list(chain.from_iterable(rows))
        if {*map(type, values)} <= {float}:
            width = len(rows[0]) if rows else 0
            record["values"] = _rows(len(rows), width, pad + "  ", _floats(values))
    return _text(record, pad)


_LAYOUTS = dict.fromkeys((list, tuple), lambda values, pad: _join(
    _floats(values) if values and type(values[0]) is float  # a row of floats
    else [_text(v, pad + "  ") for v in values], pad,
)) | {
    str: lambda value, pad: _quote(value),
    _Text: lambda value, pad: value,
    int: lambda value, pad: int.__repr__(value),
    float: lambda value, pad: _floats((value,))[0],
    dict: lambda value, pad: _join([
        f"{_quote(k)}: {_text(v, pad + '  ')}" for k, v in sorted(value.items())], pad, "{}"),
    BuildingTable: _buildings,
    SectionType: _section_layout,
    TeamSchedule: _schedule_layout,
    RequirementTable: _requirements_layout,
}


def _write(path, text: str) -> None:
    """Write text over path in place: a new file gets the mode open(path,
    "w") gives it, and a regular file is then cut to the written length.
    A write failing partway leaves the new bytes over the old file's tail."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
        handle.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate()


def save_instance(instance: InstanceFile, path) -> None:
    """Write the canonical JSON form (stable bytes for equal instances)."""
    try:
        text = _text(_document(instance), "")
    except (TypeError, ValueError):  # a value no layout takes: json writes the file
        text = json.dumps(instance_to_dict(instance), indent=2, sort_keys=True)
    _write(path, text + "\n")


# --- reports -----------------------------------------------------------------

def export_requirements_csv(table: RequirementTable, path) -> None:
    """Month-by-detail requirement table as CSV (two decimals)."""
    lines = ["month," + ",".join(table.details)]
    for month, row in zip(table.months, table.values):
        lines.append(f"{month}," + ",".join(f"{v:.2f}" for v in row))
    _write(path, "\n".join(lines) + "\n")


def export_balance_curve(
    table: RequirementTable, capacity: float, detail: str, path
) -> None:
    """Per-month required vs capacity curve for one detail type.

    Raises:
        ValueError: on an unknown detail id or a negative or non-finite
            capacity.
    """
    if detail not in table.details:
        raise ValueError(f"unknown detail type '{detail}'")
    if not math.isfinite(capacity):
        raise ValueError(f"no finite capacity for detail '{detail}'")
    if capacity < 0:
        raise ValueError(f"negative capacity for detail '{detail}'")
    lines = ["month,required,capacity,violation"]
    for month, required in zip(table.months, table.column(detail)):
        excess = max(0.0, required - capacity)
        lines.append(f"{month},{required:.2f},{capacity:.2f},{excess:.2f}")
    _write(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class ComparisonRow:
    """One cell of computed-vs-reference requirement comparison."""

    month: int
    detail: str
    computed: float
    reference: float
    rel_deviation: float


def comparison_report(
    table: RequirementTable, reference: RequirementTable
) -> tuple[ComparisonRow, ...]:
    """Cell-by-cell comparison of a computed table against reference figures.

    Cells are matched by month and detail name. Relative deviation is
    |computed - reference| / reference (0 where both vanish, +inf where only
    the reference does).

    Raises:
        ValueError: naming every reference month and detail the computed
            table lacks.
    """
    lacking = [f"month {m}" for m in reference.months if m not in table.months]
    lacking += [f"detail {d}" for d in reference.details if d not in table.details]
    if lacking:
        raise ValueError(f"computed table lacks {', '.join(lacking)}")
    columns = [table.details.index(d) for d in reference.details]
    rows = []
    for month in reference.months:
        computed_row = table.row(month)
        for detail, j, r in zip(reference.details, columns, reference.row(month)):
            c = computed_row[j]
            if r > 0:
                rel = abs(c - r) / r
            elif abs(c) < 1e-9:
                rel = 0.0
            else:
                rel = float("inf")
            rows.append(
                ComparisonRow(
                    month=month,
                    detail=detail,
                    computed=c,
                    reference=r,
                    rel_deviation=rel,
                )
            )
    return tuple(rows)


def export_comparison_csv(rows: Sequence[ComparisonRow], path) -> None:
    """Comparison report as CSV (two decimals; deviation in percent)."""
    lines = ["month,detail,computed,reference,rel_deviation_pct"]
    for row in rows:
        pct = (
            "inf" if math.isinf(row.rel_deviation)
            else f"{100 * row.rel_deviation:.2f}"
        )
        lines.append(
            f"{row.month},{row.detail},{row.computed:.2f},"
            f"{row.reference:.2f},{pct}"
        )
    _write(path, "\n".join(lines) + "\n")


# --- text Gantt --------------------------------------------------------------

def render_gantt(project: Project, schedule: TeamSchedule) -> str:
    """Month-granular text chart, one line per team.

    A building occupies cells floor(start)+1 through ceil(end - 0.5) (at
    least one cell); when two placements on a team round onto the same
    boundary cell, the earlier-starting one keeps it. Output is
    deterministic for a given schedule.
    """
    horizon = project.horizon_months
    buildings = project.buildings
    durations = buildings.assembly_duration.tolist()
    width = max(3, max((len(b) for b in buildings.ids), default=2) + 1)
    header = "team " + "".join(f"{m:>{width}}" for m in range(1, horizon + 1))
    lines = [header]
    empty = f"{'.':>{width}}"  # cells are padded once each: "." and one id per placement
    for team in schedule.teams:
        cells = [empty] * horizon
        placements = sorted(
            schedule.assignments.get(team, ()), key=lambda p: (p[1], p[0])
        )
        for building_id, start in placements:
            end = start + durations[buildings.row[building_id]]
            first = int(math.floor(start)) + 1
            last = max(first, int(math.ceil(end - 0.5)))
            cell = f"{building_id:>{width}}"
            for month in range(max(1, first), min(horizon, last) + 1):
                if cells[month - 1] == empty:
                    cells[month - 1] = cell
        lines.append(f"{team:<5}" + "".join(cells))
    return "\n".join(lines) + "\n"
