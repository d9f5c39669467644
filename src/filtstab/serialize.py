"""JSON document formats and located parse/validation errors.

All rationals serialize as strings ("p" or "p/q") so reports never pick up
floating-point drift.  Every error raised here carries the path of the
offending element inside the document (for example
``configuration.intersection[1][0]``).  Paths are built in one place:
:func:`_field` reads a key as ``path.key`` and :func:`_entries` reads a list
as ``path[i]``, and :func:`_items` reads the list under a key through both.
A structural error of a constructor is located by running it under
:func:`located`, which names the element the constructor was given.

Document shapes:

* subspace: list of rows, each a list of rational strings;
* filtration: ``{"steps": [{"weight": "p/q", "basis": [[...]]}, ...]}``
  with steps in strictly decreasing weight order (round-trips bit-exactly);
* filtered configuration: ``{"rank": r, "filtrations": [filtration, ...]}``;
* divisor configuration: ``{"components": [{"name": ..., "degree": "p/q"}],
  "intersection": [[int, ...], ...]}``;
* plane arrangement: ``{"curves": [{"name": ..., "degree": n}],
  "points": [{"id": ..., "curves": [...]}]}``;
* system data: ``{"rank": r, "component_tables": [[["w", mult], ...], ...],
  "crossing_tables": [{"components": [i, j], "table": [["a", "b", m], ...]}]}``.

A top-level input document holds ``configuration`` plus optionally
``filtered_configuration`` and/or ``system_data``; blow-up input holds
``arrangement``.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping
from fractions import Fraction
from math import lcm
from typing import Any

from .chern import (
    ChernReport, CrossingTable, FilteredSystemData, check_crossing_sides, check_table_rank,
)
from .errors import (
    DocumentError,
    DocumentParseError,
    DocumentValidationError,
    FiltstabError,
)
from .filtration import FilteredConfiguration, Filtration, GrSpectrum
from .linalg import Subspace, rational_pair, rational_to_string, span
from .stability import StabilityVerdict
from .surface import DivisorConfiguration, PlaneArrangement
from .upsilon import UpsilonEstimate


def canonical_json(document: Any) -> str:
    """Deterministic rendering used by every report and round-trip test."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


class located:
    """Context manager reporting a structural error of its block as one at ``path``.

    A :class:`DocumentError` names its own element and passes through; any
    other :class:`FiltstabError` becomes a :class:`DocumentValidationError`.
    """

    def __init__(self, path: str):
        self.path = path

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind: type | None, error: BaseException | None, traceback: Any) -> None:
        if isinstance(error, FiltstabError) and not isinstance(error, DocumentError):
            raise DocumentValidationError(str(error), self.path) from error


def _expect(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise DocumentParseError(message, path)


def _field(doc: Any, key: str, path: str) -> tuple[Any, str]:
    """The value under ``key`` of the object at ``path``, with its path."""
    _expect(isinstance(doc, Mapping), "expected an object", path)
    if key not in doc:
        raise DocumentParseError(f"missing key {key!r}", path)
    return doc[key], f"{path}.{key}"


def _entries(value: Any, path: str) -> list[tuple[Any, str]]:
    """The entries of the list at ``path``, each with its path."""
    _expect(isinstance(value, list), "expected a list", path)
    return [(entry, f"{path}[{index}]") for index, entry in enumerate(value)]


def _items(doc: Any, key: str, path: str) -> list[tuple[Any, str]]:
    """The entries of the list under ``key`` of the object at ``path``."""
    return _entries(*_field(doc, key, path))


def _as_int(value: Any, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), "expected an integer", path)
    return value


def _as_str(value: Any, path: str) -> str:
    _expect(isinstance(value, str), "expected a string", path)
    return value


def _fixed(value: Any, path: str, message: str, *readers: Callable[[Any, str], Any]) -> tuple:
    """A list of exactly one entry per reader, each read by its reader."""
    entries = _entries(value, path)
    _expect(len(entries) == len(readers), message, path)
    return tuple(read(*entry) for read, entry in zip(readers, entries))


def _rational_pair(value: Any, path: str) -> tuple[int, int]:
    """The integers (p, q) of the rational literal at ``path`` (:func:`rational_pair`)."""
    text = _as_str(value, path)
    try:
        return rational_pair(text)
    except ValueError as error:
        raise DocumentParseError(str(error), path) from error


def rational_from_doc(value: Any, path: str) -> Fraction:
    return Fraction(*_rational_pair(value, path))


def subspace_to_doc(subspace: Subspace) -> list[list[str]]:
    return [[rational_to_string(x) for x in row] for row in subspace.rows]


def subspace_from_doc(doc: Any, ambient_dim: int, path: str) -> Subspace:
    """The span of the rows at ``path``, each read as integer pairs (p, q) and
    scaled by the lcm of its q, so the elimination sees integer rows only."""
    rows = []
    for row, row_path in _entries(doc, path):
        pairs = [_rational_pair(x, x_path) for x, x_path in _entries(row, row_path)]
        scale = lcm(*(q for _, q in pairs))
        rows.append(tuple(p * (scale // q) for p, q in pairs))
    with located(path):
        return span(rows, ambient_dim)


def filtration_to_doc(filtration: Filtration) -> dict:
    return {
        "steps": [
            {"weight": rational_to_string(w), "basis": subspace_to_doc(s)}
            for w, s in filtration.steps
        ]
    }


def filtration_from_doc(doc: Any, rank: int, path: str) -> Filtration:
    steps: list[tuple[Fraction, Subspace]] = []
    for step, step_path in _items(doc, "steps", path):
        weight_doc, weight_path = _field(step, "weight", step_path)
        weight = rational_from_doc(weight_doc, weight_path)
        if steps and weight >= steps[-1][0]:
            raise DocumentValidationError("step weights must strictly decrease", weight_path)
        basis_doc, basis_path = _field(step, "basis", step_path)
        steps.append((weight, subspace_from_doc(basis_doc, rank, basis_path)))
    with located(path):
        return Filtration(rank, tuple(steps))


def filtered_configuration_to_doc(fc: FilteredConfiguration) -> dict:
    return {
        "rank": fc.rank,
        "filtrations": [filtration_to_doc(f) for f in fc.filtrations],
    }


def filtered_configuration_from_doc(doc: Any, path: str) -> FilteredConfiguration:
    rank_doc, rank_path = _field(doc, "rank", path)
    rank = _as_int(rank_doc, rank_path)
    if rank < 1:
        raise DocumentValidationError("rank must be positive", rank_path)
    filtrations = tuple(
        filtration_from_doc(f, rank, f_path) for f, f_path in _items(doc, "filtrations", path)
    )
    with located(path):
        return FilteredConfiguration(rank, filtrations)


def divisor_configuration_to_doc(config: DivisorConfiguration) -> dict:
    return {
        "components": [
            {"name": name, "degree": rational_to_string(degree)}
            for name, degree in zip(config.names, config.degrees)
        ],
        "intersection": [list(row) for row in config.intersection],
    }


def divisor_configuration_from_doc(doc: Any, path: str) -> DivisorConfiguration:
    names, degrees = [], []
    for component, comp_path in _items(doc, "components", path):
        names.append(_as_str(*_field(component, "name", comp_path)))
        degrees.append(rational_from_doc(*_field(component, "degree", comp_path)))
    matrix = tuple(
        tuple(_as_int(*x) for x in _entries(*row)) for row in _items(doc, "intersection", path)
    )
    with located(path):
        return DivisorConfiguration(tuple(names), tuple(degrees), matrix)


def arrangement_to_doc(arrangement: PlaneArrangement) -> dict:
    return {
        "curves": [
            {"name": name, "degree": degree} for name, degree in arrangement.curves
        ],
        "points": [
            {"id": pid, "curves": list(incident)}
            for pid, incident in arrangement.points
        ],
    }


def arrangement_from_doc(doc: Any, path: str) -> PlaneArrangement:
    curves = tuple(
        (_as_str(*_field(curve, "name", c_path)), _as_int(*_field(curve, "degree", c_path)))
        for curve, c_path in _items(doc, "curves", path)
    )
    points = []
    for point, point_path in _items(doc, "points", path):
        incident = tuple(_as_str(*c) for c in _items(point, "curves", point_path))
        points.append((_as_str(*_field(point, "id", point_path)), incident))
    with located(path):
        return PlaneArrangement(curves, tuple(points))


def system_data_to_doc(data: FilteredSystemData) -> dict:
    return {
        "rank": data.rank,
        "component_tables": [
            [[rational_to_string(w), m] for w, m in table.entries]
            for table in data.component_tables
        ],
        "crossing_tables": [
            {
                "components": list(table.pair),
                "table": [
                    [rational_to_string(a), rational_to_string(b), m]
                    for a, b, m in table.entries
                ],
            }
            for table in data.crossing_tables
        ],
    }


def system_data_from_doc(doc: Any, path: str) -> FilteredSystemData:
    rank_doc, rank_path = _field(doc, "rank", path)
    rank = _as_int(rank_doc, rank_path)
    if rank < 1:
        raise DocumentValidationError("rank must be positive", rank_path)
    component_tables = []
    for table, table_path in _items(doc, "component_tables", path):
        entries = tuple(
            _fixed(*entry, "expected [weight, multiplicity]", rational_from_doc, _as_int)
            for entry in _entries(table, table_path)
        )
        with located(table_path):
            component_tables.append(GrSpectrum(entries))
            check_table_rank(component_tables[-1], rank, "table")
    crossing_tables = []
    for table, table_path in _items(doc, "crossing_tables", path):
        pair = _fixed(*_field(table, "components", table_path),
                      "expected two component indices", _as_int, _as_int)
        entries = tuple(
            _fixed(*entry, "expected [weight, weight, multiplicity]",
                   rational_from_doc, rational_from_doc, _as_int)
            for entry in _items(table, "table", table_path)
        )
        with located(table_path):
            crossing_tables.append(CrossingTable(pair, entries))
            check_table_rank(crossing_tables[-1], rank, "table")
            # pairs out of range are reported against the configuration later
            if 0 <= pair[0] and pair[1] < len(component_tables):
                check_crossing_sides(crossing_tables[-1], component_tables)
    with located(path):
        return FilteredSystemData(rank, tuple(component_tables), tuple(crossing_tables))


def chern_report_to_doc(report: ChernReport) -> dict:
    return {
        "c1_coefficients": [rational_to_string(c) for c in report.c1_coefficients],
        "c1_squared": rational_to_string(report.c1_squared),
        "c2": rational_to_string(report.c2),
    }


def verdict_to_doc(verdict: StabilityVerdict) -> dict:
    return {
        "status": verdict.status.value,
        "certainty": verdict.certainty.value,
        "witness": None if verdict.witness is None else subspace_to_doc(verdict.witness),
        "witness_degree": (
            None
            if verdict.witness_degree is None
            else rational_to_string(verdict.witness_degree)
        ),
        "max_observed_degree": (
            None
            if verdict.max_observed_degree is None
            else rational_to_string(verdict.max_observed_degree)
        ),
        "observed_degrees": [
            rational_to_string(d) for d in verdict.observed_degrees
        ],
        "metadata": dict(verdict.metadata),
    }


def estimate_to_doc(estimate: UpsilonEstimate) -> dict:
    return {
        "configuration": filtered_configuration_to_doc(estimate.configuration),
        "c2": rational_to_string(estimate.c2),
        "norm_sq": rational_to_string(estimate.norm_sq),
        "ratio": rational_to_string(estimate.ratio),
        "verdict": verdict_to_doc(estimate.verdict),
        "lower_bound": rational_to_string(estimate.lower_bound),
        "attained": estimate.attained,
        "search_log": dict(estimate.search_log),
    }


def parse_config(
    document: Any, path: str = ""
) -> tuple[
    DivisorConfiguration,
    FilteredConfiguration | None,
    FilteredSystemData | None,
]:
    """Parse a top-level input document.

    Returns the divisor configuration together with the optional filtered
    configuration and abstract system data, whichever the document carries.
    Re-serializing the result reproduces a canonical document byte for byte.
    """
    _expect(isinstance(document, Mapping), "expected a top-level object", path or ".")
    config = divisor_configuration_from_doc(
        _field(document, "configuration", path or ".")[0], "configuration"
    )
    fc = None
    if "filtered_configuration" in document:
        fc = filtered_configuration_from_doc(
            document["filtered_configuration"], "filtered_configuration"
        )
        with located("filtered_configuration.filtrations"):
            fc.check_components(config)
    data = None
    if "system_data" in document:
        data = system_data_from_doc(document["system_data"], "system_data")
        if len(data.component_tables) != config.n_components:
            raise DocumentValidationError(
                f"{len(data.component_tables)} component tables for "
                f"{config.n_components} components",
                "system_data.component_tables",
            )
        if fc is not None and data.rank != fc.rank:
            raise DocumentValidationError(
                f"rank {data.rank} differs from filtered_configuration.rank {fc.rank}",
                "system_data.rank",
            )
    return config, fc, data


def input_document(
    config: DivisorConfiguration,
    fc: FilteredConfiguration | None = None,
    data: FilteredSystemData | None = None,
) -> dict:
    """Assemble a canonical top-level input document."""
    document: dict[str, Any] = {"configuration": divisor_configuration_to_doc(config)}
    if fc is not None:
        document["filtered_configuration"] = filtered_configuration_to_doc(fc)
    if data is not None:
        document["system_data"] = system_data_to_doc(data)
    return document
