"""JSON document formats and located parse/validation errors.

All rationals serialize as strings ("p" or "p/q") so reports never pick up
floating-point drift.  Every error raised here carries the path of the
offending element inside the document (for example
``configuration.intersection[1][0]``).

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
from fractions import Fraction
from typing import Any, Mapping

from .chern import ChernReport, CrossingTable, FilteredSystemData
from .errors import (
    CoverageError,
    DimensionMismatchError,
    DocumentParseError,
    DocumentValidationError,
    InvariantError,
    ShapeMismatchError,
)
from .filtration import FilteredConfiguration, Filtration, GrSpectrum
from .linalg import Subspace, rational_from_string, rational_to_string, span
from .stability import StabilityVerdict
from .surface import DivisorConfiguration, PlaneArrangement
from .upsilon import UpsilonEstimate


def canonical_json(document: Any) -> str:
    """Deterministic rendering used by every report and round-trip test."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _expect(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise DocumentParseError(message, path)


def _get(doc: Mapping, key: str, path: str) -> Any:
    _expect(isinstance(doc, Mapping), "expected an object", path)
    if key not in doc:
        raise DocumentParseError(f"missing key {key!r}", path)
    return doc[key]


def _as_list(value: Any, path: str) -> list:
    _expect(isinstance(value, list), "expected a list", path)
    return value


def _as_int(value: Any, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), "expected an integer", path)
    return value


def _as_str(value: Any, path: str) -> str:
    _expect(isinstance(value, str), "expected a string", path)
    return value


def rational_from_doc(value: Any, path: str) -> Fraction:
    text = _as_str(value, path)
    try:
        return rational_from_string(text)
    except ValueError as error:
        raise DocumentParseError(str(error), path) from error


def subspace_to_doc(subspace: Subspace) -> list[list[str]]:
    return [[rational_to_string(x) for x in row] for row in subspace.rows]


def subspace_from_doc(doc: Any, ambient_dim: int, path: str) -> Subspace:
    rows = []
    for r_index, row in enumerate(_as_list(doc, path)):
        row_path = f"{path}[{r_index}]"
        entries = _as_list(row, row_path)
        rows.append(
            [rational_from_doc(x, f"{row_path}[{c}]") for c, x in enumerate(entries)]
        )
    try:
        return span(rows, ambient_dim)
    except DimensionMismatchError as error:
        raise DocumentValidationError(str(error), path) from error


def filtration_to_doc(filtration: Filtration) -> dict:
    return {
        "steps": [
            {"weight": rational_to_string(w), "basis": subspace_to_doc(s)}
            for w, s in filtration.steps
        ]
    }


def filtration_from_doc(doc: Any, rank: int, path: str) -> Filtration:
    steps_doc = _as_list(_get(doc, "steps", path), f"{path}.steps")
    steps = []
    previous_weight: Fraction | None = None
    for index, step in enumerate(steps_doc):
        step_path = f"{path}.steps[{index}]"
        weight = rational_from_doc(_get(step, "weight", step_path), f"{step_path}.weight")
        if previous_weight is not None and weight >= previous_weight:
            raise DocumentValidationError(
                "step weights must strictly decrease", f"{step_path}.weight"
            )
        previous_weight = weight
        basis = subspace_from_doc(
            _get(step, "basis", step_path), rank, f"{step_path}.basis"
        )
        steps.append((weight, basis))
    try:
        return Filtration(rank, tuple(steps))
    except (InvariantError, DimensionMismatchError) as error:
        raise DocumentValidationError(str(error), path) from error


def filtered_configuration_to_doc(fc: FilteredConfiguration) -> dict:
    return {
        "rank": fc.rank,
        "filtrations": [filtration_to_doc(f) for f in fc.filtrations],
    }


def filtered_configuration_from_doc(doc: Any, path: str) -> FilteredConfiguration:
    rank = _as_int(_get(doc, "rank", path), f"{path}.rank")
    filtrations_doc = _as_list(
        _get(doc, "filtrations", path), f"{path}.filtrations"
    )
    filtrations = tuple(
        filtration_from_doc(f, rank, f"{path}.filtrations[{i}]")
        for i, f in enumerate(filtrations_doc)
    )
    try:
        return FilteredConfiguration(rank, filtrations)
    except (InvariantError, DimensionMismatchError) as error:
        raise DocumentValidationError(str(error), path) from error


def divisor_configuration_to_doc(config: DivisorConfiguration) -> dict:
    return {
        "components": [
            {"name": name, "degree": rational_to_string(degree)}
            for name, degree in zip(config.names, config.degrees)
        ],
        "intersection": [list(row) for row in config.intersection],
    }


def divisor_configuration_from_doc(doc: Any, path: str) -> DivisorConfiguration:
    components_doc = _as_list(_get(doc, "components", path), f"{path}.components")
    names, degrees = [], []
    for index, component in enumerate(components_doc):
        comp_path = f"{path}.components[{index}]"
        names.append(_as_str(_get(component, "name", comp_path), f"{comp_path}.name"))
        degrees.append(
            rational_from_doc(_get(component, "degree", comp_path), f"{comp_path}.degree")
        )
    matrix_doc = _as_list(_get(doc, "intersection", path), f"{path}.intersection")
    matrix = []
    for r_index, row in enumerate(matrix_doc):
        row_path = f"{path}.intersection[{r_index}]"
        matrix.append(
            tuple(
                _as_int(x, f"{row_path}[{c}]")
                for c, x in enumerate(_as_list(row, row_path))
            )
        )
    try:
        return DivisorConfiguration(tuple(names), tuple(degrees), tuple(matrix))
    except InvariantError as error:
        raise DocumentValidationError(str(error), path) from error


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
    curves_doc = _as_list(_get(doc, "curves", path), f"{path}.curves")
    curves = []
    for index, curve in enumerate(curves_doc):
        curve_path = f"{path}.curves[{index}]"
        curves.append(
            (
                _as_str(_get(curve, "name", curve_path), f"{curve_path}.name"),
                _as_int(_get(curve, "degree", curve_path), f"{curve_path}.degree"),
            )
        )
    points_doc = _as_list(_get(doc, "points", path), f"{path}.points")
    points = []
    for index, point in enumerate(points_doc):
        point_path = f"{path}.points[{index}]"
        incident = tuple(
            _as_str(c, f"{point_path}.curves[{k}]")
            for k, c in enumerate(
                _as_list(_get(point, "curves", point_path), f"{point_path}.curves")
            )
        )
        points.append(
            (_as_str(_get(point, "id", point_path), f"{point_path}.id"), incident)
        )
    try:
        return PlaneArrangement(tuple(curves), tuple(points))
    except (InvariantError, CoverageError) as error:
        raise DocumentValidationError(str(error), path) from error


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
    rank = _as_int(_get(doc, "rank", path), f"{path}.rank")
    component_tables = []
    tables_doc = _as_list(
        _get(doc, "component_tables", path), f"{path}.component_tables"
    )
    for t_index, table in enumerate(tables_doc):
        table_path = f"{path}.component_tables[{t_index}]"
        entries = []
        for e_index, entry in enumerate(_as_list(table, table_path)):
            entry_path = f"{table_path}[{e_index}]"
            pair = _as_list(entry, entry_path)
            _expect(len(pair) == 2, "expected [weight, multiplicity]", entry_path)
            entries.append(
                (
                    rational_from_doc(pair[0], f"{entry_path}[0]"),
                    _as_int(pair[1], f"{entry_path}[1]"),
                )
            )
        try:
            component_tables.append(GrSpectrum(tuple(entries)))
        except InvariantError as error:
            raise DocumentValidationError(str(error), table_path) from error
    crossing_tables = []
    crossings_doc = _as_list(
        _get(doc, "crossing_tables", path), f"{path}.crossing_tables"
    )
    for t_index, table in enumerate(crossings_doc):
        table_path = f"{path}.crossing_tables[{t_index}]"
        pair_doc = _as_list(
            _get(table, "components", table_path), f"{table_path}.components"
        )
        _expect(len(pair_doc) == 2, "expected two component indices", f"{table_path}.components")
        pair = (
            _as_int(pair_doc[0], f"{table_path}.components[0]"),
            _as_int(pair_doc[1], f"{table_path}.components[1]"),
        )
        entries = []
        for e_index, entry in enumerate(
            _as_list(_get(table, "table", table_path), f"{table_path}.table")
        ):
            entry_path = f"{table_path}.table[{e_index}]"
            triple = _as_list(entry, entry_path)
            _expect(len(triple) == 3, "expected [weight, weight, multiplicity]", entry_path)
            entries.append(
                (
                    rational_from_doc(triple[0], f"{entry_path}[0]"),
                    rational_from_doc(triple[1], f"{entry_path}[1]"),
                    _as_int(triple[2], f"{entry_path}[2]"),
                )
            )
        try:
            crossing_tables.append(CrossingTable(pair, tuple(entries)))
        except InvariantError as error:
            raise DocumentValidationError(str(error), table_path) from error
    try:
        return FilteredSystemData(rank, tuple(component_tables), tuple(crossing_tables))
    except InvariantError as error:
        raise DocumentValidationError(str(error), path) from error


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
        _get(document, "configuration", path or "."), "configuration"
    )
    fc = None
    if "filtered_configuration" in document:
        fc = filtered_configuration_from_doc(
            document["filtered_configuration"], "filtered_configuration"
        )
        try:
            fc.check_components(config)
        except ShapeMismatchError as error:
            raise DocumentValidationError(
                str(error), "filtered_configuration.filtrations"
            ) from error
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
