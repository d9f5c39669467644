import copy
import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from filtstab.chern import derive_tables
from filtstab.cli import _render, build_parser, main
from filtstab.filtration import FilteredConfiguration, Filtration
from filtstab.fixtures import three_concurrent_lines, three_generic_lines, two_lines
from filtstab.serialize import (
    arrangement_to_doc,
    canonical_json,
    input_document,
)
from filtstab.stability import DEFAULT_SAMPLES
from filtstab.surface import DivisorConfiguration
from helpers import non_surface_config, three_planes


def write_document(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(canonical_json(document), encoding="utf-8")
    return str(path)


def read_report(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_demo_reports_the_worked_ratio(tmp_path, capsys):
    out = tmp_path / "demo.json"
    assert main(["demo", "--quiet", "--output", str(out)]) == 0
    report = read_report(out)
    result = report["result"]
    assert result["two_lines"]["chern"]["c2"] == "0"
    assert result["two_lines"]["stability"]["status"] == "semistable"
    assert result["three_generic_lines"]["ratio"] == "1/2"
    assert result["three_generic_lines"]["stability"]["status"] == "stable"
    assert result["three_generic_lines"]["stability"]["max_observed_degree"] == "-1/2"
    assert report["manifest"]["command"] == "demo"


def test_chern_on_two_lines_fixture(tmp_path):
    config, fc = two_lines()
    path = write_document(tmp_path, "two_lines.json", input_document(config, fc))
    out = tmp_path / "report.json"
    assert main(["chern", "--input", path, "--output", str(out)]) == 0
    report = read_report(out)
    assert report["result"]["report"]["c2"] == "0"
    assert report["result"]["c2_pairing"] == "0"
    assert report["result"]["balanced"] is True


def test_malformed_rational_exits_2(tmp_path, capsys):
    config, fc = two_lines()
    document = input_document(config, fc)
    document["configuration"]["components"][0]["degree"] = "1/0"
    path = write_document(tmp_path, "bad.json", document)
    assert main(["chern", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "components[0].degree" in err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["chern", "--input", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert main(["chern", "--input", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize(
    "case", ["directory input", "undecodable input", "unwritable output", "unwritable no-stable"]
)
def test_file_errors_exit_2_naming_the_file(tmp_path, capsys, case):
    config, fc = two_lines()
    document = write_document(tmp_path, "two.json", input_document(config, fc))
    undecodable = tmp_path / "bytes.json"
    undecodable.write_bytes(b"\xff\xfe{")
    unwritable = ["--output", str(tmp_path / "absent" / "x.csv"), "--format", "csv"]
    argv, named = {
        "directory input": (["chern", "--input", str(tmp_path)], str(tmp_path)),
        "undecodable input": (["chern", "--input", str(undecodable)], str(undecodable)),
        "unwritable output": (["chern", "--input", document, *unwritable], "--output"),
        "unwritable no-stable": (
            ["upsilon", "--input", document, "--rank", "2", "--budget", "2",
             "--quiet", *unwritable],
            "--output",
        ),
    }[case]
    assert main(argv) == 2
    assert f"{named}: " in capsys.readouterr().err


def test_system_data_of_another_rank_exits_3(tmp_path, capsys):
    config, fc = two_lines()
    rank3 = FilteredConfiguration(3, (Filtration.trivial(3),) * 2)
    document = input_document(config, fc, derive_tables(rank3, config))
    path = write_document(tmp_path, "mixed.json", document)
    assert main(["chern", "--input", path]) == 3
    assert "system_data.rank: " in capsys.readouterr().err


def test_asymmetric_matrix_exits_3(tmp_path, capsys):
    config, fc = two_lines()
    document = input_document(config, fc)
    document["configuration"]["intersection"][0][1] = 3
    path = write_document(tmp_path, "asym.json", document)
    assert main(["chern", "--input", path]) == 3
    assert "asymmetric" in capsys.readouterr().err


def test_stability_command(tmp_path):
    config, fc = three_generic_lines()
    path = write_document(tmp_path, "tgl.json", input_document(config, fc))
    out = tmp_path / "verdict.json"
    assert main(["stability", "--input", path, "--output", str(out)]) == 0
    verdict = read_report(out)["result"]["verdict"]
    assert verdict["status"] == "stable"
    assert verdict["certainty"] == "exact"
    assert verdict["max_observed_degree"] == "-1/2"


def test_stability_mode_is_auto_only(tmp_path, capsys):
    # the rank alone picks the method: a rank-2 document is decided exactly
    config, fc = three_generic_lines()
    path = write_document(tmp_path, "tgl.json", input_document(config, fc))
    out = tmp_path / "v.json"
    for mode in ("heuristic", "exact2"):
        args = ["stability", "--input", path, "--stability-mode", mode, "--samples", "10"]
        assert main(args + ["--output", str(out)]) == 2
        assert "--stability-mode: invalid choice" in capsys.readouterr().err
        assert not out.exists()
    args = ["stability", "--input", path, "--stability-mode", "auto", "--samples", "10"]
    assert main(args + ["--output", str(out)]) == 0
    report = read_report(out)
    assert report["manifest"]["options"]["stability_mode"] == "auto"
    assert report["result"]["verdict"]["certainty"] == "exact"
    assert report["result"]["verdict"]["metadata"] == {"mode": "exact2", "explored": 4}


def test_upsilon_no_stable_exits_4(tmp_path, capsys):
    config, fc = two_lines()
    path = write_document(tmp_path, "two.json", input_document(config))
    out = tmp_path / "report.json"
    code = main(
        [
            "upsilon",
            "--input",
            path,
            "--rank",
            "2",
            "--budget",
            "20",
            "--seed",
            "5",
            "--quiet",
            "--output",
            str(out),
        ]
    )
    assert code == 4
    report = read_report(out)
    assert "search_log" in report
    assert report["search_log"]["stable"] == 0


def test_upsilon_finds_stable_on_triangle(tmp_path):
    config, _ = three_generic_lines()
    path = write_document(tmp_path, "triangle.json", input_document(config))
    out = tmp_path / "estimate.json"
    code = main(
        [
            "upsilon",
            "--input",
            path,
            "--rank",
            "2",
            "--budget",
            "30",
            "--seed",
            "9",
            "--quiet",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    result = read_report(out)["result"]
    assert result["verdict"]["status"] == "stable"
    num, _, den = result["ratio"].partition("/")
    value = int(num) / int(den or "1")
    assert 0 <= value <= 0.5


def test_blowup_pipes_into_upsilon(tmp_path):
    arr = three_concurrent_lines()
    arr_path = write_document(tmp_path, "arr.json", {"arrangement": arrangement_to_doc(arr)})
    blown_path = tmp_path / "blown.json"
    assert main(
        ["blowup", "--input", arr_path, "--epsilon", "1/10", "--output", str(blown_path)]
    ) == 0
    blown_report = read_report(blown_path)
    config_doc = blown_report["result"]
    degrees = [c["degree"] for c in config_doc["configuration"]["components"]]
    assert degrees == ["9/10", "9/10", "9/10", "1/10"]
    # the emitted result is itself a valid input document
    input_path = write_document(tmp_path, "blown_input.json", config_doc)
    code = main(
        [
            "upsilon",
            "--input",
            input_path,
            "--rank",
            "2",
            "--budget",
            "10",
            "--seed",
            "3",
            "--quiet",
            "--output",
            str(tmp_path / "est.json"),
        ]
    )
    assert code in (0, 4)


def test_upsilon_uses_supplied_configuration(tmp_path):
    # the document's configuration is the first shape tried, so budget 1 finds it
    config, fc = three_generic_lines()
    path = write_document(tmp_path, "with_fc.json", input_document(config, fc))
    out = tmp_path / "est.json"
    code = main(
        [
            "upsilon",
            "--input", path,
            "--rank", "2",
            "--budget", "1",
            "--seed", "3",
            "--quiet",
            "--output", str(out),
        ]
    )
    assert code == 0
    result = read_report(out)["result"]
    assert result["ratio"] == "8195/16793606"
    assert result["verdict"]["status"] == "stable"
    assert result["verdict"]["certainty"] == "exact"
    assert result["search_log"]["candidates"] == 1


def retired_flag_exits_2(tmp_path, capsys, argv, flag, value):
    out = tmp_path / "report.json"
    assert main(argv + ["--quiet", "--output", str(out), flag, value]) == 2
    assert f"argument {flag}: retired: " in capsys.readouterr().err
    assert not out.exists()


def test_upsilon_strategies_flag(tmp_path, capsys):
    # retired: the search tries the document's configuration, then one fixed stream
    config, _ = three_generic_lines()
    path = write_document(tmp_path, "triangle.json", input_document(config))
    argv = ["upsilon", "--input", path, "--rank", "2", "--budget", "1"]
    retired_flag_exits_2(tmp_path, capsys, argv, "--strategies", "random,generic")


def test_upsilon_max_denominator_flag(tmp_path, capsys):
    # retired: rationalize rounds on the one grid upsilon.MAX_DENOMINATOR
    config, _ = three_generic_lines()
    path = write_document(tmp_path, "triangle.json", input_document(config))
    argv = ["upsilon", "--input", path, "--rank", "2", "--budget", "1"]
    retired_flag_exits_2(tmp_path, capsys, argv, "--max-denominator", "64")


def test_stability_depth_flag(tmp_path, capsys):
    # retired: the closure runs stability.CLOSURE_DEPTH rounds
    path = write_document(tmp_path, "planes.json", input_document(*three_planes()))
    retired_flag_exits_2(tmp_path, capsys, ["stability", "--input", path], "--depth", "0")


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--budget", "0"),
        ("--rank", "0"),
        ("--strategies", "bogus"),
        ("--strategies", "user"),
    ],
)
def test_upsilon_bad_flag_exits_2(tmp_path, capsys, flag, value):
    config, _ = three_generic_lines()
    path = write_document(tmp_path, "triangle.json", input_document(config))
    argv = ["upsilon", "--input", path, "--rank", "2", "--budget", "3", "--quiet"]
    assert main(argv + [flag, value]) == 2
    assert f"{flag}: " in capsys.readouterr().err


def test_upsilon_rank_other_than_the_document_exits_3(tmp_path, capsys):
    config, fc = three_generic_lines()
    path = write_document(tmp_path, "tgl.json", input_document(config, fc))
    assert main(["upsilon", "--input", path, "--rank", "3", "--budget", "2", "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "filtered_configuration.rank: " in err
    assert "--rank 3" in err


@pytest.mark.parametrize(
    "command,flag",
    [
        ("stability", "--samples"),
        ("upsilon", "--samples"),
    ],
)
def test_negative_count_exits_2(tmp_path, capsys, command, flag):
    if command == "stability":
        path = write_document(tmp_path, "planes.json", input_document(*three_planes()))
        argv = [command, "--input", path, "--quiet"]
    else:
        config, fc = three_generic_lines()
        path = write_document(tmp_path, "tgl.json", input_document(config, fc))
        argv = [command, "--input", path, "--quiet", "--rank", "2", "--budget", "2"]
    out = tmp_path / "report.json"
    assert main(argv + [flag, "-1", "--output", str(out)]) == 2
    assert f"{flag}: " in capsys.readouterr().err
    assert not out.exists()


def test_zero_counts_explore_the_closure_only(tmp_path):
    # rank 4: the three flag planes, whose pairwise sums are the full space
    # and meets zero, so the closure adds nothing
    path = write_document(tmp_path, "planes.json", input_document(*three_planes()))
    out = tmp_path / "verdict.json"
    argv = ["stability", "--input", path, "--samples", "0", "--output", str(out)]
    assert main(argv) == 0
    metadata = read_report(out)["result"]["verdict"]["metadata"]
    assert metadata["mode"] == "heuristic"
    assert metadata["explored"] == metadata["closure_size"] == 3


def test_csv_format(tmp_path):
    config, fc = two_lines()
    path = write_document(tmp_path, "two.json", input_document(config, fc))
    out = tmp_path / "report.csv"
    assert main(["chern", "--input", path, "--format", "csv", "--output", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "key,value"
    assert "result.report.c2,0" in text


def test_csv_keeps_empty_containers(tmp_path):
    # one component, so there are no crossings
    config = DivisorConfiguration(("C",), (1,), ((1,),))
    fc = FilteredConfiguration(2, (Filtration.trivial(2),))
    path = write_document(tmp_path, "one.json", input_document(config, fc))
    out = tmp_path / "report.csv"
    assert main(["chern", "--input", path, "--format", "csv", "--output", str(out)]) == 0
    assert "result.crossings,[]" in out.read_text(encoding="utf-8").splitlines()
    assert _render({"a": [], "b": {}, "c": [1]}, "csv") == "key,value\na,[]\nb,{}\nc[0],1\n"
    assert _render({"a": [], "b": {}}, "json") == canonical_json({"a": [], "b": {}})


@pytest.mark.parametrize("command", [
    ["chern"], ["stability"], ["upsilon", "--rank", "2", "--budget", "2", "--quiet"],
])
def test_degree_zero_under_a_flag_exits_3_naming_the_degree(tmp_path, capsys, command):
    document = input_document(*three_generic_lines())
    document["configuration"]["components"][0]["degree"] = "0"
    path = write_document(tmp_path, "triangle.json", document)
    assert main([*command, "--input", path]) == 3
    assert "configuration.components[0].degree: " in capsys.readouterr().err


def test_upsilon_needs_every_degree_positive(tmp_path, capsys):
    config, _ = three_generic_lines()
    document = input_document(config)
    document["configuration"]["components"][1]["degree"] = "0"
    path = write_document(tmp_path, "triangle.json", document)
    assert main(["upsilon", "--input", path, "--rank", "2", "--budget", "2", "--quiet"]) == 3
    assert "configuration.components[1].degree: " in capsys.readouterr().err


def test_upsilon_on_a_matrix_no_surface_has_exits_3(tmp_path, capsys):
    path = write_document(tmp_path, "nonsurface.json", input_document(non_surface_config()))
    argv = ["upsilon", "--input", path, "--rank", "2", "--budget", "12", "--seed", "0"]
    assert main([*argv, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("validation error: configuration.intersection: ")
    assert "Hodge index theorem" in err


def test_upsilon_bgi_violation_on_a_surface_exits_5(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("filtstab.chern.QuadraticPair.c2_value", lambda self, w: Fraction(-1))
    path = write_document(tmp_path, "triangle.json", input_document(three_generic_lines()[0]))
    argv = ["upsilon", "--input", path, "--rank", "2", "--budget", "12", "--seed", "0"]
    assert main([*argv, "--quiet"]) == 5
    assert capsys.readouterr().err.startswith("inequality violation (bug): ")


def test_seed_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FILTSTAB_SEED", "77")
    config, _ = three_generic_lines()
    path = write_document(tmp_path, "triangle.json", input_document(config))
    out = tmp_path / "est.json"
    code = main(
        [
            "upsilon",
            "--input",
            path,
            "--rank",
            "2",
            "--budget",
            "6",
            "--quiet",
            "--output",
            str(out),
        ]
    )
    assert code in (0, 4)
    report = read_report(out)
    manifest = report["manifest"]
    assert manifest["options"]["seed"] == 77

    monkeypatch.setenv("FILTSTAB_SEED", "abc")
    argv = ["upsilon", "--input", path, "--rank", "2", "--budget", "6", "--quiet"]
    assert main(argv + ["--output", str(out)]) == 2
    assert "FILTSTAB_SEED" in capsys.readouterr().err
    # an explicit --seed overrides the malformed variable
    assert main(argv + ["--seed", "77", "--output", str(out)]) == code
    assert read_report(out)["manifest"]["options"]["seed"] == 77


@pytest.mark.parametrize(
    "flag, value",
    [("--budget", "\uff12"), ("--seed", "1_0"), ("--rank", " 2"), ("--samples", "\u0662")],
    ids=["fullwidth", "underscore", "space", "arabic-indic"],
)
def test_integer_flags_read_ascii_digits_only(tmp_path, capsys, flag, value):
    # int() alone reads any Unicode decimal and underscores
    assert int(value.strip()) in (2, 10)
    path = write_document(tmp_path, "triangle.json", input_document(three_generic_lines()[0]))
    argv = ["upsilon", "--input", path, "--rank", "2", "--budget", "2", "--quiet"]
    assert main([*argv, flag, value]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: not an integer: {value!r}" in err


def test_seed_env_variable_reads_ascii_digits_only(tmp_path, capsys, monkeypatch):
    config, fc = three_generic_lines()
    path = write_document(tmp_path, "tgl.json", input_document(config, fc))
    out = tmp_path / "verdict.json"
    monkeypatch.setenv("FILTSTAB_SEED", "\uff13")
    assert main(["stability", "--input", path, "--output", str(out)]) == 2
    assert capsys.readouterr().err == "parse error: FILTSTAB_SEED: not an integer: '\uff13'\n"
    assert not out.exists()
    # a negative seed is still an integer, from the flag and the variable
    assert main(["stability", "--input", path, "--seed", "-1", "--output", str(out)]) == 0
    assert read_report(out)["manifest"]["options"]["seed"] == -1
    monkeypatch.setenv("FILTSTAB_SEED", "-3")
    assert main(["stability", "--input", path, "--output", str(out)]) == 0
    assert read_report(out)["manifest"]["options"]["seed"] == -3


@pytest.mark.parametrize("root", [0, "x", []], ids=["number", "string", "list"])
def test_blowup_of_a_non_object_document_exits_2(tmp_path, capsys, root):
    path = write_document(tmp_path, "root.json", root)
    assert main(["blowup", "--input", path]) == 2
    assert capsys.readouterr().err == "parse error: .: expected a top-level object\n"
    path = write_document(tmp_path, "other.json", {"curves": []})
    assert main(["blowup", "--input", path]) == 2
    assert capsys.readouterr().err == "parse error: .: missing key 'arrangement'\n"


def test_non_ascii_digits_are_no_rational_literal(tmp_path, capsys):
    # fullwidth 3 and Arabic-Indic 1/2 would pass int(), but not the grammar
    document = input_document(*three_generic_lines())
    document["configuration"]["components"][0]["degree"] = "\uff13"
    document["filtered_configuration"]["filtrations"][0]["steps"][0]["weight"] = "\u0661/\u0662"
    path = write_document(tmp_path, "digits.json", document)
    assert main(["chern", "--input", path]) == 2
    assert capsys.readouterr().err.startswith(
        "parse error: configuration.components[0].degree: not a rational literal"
    )


def absent(monkeypatch, module):
    """Make ``importlib.util.find_spec`` report ``module`` as not installed."""
    real_find_spec = importlib.util.find_spec
    monkeypatch.setattr(
        importlib.util, "find_spec",
        lambda name, *args: None if name == module else real_find_spec(name, *args),
    )


def test_upsilon_without_numpy_exits_2(tmp_path, capsys, monkeypatch):
    absent(monkeypatch, "numpy")
    config, _ = three_generic_lines()
    path = write_document(tmp_path, "triangle.json", input_document(config))
    out = tmp_path / "report.json"
    argv = ["upsilon", "--input", path, "--rank", "2", "--budget", "2", "--quiet"]
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "parse error: upsilon: numpy is not installed; the search's float solve needs it\n"
    )
    assert not out.exists()


def test_upsilon_runs_without_scipy(tmp_path, capsys, monkeypatch):
    # the float solve needs numpy alone
    absent(monkeypatch, "scipy")
    config, _ = three_generic_lines()
    path = write_document(tmp_path, "triangle.json", input_document(config))
    out = tmp_path / "report.json"
    argv = ["upsilon", "--input", path, "--rank", "2", "--budget", "2", "--quiet"]
    assert main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert read_report(out)["result"]["verdict"]["status"] == "stable"


@pytest.mark.parametrize("epsilon", ["0", "5"])
def test_blowup_epsilon_errors_exit_3_naming_the_flag(tmp_path, capsys, epsilon):
    document = {"arrangement": arrangement_to_doc(three_concurrent_lines())}
    path = write_document(tmp_path, "arr.json", document)
    out = tmp_path / "blown.json"
    assert main(["blowup", "--input", path, "--epsilon", epsilon, "--output", str(out)]) == 3
    assert "validation error: --epsilon: " in capsys.readouterr().err
    assert not out.exists()


def two_lines_with_tables():
    config, fc = two_lines()
    return input_document(config, fc, derive_tables(fc, config))


def with_value(document, path, value):
    """A copy of ``document`` with the element at the key/index ``path`` replaced."""
    if not path:
        return value
    out = copy.deepcopy(document)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def element_paths(value, prefix=()):
    """The key/index path of every element of a document, containers included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from element_paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from element_paths(item, prefix + (index,))


EMPTY_ARRANGEMENT = {"arrangement": {"curves": [], "points": []}}
# a curve named like the exceptional curve of the marked point p
EXCEPTIONAL_NAME_ARRANGEMENT = {"arrangement": {
    "curves": [{"name": name, "degree": 1} for name in ("L1", "L2", "E_p")],
    "points": [{"id": "p", "curves": ["L1", "L2"]}],
}}


def point_through(*curves):
    """An arrangement of the lines A and B with one marked point p on ``curves``."""
    return {"arrangement": {
        "curves": [{"name": name, "degree": 1} for name in ("A", "B")],
        "points": [{"id": "p", "curves": list(curves)}],
    }}


@pytest.mark.parametrize("argv, document, located", [
    (["chern"], with_value(two_lines_with_tables(), ("filtered_configuration", "rank"), 0),
     "filtered_configuration.rank: rank must be positive"),
    (["chern"], with_value(two_lines_with_tables(), ("filtered_configuration", "rank"), -1),
     "filtered_configuration.rank: rank must be positive"),
    (["chern"], with_value(two_lines_with_tables(), ("system_data", "crossing_tables"), []),
     "system_data.crossing_tables: pair (0, 1) meets in 1 points but has 0 tables"),
    (["chern"], with_value(
        two_lines_with_tables(), ("system_data", "crossing_tables", 0, "components", 1), 5),
     "system_data.crossing_tables: crossing table given for non-crossing pair (0, 5)"),
    (["chern"], with_value(
        two_lines_with_tables(), ("system_data", "crossing_tables", 0, "components", 0), -1),
     "system_data.crossing_tables: crossing table given for non-crossing pair (-1, 1)"),
    (["blowup"], EMPTY_ARRANGEMENT, "arrangement: arrangement has no curves"),
    (["chern"], with_value(two_lines_with_tables(), ("system_data", "rank"), 0),
     "system_data.rank: rank must be positive"),
    (["chern"], with_value(two_lines_with_tables(), ("system_data", "rank"), -1),
     "system_data.rank: rank must be positive"),
    (["chern"], with_value(two_lines_with_tables(), ("system_data", "rank"), 5),
     "system_data.component_tables[0]: table sums to 2, expected rank 5"),
    (["chern"], with_value(
        two_lines_with_tables(), ("system_data", "component_tables", 1, 0, 1), 2),
     "system_data.component_tables[1]: table sums to 3, expected rank 2"),
    (["chern"], with_value(
        two_lines_with_tables(), ("system_data", "crossing_tables", 0, "table", 0, 2), 2),
     "system_data.crossing_tables[0]: table sums to 3, expected rank 2"),
    (["chern"], with_value(
        two_lines_with_tables(), ("system_data", "crossing_tables", 0, "table"),
        [["7", "-1/2", 1], ["3", "1/2", 1]]),
     "system_data.crossing_tables[0]: side 0 does not add up to component table 0"),
    (["chern"], with_value(two_lines_with_tables(), ("configuration", "components", 1, "name"),
                           "L1"),
     "configuration: duplicate component names"),
    (["blowup"], EXCEPTIONAL_NAME_ARRANGEMENT,
     "arrangement: curve 'E_p' takes the name that blow_up gives the exceptional curve "
     "of point 'p'"),
    (["blowup"], point_through("A", "A", "B"), "arrangement: point 'p' lists curve 'A' twice"),
    (["blowup"], point_through("A", "A"),
     "arrangement: point 'p' must list at least two distinct curves"),
], ids=["rank-0", "rank-negative", "table-missing", "pair-out-of-range", "pair-negative",
        "no-curves", "system-rank-0", "system-rank-negative", "system-rank-unmatched",
        "component-table-sum", "crossing-table-sum", "crossing-table-sides",
        "duplicate-names", "exceptional-name", "repeated-curve", "one-distinct-curve"])
def test_structural_errors_exit_3_naming_their_element(tmp_path, capsys, argv, document, located):
    path = write_document(tmp_path, "bad.json", document)
    assert main(argv + ["--input", path]) == 3
    assert capsys.readouterr().err == f"validation error: {located}\n"


LOCATED = re.compile(
    r"(parse|validation) error: "
    r"(\.|--[a-z-]+|(configuration|filtered_configuration|system_data|arrangement)"
    r"(\.\w+|\[\d+\])*): "
)


def test_every_mutated_element_gives_a_located_error(tmp_path, capsys):
    """Replace each element of a chern and a blowup document by each bad value.

    Every run exits 0, 2 or 3 without raising, and every error names the
    document element or the flag at fault.
    """
    cases = [
        (["chern"], two_lines_with_tables()),
        (["blowup", "--epsilon", "1/10"],
         {"arrangement": arrangement_to_doc(three_concurrent_lines())}),
    ]
    values = [0, -1, 5, "", "1/0", "x", [], {}, True, None, "-1", "0"]
    path = str(tmp_path / "mutated.json")
    codes = []
    for argv, document in cases:
        for element in list(element_paths(document)):
            for value in values:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(canonical_json(with_value(document, element, value)))
                code = main(argv + ["--input", path, "--output", os.devnull])
                err = capsys.readouterr().err
                assert code in (0, 2, 3), (argv[0], element, value, err)
                assert code == 0 or LOCATED.match(err), (argv[0], element, value, err)
                codes.append(code)
    assert set(codes) == {0, 2, 3}


def without_timestamp(text):
    return "\n".join(line for line in text.splitlines() if "timestamp" not in line)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    stability_args = parser.parse_args(["stability", "--input", "x.json"])
    upsilon_args = parser.parse_args(["upsilon", "--input", "x.json", "--rank", "2"])
    assert stability_args.samples == upsilon_args.samples == DEFAULT_SAMPLES


def test_interleaved_calls_match_calls_run_alone(tmp_path):
    # the parser is shared between calls; no option or default may leak
    config, fc = three_generic_lines()
    tgl = write_document(tmp_path, "tgl.json", input_document(config, fc))
    triangle = write_document(tmp_path, "triangle.json", input_document(config))
    planes = write_document(tmp_path, "planes.json", input_document(*three_planes()))
    arr = write_document(
        tmp_path, "arr.json", {"arrangement": arrangement_to_doc(three_concurrent_lines())}
    )
    upsilon = ["upsilon", "--input", triangle, "--rank", "2", "--budget", "2", "--quiet"]
    calls = [
        ["chern", "--input", tgl, "--format", "csv"],
        ["stability", "--input", planes, "--samples", "5", "--seed", "4"],
        ["blowup", "--input", arr, "--epsilon", "1/7"],
        upsilon + ["--seed", "3"],
        ["demo", "--quiet"],
        ["chern", "--input", tgl],
        ["stability", "--input", tgl],
        ["stability", "--input", planes],
        ["blowup", "--input", arr],
        upsilon,
        ["demo", "--quiet", "--format", "csv"],
    ]

    def run(index, argv):
        out = tmp_path / f"{index}.out"
        code = main(argv + ["--output", str(out)])
        return code, without_timestamp(out.read_text(encoding="utf-8"))

    interleaved = [run(index, argv) for index, argv in enumerate(calls)]
    assert {code for code, _ in interleaved} <= {0, 4}
    for index, argv in enumerate(calls):
        build_parser.cache_clear()
        assert run(index, argv) == interleaved[index]


def test_format_does_not_stick(tmp_path):
    config, fc = two_lines()
    path = write_document(tmp_path, "two.json", input_document(config, fc))
    csv_out, json_out = tmp_path / "report.csv", tmp_path / "report.json"
    assert main(["chern", "--input", path, "--format", "csv", "--output", str(csv_out)]) == 0
    assert main(["chern", "--input", path, "--output", str(json_out)]) == 0
    assert csv_out.read_text(encoding="utf-8").startswith("key,value")
    assert read_report(json_out)["manifest"]["options"]["output_format"] == "json"


def test_usage_error_leaves_the_parser_intact(tmp_path, capsys):
    config, fc = two_lines()
    path = write_document(tmp_path, "two.json", input_document(config, fc))
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert main(["chern", "--input", path, "--output", str(before)]) == 0
    assert main(["chern", "--input", path, "--format", "xml", "--seed", "1"]) == 2
    assert "--format" in capsys.readouterr().err
    assert main(["chern", "--input", path, "--output", str(after)]) == 0
    text = before.read_text(encoding="utf-8")
    assert without_timestamp(after.read_text(encoding="utf-8")) == without_timestamp(text)


@pytest.mark.parametrize(
    "argv, named",
    [(["chern"], "--input"), ([], "command")],
    ids=["missing-input", "no-subcommand"],
)
def test_usage_errors_return_2(argv, named, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: filtstab")
    assert named in err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_return_0(flag, capsys):
    assert main([flag]) == 0
    assert capsys.readouterr().out


def test_seed_env_variable_is_read_on_each_call(tmp_path, monkeypatch):
    config, fc = three_generic_lines()
    path = write_document(tmp_path, "tgl.json", input_document(config, fc))
    out = tmp_path / "verdict.json"
    seeds = []
    for value in ("5", "9"):
        monkeypatch.setenv("FILTSTAB_SEED", value)
        assert main(["stability", "--input", path, "--output", str(out)]) == 0
        seeds.append(read_report(out)["manifest"]["options"]["seed"])
    assert seeds == [5, 9]


def test_console_script_entry_points():
    proc = subprocess.run(
        [sys.executable, "-m", "filtstab", "demo", "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["three_generic_lines"]["ratio"] == "1/2"


def test_upsilon_report_does_not_depend_on_the_hash_seed(tmp_path):
    # set or dict iteration order reaching a report would differ between
    # interpreters with different string hashes
    config, _ = three_generic_lines()
    path = write_document(tmp_path, "triangle.json", input_document(config))
    texts = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"report_{hash_seed}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "filtstab", "upsilon", "--input", path,
                "--rank", "2", "--budget", "40", "--seed", "3", "--quiet",
                "--output", str(out),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0, proc.stderr
        texts.append(without_timestamp(out.read_text(encoding="utf-8")))
    assert texts[0] == texts[1]
    assert '"best_ratio": "8195/16793606"' in texts[0]


COLD_START = """
import json, sys
from filtstab import cli

for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    loaded = sorted({name.partition(".")[0] for name in sys.modules} & {"numpy", "scipy"})
    print(json.dumps([argv[0], code, loaded]))
"""


def test_exact_commands_start_without_numpy_and_scipy(tmp_path):
    # only upsilon's float solve imports numpy, on its first call, and
    # nothing imports scipy
    import filtstab

    assert callable(filtstab.upsilon.inner_minimize)
    config, fc = three_generic_lines()
    triangle = write_document(tmp_path, "triangle.json", input_document(config))
    flags = write_document(tmp_path, "flags.json", input_document(config, fc))
    arr = write_document(
        tmp_path, "arr.json", {"arrangement": arrangement_to_doc(three_concurrent_lines())}
    )
    out = str(tmp_path / "out.json")
    requests = [
        ["demo", "--quiet", "--output", out],
        ["chern", "--input", flags, "--output", out],
        ["stability", "--input", flags, "--output", out],
        ["blowup", "--input", arr, "--epsilon", "1/10", "--output", out],
        ["upsilon", "--input", triangle, "--rank", "2", "--budget", "40", "--seed", "3",
         "--quiet", "--output", out],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(requests)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    assert steps == [
        ["demo", 0, []],
        ["chern", 0, []],
        ["stability", 0, []],
        ["blowup", 0, []],
        ["upsilon", 0, ["numpy"]],
    ]
    assert read_report(out)["result"]["ratio"] == "8195/16793606"
