"""Command-line interface: parse documents, dispatch, emit reports.

Every report is a self-contained JSON (or CSV summary) embedding the run
manifest; all numeric content is exact-rational strings, so identical
manifests with the same seed reproduce identical reports byte for byte apart
from the timestamp.  Exit codes: 0 success, 2 parse error, 3 validation
error, 4 no stable configuration found, 5 internal inequality violation.

The argument parser is built once per process (``build_parser`` is cached)
and holds no per-call state, so :func:`main` may be called repeatedly in one
process; ``FILTSTAB_SEED`` is read on each call that has no ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib.util
import io
import json
import os
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import Any, Optional, Sequence

from . import __version__
from .chern import c2_number, c2_trivial, derive_tables, norm_sq
from .errors import (
    BGIViolationError,
    DegenerateDegreeError,
    DocumentParseError,
    DocumentValidationError,
    FiltstabError,
    NoStableConfigurationError,
)
from .fixtures import three_concurrent_lines, three_generic_lines, two_lines
from .linalg import rational_to_string
from .serialize import (
    arrangement_from_doc,
    canonical_json,
    chern_report_to_doc,
    divisor_configuration_to_doc,
    estimate_to_doc,
    input_document,
    located,
    parse_config,
    rational_from_doc,
    verdict_to_doc,
)
from .stability import DEFAULT_SAMPLES, check_stability
from .surface import blow_up, crossing_points
from .upsilon import DEFAULT_MAX_DENOMINATOR, outer_search

SEED_ENV_VAR = "FILTSTAB_SEED"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NO_STABLE = 4
EXIT_INEQUALITY = 5


def _integer(text: str) -> int:
    """An ASCII integer ``[+-]?[0-9]+``, the type of every integer flag;
    ``int`` alone also reads other Unicode digits and underscores."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _resolve_seed(args: argparse.Namespace) -> None:
    """Fill an absent ``--seed`` from ``FILTSTAB_SEED`` (0 when unset), read on each call."""
    if getattr(args, "seed", 0) is not None:
        return
    try:
        args.seed = _integer(os.environ.get(SEED_ENV_VAR, "0"))
    except argparse.ArgumentTypeError as error:
        raise DocumentParseError(str(error), SEED_ENV_VAR) from None


def _load_document(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as error:
        raise DocumentParseError(f"cannot read input file: {error}", path) from error
    except json.JSONDecodeError as error:
        raise DocumentParseError(
            f"invalid JSON at line {error.lineno} column {error.colno}: {error.msg}",
            path,
        ) from error


def _flatten(prefix: str, value: Any, rows: list[tuple[str, str]]) -> None:
    """One (key, value) row per leaf; an empty list or object is a leaf, ``[]`` or ``{}``."""
    if isinstance(value, dict) and value:
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], rows)
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            _flatten(f"{prefix}[{index}]", item, rows)
    else:
        rows.append((prefix, "" if value is None else str(value)))


def _render(report: dict, output_format: str) -> str:
    if output_format == "json":
        return canonical_json(report)
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("key", "value"))
    writer.writerows(rows)
    return buffer.getvalue()


def _emit(report: dict, args: argparse.Namespace, code: int) -> int:
    """Write ``report`` to ``--output`` (stdout by default); ``code``, or 2 if that fails."""
    text = _render(report, args.output_format)
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as error:
        print(f"parse error: --output: cannot write the report: {error}", file=sys.stderr)
        return EXIT_PARSE
    return code


def _cmd_chern(args: argparse.Namespace) -> dict:
    config, fc, data = parse_config(_load_document(args.input))
    if data is None and fc is None:
        raise DocumentValidationError(
            "need filtered_configuration or system_data to compute Chern numbers",
            "filtered_configuration",
        )
    if data is None:
        data = derive_tables(fc, config)
    # c2_number checks the tables against the crossings; derived tables always pass
    with located("system_data.crossing_tables"):
        report = c2_number(data, config)
    result: dict[str, Any] = {
        "report": chern_report_to_doc(report),
        "crossings": [
            {"components": list(pair), "points": count}
            for pair, count in crossing_points(config)
        ],
    }
    if fc is not None:
        result["balanced"] = balanced = fc.is_balanced()
        result["norm_sq"] = rational_to_string(norm_sq(fc, config))
        if balanced:
            result["c2_pairing"] = rational_to_string(c2_trivial(fc, config))
    return result


def _check_counts(minimum: int, counts: Sequence[tuple[str, int]]) -> None:
    """Reject a count flag below ``minimum`` as a parse error naming the flag."""
    for flag, value in counts:
        if value < minimum:
            raise DocumentParseError(f"must be at least {minimum}, got {value}", flag)


def _cmd_stability(args: argparse.Namespace) -> dict:
    _check_counts(0, (("--samples", args.samples),))
    config, fc, _ = parse_config(_load_document(args.input))
    if fc is None:
        raise DocumentValidationError(
            "stability needs a filtered_configuration", "filtered_configuration"
        )
    verdict = check_stability(fc, config, samples=args.samples, seed=args.seed)
    return {"verdict": verdict_to_doc(verdict)}


def _cmd_blowup(args: argparse.Namespace) -> dict:
    document = _load_document(args.input)
    if not isinstance(document, dict):
        raise DocumentParseError("expected a top-level object", ".")
    if "arrangement" not in document:
        raise DocumentParseError("missing key 'arrangement'", ".")
    arrangement = arrangement_from_doc(document["arrangement"], "arrangement")
    epsilon = rational_from_doc(args.epsilon, "--epsilon")
    with located("--epsilon"):  # blow_up's only invariants are on epsilon
        config = blow_up(arrangement, epsilon)
    return input_document(config)


def _cmd_upsilon(args: argparse.Namespace) -> dict:
    _check_counts(1, (
        ("--rank", args.rank),
        ("--budget", args.budget),
        ("--max-denominator", args.max_denominator),
    ))
    _check_counts(0, (("--samples", args.samples),))
    if importlib.util.find_spec("numpy") is None:  # imported by the float solve
        raise DocumentParseError(
            "numpy is not installed; the search's float solve needs it", "upsilon"
        )
    config, fc, _ = parse_config(_load_document(args.input))
    if fc is not None and fc.rank != args.rank:
        raise DocumentValidationError(
            f"rank {fc.rank} does not match --rank {args.rank}", "filtered_configuration.rank"
        )

    def progress(done: int, total: int, best: Optional[Fraction]) -> None:
        if args.quiet:
            return
        stride = max(1, total // 10)
        if done % stride == 0 or done == total:
            shown = rational_to_string(best) if best is not None else "none"
            print(f"candidates {done}/{total}, best ratio {shown}", file=sys.stderr)

    try:
        estimate = outer_search(
            config,
            rank=args.rank,
            budget=args.budget,
            seed=args.seed,
            start=fc,
            max_denominator=args.max_denominator,
            samples=args.samples,
            progress=progress,
        )
    except BGIViolationError as error:
        # c2 >= 0 holds on surfaces; a matrix no surface has is the input's fault
        if error.witness is None:
            raise
        raise DocumentValidationError(
            f"no surface has these degrees and intersections: y = {list(error.witness)} has "
            f"degree 0 and y^T M y = {config.pairing(error.witness)} > 0, against the Hodge "
            "index theorem, so c2 >= 0 need not hold for its stable configurations",
            "configuration.intersection",
        ) from error
    return estimate_to_doc(estimate)


def _cmd_demo(args: argparse.Namespace) -> dict:
    result: dict[str, Any] = {}

    config2, fc2 = two_lines()
    report2 = c2_number(derive_tables(fc2, config2), config2)
    verdict2 = check_stability(fc2, config2)
    result["two_lines"] = {
        "chern": chern_report_to_doc(report2),
        "stability": verdict_to_doc(verdict2),
    }

    arrangement = three_concurrent_lines()
    blown = blow_up(arrangement, Fraction(1, 10))
    result["three_concurrent_lines_blowup"] = divisor_configuration_to_doc(blown)

    config3, fc3 = three_generic_lines()
    report3 = c2_number(derive_tables(fc3, config3), config3)
    verdict3 = check_stability(fc3, config3)
    c2_value = c2_trivial(fc3, config3)
    norm_value = norm_sq(fc3, config3)
    result["three_generic_lines"] = {
        "chern": chern_report_to_doc(report3),
        "stability": verdict_to_doc(verdict3),
        "c2": rational_to_string(c2_value),
        "norm_sq": rational_to_string(norm_value),
        "ratio": rational_to_string(c2_value / norm_value),
    }
    if not args.quiet:
        print(
            f"three generic lines: ratio = {rational_to_string(c2_value / norm_value)}",
            file=sys.stderr,
        )
    return result


def _manifest(args: argparse.Namespace) -> dict:
    """Provenance block embedded into every report, stamped now."""
    skip = {"func", "command", "input", "output"}
    return {
        "command": args.command,
        "input": getattr(args, "input", None),
        "options": {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in skip and not callable(value)
        },
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _retired(reason: str):
    """An argparse type that rejects every value of a retired flag, saying why."""
    def reject(value: str):
        raise argparse.ArgumentTypeError(f"retired: {reason}")
    return reject


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtstab",
        description=(
            "Exact Chern-number and stability calculus for weighted flags on "
            "surface divisor configurations."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_samples(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--samples", type=_integer, default=DEFAULT_SAMPLES, help=(
            "random subspaces per dimension above rank 3; ranks 2 and 3 are exact "
            "and ignore it"
        ))

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--output", default=None, help="report path (default stdout)")
        sub.add_argument(
            "--format", choices=("json", "csv"), default="json", dest="output_format"
        )
        sub.add_argument(
            "--quiet", action="store_true", help="suppress progress, never content"
        )

    chern = subparsers.add_parser("chern", help="Chern numbers of filtered data")
    chern.add_argument("--input", required=True)
    add_common(chern)
    chern.set_defaults(func=_cmd_chern)

    stability = subparsers.add_parser("stability", help="stability verdict")
    stability.add_argument("--input", required=True)
    stability.add_argument(
        "--stability-mode", choices=("auto",), default="auto",
        help="the rank picks the method: exact at ranks 2 and 3, sampled above",
    )
    add_samples(stability)
    stability.add_argument("--seed", type=_integer, default=None)
    stability.add_argument(
        "--depth", type=_retired("the closure runs a fixed number of rounds"),
        default=argparse.SUPPRESS, help=argparse.SUPPRESS,
    )
    add_common(stability)
    stability.set_defaults(func=_cmd_stability)

    upsilon = subparsers.add_parser(
        "upsilon", help="search for the minimal c2 / norm ratio"
    )
    upsilon.add_argument("--input", required=True)
    upsilon.add_argument("--rank", type=_integer, required=True)
    upsilon.add_argument("--budget", type=_integer, default=200)
    upsilon.add_argument("--seed", type=_integer, default=None)
    add_samples(upsilon)
    upsilon.add_argument("--max-denominator", type=_integer, default=DEFAULT_MAX_DENOMINATOR)
    upsilon.add_argument(
        "--strategies",
        type=_retired("the search tries the document's configuration, then one fixed stream"),
        default=argparse.SUPPRESS, help=argparse.SUPPRESS,
    )
    add_common(upsilon)
    upsilon.set_defaults(func=_cmd_upsilon)

    blowup = subparsers.add_parser(
        "blowup", help="resolve a plane arrangement by blowing up its points"
    )
    blowup.add_argument("--input", required=True)
    blowup.add_argument("--epsilon", default="1/100")
    add_common(blowup)
    blowup.set_defaults(func=_cmd_blowup)

    demo = subparsers.add_parser("demo", help="run the built-in worked examples")
    add_common(demo)
    demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse has printed the usage error (2), --help or --version (0)
        return stop.code
    try:
        _resolve_seed(args)
        manifest = _manifest(args)
        result = args.func(args)
    except DocumentParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return EXIT_PARSE
    except DocumentValidationError as error:
        print(f"validation error: {error}", file=sys.stderr)
        return EXIT_VALIDATION
    except NoStableConfigurationError as error:
        report = {
            "manifest": manifest,
            "error": str(error),
            "search_log": error.search_log,
        }
        print(f"no stable configuration: {error}", file=sys.stderr)
        return _emit(report, args, EXIT_NO_STABLE)
    except BGIViolationError as error:
        print(f"inequality violation (bug): {error}", file=sys.stderr)
        return EXIT_INEQUALITY
    except DegenerateDegreeError as error:
        path = f"configuration.components[{error.component}].degree"
        print(f"validation error: {path}: {error}", file=sys.stderr)
        return EXIT_VALIDATION
    except FiltstabError as error:
        print(f"validation error: {error}", file=sys.stderr)
        return EXIT_VALIDATION
    return _emit({"manifest": manifest, "result": result}, args, EXIT_OK)


def main_entry() -> None:
    sys.exit(main())


def upsilon_entry() -> None:
    """Direct entry point running the upsilon subcommand."""
    sys.exit(main(["upsilon", *sys.argv[1:]]))
