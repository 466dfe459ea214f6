"""Command-line surface: JSON problem files in, verdicts and intervals out.

Exit codes: 0 success (coherent for `check`), 1 incoherent, 2 input error,
3 internal error (a self-check of the engine failed).
All exact rationals print as `p/q` strings so JSON output round-trips
without float corruption; decimal input such as "0.35" is converted to an
exact rational (7/20) before any computation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .closed_form import lambda_solution_TL, lambda_solution_TM
from .coherence import check_coherence, extension_interval, value_table
from .errors import IncoherentBase, PrevisionError
from .events import ConditionalEvent, WorldSpace, build_world_space
from .frank import (
    FrankKind,
    FrankParameter,
    frechet_bounds_conjunction,
    frechet_bounds_disjunction,
    solve_lambda,
    tconorm,
    tnorm,
)
from .geometry import (
    Assessment,
    CompoundPrevisionMap,
    ConditionalQuantity,
    demorgan_previsions,
    indicator,
    make_conjunction,
    make_disjunction,
)

# No double formats differently past about 770 significant digits.
MAX_PRECISION = 1000
# lambda-solution lists all 2^n member subsets of its n values.
MAX_SOLUTION_VALUES = 16
# parse_rational's longest literal and largest decimal exponent, checked before
# any integer is built; numerators and denominators then get at most twice the digits.
# JSON numbers in a problem file are held to the same length.
MAX_LITERAL_DIGITS = 1000
# Results print exactly up to this many bits in a numerator or denominator:
# at most 4,215 digits, inside CPython's default 4,300-digit int-to-str limit.
MAX_RESULT_BITS = 14_000


class ProblemError(PrevisionError):
    """A problem file or argument failed validation; the message names the spot."""


def parse_rational(raw: Any, where: str) -> Fraction:
    """Exact rational from "p/q", a decimal string, an int, or a float literal.

    Floats go through their shortest decimal representation, so a JSON 0.35
    means exactly 7/20, not the nearest binary double.
    """
    try:
        if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
            raise ValueError(f"expected a rational, got {type(raw).__name__}")
        text = repr(raw) if isinstance(raw, float) else str(raw).strip()
        exponent = text.lower().partition("e")[2].lstrip("+-").replace("_", "")
        if len(text) > MAX_LITERAL_DIGITS or (
            exponent.isdecimal() and int(exponent) > MAX_LITERAL_DIGITS
        ):
            raise ValueError(f"longer than {MAX_LITERAL_DIGITS} characters or exponent beyond it")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemError(f"{where}: {raw!r} is not a valid rational ({exc})") from None


@dataclass
class Problem:
    """A parsed problem file: the world space, every named quantity, the
    assessed sub-family in file order, and the query parameters."""

    space: WorldSpace
    quantities: Dict[str, ConditionalQuantity]
    order: Tuple[str, ...]
    values: Tuple[Fraction, ...]
    query: Dict[str, Any] = field(default_factory=dict)

    def assessment(self) -> Assessment:
        if not self.order:
            raise ProblemError("assessment: no values given")
        family = tuple(self.quantities[name] for name in self.order)
        return Assessment(family, self.values)

    def named(self, name: str, where: str) -> ConditionalQuantity:
        if name not in self.quantities:
            raise ProblemError(f"{where}: {name!r} is not a declared quantity")
        return self.quantities[name]


def _require_list_of_str(data: Any, key: str, required: bool) -> List[str]:
    raw = data.get(key, None)
    if raw is None:
        if required:
            raise ProblemError(f"{key}: required section is missing")
        return []
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise ProblemError(f"{key}: expected a list of strings")
    return raw


def _parse_subset(key: str, size: int, where: str) -> Tuple[int, ...]:
    try:
        indices = tuple(int(part.strip()) for part in key.split(","))
    except ValueError:
        raise ProblemError(f"{where}: bad member subset {key!r}") from None
    if not indices or list(indices) != sorted(set(indices)):
        raise ProblemError(f"{where}: member subset {key!r} must be ascending and unique")
    if indices[0] < 1 or indices[-1] > size:
        raise ProblemError(f"{where}: member subset {key!r} outside 1..{size}")
    return indices


def build_problem(data: Any, origin: str = "problem") -> Problem:
    if not isinstance(data, dict):
        raise ProblemError(f"{origin}: top level must be a JSON object")
    atoms = _require_list_of_str(data, "atoms", required=True)
    constraints = _require_list_of_str(data, "constraints", required=False)
    try:
        space = build_world_space(atoms, constraints)
    except ValueError as exc:
        raise ProblemError(f"atoms: {exc}") from None

    events: Dict[str, ConditionalEvent] = {}
    quantities: Dict[str, ConditionalQuantity] = {}

    def declare(name: Any, where: str) -> str:
        if not isinstance(name, str) or not name:
            raise ProblemError(f"{where}: missing or empty name")
        if name in quantities:
            raise ProblemError(f"{where}: duplicate name {name!r}")
        return name

    for i, entry in enumerate(data.get("conditionals", []) or []):
        where = f"conditionals[{i}]"
        if not isinstance(entry, dict):
            raise ProblemError(f"{where}: expected an object")
        name = declare(entry.get("name"), where)
        for key in ("consequent", "antecedent"):
            if not isinstance(entry.get(key), str):
                raise ProblemError(f"{where}: {key} must be a formula string")
        try:
            ce = ConditionalEvent(
                space.event(entry["consequent"]), space.event(entry["antecedent"])
            )
        except ValueError as exc:
            raise ProblemError(f"{where}: {exc}") from None
        events[name] = ce
        quantities[name] = indicator(ce, name)

    for i, entry in enumerate(data.get("compounds", []) or []):
        where = f"compounds[{i}]"
        if not isinstance(entry, dict):
            raise ProblemError(f"{where}: expected an object")
        name = declare(entry.get("name"), where)
        kind = entry.get("kind")
        if kind not in ("conjunction", "disjunction"):
            raise ProblemError(f"{where}: kind must be conjunction or disjunction")
        members = entry.get("members")
        if not isinstance(members, list) or len(members) < 2:
            raise ProblemError(f"{where}: members must list at least two conditionals")
        family = []
        for m in members:
            if not isinstance(m, str) or m not in events:
                raise ProblemError(f"{where}: member {m!r} is not a declared conditional")
            family.append(events[m])
        raw_prevs = entry.get("previsions", {}) or {}
        if not isinstance(raw_prevs, dict):
            raise ProblemError(f"{where}: previsions must be an object")
        prevs = {
            _parse_subset(k, len(members), f"{where}.previsions"):
                parse_rational(v, f"{where}.previsions[{k!r}]")
            for k, v in raw_prevs.items()
        }
        try:
            if kind == "conjunction":
                quantities[name] = make_conjunction(family, prevs, name)
            else:
                quantities[name] = make_disjunction(
                    family, demorgan_previsions(CompoundPrevisionMap(prevs)), name
                )
        except PrevisionError as exc:
            raise ProblemError(f"{where}: {exc}") from None

    raw_assessment = data.get("assessment", {}) or {}
    if not isinstance(raw_assessment, dict):
        raise ProblemError("assessment: expected an object of name -> rational")
    order = []
    values = []
    for name, raw in raw_assessment.items():
        if name not in quantities:
            raise ProblemError(f"assessment: {name!r} is not a declared quantity")
        order.append(name)
        values.append(parse_rational(raw, f"assessment[{name!r}]"))

    query = data.get("query", {}) or {}
    if not isinstance(query, dict):
        raise ProblemError("query: expected an object")

    return Problem(space, quantities, tuple(order), tuple(values), query)


def load_problem(path: str) -> Problem:
    def number(convert):
        def parse(text):
            if len(text) > MAX_LITERAL_DIGITS:
                raise ProblemError(
                    f"{path}: a JSON number of {len(text)} characters; at most {MAX_LITERAL_DIGITS}"
                )
            return convert(text)
        return parse

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=number(int), parse_float=number(float))
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return build_problem(data, origin=path)


def exact_text(value: Fraction) -> str:
    """The exact "p/q" text of a result, refused before any formatting when
    its numerator or denominator has more than MAX_RESULT_BITS bits."""
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > MAX_RESULT_BITS:
        raise ProblemError(f"a result of {bits} bits; at most {MAX_RESULT_BITS} print exactly")
    return str(value)


def _emit(report: Dict[str, Any], lines: List[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def _trace_json(trace) -> List[Dict[str, Any]]:
    out = []
    for level in trace:
        out.append(
            {
                "members": list(level.member_indices),
                "labels": list(level.labels),
                "feasible": level.feasible,
                "zeroMass": sorted(level.i0) if level.i0 is not None else None,
                "mValues": (
                    [exact_text(m) if m is not None else None for m in level.m_values]
                    if level.m_values is not None
                    else None
                ),
            }
        )
    return out


def _trace_lines(trace) -> List[str]:
    lines = []
    for depth, level in enumerate(trace, 1):
        members = ",".join(str(i) for i in level.member_indices)
        status = "solvable" if level.feasible else "unsolvable"
        if level.i0 is None:
            zero = ""
        elif level.i0:
            zero = "; zero-mass members: " + ",".join(str(i) for i in sorted(level.i0))
        else:
            zero = "; zero-mass members: none"
        lines.append(f"level {depth}: members {members}; {status}{zero}")
    return lines


def cmd_check(ns: argparse.Namespace) -> int:
    problem = load_problem(ns.problem)
    verdict = check_coherence(problem.assessment())
    report: Dict[str, Any] = {
        "verdict": "coherent" if verdict.coherent else "incoherent",
        "trace": _trace_json(verdict.trace),
        "dutchBook": None,
    }
    lines = [f"verdict: {report['verdict']}"] + _trace_lines(verdict.trace)
    book = verdict.dutch_book
    if book is not None:
        stakes = [exact_text(s) for s in book.stakes]
        margin = exact_text(book.margin)
        report["dutchBook"] = {
            "members": list(book.member_indices),
            "stakes": stakes,
            "margin": margin,
        }
        members = ",".join(str(i) for i in book.member_indices)
        lines.append(f"dutch book on members {members}")
        lines.append(f"  stakes: {', '.join(stakes)}")
        lines.append(f"  margin: {margin}")
    _emit(report, lines, ns.json)
    return 0 if verdict.coherent else 1


def _query_target(problem: Problem, command: str) -> ConditionalQuantity:
    name = problem.query.get("target")
    if not isinstance(name, str):
        raise ProblemError(f"query.target: {command} needs a target quantity name")
    return problem.named(name, "query.target")


def cmd_extend(ns: argparse.Namespace) -> int:
    problem = load_problem(ns.problem)
    target = _query_target(problem, "extend")
    try:
        result = extension_interval(problem.assessment(), target)
    except IncoherentBase as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lower, upper = exact_text(result.lower), exact_text(result.upper)
    report = {"lower": lower, "upper": upper, "exact": result.exact}
    lines = [
        f"interval: [{lower}, {upper}]",
        f"exact: {'yes' if result.exact else 'no'}",
    ]
    _emit(report, lines, ns.json)
    return 0


def cmd_bounds(ns: argparse.Namespace) -> int:
    values = [parse_rational(v, f"argument {i}") for i, v in enumerate(ns.values, 1)]
    fn = (
        frechet_bounds_conjunction
        if ns.kind == "conjunction"
        else frechet_bounds_disjunction
    )
    lower, upper = map(exact_text, fn(values))
    report = {"kind": ns.kind, "lower": lower, "upper": upper}
    _emit(report, [f"lower: {lower}", f"upper: {upper}"], ns.json)
    return 0


def parse_parameter(raw: str) -> FrankParameter:
    s = raw.strip().lower()
    if s == "min":
        return FrankParameter.min()
    if s == "product":
        return FrankParameter.product()
    if s in ("lukasiewicz", "inf", "infinity"):
        return FrankParameter.lukasiewicz()
    try:
        value = float(parse_rational(s, "--lambda"))
    except (ProblemError, OverflowError):
        raise ProblemError(
            f"--lambda: {raw!r} is neither min|product|lukasiewicz nor a positive real"
        ) from None
    return FrankParameter.from_value(value)


def _value_report(result, precision: int) -> Tuple[Dict[str, Any], str]:
    if isinstance(result, Fraction):
        text = exact_text(result)
        return {"value": text, "exact": True}, text
    text = format(float(result), f".{precision}g")
    return {"value": text, "exact": False}, text


def cmd_tnorm(ns: argparse.Namespace) -> int:
    parameter = parse_parameter(ns.lam)
    values = [parse_rational(v, f"argument {i}") for i, v in enumerate(ns.values, 1)]
    operator = tnorm if ns.command == "tnorm" else tconorm
    report, text = _value_report(operator(parameter, values), ns.precision)
    _emit(report, [f"value: {text}"], ns.json)
    return 0


def cmd_solve_lambda(ns: argparse.Namespace) -> int:
    values = [parse_rational(v, f"argument {i}") for i, v in enumerate(ns.values, 1)]
    target = parse_rational(ns.target, "--target")
    parameter, unique = solve_lambda(values, target)
    if parameter.kind is FrankKind.GENERIC:
        lam_text = format(parameter.value, f".{ns.precision}g")
    else:
        lam_text = {"min": "0", "product": "1", "lukasiewicz": "inf"}[
            parameter.kind.value
        ]
    report = {"kind": parameter.kind.value, "lambda": lam_text, "unique": unique}
    lines = [
        f"kind: {parameter.kind.value}",
        f"lambda: {lam_text}",
        f"unique: {'yes' if unique else 'no'}",
    ]
    _emit(report, lines, ns.json)
    return 0


def cmd_lambda_solution(ns: argparse.Namespace) -> int:
    if len(ns.values) > MAX_SOLUTION_VALUES:
        raise ProblemError(f"{len(ns.values)} values given; at most {MAX_SOLUTION_VALUES}")
    values = [parse_rational(v, f"argument {i}") for i, v in enumerate(ns.values, 1)]
    builder = lambda_solution_TL if ns.boundary == "lower" else lambda_solution_TM
    vector = builder(values)
    components = {
        label: exact_text(mass) for label, mass in zip(vector.labels(), vector.as_tuple())
    }
    report: Dict[str, Any] = {
        "boundary": ns.boundary,
        "case": vector.case,
        "components": components,
    }
    if vector.permutation is not None:
        report["permutation"] = list(vector.permutation)
    lines = [f"case: {vector.case}"] + [
        f"{label}: {mass}" for label, mass in components.items()
    ]
    _emit(report, lines, ns.json)
    return 0


def cmd_table(ns: argparse.Namespace) -> int:
    problem = load_problem(ns.problem)
    target = _query_target(problem, "table")
    rows = [
        (constituent.label(), exact_text(value) if value is not None else None)
        for constituent, value in value_table(target)
    ]
    report = {"rows": [{"constituent": label, "value": value} for label, value in rows]}
    lines = [f"{label}: {value if value is not None else 'free'}" for label, value in rows]
    _emit(report, lines, ns.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prevision",
        description=(
            "Exact coherence checking, extension intervals, and the Frank "
            "operator family for conditional prevision assessments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def add_problem(p: argparse.ArgumentParser) -> None:
        p.add_argument("--problem", required=True, help="path to a JSON problem file")

    p = sub.add_parser("check", help="decide coherence of the assessed family")
    add_problem(p)
    add_json(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("extend", help="coherent interval for the query target")
    add_problem(p)
    add_json(p)
    p.set_defaults(handler=cmd_extend)

    p = sub.add_parser("bounds", help="attainable envelope for a compound")
    p.add_argument("kind", choices=("conjunction", "disjunction"))
    p.add_argument("values", nargs="+", help="member previsions, rationals")
    add_json(p)
    p.set_defaults(handler=cmd_bounds)

    for name, help_text in (
        ("tnorm", "evaluate the conjunction operator"),
        ("tconorm", "evaluate the disjunction operator"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--lambda",
            dest="lam",
            required=True,
            help="min | product | lukasiewicz | positive real",
        )
        p.add_argument("values", nargs="+", help="arguments in [0,1], rationals")
        p.add_argument("--precision", type=int, default=12,
                       help="significant digits for non-exact values")
        add_json(p)
        p.set_defaults(handler=cmd_tnorm)

    p = sub.add_parser("solve-lambda", help="invert the family for a target value")
    p.add_argument("values", nargs="+", help="arguments in [0,1], rationals")
    p.add_argument("--target", required=True, help="target operator value, rational")
    p.add_argument("--precision", type=int, default=12,
                   help="significant digits for the parameter")
    add_json(p)
    p.set_defaults(handler=cmd_solve_lambda)

    p = sub.add_parser(
        "lambda-solution", help="boundary mass vector hitting an envelope value"
    )
    p.add_argument("--boundary", choices=("lower", "upper"), default="lower")
    p.add_argument("values", nargs="+", help="member previsions, rationals")
    add_json(p)
    p.set_defaults(handler=cmd_lambda_solution)

    p = sub.add_parser("table", help="full case table of the query target")
    add_problem(p)
    add_json(p)
    p.set_defaults(handler=cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (None, 0):
            return 0
        return 2
    try:
        precision = getattr(ns, "precision", 0)
        if precision < 0:
            raise ProblemError(f"--precision: {precision} is negative")
        if precision > MAX_PRECISION:
            raise ProblemError(f"--precision: {precision} exceeds {MAX_PRECISION}")
        return ns.handler(ns)
    except PrevisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
