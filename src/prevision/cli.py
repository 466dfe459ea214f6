"""Command-line surface: JSON problem files in, verdicts and intervals out.

Each `cmd_*` handler returns (exit code, `--json` report, text lines); `main`
alone prints them and owns the exit codes: 0 success (coherent for `check`),
1 incoherent, 2 input error, 3 internal error (an engine self-check failed).
All exact rationals print as `p/q` strings so JSON output round-trips
without float corruption; decimal input such as "0.35" is converted to an
exact rational (7/20) before any computation.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator, Sequence
from decimal import Decimal
from fractions import Fraction
from functools import cache

from .errors import FormulaError, IncoherentBase, PrevisionError, UnknownAtom, abridged
from .record import Record

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


# The engine names each group binds into this module, by module in import order.
_GROUPS = {
    "problem": (
        ("coherence", ("check_coherence", "extension_interval", "value_table")),
        ("events", ("ConditionalEvent", "WorldSpace", "build_world_space")),
        ("geometry", ("Assessment", "CompoundPrevisionMap", "ConditionalQuantity", "indicator",
                      "demorgan_previsions", "make_conjunction", "make_disjunction")),
    ),
    "frank": (("frank", ("FrankKind", "FrankParameter", "solve_lambda", "tconorm", "tnorm",
                         "frechet_bounds_conjunction", "frechet_bounds_disjunction")),),
}


@cache
def _engine(group: str) -> None:
    """Bind one group of engine names into this module, so that a command loads
    only the modules it runs; once, so that a name patched here stays patched."""
    for module, names in _GROUPS[group]:
        loaded = __import__(module, globals(), None, names, 1)
        globals().update((name, getattr(loaded, name)) for name in names)


def __getattr__(name: str):
    """An engine name read from outside, as by a patch, binds its group after
    the problem group, so that group is bound whole before any patch."""
    for group, modules in _GROUPS.items():
        if any(name in names for _, names in modules):
            _engine("problem")
            _engine(group)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ProblemError(PrevisionError):
    """A problem file or argument failed validation; the message names the spot."""


def parse_rational(raw: object, where: str) -> Fraction:
    """Exact rational from "p/q", a decimal string, an int, a Decimal or a float.

    A Decimal (a JSON number with a fraction or exponent) goes through its exact
    text, and a float through its shortest decimal representation, so 0.35
    means exactly 7/20, not the nearest binary double.
    """
    try:
        if isinstance(raw, bool) or not isinstance(raw, (int, float, str, Decimal)):
            raise ValueError(f"expected a rational, got {type(raw).__name__}")
        text = repr(raw) if isinstance(raw, float) else str(raw).strip()
        exponent = text.lower().partition("e")[2].lstrip("+-").replace("_", "")
        if len(text) > MAX_LITERAL_DIGITS or (
            exponent.isdecimal() and int(exponent) > MAX_LITERAL_DIGITS
        ):
            raise ValueError(f"longer than {MAX_LITERAL_DIGITS} characters or exponent beyond it")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        shown = raw if isinstance(raw, Decimal) else abridged(raw)
        raise ProblemError(f"{where}: {shown} is not a valid rational ({exc})") from None


class Problem(Record):
    """A parsed problem file: the world space, every named quantity, the
    assessed sub-family in file order, and the query parameters.  Unlike
    the other records it may be changed, so it has no hash."""

    _compared = _shown = ("space", "quantities", "order", "values", "query")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, space: WorldSpace, quantities: dict, order, values, query=None):
        self.space, self.quantities, self.order, self.values = space, quantities, order, values
        self.query = {} if query is None else query

    def assessment(self) -> Assessment:
        _engine("problem")
        if not self.order:
            raise ProblemError("assessment: no values given")
        family = tuple(self.quantities[name] for name in self.order)
        return Assessment(family, self.values)


def _require_list_of_str(data: object, key: str, required: bool) -> list[str]:
    raw = data.get(key, None)
    if raw is None:
        if required:
            raise ProblemError(f"{key}: required section is missing")
        return []
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise ProblemError(f"{key}: expected a list of strings")
    return raw


def _entries(data: dict, key: str) -> Iterator[tuple[str, dict]]:
    """(where, entry) for each object of the optional list `key`."""
    raw = data.get(key)
    if raw is not None and not isinstance(raw, list):
        raise ProblemError(f"{key}: expected a list of objects")
    for i, entry in enumerate(raw or []):
        where = f"{key}[{i}]"
        if not isinstance(entry, dict):
            raise ProblemError(f"{where}: expected an object")
        yield where, entry


def _parse_subset(key: str, size: int, where: str) -> tuple[int, ...]:
    shown = abridged(key)
    try:
        indices = tuple(int(part.strip()) for part in key.split(","))
    except ValueError:
        raise ProblemError(f"{where}: bad member subset {shown}") from None
    if not indices or list(indices) != sorted(set(indices)):
        raise ProblemError(f"{where}: member subset {shown} must be ascending and unique")
    if indices[0] < 1 or indices[-1] > size:
        raise ProblemError(f"{where}: member subset {shown} outside 1..{size}")
    return indices


def build_problem(data: object, origin: str = "problem") -> Problem:
    _engine("problem")
    if not isinstance(data, dict):
        raise ProblemError(f"{origin}: top level must be a JSON object")
    atoms = _require_list_of_str(data, "atoms", required=True)
    constraints = _require_list_of_str(data, "constraints", required=False)
    try:
        space = build_world_space(atoms, constraints)
    except (FormulaError, UnknownAtom) as exc:
        raise ProblemError(f"constraints: {exc}") from None
    except ValueError as exc:
        raise ProblemError(f"atoms: {exc}") from None

    events: dict[str, ConditionalEvent] = {}
    quantities: dict[str, ConditionalQuantity] = {}

    def declare(name: object, where: str) -> str:
        if not isinstance(name, str) or not name:
            raise ProblemError(f"{where}: missing or empty name")
        if name in quantities:
            raise ProblemError(f"{where}: duplicate name {abridged(name)}")
        return name

    for where, entry in _entries(data, "conditionals"):
        name = declare(entry.get("name"), where)
        for key in ("consequent", "antecedent"):
            if not isinstance(entry.get(key), str):
                raise ProblemError(f"{where}: {key} must be a formula string")
        try:
            ce = ConditionalEvent(
                space.event(entry["consequent"]), space.event(entry["antecedent"])
            )
        except (ValueError, FormulaError, UnknownAtom) as exc:
            raise ProblemError(f"{where}: {exc}") from None
        events[name] = ce
        quantities[name] = indicator(ce, name)

    for where, entry in _entries(data, "compounds"):
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
                raise ProblemError(f"{where}: member {abridged(m)} is not a declared conditional")
            family.append(events[m])
        raw_prevs = entry.get("previsions", {}) or {}
        if not isinstance(raw_prevs, dict):
            raise ProblemError(f"{where}: previsions must be an object")
        prevs = {
            _parse_subset(k, len(members), f"{where}.previsions"):
                parse_rational(v, f"{where}.previsions[{abridged(k)}]")
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
            raise ProblemError(f"assessment: {abridged(name)} is not a declared quantity")
        order.append(name)
        values.append(parse_rational(raw, f"assessment[{abridged(name)}]"))

    query = data.get("query", {}) or {}
    if not isinstance(query, dict):
        raise ProblemError("query: expected an object")

    return Problem(space, quantities, tuple(order), tuple(values), query)


def load_problem(path: str) -> Problem:
    import json
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
            data = json.load(fh, parse_int=number(int), parse_float=number(Decimal))
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (UnicodeDecodeError, RecursionError) as exc:
        raise ProblemError(f"{path}: {exc}") from None
    return build_problem(data, origin=path)


def exact_text(value: Fraction) -> str:
    """The exact "p/q" text of a result, refused before any formatting when
    its numerator or denominator has more than MAX_RESULT_BITS bits."""
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > MAX_RESULT_BITS:
        raise ProblemError(f"a result of {bits} bits; at most {MAX_RESULT_BITS} print exactly")
    return str(value)


def _arguments(ns: argparse.Namespace) -> list[Fraction]:
    return [parse_rational(v, f"argument {i}") for i, v in enumerate(ns.values, 1)]


def _trace(trace) -> tuple[list[dict], list[str]]:
    """The JSON entries and the text lines of a verdict's levels."""
    entries, lines = [], []
    for depth, level in enumerate(trace, 1):
        zero = None if level.i0 is None else sorted(level.i0)
        entries.append(
            {
                "members": list(level.member_indices),
                "labels": list(level.labels),
                "feasible": level.feasible,
                "zeroMass": zero,
                "mValues": (
                    None if level.m_values is None else [exact_text(m) for m in level.m_values]
                ),
            }
        )
        members = ",".join(str(i) for i in level.member_indices)
        status = "solvable" if level.feasible else "unsolvable"
        if zero is not None:
            status += "; zero-mass members: " + (",".join(str(i) for i in zero) or "none")
        lines.append(f"level {depth}: members {members}; {status}")
    return entries, lines


def cmd_check(ns: argparse.Namespace) -> tuple[int, dict, list[str]]:
    assessment = load_problem(ns.problem).assessment()
    verdict = check_coherence(assessment)
    trace, levels = _trace(verdict.trace)
    report: dict = {
        "verdict": "coherent" if verdict.coherent else "incoherent",
        "trace": trace,
        "dutchBook": None,
    }
    lines = [f"verdict: {report['verdict']}"] + levels
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
    return (0 if verdict.coherent else 1), report, lines


def _query_target(problem: Problem, command: str) -> ConditionalQuantity:
    name = problem.query.get("target")
    if not isinstance(name, str):
        raise ProblemError(f"query.target: {command} needs a target quantity name")
    if name not in problem.quantities:
        raise ProblemError(f"query.target: {abridged(name)} is not a declared quantity")
    return problem.quantities[name]


def cmd_extend(ns: argparse.Namespace) -> tuple[int, dict, list[str]]:
    problem = load_problem(ns.problem)
    target = _query_target(problem, "extend")
    result = extension_interval(problem.assessment(), target)
    lower, upper = exact_text(result.lower), exact_text(result.upper)
    report = {"lower": lower, "upper": upper, "exact": result.exact}
    lines = [
        f"interval: [{lower}, {upper}]",
        f"exact: {'yes' if result.exact else 'no'}",
    ]
    return 0, report, lines


def cmd_bounds(ns: argparse.Namespace) -> tuple[int, dict, list[str]]:
    _engine("frank")
    fn = (
        frechet_bounds_conjunction
        if ns.kind == "conjunction"
        else frechet_bounds_disjunction
    )
    lower, upper = map(exact_text, fn(_arguments(ns)))
    report = {"kind": ns.kind, "lower": lower, "upper": upper}
    return 0, report, [f"lower: {lower}", f"upper: {upper}"]


def parse_parameter(raw: str) -> FrankParameter:
    _engine("frank")
    s = raw.strip().lower()
    s = {"min": "0", "product": "1"}.get(s, s)  # named by their exact parameters
    if s in ("lukasiewicz", "inf", "infinity"):
        return FrankParameter.lukasiewicz()
    try:
        value = parse_rational(s, "--lambda")
        x = float(value)
    except ProblemError:
        raise ProblemError(
            f"--lambda: {abridged(raw)} is neither min|product|lukasiewicz nor a positive real"
        ) from None
    except OverflowError:
        raise ProblemError(f"--lambda: {abridged(raw)} is too large for a float") from None
    if x in (0, 1) and value not in (0, 1):  # only exact 0 and 1 name min and product
        raise ProblemError(f"--lambda: {abridged(raw)} is not {int(x)} but rounds to it as a float")
    return FrankParameter.from_value(x)


def cmd_tnorm(ns: argparse.Namespace) -> tuple[int, dict, list[str]]:
    _engine("frank")
    operator = tnorm if ns.command == "tnorm" else tconorm
    result = operator(parse_parameter(ns.lam), _arguments(ns))
    exact = isinstance(result, Fraction)
    text = exact_text(result) if exact else format(float(result), f".{ns.precision}g")
    return 0, {"value": text, "exact": exact}, [f"value: {text}"]


def cmd_solve_lambda(ns: argparse.Namespace) -> tuple[int, dict, list[str]]:
    _engine("frank")
    values = _arguments(ns)
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
    return 0, report, lines


def cmd_lambda_solution(ns: argparse.Namespace) -> tuple[int, dict, list[str]]:
    if len(ns.values) > MAX_SOLUTION_VALUES:
        raise ProblemError(f"{len(ns.values)} values given; at most {MAX_SOLUTION_VALUES}")
    from .closed_form import lambda_solution_TL, lambda_solution_TM
    builder = lambda_solution_TL if ns.boundary == "lower" else lambda_solution_TM
    vector = builder(_arguments(ns))
    components = {
        label: exact_text(mass) for label, mass in zip(vector.labels(), vector.as_tuple())
    }
    report: dict = {
        "boundary": ns.boundary,
        "case": vector.case,
        "components": components,
    }
    if vector.permutation is not None:
        report["permutation"] = list(vector.permutation)
    lines = [f"case: {vector.case}"] + [
        f"{label}: {mass}" for label, mass in components.items()
    ]
    return 0, report, lines


def cmd_table(ns: argparse.Namespace) -> tuple[int, dict, list[str]]:
    problem = load_problem(ns.problem)
    target = _query_target(problem, "table")
    rows = [
        (constituent.label(), exact_text(value) if value is not None else None)
        for constituent, value in value_table(target)
    ]
    report = {"rows": [{"constituent": label, "value": value} for label, value in rows]}
    lines = [f"{label}: {value if value is not None else 'free'}" for label, value in rows]
    return 0, report, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prevision",
        description=(
            "Exact coherence checking, extension intervals, and the Frank "
            "operator family for conditional prevision assessments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem(p: argparse.ArgumentParser) -> None:
        p.add_argument("--problem", required=True, help="path to a JSON problem file")

    p = sub.add_parser("check", help="decide coherence of the assessed family")
    add_problem(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("extend", help="coherent interval for the query target")
    add_problem(p)
    p.set_defaults(handler=cmd_extend)

    p = sub.add_parser("bounds", help="attainable envelope for a compound")
    p.add_argument("kind", choices=("conjunction", "disjunction"))
    p.add_argument("values", nargs="+", help="member previsions, rationals")
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
        p.set_defaults(handler=cmd_tnorm)

    p = sub.add_parser("solve-lambda", help="invert the family for a target value")
    p.add_argument("values", nargs="+", help="arguments in [0,1], rationals")
    p.add_argument("--target", required=True, help="target operator value, rational")
    p.add_argument("--precision", type=int, default=12,
                   help="significant digits for the parameter")
    p.set_defaults(handler=cmd_solve_lambda)

    p = sub.add_parser(
        "lambda-solution", help="boundary mass vector hitting an envelope value"
    )
    p.add_argument("--boundary", choices=("lower", "upper"), default="lower")
    p.add_argument("values", nargs="+", help="member previsions, rationals")
    p.set_defaults(handler=cmd_lambda_solution)

    p = sub.add_parser("table", help="full case table of the query target")
    add_problem(p)
    p.set_defaults(handler=cmd_table)

    # added last, so --json stays the last option in every subcommand's usage
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    try:
        precision = getattr(ns, "precision", 0)
        if precision < 0:
            raise ProblemError(f"--precision: {precision} is negative")
        if precision > MAX_PRECISION:
            raise ProblemError(f"--precision: {precision} exceeds {MAX_PRECISION}")
        code, report, lines = ns.handler(ns)
    except PrevisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, IncoherentBase) else 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if ns.json:
        import json
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
