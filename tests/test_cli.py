"""The CLI is a thin adapter: same values as the library, stable exit codes."""

import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import prevision
from prevision import (
    Assessment,
    CompoundPrevisionMap,
    ConditionalEvent,
    FrankParameter,
    build_world_space,
    check_coherence,
    demorgan_previsions,
    extension_interval,
    find_dutch_book,
    indicator,
    lambda_solution_TL,
    make_conjunction,
    make_disjunction,
    tnorm,
    value_table,
)
from prevision.cli import main, parse_rational

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def family7_problem():
    return {
        "atoms": ["E1", "E2", "E3", "H1", "H2", "H3"],
        "conditionals": [
            {"name": "X1", "consequent": "E1", "antecedent": "H1"},
            {"name": "X2", "consequent": "E2", "antecedent": "H2"},
            {"name": "X3", "consequent": "E3", "antecedent": "H3"},
        ],
        "compounds": [
            {"name": "C12", "kind": "conjunction", "members": ["X1", "X2"],
             "previsions": {"1": "1/2", "2": "3/5", "1,2": "1/10"}},
            {"name": "C13", "kind": "conjunction", "members": ["X1", "X3"],
             "previsions": {"1": "1/2", "2": "7/10", "1,2": "1/5"}},
            {"name": "C23", "kind": "conjunction", "members": ["X2", "X3"],
             "previsions": {"1": "3/5", "2": "7/10", "1,2": "3/10"}},
            {"name": "C123", "kind": "conjunction",
             "members": ["X1", "X2", "X3"],
             "previsions": {"1": "1/2", "2": "3/5", "3": "7/10",
                            "1,2": "1/10", "1,3": "1/5", "2,3": "3/10",
                            "1,2,3": 0}},
        ],
        "assessment": {"X1": "0.5", "X2": "0.6", "X3": "0.7",
                       "C12": "0.1", "C13": "0.2", "C23": "0.3", "C123": 0},
    }


def fresh_interpreter(code, *args):
    """Run `code` in a new interpreter with only src on its path: -I -S leave
    out site-packages and PYTHONPATH, and -B keeps src free of bytecode, so
    tests never change how a checkout starts up."""
    src = os.path.dirname(os.path.dirname(prevision.__file__))
    code = "import sys; sys.path.insert(0, sys.argv[1]); " + code
    return subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, src, *args], capture_output=True, text=True
    )


def pair_problem(query_target=None):
    data = {
        "atoms": ["A", "B", "H", "K"],
        "conditionals": [
            {"name": "X", "consequent": "A", "antecedent": "H"},
            {"name": "Y", "consequent": "B", "antecedent": "K"},
        ],
        "compounds": [
            {"name": "C", "kind": "conjunction", "members": ["X", "Y"],
             "previsions": {"1": "7/20", "2": "9/20"}},
        ],
        "assessment": {"X": "0.35", "Y": "0.45"},
    }
    if query_target:
        data["query"] = {"target": query_target}
    return data


class TestParseRational:
    def test_accepted_forms(self):
        assert parse_rational("7/20", "x") == F(7, 20)
        assert parse_rational("0.35", "x") == F(7, 20)
        assert parse_rational(0.35, "x") == F(7, 20)
        assert parse_rational(Decimal("0.35"), "x") == F(7, 20)
        assert parse_rational(Decimal("1E-1000"), "x") == F(1, 10**1000)
        assert parse_rational(1, "x") == F(1)

    def test_rejected_forms(self):
        from prevision.cli import ProblemError

        for bad in ("1/0", "abc", None, True, [1]):
            with pytest.raises(ProblemError):
                parse_rational(bad, "x")


class TestCheck:
    def test_family7_counterexample_exits_one(self, capsys, tmp_path):
        path = write_problem(tmp_path, family7_problem())
        code, out, _ = run(capsys, "check", "--problem", path)
        assert code == 1
        assert "verdict: incoherent" in out
        assert "dutch book" in out

    def test_family7_json_report_matches_library(self, capsys, tmp_path):
        path = write_problem(tmp_path, family7_problem())
        code, out, _ = run(capsys, "check", "--problem", path, "--json")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "incoherent"
        book = report["dutchBook"]
        assert book is not None
        space = build_world_space(["E1", "E2", "E3", "H1", "H2", "H3"])
        events = [
            ConditionalEvent(space.event(f"E{i}"), space.event(f"H{i}"))
            for i in (1, 2, 3)
        ]
        xs = {1: F(1, 2), 2: F(3, 5), 3: F(7, 10)}
        pairs = {(1, 2): F(1, 10), (1, 3): F(1, 5), (2, 3): F(3, 10)}
        compounds = [
            make_conjunction(
                [events[i - 1], events[j - 1]],
                {(1,): xs[i], (2,): xs[j], (1, 2): pairs[(i, j)]},
            )
            for (i, j) in pairs
        ]
        triple = make_conjunction(
            events,
            {(1,): xs[1], (2,): xs[2], (3,): xs[3],
             (1, 2): pairs[(1, 2)], (1, 3): pairs[(1, 3)],
             (2, 3): pairs[(2, 3)], (1, 2, 3): F(0)},
        )
        family = tuple(indicator(e, f"X{i}") for i, e in enumerate(events, 1))
        assessment = Assessment(
            family + tuple(compounds) + (triple,),
            (xs[1], xs[2], xs[3], pairs[(1, 2)], pairs[(1, 3)], pairs[(2, 3)], F(0)),
        )
        expected = find_dutch_book(assessment)
        assert [F(s) for s in book["stakes"]] == list(expected.stakes)
        assert F(book["margin"]) == expected.margin
        assert book["members"] == list(expected.member_indices)

    def test_same_consequent_pair_coherent_exits_zero(self, capsys, tmp_path):
        data = {
            "atoms": ["A", "H", "K"],
            "conditionals": [
                {"name": "X", "consequent": "A", "antecedent": "H"},
                {"name": "Y", "consequent": "A", "antecedent": "K"},
            ],
            "assessment": {"X": "0.3", "Y": "0.8"},
        }
        path = write_problem(tmp_path, data)
        code, out, _ = run(capsys, "check", "--problem", path)
        assert code == 0
        assert "verdict: coherent" in out

    def test_malformed_rational_exits_two(self, capsys, tmp_path):
        data = pair_problem()
        data["assessment"]["X"] = "1/0"
        path = write_problem(tmp_path, data)
        code, _, err = run(capsys, "check", "--problem", path)
        assert code == 2
        assert "not a valid rational" in err

    def test_broken_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "atoms": [oops\n}', encoding="utf-8")
        code, _, err = run(capsys, "check", "--problem", str(path))
        assert code == 2
        assert ":2:" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--problem", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in err

    def test_undeclared_assessment_name_exits_two(self, capsys, tmp_path):
        data = pair_problem()
        data["assessment"]["Z"] = "1/2"
        path = write_problem(tmp_path, data)
        code, _, err = run(capsys, "check", "--problem", path)
        assert code == 2
        assert "'Z'" in err

    # Z = H|(H or not H) = 0 forces zero mass on H, so X = E|H = 1/2 is
    # checked again on a second level
    MULTI_LEVEL = {
        "atoms": ["E", "H"],
        "conditionals": [
            {"name": "Z", "consequent": "H", "antecedent": "H | !H"},
            {"name": "X", "consequent": "E", "antecedent": "H"},
        ],
        "assessment": {"Z": "0", "X": "1/2"},
    }

    def test_multi_level_trace_lines(self, capsys, tmp_path):
        path = write_problem(tmp_path, self.MULTI_LEVEL)
        code, out, _ = run(capsys, "check", "--problem", path)
        assert (code, out) == (
            0,
            "verdict: coherent\n"
            "level 1: members 1,2; solvable; zero-mass members: 2\n"
            "level 2: members 2; solvable; zero-mass members: none\n",
        )

    def test_multi_level_json_trace_matches_library(self, capsys, tmp_path):
        path = write_problem(tmp_path, self.MULTI_LEVEL)
        code, out, _ = run(capsys, "check", "--problem", path, "--json")
        space = build_world_space(["E", "H"])
        events = [
            ConditionalEvent(space.event("H"), space.event("H | !H")),
            ConditionalEvent(space.event("E"), space.event("H")),
        ]
        family = tuple(indicator(e, name) for e, name in zip(events, "ZX"))
        verdict = check_coherence(Assessment(family, (F(0), F(1, 2))))
        assert code == 0 and len(verdict.trace) == 2
        assert [(level["zeroMass"], level["mValues"]) for level in json.loads(out)["trace"]] == [
            (sorted(level.i0), [str(m) for m in level.m_values]) for level in verdict.trace
        ]

    def test_too_many_atoms_exits_two(self, capsys, tmp_path):
        data = pair_problem()
        data["atoms"] += [f"P{i}" for i in range(60)]
        path = write_problem(tmp_path, data)
        code, out, err = run(capsys, "check", "--problem", path)
        assert code == 2
        assert out == ""
        assert err == "error: 64 atoms declared; at most 20 are supported\n"


# a list nested 900 deep, inside the JSON decoder's recursion limit
NESTED_900 = json.loads("[" * 900 + "]" * 900)


def _edit_pair_problem(path, value):
    """pair_problem() with the entry at `path` (keys and indices) set."""
    data = pair_problem()
    *outer, last = path
    entry = data
    for key in outer:
        entry = entry[key]
    entry[last] = value
    return data


# a formula error in a problem file, and the one error line it gives, which
# names where the formula is
FORMULA_ERRORS = [
    (("conditionals", 0, "consequent"), "A $",
     "error: conditionals[0]: unexpected character '$' in 'A $'"),
    (("conditionals", 1, "antecedent"), "K & Q", "error: conditionals[1]: unknown atom: 'Q'"),
    (("conditionals", 1, "antecedent"), "(K", "error: conditionals[1]: expected ')' in '(K'"),
    (("constraints",), ["A | B", "A $"], "error: constraints: unexpected character '$' in 'A $'"),
    (("constraints",), ["Q"], "error: constraints: unknown atom: 'Q'"),
]


@pytest.mark.parametrize(
    "edit, argv",
    [
        ((("conditionals", 0, "antecedent"), "H & !H"), ("check",)),
        ((("atoms",), ["A", "A"]), ("check",)),
        ((("compounds", 0, "members"), [["X"], "X"]), ("check",)),
        (None, ("tnorm", "--lambda", "2.5", "--precision", "-1", "1/2", "3/5")),
        (None, ("tconorm", "--lambda", "2.5", "--precision", "-1", "1/2", "3/5")),
        (None, ("solve-lambda", "1/2", "3/5", "--target", "1/5", "--precision", "-1")),
        (None, ("tnorm", "--lambda", "1e400", "1/2", "3/5")),
        (None, ("tnorm", "--lambda", "2.5", "--precision", "100000000000", "1/2", "3/5")),
        (None, ("tconorm", "--lambda", "2.5", "--precision", "2147483648", "1/2", "3/5")),
        (None, ("solve-lambda", "1/2", "3/5", "--target", "1/5", "--precision", "10" * 20)),
        (None, ("tnorm", "--lambda", "2.5", "--precision", "2147483647", "1/2", "3/5")),
        (None, ("lambda-solution",) + ("1/2",) * 17),
        *(
            case
            for literal in ("1e-5000", "1e-100000")
            for case in (
                (None, ("bounds", "conjunction", literal, "1/2")),
                (None, ("tnorm", "--lambda", "2.5", literal, "1/2")),
                (None, ("tnorm", "--lambda", literal, "1/2", "3/5")),
                ((("assessment", "X"), literal), ("check",)),
            )
        ),
        (None, ("bounds", "conjunction", "0." + "1" * 999, "1/2")),
        *(
            ((path, value(formula)), ("check",))
            for formula in ("!" * 3000 + "A", "(" * 3000 + "A" + ")" * 3000, " & ".join("A" * 3000))
            for path, value in (
                (("conditionals", 0, "consequent"), str),
                (("constraints",), lambda f: [f]),
            )
        ),
        *(
            (edit, ("check",))
            for edit in (
                (("atoms",), None),
                (("atoms",), "AB"),
                (("constraints",), [1]),
                (("conditionals",), 5),
                (("compounds",), 7),
                (("conditionals",), True),
                (("compounds",), "C"),
                (("conditionals",), {"name": "X"}),
                (("conditionals", 0), "X"),
                (("conditionals", 0, "name"), ""),
                (("conditionals", 1, "name"), "X"),
                (("compounds", 0, "name"), "Y"),
                (("conditionals", 0, "consequent"), 1),
                (("compounds", 0, "kind"), "xor"),
                (("compounds", 0, "members"), ["X"]),
                (("compounds", 0, "previsions"), ["7/20", "9/20"]),
                (("compounds", 0, "previsions"), {"one": "7/20"}),
                (("compounds", 0, "previsions"), {"2,1": "7/20"}),
                (("compounds", 0, "previsions"), {"3": "7/20"}),
                (("compounds", 0, "previsions"), {"1": "7/20", "2": "9/20", "01": "1/2"}),
                (("compounds", 0, "previsions"),
                 {"1": "7/20", "2": "9/20", "1,2": "1/5", "1, 2": "1/4"}),
                (("compounds", 0, "previsions"), {}),
                (("assessment",), ["X"]),
                (("assessment",), {}),
                (("query",), ["C"]),
            )
        ),
        ((("assessment", "X"), NESTED_900), ("check",)),
        ((("compounds", 0, "members"), [NESTED_900, "X"]), ("check",)),
        ((("assessment",), {"Z" * 3000: "1/2"}), ("check",)),
        ((("compounds", 0, "previsions"), {"1," + "9" * 3000: "7/20"}), ("check",)),
        *(
            ((("conditionals", 0, "consequent"), formula), ("check",))
            for formula in ("A" * 3000 + " $", "(" + "A" * 3000, "Q" * 3000)
        ),
        ((("constraints",), ["A & !A", "A | " * 249 + "A"]), ("check",)),
        *(((path, value), ("check",)) for path, value, _ in FORMULA_ERRORS),
        ((("compounds", 0, "previsions", "1"), "-1e-400"), ("check",)),
    ],
    ids=[
        "empty-antecedent", "duplicate-atoms", "non-string-member",
        "tnorm-negative-precision", "tconorm-negative-precision",
        "solve-lambda-negative-precision", "overflowing-lambda",
        "tnorm-precision-too-big", "tconorm-precision-too-big",
        "solve-lambda-precision-too-big", "tnorm-precision-int-max",
        "lambda-solution-too-many-members",
        *(
            f"{kind}-{literal}"
            for literal in ("1e-5000", "1e-100000")
            for kind in ("bounds", "tnorm-value", "tnorm-lambda", "problem-assessment")
        ),
        "bounds-1001-character-literal",
        *(
            f"{shape}-{where}"
            for shape in ("3000-nots", "3000-parentheses", "3000-term-chain")
            for where in ("consequent", "constraint")
        ),
        "missing-atoms", "atoms-not-a-list", "constraint-not-a-string",
        "conditionals-int", "compounds-int", "conditionals-true", "compounds-string",
        "conditionals-object", "conditional-not-an-object", "empty-name",
        "duplicate-conditional-name", "compound-named-like-a-conditional",
        "consequent-not-a-string", "unknown-compound-kind", "one-member-compound",
        "previsions-not-an-object", "subset-not-numbers", "subset-not-ascending",
        "subset-outside-members", "subset-named-twice", "subset-spaced-twice",
        "missing-member-prevision", "assessment-not-an-object",
        "no-assessed-values", "query-not-an-object",
        "assessment-nested-900-deep", "member-nested-900-deep",
        "undeclared-3000-character-name", "subset-3000-character-key",
        "bad-character-after-3000", "unclosed-3000", "unknown-3000-character-atom",
        "empty-space-1000-character-constraint",
        *(f"formula-error-{i}" for i in range(len(FORMULA_ERRORS))),
        "compound-prevision-exponent",
    ],
)
def test_input_errors_exit_two_with_one_error_line(capsys, tmp_path, edit, argv):
    if edit is not None:
        argv += ("--problem", write_problem(tmp_path, _edit_pair_problem(*edit)))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 200  # a bad value is echoed abridged


@pytest.mark.parametrize(
    "argv",
    [
        ("tnorm", "--lambda", "-1e-400", "1/2", "3/5"),
        ("solve-lambda", "1/2", "1/2", "--target", "-1e-400"),
        ("bounds", "conjunction", "-1e-400", "1/2"),
        ("tnorm", "--lambda", "1/2", "-1e-400", "1/2"),
        ("tnorm", "--lambda", "2", "-1/2", "1/2"),
        ("tnorm", "--lambda", "2", "-1e-3", "1/2"),
        ("tconorm", "--lambda", "-1/2", "1/2", "3/5"),
        ("lambda-solution", "-1/2", "1/2"),
        ("tnorm", "--lambda", "-0.5", "1/2"),
        ("lambda-solution", "-1e-400", "1/2"),
        # the attainable range [0, 1/10^400] is echoed abridged too
        ("solve-lambda", "1e-400", "1/2", "--target", "1"),
    ],
    ids=[
        "lambda-exponent", "target-exponent", "bounds-exponent", "argument-exponent",
        "tnorm-fraction",
        "tnorm-exponent", "lambda-fraction", "lambda-solution-fraction", "lambda-decimal",
        "lambda-solution-exponent", "solve-lambda-range-exponent",
    ],
)
def test_negative_literals_are_values_with_one_error_line(capsys, argv):
    # argparse took "-1e-400" and "-1/2" for options: its usage text, then
    # "expected one argument" or "unrecognized arguments"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "usage:" not in err
    assert len(err) < 200  # -1e-400 is -1/10^400: its 400 zeros are echoed abridged


@pytest.mark.parametrize("path, value, line", FORMULA_ERRORS)
def test_formula_errors_name_their_location(capsys, tmp_path, path, value, line):
    edited = _edit_pair_problem(path, value)
    code, out, err = run(capsys, "check", "--problem", write_problem(tmp_path, edited))
    assert (code, out, err) == (2, "", line + "\n")


def test_a_formula_of_realistic_length_is_echoed_whole(capsys, tmp_path):
    formula = "(A & H) | (!A & !H) | (A & !H) | (H & !!"
    assert len(formula) == 40
    edited = _edit_pair_problem(("conditionals", 0, "consequent"), formula)
    code, out, err = run(capsys, "check", "--problem", write_problem(tmp_path, edited))
    assert (code, out, err) == (2, "", f"error: conditionals[0]: malformed formula {formula!r}\n")


# bytes that are not UTF-8, nesting past the JSON decoder's recursion limit on
# every supported Python, and a top level that is not an object
@pytest.mark.parametrize(
    "text, error",
    [
        (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b'{"atoms": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "maximum recursion depth"),
        (b"[1]", "top level must be a JSON object"),
    ],
    ids=["not-utf-8", "nested-100000-deep", "top-level-array"],
)
def test_malformed_problem_files_exit_two_with_one_error_line(capsys, tmp_path, text, error):
    path = tmp_path / "problem.json"
    path.write_bytes(text)
    code, out, err = run(capsys, "check", "--problem", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert error in err


# JSON numbers with a fraction or exponent are read as their exact decimal text,
# not through a binary double: 1e-5000 is past the exponent bound, and
# 0.1000000000000000000001 differs from 1/10
@pytest.mark.parametrize(
    "x, y, code, first_line",
    [
        ("1e-5000", "0", 2, ""),
        ("0.1000000000000000000001", '"1/10"', 1, "verdict: incoherent"),
        ("0.35", '"7/20"', 0, "verdict: coherent"),
    ],
    ids=["exponent-past-bound", "22-digit-fraction", "0.35"],
)
def test_json_decimals_are_read_exactly(capsys, tmp_path, x, y, code, first_line):
    data = pair_problem()
    data["conditionals"][1].update(consequent="A", antecedent="H")
    data["assessment"] = {"X": "x", "Y": "y"}
    path = tmp_path / "problem.json"
    text = json.dumps(data).replace('"X": "x"', f'"X": {x}').replace('"Y": "y"', f'"Y": {y}')
    path.write_text(text, encoding="utf-8")
    got, out, err = run(capsys, "check", "--problem", str(path))
    assert (got, out.partition("\n")[0]) == (code, first_line)
    assert err.count("\n") == (code == 2)


def test_literals_at_the_size_bound_are_read_exactly(capsys):
    code, out, _ = run(capsys, "bounds", "conjunction", "1e-1000", "0." + "1" * 998)
    assert code == 0
    assert out == f"lower: 0\nupper: 1/{10**1000}\n"


def _json_number(text):
    """argv for `check` on pair_problem() with X assessed by the JSON number
    `text`."""
    def argv(tmp_path):
        path = tmp_path / "problem.json"
        data = json.dumps(_edit_pair_problem(("assessment", "X"), "N"))
        path.write_text(data.replace('"N"', text), encoding="utf-8")
        return ("check", "--problem", str(path))
    return argv


# past 4,300 digits, CPython's default int-to-str limit: a JSON number read
# from a problem file, and a sum of five in-bound literals with a
# 4,955-digit denominator; and a JSON number past the exponent bound, named
# by its text
@pytest.mark.parametrize(
    "argv, error",
    [
        (_json_number("1" + "0" * 5000), "a JSON number of 5001 characters"),
        (
            lambda _: ("bounds", "disjunction", *(f"1/{10**991 + k}" for k in range(5))),
            "a result of 16458 bits",
        ),
        (_json_number("1e-5000"), "assessment['X']: 1E-5000 is not a valid rational"),
    ],
    ids=[
        "check-5001-digit-json-number",
        "bounds-disjunction-oversize-result",
        "check-1e-5000-json-number",
    ],
)
def test_oversize_integers_exit_two_with_one_error_line(capsys, tmp_path, argv, error):
    code, out, err = run(capsys, *argv(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert error in err


def test_results_up_to_the_bit_bound_print_exactly(capsys):
    values = [F(1, 10**991 + k) for k in range(4)]
    code, out, _ = run(capsys, "bounds", "disjunction", *map(str, values))
    assert code == 0
    assert out == f"lower: {values[0]}\nupper: {sum(values)}\n"


class TestExtend:
    def test_internal_failure_exits_three(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("no coherent extension located inside the bounds")

        monkeypatch.setattr("prevision.cli.extension_interval", broken)
        path = write_problem(tmp_path, pair_problem("C"))
        code, out, err = run(capsys, "extend", "--problem", path)
        assert code == 3
        assert out == ""
        assert err == "internal error: no coherent extension located inside the bounds\n"

    def test_pair_conjunction_interval(self, capsys, tmp_path):
        path = write_problem(tmp_path, pair_problem("C"))
        code, out, _ = run(capsys, "extend", "--problem", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report == {"lower": "0", "upper": "7/20", "exact": True}

    def test_same_consequent_interval(self, capsys, tmp_path):
        data = {
            "atoms": ["A", "H", "K"],
            "conditionals": [
                {"name": "X", "consequent": "A", "antecedent": "H"},
                {"name": "Y", "consequent": "A", "antecedent": "K"},
            ],
            "compounds": [
                {"name": "C", "kind": "conjunction", "members": ["X", "Y"],
                 "previsions": {"1": "0.35", "2": "0.45"}},
            ],
            "assessment": {"X": "0.35", "Y": "0.45"},
            "query": {"target": "C"},
        }
        path = write_problem(tmp_path, data)
        code, out, _ = run(capsys, "extend", "--problem", path)
        assert code == 0
        assert "interval: [63/400, 7/20]" in out
        assert "exact: yes" in out

    def test_member_subset_named_twice_exits_two(self, capsys, tmp_path):
        # "01" is member subset (1,): the later key silently won, and the
        # interval read [63/400, 97/260]
        data = {
            "atoms": ["A", "H", "K"],
            "conditionals": [
                {"name": "X", "consequent": "A", "antecedent": "H"},
                {"name": "Y", "consequent": "A", "antecedent": "K"},
            ],
            "compounds": [
                {"name": "C", "kind": "conjunction", "members": ["X", "Y"],
                 "previsions": {"1": "0.35", "2": "0.45", "01": "1/2"}},
            ],
            "assessment": {"X": "0.35", "Y": "0.45"},
            "query": {"target": "C"},
        }
        code, out, err = run(capsys, "extend", "--problem", write_problem(tmp_path, data))
        assert (code, out) == (2, "")
        assert err == "error: compounds[0].previsions: '01' repeats an earlier subset\n"

    def test_target_with_vanishing_antecedent_mass(self, capsys, tmp_path):
        # the target's antecedent may carry zero mass; its only coherent
        # value is still pinned
        data = {
            "atoms": ["A", "B", "C"],
            "conditionals": [
                {"name": "X", "consequent": "B", "antecedent": "!A"},
                {"name": "Y", "consequent": "!B", "antecedent": "A & !C"},
                {"name": "T", "consequent": "B", "antecedent": "A & !C"},
            ],
            "assessment": {"X": "3/5", "Y": "3/5"},
            "query": {"target": "T"},
        }
        path = write_problem(tmp_path, data)
        code, out, _ = run(capsys, "extend", "--problem", path)
        assert code == 0
        assert out == "interval: [2/5, 2/5]\nexact: yes\n"

    def test_incoherent_base_exits_one(self, capsys, tmp_path):
        data = {
            "atoms": ["E", "H"],
            "constraints": ["!(E & H)"],
            "conditionals": [
                {"name": "X", "consequent": "E", "antecedent": "H"},
                {"name": "Y", "consequent": "E", "antecedent": "E | !E"},
            ],
            "assessment": {"X": "1/2"},
            "query": {"target": "Y"},
        }
        path = write_problem(tmp_path, data)
        code, _, err = run(capsys, "extend", "--problem", path)
        assert code == 1
        assert "error:" in err

    def test_missing_target_exits_two(self, capsys, tmp_path):
        path = write_problem(tmp_path, pair_problem())
        code, _, err = run(capsys, "extend", "--problem", path)
        assert code == 2
        assert "query.target" in err


class TestBounds:
    def test_conjunction(self, capsys):
        code, out, _ = run(capsys, "bounds", "conjunction", "1/2", "3/5", "7/10")
        assert code == 0
        assert "lower: 0" in out and "upper: 1/2" in out

    def test_disjunction_json(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "disjunction", "1/2", "3/5", "7/10", "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "kind": "disjunction", "lower": "7/10", "upper": "1",
        }

    def test_out_of_range_exits_two(self, capsys):
        code, out, err = run(capsys, "bounds", "conjunction", "3/2")
        assert (code, out, err) == (2, "", "error: argument 3/2 outside [0,1]\n")


class TestFrankCommands:
    def test_target_out_of_range_exits_two(self, capsys):
        code, out, err = run(capsys, "solve-lambda", "1/2", "3/5", "--target", "1/20")
        assert (code, out) == (2, "")
        assert err == "error: target 1/20 outside the attainable range [1/10, 1/2]\n"

    def test_tnorm_named_kinds(self, capsys):
        for lam, expected in (
            ("min", "1/2"), ("product", "3/10"), ("lukasiewicz", "1/10"),
        ):
            code, out, _ = run(capsys, "tnorm", "--lambda", lam, "1/2", "3/5")
            assert code == 0
            assert f"value: {expected}" in out

    def test_tnorm_decimal_inputs_exact(self, capsys):
        code, out, _ = run(
            capsys, "tnorm", "--lambda", "product", "0.35", "0.45", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"value": "63/400", "exact": True}

    def test_tnorm_generic_matches_library(self, capsys):
        code, out, _ = run(
            capsys, "tnorm", "--lambda", "5/2", "1/2", "3/5", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["exact"] is False
        expected = tnorm(FrankParameter.generic(2.5), [F(1, 2), F(3, 5)])
        assert abs(float(report["value"]) - expected) < 1e-10

    def test_tconorm_product(self, capsys):
        code, out, _ = run(capsys, "tconorm", "--lambda", "product", "1/2", "3/5")
        assert code == 0
        assert "value: 4/5" in out

    def test_parameter_canonicalization(self, capsys):
        code, out, _ = run(capsys, "tnorm", "--lambda", "0", "1/2", "3/5")
        assert code == 0
        assert "value: 1/2" in out
        code, out, _ = run(capsys, "tnorm", "--lambda", "inf", "1/2", "3/5")
        assert code == 0
        assert "value: 1/10" in out
        code, out, _ = run(capsys, "tnorm", "--lambda", "1", "1/2", "3/5")
        assert (code, out) == (0, "value: 3/10\n")
        code, out, _ = run(capsys, "tnorm", "--lambda", "1e-300", "1/2", "3/5")
        assert (code, out) == (0, "value: 0.5\n")  # generic, not min

    def test_bad_lambda_exits_two(self, capsys):
        for bad in ("-3", "words"):
            code, _, err = run(capsys, "tnorm", "--lambda", bad, "1/2", "3/5")
            assert code == 2
            assert "error:" in err

    @pytest.mark.parametrize(
        "lam, why",
        [
            # T_lambda here is below min's 1/2 by about 1e-43
            ("1e-400", "is not 0 but rounds to it as a float"),
            ("1.00000000000000001", "is not 1 but rounds to it as a float"),
            ("1e400", "is too large for a float"),
        ],
    )
    def test_lambda_no_float_holds_exits_two(self, capsys, lam, why):
        for command in ("tnorm", "tconorm"):
            code, out, err = run(capsys, command, "--lambda", lam, "1/2", "3/5")
            assert (code, out, err) == (2, "", f"error: --lambda: {lam!r} {why}\n")

    def test_solve_lambda_named_kinds(self, capsys):
        for target, kind, lam in (
            ("1/2", "min", "0"), ("3/10", "product", "1"),
            ("1/10", "lukasiewicz", "inf"),
        ):
            code, out, _ = run(
                capsys, "solve-lambda", "1/2", "3/5", "--target", target, "--json"
            )
            assert code == 0
            report = json.loads(out)
            assert report["kind"] == kind
            assert report["lambda"] == lam
            assert report["unique"] is True

    def test_solve_lambda_generic_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "solve-lambda", "1/2", "3/5", "--target", "2/5", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "generic"
        lam = float(report["lambda"])
        value = tnorm(FrankParameter.generic(lam), [F(1, 2), F(3, 5)])
        assert abs(value - 0.4) < 1e-6

    def test_solve_lambda_target_outside_exits_two(self, capsys):
        code, _, err = run(capsys, "solve-lambda", "1/2", "3/5", "--target", "1/20")
        assert code == 2
        assert "error:" in err


    def test_precision_past_every_double_changes_nothing(self, capsys):
        outputs = [
            run(capsys, "tnorm", "--lambda", "2.5", "--precision", p, "1/3", "3/7")
            for p in ("800", "1000")
        ]
        assert outputs[0] == outputs[1]
        code, out, _ = outputs[0]
        # every digit of the double is printed
        value = tnorm(FrankParameter.generic(2.5), [F(1, 3), F(3, 7)])
        assert (code, F(out.split()[-1])) == (0, F(value))


class TestLambdaSolution:
    def test_lower_boundary_components(self, capsys):
        code, out, _ = run(
            capsys, "lambda-solution", "2/5", "2/5", "2/5", "--json"
        )
        assert code == 0
        report = json.loads(out)
        vector = lambda_solution_TL([F(2, 5)] * 3)
        assert report["case"] == vector.case == "e"
        assert list(report["components"]) == list(vector.labels())
        assert [F(v) for v in report["components"].values()] == list(vector.as_tuple())

    def test_upper_boundary_permutation(self, capsys):
        code, out, _ = run(
            capsys, "lambda-solution", "--boundary", "upper",
            "9/10", "1/5", "1/2", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["permutation"] == [2, 3, 1]
        assert report["case"] == "sorted-steps"
        assert sum(F(v) for v in report["components"].values()) == 1

    def test_out_of_range_exits_two(self, capsys):
        code, _, err = run(capsys, "lambda-solution", "3/2")
        assert code == 2
        assert "error:" in err


class TestTable:
    def test_pair_conjunction_rows(self, capsys, tmp_path):
        path = write_problem(tmp_path, pair_problem("C"))
        code, out, _ = run(capsys, "table", "--problem", path, "--json")
        assert code == 0
        report = json.loads(out)
        values = [row["value"] for row in report["rows"]]
        assert sorted(v for v in values if v is not None) == sorted(
            ["1", "0", "7/20", "9/20"]
        )
        assert values[-1] is None

    def test_rows_match_library(self, capsys, tmp_path):
        path = write_problem(tmp_path, pair_problem("C"))
        code, out, _ = run(capsys, "table", "--problem", path, "--json")
        assert code == 0
        report = json.loads(out)
        space = build_world_space(["A", "B", "H", "K"])
        quantity = make_conjunction(
            [
                ConditionalEvent(space.event("A"), space.event("H")),
                ConditionalEvent(space.event("B"), space.event("K")),
            ],
            {(1,): F(7, 20), (2,): F(9, 20)},
        )
        expected = value_table(quantity)
        assert len(report["rows"]) == len(expected)
        for row, (constituent, value) in zip(report["rows"], expected):
            assert row["constituent"] == constituent.label()
            assert row["value"] == (str(value) if value is not None else None)

    def test_free_void_value_prints_free(self, capsys, tmp_path):
        path = write_problem(tmp_path, pair_problem("C"))
        code, out, _ = run(capsys, "table", "--problem", path)
        assert code == 0
        assert "free" in out

    def test_unknown_target_exits_two(self, capsys, tmp_path):
        path = write_problem(tmp_path, pair_problem("NOPE"))
        code, _, err = run(capsys, "table", "--problem", path)
        assert code == 2
        assert "'NOPE'" in err


class TestDisjunction:
    """A disjunction compound in a problem file: the library's answers."""

    @staticmethod
    def problem(value=None):
        data = pair_problem("D")
        data["compounds"][0].update(name="D", kind="disjunction")
        if value is not None:
            data["assessment"]["D"] = value
        return data

    @staticmethod
    def library():
        space = build_world_space(["A", "B", "H", "K"])
        x = ConditionalEvent(space.event("A"), space.event("H"))
        y = ConditionalEvent(space.event("B"), space.event("K"))
        previsions = CompoundPrevisionMap({(1,): F(7, 20), (2,): F(9, 20)})
        base = Assessment((indicator(x, "X"), indicator(y, "Y")), (F(7, 20), F(9, 20)))
        return base, make_disjunction([x, y], demorgan_previsions(previsions), "D")

    @pytest.mark.parametrize("value, code", [("3/5", 0), ("9/10", 1)])
    def test_check(self, capsys, tmp_path, value, code):
        path = write_problem(tmp_path, self.problem(value))
        got, out, _ = run(capsys, "check", "--problem", path, "--json")
        base, target = self.library()
        verdict = check_coherence(
            Assessment(base.family + (target,), base.values + (F(value),))
        )
        report = json.loads(out)
        assert (got, report["verdict"]) == (code, ("incoherent", "coherent")[verdict.coherent])
        assert [level["feasible"] for level in report["trace"]] == [
            level.feasible for level in verdict.trace
        ]
        book = report["dutchBook"]
        expected = verdict.dutch_book
        assert (book is None) == (expected is None)
        if book is not None:
            assert [F(s) for s in book["stakes"]] == list(expected.stakes)
            assert F(book["margin"]) == expected.margin

    def test_extend(self, capsys, tmp_path):
        path = write_problem(tmp_path, self.problem())
        code, out, _ = run(capsys, "extend", "--problem", path, "--json")
        interval = extension_interval(*self.library())
        assert (code, json.loads(out)) == (
            0,
            {"lower": str(interval.lower), "upper": str(interval.upper), "exact": True},
        )

    def test_table(self, capsys, tmp_path):
        path = write_problem(tmp_path, self.problem())
        code, out, _ = run(capsys, "table", "--problem", path, "--json")
        expected = value_table(self.library()[1])
        assert (code, json.loads(out)["rows"]) == (
            0,
            [
                {"constituent": c.label(), "value": None if v is None else str(v)}
                for c, v in expected
            ],
        )


class TestHarness:
    def test_json_rationals_round_trip(self, capsys, tmp_path):
        path = write_problem(tmp_path, family7_problem())
        _, out, _ = run(capsys, "check", "--problem", path, "--json")
        report = json.loads(out)
        book = report["dutchBook"]
        for text in book["stakes"] + [book["margin"]]:
            assert str(F(text)) == text
        for level in report["trace"]:
            for text in level["mValues"] or []:
                if text is not None:
                    assert str(F(text)) == text

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_runtime_loads_only_the_standard_library(self):
        # one documented name read loads the whole package surface first
        result = fresh_interpreter(
            "import prevision, prevision.cli; prevision.tnorm; "
            "names = {m.partition('.')[0] for m in sys.modules}; "
            "print(sorted(names - set(sys.stdlib_module_names) - {'__main__', 'prevision'}))"
        )
        assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr

    def test_commands_load_no_dataclasses_inspect_or_typing(self, tmp_path):
        # the records are plain classes and the annotations builtin types, so
        # start-up pays for none of these, nor for the modules they pull in
        data = {**pair_problem("C"), "atoms": ["A", "H", "K"]}
        data["conditionals"][1]["consequent"] = "A"  # the README problem: X = A|H, Y = A|K
        result = fresh_interpreter(
            "import prevision.cli as c; "
            "codes = [c.main(['bounds', 'conjunction', '1/2', '3/5']), "
            "c.main(['check', '--problem', sys.argv[2]])]; "
            "print(codes, sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))",
            write_problem(tmp_path, data),
        )
        assert result.returncode == 0, result.stderr
        assert "verdict: coherent" in result.stdout
        assert result.stdout.splitlines()[-1] == "[0, 0] []"

    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path):
        # bounds runs no partition, LP or closed form and prints no JSON;
        # check needs neither the closed forms nor the Frank family; a helper
        # called directly binds the names it reads; a probe for a name outside
        # the engine loads nothing; the first name read from the package loads
        # the whole surface
        problem = write_problem(tmp_path, pair_problem())
        report = "; print(*sorted(m for m in sys.modules if m.startswith('prevision.') or m == 'json'))"
        loaded = {}
        for case, code in (
            ("bounds", "import prevision.cli as c; c.main(['bounds', 'conjunction', '1/2', '3/5'])"),
            ("check", "import prevision.cli as c; c.main(['check', '--problem', sys.argv[2]])"),
            ("parameter", "import prevision.cli as c; print(c.parse_parameter('min'))"),
            ("assessment", "import prevision.cli as c; from prevision.events import *; "
             "from prevision.geometry import indicator; s = build_world_space(['A', 'H'], []); "
             "x = indicator(ConditionalEvent(s.event('A'), s.event('H')), 'X'); "
             "print(c.Problem(s, {'X': x}, ('X',), (c.Fraction(1, 2),)).assessment())"),
            ("probe", "import prevision.cli as c; from prevision.cli import *; print(hasattr(c, 'x'))"),
            ("package", "import prevision; prevision.tnorm"),
        ):
            result = fresh_interpreter(code + report, problem)
            assert result.returncode == 0, result.stderr
            loaded[case] = set(result.stdout.splitlines()[-1].split())
        engine = {f"prevision.{m}" for m in ("events", "geometry", "lp", "coherence", "closed_form")}
        assert loaded["bounds"] & (engine | {"json"}) == set()
        assert loaded["check"] & {"prevision.closed_form", "prevision.frank"} == set()
        assert "prevision.frank" in loaded["parameter"]
        assert loaded["parameter"] & engine == set()
        assert loaded["probe"] & (engine | {"prevision.frank"}) == set()
        surface = engine | {"prevision.errors", "prevision.frank", "prevision.record"}
        assert surface <= loaded["package"]

    def test_console_script_installed(self):
        result = subprocess.run(
            [sys.executable, "-m", "prevision.cli",
             "bounds", "conjunction", "1/2", "3/5"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "lower: 1/10" in result.stdout
        assert "upper: 1/2" in result.stdout
