"""The package's records are plain classes on one base, `record.Record`.

Each keeps the contract of the frozen dataclass it replaced: its constructor
signature, read-only fields, equality and hash over the compared fields, and
the repr text pinned here from the dataclass era.  `cli.Problem` alone stays
mutable and unhashable, as a plain dataclass was.
"""

import inspect
from fractions import Fraction as F

import pytest

from oracles import fraction_system

import prevision as p
from prevision.cli import Problem
from prevision.closed_form import Family7Assessment, Family7Verdict, lambda_solution_TM
from prevision.coherence import CoherenceVerdict, DutchBook, ExtensionInterval, LevelRecord
from prevision.frank import FrankParameter
from prevision.geometry import Assessment, LinearSystem, QuantityConstituent, quantity_constituents
from prevision.lp import FeasibilityCertificate, OptimizationResult, solve_feasibility
from prevision.record import Record

SPACE = p.build_world_space(["A", "H", "K"])
X = (
    "ConditionalQuantity(conditioning=Event(4 of 8 worlds), "
    "levels=(Fraction(1, 1), Fraction(0, 1)), label='X', void_value=None)"
)
BOOK = "DutchBook(member_indices=(1,), stakes=(Fraction(1, 1),), margin=Fraction(1, 5))"


def conditional():
    return p.ConditionalEvent(SPACE.event("A"), SPACE.event("H"))


def quantity():
    return p.indicator(conditional(), "X")


def book():
    return DutchBook((1,), (F(1),), F(1, 5))


# (build, pinned repr, a field); build() makes a new, equal record each call
RECORDS = {
    "WorldSpace": (
        lambda: p.build_world_space(["A", "H", "K"]),
        "WorldSpace(atoms=('A', 'H', 'K'))",
        "atoms",
    ),
    "Event": (lambda: SPACE.event("A"), "Event(4 of 8 worlds)", "members"),
    "ConditionalEvent": (
        conditional,
        "ConditionalEvent(consequent=Event(4 of 8 worlds), antecedent=Event(4 of 8 worlds))",
        "antecedent",
    ),
    "ConditionalQuantity": (quantity, X, "levels"),
    "Assessment": (
        lambda: Assessment((quantity(),), ("1/3",)),
        f"Assessment(family=({X},), values=(Fraction(1, 3),))",
        "values",
    ),
    "QuantityConstituent": (
        lambda: quantity_constituents([quantity()])[0][0],
        "QuantityConstituent(profile=(Fraction(1, 1),), codes=(0,))",
        "profile",
    ),
    "LinearSystem": (
        lambda: LinearSystem(((1, 2, 3), (1, 1, 1)), (1, 1), ("a", "b")),
        "LinearSystem(rows=((1, 2, 3), (1, 1, 1)), scales=(1, 1), labels=('a', 'b'), "
        "normalization=True)",
        "rows",
    ),
    "FeasibilityCertificate": (
        lambda: FeasibilityCertificate(True, (F(1, 2), F(1, 2)), support=((0, F(1, 2)),)),
        "FeasibilityCertificate(feasible=True, solution=(Fraction(1, 2), Fraction(1, 2)), "
        "dual=None, margin=None)",
        "solution",
    ),
    "OptimizationResult": (
        lambda: OptimizationResult(F(1), (F(1),), dual=(F(2),), support=((0, F(1)),)),
        "OptimizationResult(value=Fraction(1, 1), solution=(Fraction(1, 1),), bounded=True, "
        "dual=(Fraction(2, 1),))",
        "value",
    ),
    "DutchBook": (book, BOOK, "margin"),
    "LevelRecord": (
        lambda: LevelRecord(
            (1, 2), ("X", "Y"), True, (F(1),), (F(1), F(0)), frozenset({1}), frozenset({2})
        ),
        "LevelRecord(member_indices=(1, 2), labels=('X', 'Y'), feasible=True, "
        "solution=(Fraction(1, 1),), m_values=(Fraction(1, 1), Fraction(0, 1)), "
        "m_witnessed=frozenset({1}), i0=frozenset({2}))",
        "feasible",
    ),
    "CoherenceVerdict": (
        lambda: CoherenceVerdict(False, (), book()),
        f"CoherenceVerdict(coherent=False, trace=(), dutch_book={BOOK})",
        "coherent",
    ),
    "ExtensionInterval": (
        lambda: ExtensionInterval(F(63, 400), F(7, 20), True),
        "ExtensionInterval(lower=Fraction(63, 400), upper=Fraction(7, 20), exact=True)",
        "lower",
    ),
    # components is a read-only view now; the rest of the text is the dataclass's
    "LambdaVector": (
        lambda: lambda_solution_TM([F(1, 2), F(1, 3)]),
        "LambdaVector(n=2, components=mappingproxy({frozenset({1, 2}): Fraction(1, 3), "
        "frozenset({2}): Fraction(0, 1), frozenset({1}): Fraction(1, 6), "
        "frozenset(): Fraction(1, 2)}), case='sorted-steps', permutation=(2, 1))",
        "components",
    ),
    "Family7Assessment": (
        lambda: Family7Assessment(*[F(1, 2)] * 3, *[F(1, 4)] * 3, F(1, 8)),
        "Family7Assessment(x_1=Fraction(1, 2), x_2=Fraction(1, 2), x_3=Fraction(1, 2), "
        "x_12=Fraction(1, 4), x_13=Fraction(1, 4), x_23=Fraction(1, 4), x_123=Fraction(1, 8))",
        "x_123",
    ),
    "Family7Verdict": (
        lambda: Family7Verdict(False, F(1), F(0), "x"),
        "Family7Verdict(coherent=False, lower=Fraction(1, 1), upper=Fraction(0, 1), failure='x')",
        "failure",
    ),
    "FrankParameter": (
        lambda: FrankParameter.generic(2.5),
        "FrankParameter(kind=<FrankKind.GENERIC: 'generic'>, value=2.5)",
        "value",
    ),
    "Problem": (
        lambda: Problem(SPACE, {}, (), ()),
        "Problem(space=WorldSpace(atoms=('A', 'H', 'K')), quantities={}, order=(), values=(), "
        "query={})",
        "order",
    ),
}

# each constructor's parameters, with their defaults, as the dataclasses had them
# (Problem's query defaulted to a new dict through a factory; None gives one now)
SIGNATURES = {
    "WorldSpace": ["atoms", "kept"],
    "Event": ["space", "members"],
    "ConditionalEvent": ["consequent", "antecedent"],
    "ConditionalQuantity": [
        "conditioning", "levels", "codes", ("label", "X|K"), ("void_value", None)
    ],
    "Assessment": ["family", "values"],
    "QuantityConstituent": ["profile", "codes", "lanes"],
    "LinearSystem": [
        "rows", "scales", "labels", ("normalization", True), ("tables", None)
    ],
    "FeasibilityCertificate": [
        "feasible", ("solution", None), ("dual", None), ("margin", None), ("support", ())
    ],
    "OptimizationResult": ["value", "solution", ("bounded", True), ("dual", None), ("support", ())],
    "DutchBook": ["member_indices", "stakes", "margin"],
    "LevelRecord": [
        "member_indices", "labels", "feasible", "solution", "m_values", "m_witnessed", "i0",
        ("assessment", None), ("columns", None), ("voids", None), ("system", None),
    ],
    "CoherenceVerdict": ["coherent", "trace", ("dutch_book", None)],
    "ExtensionInterval": ["lower", "upper", "exact"],
    "LambdaVector": ["n", "components", ("case", None), ("permutation", None)],
    "Family7Assessment": ["x_1", "x_2", "x_3", "x_12", "x_13", "x_23", "x_123"],
    "Family7Verdict": ["coherent", "lower", "upper", ("failure", None)],
    "FrankParameter": ["kind", ("value", None)],
    "Problem": ["space", "quantities", "order", "values", ("query", None)],
}
FROZEN = sorted(set(RECORDS) - {"Problem"})


def test_every_record_is_covered():
    built = {name: build() for name, (build, _, _) in RECORDS.items()}
    assert len(built) == 18 and set(SIGNATURES) == set(built)
    for name, record in built.items():
        assert type(record).__name__ == name and isinstance(record, Record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_the_dataclass_text(name):
    build, text, _ = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_constructor_signature_is_kept(name):
    parameters = inspect.signature(type(RECORDS[name][0]())).parameters.values()
    found = [q.name if q.default is q.empty else (q.name, q.default) for q in parameters]
    assert found == SIGNATURES[name]


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned_or_deleted(name):
    build, _, field = RECORDS[name]
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before and not hasattr(record, "extra")


@pytest.mark.parametrize("name", FROZEN)
def test_equal_fields_give_equal_records_and_hashes(name):
    build = RECORDS[name][0]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object() and a != None  # noqa: E711


def test_a_compared_field_tells_records_apart():
    assert ExtensionInterval(F(0), F(1), True) != ExtensionInterval(F(0), F(1, 2), True)
    assert FrankParameter.min() != FrankParameter.product()
    assert SPACE.event("A") != SPACE.event("H")
    # same fields, other class
    level = LevelRecord((1,), (F(1),), F(1), None, None, frozenset(), None)
    assert DutchBook((1,), (F(1),), F(1)) != level


def test_uncompared_fields_stay_out_of_equality_and_hash():
    c = RECORDS["QuantityConstituent"][0]()
    other = QuantityConstituent(c.profile, c.codes, ())
    assert (other, hash(other)) == (c, hash(c))
    cert = RECORDS["FeasibilityCertificate"][0]()
    other = FeasibilityCertificate(cert.feasible, cert.solution, support=())
    assert (other, hash(other)) == (cert, hash(cert))
    result = RECORDS["OptimizationResult"][0]()
    other = OptimizationResult(result.value, result.solution, dual=result.dual)
    assert (other, hash(other)) == (result, hash(result))
    # a linear system compares its rows, scales, labels and normalization
    system = RECORDS["LinearSystem"][0]()
    assert system == LinearSystem(system.rows, system.scales, ("a", "b"), True, ())


def test_problem_stays_mutable_and_unhashable():
    problem = RECORDS["Problem"][0]()
    assert problem == RECORDS["Problem"][0]()
    problem.order = ("X",)
    del problem.values
    assert problem.order == ("X",) and not hasattr(problem, "values")
    with pytest.raises(TypeError):
        hash(problem)
    assert Problem(SPACE, {}, (), ()).query is not Problem(SPACE, {}, (), ()).query


def test_cached_properties_and_solver_state_still_cache():
    q = quantity()
    assert q.values is q.values and len(q.values) == 4
    c = quantity_constituents([q])[0][0]
    assert c.worlds is c.worlds
    system = fraction_system(((F(1), F(0)),), (F(1, 2),), ("a", "b"))
    assert solve_feasibility(system).feasible
    assert "_phase1" in vars(system) and system.unknown_labels == ("a", "b")
