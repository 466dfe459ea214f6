"""System P's rules as an outside oracle for extension intervals.

Over the atoms {A, B, C}, each rule's premises are assessed at x and y on
the 1/20 grid, and the conclusion's extension interval must equal the
rule's published closed form (Gilio 2002, "Probabilistic reasoning under
coherence in System P").  These bounds come from the literature, not from
the engine, so they check `extension_interval` against something other than
its own earlier answers.  With every premise at 1, the rules that System P
lacks (Transitivity, Contraposition, Monotonicity) leave the conclusion
anywhere in [0, 1].
"""

from fractions import Fraction

import pytest

from prevision import Assessment, ConditionalEvent, build_world_space, extension_interval, indicator

F = Fraction
SPACE = build_world_space(["A", "B", "C"])
GRID = [F(k, 20) for k in range(21)]


def given(consequent, antecedent):
    return indicator(
        ConditionalEvent(SPACE.event(consequent), SPACE.event(antecedent)),
        f"{consequent}|{antecedent}",
    )


def cautious_monotonicity(x, y):
    return max(F(0), (x + y - 1) / x), min(F(1), y / x)


def disjunction(x, y):
    if x == y == 1:
        return F(1), F(1)
    if x == y == 0:
        return F(0), F(0)
    return x * y / (x + y - x * y), (x + y - 2 * x * y) / (1 - x * y)


# rule: (premises, conclusion, closed form of the premises' values x and y)
RULES = {
    "And": (
        (given("B", "A"), given("C", "A")),
        given("B & C", "A"),
        lambda x, y: (max(F(0), x + y - 1), min(x, y)),
    ),
    "CM": ((given("B", "A"), given("C", "A")), given("C", "A & B"), cautious_monotonicity),
    "Cut": (
        (given("B", "A"), given("C", "A & B")),
        given("C", "A"),
        lambda x, y: (x * y, 1 - x + x * y),
    ),
    "Or": ((given("C", "A"), given("C", "B")), given("C", "A | B"), disjunction),
}

NOT_ENTAILED = {
    "Transitivity": ((given("B", "A"), given("C", "B")), given("C", "A")),
    "Contraposition": ((given("B", "A"),), given("!A", "!B")),
    "Monotonicity": ((given("C", "A"),), given("C", "A & B")),
}


def interval(premises, values, conclusion):
    result = extension_interval(Assessment(premises, values), conclusion)
    assert result.exact
    return result.lower, result.upper


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_matches_its_closed_form_on_the_grid(rule):
    premises, conclusion, bounds = RULES[rule]
    # CM's conclusion is conditioned on A & B, whose mass x = 0 leaves free
    points = [(x, y) for x in GRID for y in GRID if x > 0 or rule != "CM"]
    assert len(points) == (420 if rule == "CM" else 441)
    misses = [
        (x, y) for x, y in points if interval(premises, (x, y), conclusion) != bounds(x, y)
    ]
    assert not misses, misses[:5]


@pytest.mark.parametrize("rule", sorted(NOT_ENTAILED))
def test_rule_outside_system_p_leaves_the_conclusion_free(rule):
    premises, conclusion = NOT_ENTAILED[rule]
    assert interval(premises, (F(1),) * len(premises), conclusion) == (F(0), F(1))


def test_premises_at_one_entail_each_system_p_conclusion():
    for premises, conclusion, _ in RULES.values():
        assert interval(premises, (F(1), F(1)), conclusion) == (F(1), F(1))
