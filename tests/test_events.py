import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prevision.errors import EmptySpace, FormulaError, SpaceTooLarge, UnknownAtom
from prevision.events import MAX_ATOMS, ConditionalEvent, build_world_space
from prevision.geometry import (
    constituents_in_all_antecedents,
    enumerate_constituents,
    indicator,
)


def conditional(space, consequent, antecedent):
    return ConditionalEvent(space.event(consequent), space.event(antecedent))


def indicators(space, *pairs):
    """The indicators of the conditional events consequent|antecedent."""
    return [indicator(conditional(space, e, h)) for e, h in pairs]


def test_space_without_constraints_has_all_assignments():
    space = build_world_space(["A", "H", "K"])
    assert len(space) == 8
    assert len(set(space.worlds)) == 8


def test_constraint_drops_forbidden_assignments():
    # 8 assignments minus the 2 with H and K both true
    space = build_world_space(["A", "H", "K"], ["!(H&K)"])
    assert len(space) == 6
    for w in space.worlds:
        assert not (w[1] and w[2])


def test_contradictory_constraint_raises():
    with pytest.raises(EmptySpace):
        build_world_space(["A"], ["A&!A"])


def test_too_many_atoms_raise_before_enumeration():
    # 2**64 worlds: only a check made before enumerating can return here
    with pytest.raises(SpaceTooLarge, match="64 atoms"):
        build_world_space([f"A{i}" for i in range(64)])
    with pytest.raises(SpaceTooLarge):
        build_world_space([f"A{i}" for i in range(MAX_ATOMS + 1)])


def test_undeclared_atom_raises():
    with pytest.raises(UnknownAtom):
        build_world_space(["A"], ["A&B"])
    space = build_world_space(["A"])
    with pytest.raises(UnknownAtom):
        space.event("C")


def test_duplicate_atoms_rejected():
    with pytest.raises(ValueError):
        build_world_space(["A", "A"])


def test_malformed_formulas_rejected():
    space = build_world_space(["A", "B"])
    for bad in ["A &", "& A", "(A", "A)", "A ? B", "", "!"]:
        with pytest.raises(FormulaError):
            space.event(bad)


def test_operator_precedence_not_over_and_over_or():
    space = build_world_space(["A", "B", "C"])
    # !A & B | C  ==  ((!A) & B) | C
    left = space.event("!A & B | C")
    right = (~space.event("A") & space.event("B")) | space.event("C")
    assert left.members == right.members


def test_alias_constraint_equates_atoms():
    space = build_world_space(["A", "B"], ["A=B"])
    assert len(space) == 2
    for w in space.worlds:
        assert w[0] == w[1]


def test_event_boolean_laws():
    space = build_world_space(["A", "B", "C"])
    a, b = space.event("A"), space.event("B")
    assert (~(a & b)).members == (~a | ~b).members
    assert (~(a | b)).members == (~a & ~b).members
    assert (a & ~a).is_empty
    assert (a | ~a).is_sure


def test_empty_antecedent_rejected():
    space = build_world_space(["A", "H"])
    with pytest.raises(ValueError):
        ConditionalEvent(space.event("A"), space.event("H & !H"))


def test_two_independent_conditionals_give_nine_constituents():
    space = build_world_space(["E1", "H1", "E2", "H2"])
    family = indicators(space, ("E1", "H1"), ("E2", "H2"))
    cs = enumerate_constituents(family)
    assert len(cs) == 9
    inside = [c for c in cs if not c.all_void]
    assert len(inside) == 8
    assert cs[-1].all_void


def test_same_consequent_pair_gives_six_plus_void():
    space = build_world_space(["A", "H", "K"])
    family = indicators(space, ("A", "H"), ("A", "K"))
    cs = enumerate_constituents(family)
    assert len(cs) == 7
    labels = {c.label() for c in cs if not c.all_void}
    assert labels == {"++", "--", "0-", "-0", "0+", "+0"}
    c0 = cs[-1]
    assert c0.all_void
    assert c0.worlds == space.event("!H & !K").members


def test_constituents_partition_the_space():
    space = build_world_space(["A", "B", "H", "K"], ["!(H&K)"])
    family = indicators(space, ("A", "H"), ("B", "K | A"))
    cs = enumerate_constituents(family)
    seen = set()
    for c in cs:
        assert c.worlds
        assert not (seen & c.worlds)
        seen |= c.worlds
    assert seen == set(range(len(space)))


def test_ordering_is_lexicographic_true_false_void():
    space = build_world_space(["E1", "H1", "E2", "H2"])
    family = indicators(space, ("E1", "H1"), ("E2", "H2"))
    keys = [
        tuple("+-0".index(mark) for mark in c.label())
        for c in enumerate_constituents(family)
    ]
    assert keys == sorted(keys)


def test_all_antecedents_subset_n2():
    space = build_world_space(["E1", "H1", "E2", "H2"])
    family = indicators(space, ("E1", "H1"), ("E2", "H2"))
    ks = constituents_in_all_antecedents(family)
    assert [k.label() for k in ks] == ["++", "+-", "-+", "--"]
    assert [k.profile for k in ks] == [(1, 1), (1, 0), (0, 1), (0, 0)]


def test_all_antecedents_empty_when_antecedents_disjoint():
    space = build_world_space(["A", "H", "K"], ["!(H&K)"])
    family = indicators(space, ("A", "H"), ("A", "K"))
    assert constituents_in_all_antecedents(family) == []


def test_all_antecedents_n3_has_eight():
    space = build_world_space(["E1", "H1", "E2", "H2", "E3", "H3"])
    family = indicators(space, ("E1", "H1"), ("E2", "H2"), ("E3", "H3"))
    assert len(constituents_in_all_antecedents(family)) == 8
    assert len(enumerate_constituents(family)) == 27


def test_aliased_antecedents_match_single_conditioning_event():
    # declaring H = K and using the pair A|H, B|K reproduces the structure of
    # a single conditioning event: profiles are void together or active together
    space = build_world_space(["A", "B", "H", "K"], ["H=K"])
    family = indicators(space, ("A", "H"), ("B", "K"))
    for c in enumerate_constituents(family):
        states = [v is None for v in c.profile]
        assert all(states) or not any(states)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_random_families_partition(e1mask, h1mask, e2mask, h2mask):
    space = build_world_space(["P", "Q", "R"])
    n = len(space)

    def from_mask(mask):
        from prevision.events import Event

        return Event(space, frozenset(i for i in range(n) if mask >> i & 1))

    h1, h2 = from_mask(h1mask), from_mask(h2mask)
    if h1.is_empty or h2.is_empty:
        return
    family = [
        indicator(ConditionalEvent(from_mask(e1mask), h1)),
        indicator(ConditionalEvent(from_mask(e2mask), h2)),
    ]
    cs = enumerate_constituents(family)
    worlds = list(itertools.chain.from_iterable(c.worlds for c in cs))
    assert sorted(worlds) == list(range(n))
    union = h1 | h2
    for c in cs:
        inside_union = all(w in union for w in c.worlds)
        assert inside_union != c.all_void or not c.all_void
        if c.all_void:
            assert not any(w in union for w in c.worlds)
