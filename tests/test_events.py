import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assignment_numbers,
    per_world_event,
    per_world_space,
    set_algebra_event,
    worlds_of,
)
from prevision.errors import (
    EmptySpace,
    FormulaError,
    PrevisionError,
    SpaceTooLarge,
    UnknownAtom,
)
from prevision.events import (
    MAX_ATOMS,
    MAX_FORMULA_NESTING,
    MAX_FORMULA_TOKENS,
    ConditionalEvent,
    Event,
    WorldSpace,
    build_world_space,
)
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
    # each conjunction of literals is one world, and the eight are distinct
    cells = [
        space.event(f"{a}A & {h}H & {k}K")
        for a, h, k in itertools.product(("!", ""), repeat=3)
    ]
    assert [c.members for c in cells] == [1 << w for w in range(8)]


def test_constraint_drops_forbidden_assignments():
    # 8 assignments minus the 2 with H and K both true
    space = build_world_space(["A", "H", "K"], ["!(H&K)"])
    assert len(space) == 6
    assert space.event("H & K").is_empty
    # the kept assignments 0, 1, 2, 4, 5, 6 are numbered in order
    assert worlds_of(space.event("A")) == {3, 4, 5}
    assert space.kept == 0b01110111
    assert assignment_numbers(space) == [0, 1, 2, 4, 5, 6]


def test_a_space_prints_without_its_constraint_mask():
    # at 14 atoms the mask has 16,384 bits, past the 4,300-digit limit on
    # printing an int in decimal
    space = build_world_space([f"A{i}" for i in range(14)], ["A0 | A1"])
    assert repr(space) == f"WorldSpace(atoms={space.atoms!r})"


def test_a_dropped_space_is_freed_without_the_cyclic_collector():
    # reading `everything`, complementing an event and the atom masks kept
    # on the space leave no reference cycle through it, so dropping it frees
    # it at once
    gc.disable()
    try:
        space = build_world_space(["A", "B", "C"])
        assert space.everything.members == 0b11111111
        assert (~space.event("A")).members == 0b00001111
        ref = weakref.ref(space)
        del space
        assert ref() is None
    finally:
        gc.enable()


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


def test_a_malformed_formula_is_refused_before_an_undeclared_atom():
    # the formula is read in one pass, atoms as they are met: an undeclared
    # one is raised only once the whole formula has parsed
    space = build_world_space(["A", "B"])
    for bad in ["Q &", "(Q"]:
        with pytest.raises(FormulaError):
            space.event(bad)
    # of two undeclared atoms the leftmost is named
    with pytest.raises(UnknownAtom, match="'Q'"):
        space.event("Q | R")


# 3,000 nots and 3,000 nested parentheses, each deeper than Python's recursion
# limit allows, and a 3,000-term chain, six times the token cap
DEEP_FORMULAS = ["!" * 3000 + "A", "(" * 3000 + "A" + ")" * 3000, " & ".join(["A"] * 3000)]


@pytest.mark.parametrize("formula", DEEP_FORMULAS, ids=["nots", "parentheses", "chain"])
def test_deep_formulas_are_refused_before_evaluation(formula):
    with pytest.raises(FormulaError, match="at most"):
        build_world_space(["A"]).event(formula)
    with pytest.raises(FormulaError, match="at most"):
        build_world_space(["A"], [formula])


def test_formulas_at_the_bounds_evaluate():
    space = build_world_space(["A", "B"])
    a = space.event("A").members
    n = MAX_FORMULA_NESTING
    assert space.event("!" * n + "A").members == a
    assert space.event("(" * n + "A" + ")" * n).members == a
    # 3 + 497 tokens: !B | A & A & ... & A
    chain = "!B | " + " & ".join(["A"] * ((MAX_FORMULA_TOKENS - 2) // 2))
    assert space.event(chain).members == space.event("!B | A").members
    for over in ["!" * (n + 1) + "A", "(" * (n + 1) + "A" + ")" * (n + 1), chain + " & A"]:
        with pytest.raises(FormulaError):
            space.event(over)


def _random_formula(rng, names, depth):
    """Formula text over `names` with ! & | = and parentheses; a fifth of the
    = are left bare, and a chain of bare = is malformed."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice(names)
    if roll < 0.4:
        return "!" + _random_formula(rng, names, depth - 1)
    if roll < 0.5:
        return "(" + _random_formula(rng, names, depth - 1) + ")"
    op = rng.choice(["&", "|", "="])
    text = f"{_random_formula(rng, names, depth - 1)} {op} {_random_formula(rng, names, depth - 1)}"
    return f"({text})" if op == "=" and rng.random() < 0.8 else text


def _mangled(rng, text):
    """`text` with, one time in twenty, a character replaced or dropped."""
    if rng.random() < 0.05:
        cut = rng.randrange(len(text) + 1)
        return text[:cut] + rng.choice(["(", ")", "&", "!", ""]) + text[cut + 1:]
    return text


def _outcome(compute):
    try:
        return compute()
    except PrevisionError as exc:
        return type(exc)


def test_set_algebra_matches_the_per_world_evaluator():
    # masks, the frozenset evaluator they replaced and the per-world walk
    # agree on every world, over constrained and unconstrained spaces
    rng = random.Random(20201)
    outcomes = set()
    for _ in range(400):
        atoms = [f"P{i}" for i in range(rng.randint(1, 6))]
        # an undeclared name now and then
        names = atoms + ["Q"] if rng.random() < 0.1 else atoms
        constraints = [
            _mangled(rng, _random_formula(rng, names, 3)) for _ in range(rng.randint(0, 2))
        ]
        formulas = [_mangled(rng, _random_formula(rng, names, 4)) for _ in range(5)]
        space = _outcome(lambda: build_world_space(atoms, constraints))
        oracle = _outcome(lambda: per_world_space(atoms, constraints))
        if isinstance(space, type) or isinstance(oracle, type):
            assert space == oracle
            outcomes.add(space)
            continue
        assert len(space) == len(oracle[1])
        for formula in formulas:
            event = _outcome(lambda: space.event(formula))
            expected = _outcome(lambda: per_world_event(oracle, formula))
            assert _outcome(lambda: set_algebra_event(space, formula)) == expected
            if isinstance(event, type):
                assert event == expected
                outcomes.add(event)
                continue
            assert 0 <= event.members < 1 << len(space)
            assert worlds_of(event) == expected
            outcomes.add((frozenset, bool(constraints)))
    # every outcome the comparison is about occurred
    assert outcomes == {
        (frozenset, False), (frozenset, True), UnknownAtom, FormulaError, EmptySpace
    }


# as written, Python reads each of these, as a call, a chained or non-"=="
# comparison, a tuple or a constant; the grammar refuses them all
PYTHON_ONLY = ["A (B)", "(A)(B)", "A = B = C", "()", "A != B", "1"]


@pytest.mark.parametrize("formula", PYTHON_ONLY)
def test_what_only_python_reads_is_malformed_to_both_readers(formula):
    space = build_world_space(["A", "B", "C"])
    oracle = per_world_space(["A", "B", "C"])
    expected = _outcome(lambda: space.event(formula))
    assert expected is FormulaError
    assert _outcome(lambda: per_world_event(oracle, formula)) is expected
    assert _outcome(lambda: set_algebra_event(space, formula)) is expected


def _atom_bit(space, assignments, name, w):
    """Is atom `name` true in world w: a bit test on its assignment number."""
    return assignments[w] >> len(space.atoms) - 1 - space.atoms.index(name) & 1


@pytest.mark.parametrize("n", range(1, MAX_ATOMS + 1))
def test_atom_masks_match_the_bit_test_on_each_world(n):
    atoms = [f"A{i}" for i in range(n)]
    rng = random.Random(n)
    spaces = [build_world_space(atoms)]
    if n >= 2:
        spaces.append(build_world_space(atoms, [f"!({atoms[-1]} & {atoms[n // 2]})"]))
    for space in spaces:
        assignments = assignment_numbers(space)
        # every world up to 4,096, else 4,096 drawn ones and both ends
        worlds = range(len(space))
        if len(space) > 4096:
            worlds = sorted({*rng.sample(worlds, 4096), 0, len(space) - 1})
        for name in atoms:
            mask = space.event(name).members
            assert mask < 1 << len(space)
            bits = format(mask, f"0{len(space)}b")[::-1]  # character w is bit w
            assert [int(bits[w]) for w in worlds] == [
                _atom_bit(space, assignments, name, w) for w in worlds
            ]
            if len(space) == 1 << n:
                assert mask.bit_count() == len(space) // 2


def test_each_atom_mask_is_built_once_per_space(monkeypatch):
    builds = []
    build = WorldSpace._build_atom_mask

    def counted(self, name):
        builds.append(name)
        return build(self, name)

    monkeypatch.setattr(WorldSpace, "_build_atom_mask", counted)
    space = build_world_space(["A", "B", "C"])
    for formula in ["!(A & A & A) & B | B & C", "A & B & A", "C = A", "B"]:
        assert worlds_of(space.event(formula)) == set_algebra_event(space, formula)
    assert builds == ["A", "B", "C"]
    # a constraint's atoms are built on the unconstrained space, and the
    # constrained space builds its own from its constraint mask
    constrained = build_world_space(["A", "B", "C"], ["!(A & B)"])
    assert builds == ["A", "B", "C", "A", "B"]
    assert worlds_of(constrained.event("A | A & C")) == set_algebra_event(constrained, "A | A & C")
    assert builds == ["A", "B", "C", "A", "B", "A", "C"]


def test_operator_precedence_not_over_and_over_or():
    space = build_world_space(["A", "B", "C"])
    # !A & B | C  ==  ((!A) & B) | C
    left = space.event("!A & B | C")
    right = (~space.event("A") & space.event("B")) | space.event("C")
    assert left.members == right.members


def test_alias_constraint_equates_atoms():
    space = build_world_space(["A", "B"], ["A=B"])
    assert len(space) == 2
    assert space.event("A & !B | !A & B").is_empty
    assert space.event("A = B").is_sure


def test_event_boolean_laws():
    space = build_world_space(["A", "B", "C"])
    a, b = space.event("A"), space.event("B")
    assert (~(a & b)).members == (~a | ~b).members
    assert (~(a | b)).members == (~a & ~b).members
    assert (a & ~a).is_empty
    assert (a | ~a).is_sure


def test_no_index_outside_the_space_is_a_member():
    """A negative index used to raise ValueError (negative shift count)."""
    space = build_world_space(["A", "B"])
    a, sure = space.event("A"), space.everything
    assert [w for w in range(len(space)) if w in a] == [2, 3]
    for outside in (-1, -5, len(space), 64):
        assert outside not in a and outside not in sure


def test_empty_antecedent_rejected():
    space = build_world_space(["A", "H"])
    with pytest.raises(ValueError):
        ConditionalEvent(space.event("A"), space.event("H & !H"))


def test_two_independent_conditionals_give_nine_constituents():
    space = build_world_space(["E1", "H1", "E2", "H2"])
    family = indicators(space, ("E1", "H1"), ("E2", "H2"))
    cs = enumerate_constituents(family)
    assert len(cs) == 9
    inside = [c for c in cs if set(c.profile) != {None}]
    assert len(inside) == 8
    assert set(cs[-1].profile) == {None}


def test_same_consequent_pair_gives_six_plus_void():
    space = build_world_space(["A", "H", "K"])
    family = indicators(space, ("A", "H"), ("A", "K"))
    cs = enumerate_constituents(family)
    assert len(cs) == 7
    labels = {c.label() for c in cs if set(c.profile) != {None}}
    assert labels == {"++", "--", "0-", "-0", "0+", "+0"}
    c0 = cs[-1]
    assert set(c0.profile) == {None}
    assert c0.worlds == worlds_of(space.event("!H & !K"))


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
    h1, h2 = Event(space, h1mask), Event(space, h2mask)
    if h1.is_empty or h2.is_empty:
        return
    family = [
        indicator(ConditionalEvent(Event(space, e1mask), h1)),
        indicator(ConditionalEvent(Event(space, e2mask), h2)),
    ]
    cs = enumerate_constituents(family)
    worlds = list(itertools.chain.from_iterable(c.worlds for c in cs))
    assert sorted(worlds) == list(range(n))
    union = h1 | h2
    for c in cs:
        inside_union = all(w in union for w in c.worlds)
        void = set(c.profile) == {None}
        assert inside_union != void or not void
        if void:
            assert not any(w in union for w in c.worlds)
