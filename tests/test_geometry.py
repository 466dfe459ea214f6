"""Tests for conditional quantities, compounds, partitions, and linear systems."""

import itertools
import random
from fractions import Fraction as F

import pytest
from oracles import (
    fraction_quantity_constituents,
    fraction_rows,
    per_world_codes,
    per_world_conjunction,
    per_world_constituents,
)

from prevision import (
    Assessment,
    CompoundPrevisionMap,
    ConditionalEvent,
    ConditionalQuantity,
    Event,
    MissingPrevision,
    NotApplicable,
    OutOfRange,
    as_conditional_event,
    build_sigma,
    build_sigma_star,
    build_world_space,
    conjunction_signatures,
    constituents_in_all_antecedents,
    demorgan_previsions,
    enumerate_constituents,
    indicator,
    make_conjunction,
    make_disjunction,
    quantity_constituents,
    signature_label,
    to_fraction,
)
from prevision.geometry import VOID, keyed_partition


def conditional(space, consequent, antecedent):
    return ConditionalEvent(space.event(consequent), space.event(antecedent))


@pytest.fixture
def space4():
    return build_world_space(["A", "H", "B", "K"])


@pytest.fixture
def pair(space4):
    return [conditional(space4, "A", "H"), conditional(space4, "B", "K")]


X, Y, Z = F(7, 20), F(9, 20), F(1, 5)
PAIR_PREVISIONS = {(1,): X, (2,): Y, (1, 2): Z}


def test_to_fraction_exactness():
    assert to_fraction("0.35") == F(7, 20)
    assert to_fraction("7/20") == F(7, 20)
    assert to_fraction(1) == F(1)
    with pytest.raises(TypeError):
        to_fraction(0.35)


def test_quantity_requires_full_value_cover(space4):
    h = space4.event("H")
    values = {w: F(1) for w in h.members}
    values.pop(next(iter(h.members)))
    with pytest.raises(ValueError):
        ConditionalQuantity.from_values(h, values)


def test_indicator_round_trip(space4):
    ce = conditional(space4, "A", "H")
    q = indicator(ce, "A|H")
    assert q.is_indicator()
    assert q.hull() == (F(0), F(1))
    back = as_conditional_event(q)
    assert back.consequent.members == (space4.event("A") & space4.event("H")).members
    assert back.antecedent.members == space4.event("H").members


def test_conjunction_two_events_value_table(space4, pair):
    conj = make_conjunction(pair, PAIR_PREVISIONS)
    assert conj.conditioning.members == space4.event("H|K").members
    cases = {
        "A&H&B&K": F(1),
        "!A&H": F(0),
        "!B&K&H": F(0),
        "!H&B&K": X,
        "A&H&!K": Y,
    }
    for formula, expected in cases.items():
        for w in space4.event(formula).members:
            assert conj.values[w] == expected, formula
    # the both-void worlds sit outside the conditioning; the full-set entry
    # becomes the built-in prevision instead
    assert not space4.event("!H&!K").members & set(conj.values)
    assert conj.void_value == Z


def test_conjunction_missing_prevision(space4, pair):
    with pytest.raises(MissingPrevision) as exc:
        make_conjunction(pair, {(1,): X, (1, 2): Z})
    assert exc.value.subset == frozenset({2})


def test_conjunction_full_set_prevision_is_optional(space4, pair):
    conj = make_conjunction(pair, {(1,): X, (2,): Y})
    assert conj.void_value is None


def test_conjunction_skips_unrealizable_subsets():
    # H or K always holds, so the both-void prevision is never consulted
    space = build_world_space(["A", "H", "B", "K"], ["H|K"])
    pair = [conditional(space, "A", "H"), conditional(space, "B", "K")]
    conj = make_conjunction(pair, {(1,): X, (2,): Y})
    assert conj.void_value is None
    assert conj.conditioning.is_sure


def test_conjunction_prevision_out_of_range():
    with pytest.raises(OutOfRange):
        CompoundPrevisionMap({(1,): F(3, 2)})


def test_conjunction_of_event_with_itself(space4):
    ce = conditional(space4, "A", "H")
    conj = make_conjunction([ce, ce], {(1, 2): X})
    ind = indicator(ce)
    assert conj.values == ind.values
    assert conj.void_value == X


def test_conjunction_three_events_uses_subset_previsions():
    space = build_world_space(["E1", "H1", "E2", "H2", "E3", "H3"])
    family = [conditional(space, f"E{i}", f"H{i}") for i in (1, 2, 3)]
    previsions = {
        (1,): F(1, 2), (2,): F(1, 3), (3,): F(1, 4),
        (1, 2): F(1, 5), (1, 3): F(1, 6), (2, 3): F(1, 7),
        (1, 2, 3): F(1, 8),
    }
    conj = make_conjunction(family, previsions)
    cases = {
        "E1&H1 & E2&H2 & E3&H3": F(1),
        "E1&H1 & !E2&H2": F(0),
        "!H1 & E2&H2 & E3&H3": F(1, 2),
        "!H1 & !H2 & E3&H3": F(1, 5),
        "!H1 & E2&H2 & !H3": F(1, 6),
    }
    for formula, expected in cases.items():
        for w in space.event(formula).members:
            assert conj.values[w] == expected, formula
    assert conj.void_value == F(1, 8)


def test_demorgan_previsions_complements_every_entry():
    m = demorgan_previsions(CompoundPrevisionMap({(1,): F(1, 4), (1, 2): F(2, 3)}))
    assert m.get((1,)) == F(3, 4)
    assert m.get((1, 2)) == F(1, 3)
    assert m.get((2,)) is None


def test_disjunction_two_events_value_table(space4, pair):
    w_val = X + Y - Z  # 3/5
    disj = make_disjunction(pair, demorgan_previsions(CompoundPrevisionMap(
        {(1,): X, (2,): Y, (1, 2): w_val})))
    cases = {
        "A&H | B&K": F(1),
        "!A&H & !B&K": F(0),
        "!H & !B&K": X,
        "!A&H & !K": Y,
    }
    for formula, expected in cases.items():
        for w in space4.event(formula).members:
            assert disj.values[w] == expected, formula
    assert disj.void_value == w_val


def test_disjunction_of_single_event_is_the_event(space4):
    ce = conditional(space4, "A", "H")
    disj = make_disjunction([ce], demorgan_previsions(CompoundPrevisionMap({(1,): X})))
    assert disj.values == indicator(ce).values
    assert disj.void_value == X


def test_conjunction_plus_disjunction_is_pointwise_sum(space4, pair):
    # with the sum rule in force, C + D agrees with A|H + B|K pointwise,
    # previsions standing in for the void members
    w_val = X + Y - Z
    conj = make_conjunction(pair, PAIR_PREVISIONS)
    disj = make_disjunction(pair, demorgan_previsions(CompoundPrevisionMap(
        {(1,): X, (2,): Y, (1, 2): w_val})))
    a_h, b_k = space4.event("A&H"), space4.event("B&K")
    h, k = space4.event("H"), space4.event("K")
    for w in conj.conditioning.members:
        left = F(1) if w in a_h else F(0) if w in h else X
        right = F(1) if w in b_k else F(0) if w in k else Y
        assert conj.values[w] + disj.values[w] == left + right
    assert conj.void_value + disj.void_value == X + Y


def test_quantity_constituents_two_overlapping_conditionals():
    space = build_world_space(["A", "H", "K"])
    family = [
        indicator(conditional(space, "A", "H"), "A|H"),
        indicator(conditional(space, "A", "K"), "A|K"),
    ]
    inside, c0 = quantity_constituents(family)
    profiles = [c.profile for c in inside]
    one, zero = F(1), F(0)
    assert profiles == [
        (one, one), (one, None), (zero, zero),
        (zero, None), (None, one), (None, zero),
    ]
    assert c0 is not None and len(c0.worlds) == 2
    covered = set(c0.worlds)
    for c in inside:
        covered |= set(c.worlds)
    assert covered == set(range(len(space)))
    assert [c.label() for c in inside] == ["++", "+0", "--", "-0", "0+", "0-"]


def test_constituent_labels_mark_values_exactly():
    from prevision.geometry import QuantityConstituent

    profile = (F(1), None, F(3, 5), F(0), F(2), F(-1), F(4, 4), F(0, 7))
    assert QuantityConstituent(frozenset(), profile).label() == "+0(3/5)-(2)(-1)+-"
    # the partition joins the same label from per-level marks: world 0 has
    # the profile, world 1 is where the void member is active
    space = build_world_space(["A"])
    family = [
        ConditionalQuantity.from_values(Event(space, frozenset({1 if v is None else 0})),
                                        {1 if v is None else 0: F(0) if v is None else v})
        for v in profile
    ]
    inside, _ = quantity_constituents(family)
    assert inside[0].worlds == {0}
    assert inside[0].label() == "+0(3/5)-(2)(-1)+-"


def _random_values(rng, conditioning):
    """{world: value} from a pool with negatives and values outside {0, 1},
    each a fresh object, so equal values (2/4 and 1/2) are distinct Fractions."""
    pool = [(-1, 1), (-1, 2), (0, 1), (1, 2), (3, 5), (1, 1), (2, 1)]
    if rng.random() < 0.3:
        pool = pool[2:4] + pool[5:6]
    values = {}
    for w in conditioning:
        num, den = rng.choice(pool)
        k = rng.randint(1, 3)
        values[w] = num if den == 1 and rng.random() < 0.2 else F(num * k, den * k)
    return values


def test_value_codes_match_the_fraction_partition():
    rng = random.Random(20)
    spaces = [build_world_space(["A", "B", "C"]), build_world_space(["A", "B", "C", "D"])]
    seen_c0 = set()
    for _ in range(400):
        space = rng.choice(spaces)
        worlds = range(len(space))
        inputs = [
            _random_values(rng, rng.sample(worlds, rng.randint(1, len(space))))
            for _ in range(rng.randint(1, 5))
        ]
        family = [
            ConditionalQuantity.from_values(Event(space, frozenset(values)), values)
            for values in inputs
        ]
        inside, c0 = quantity_constituents(family)
        ref_inside, ref_c0 = fraction_quantity_constituents(family)
        assert [(c.worlds, c.profile) for c in inside] == [
            (c.worlds, c.profile) for c in ref_inside
        ]
        assert [c.label() for c in inside] == [c.label() for c in ref_inside]
        assert repr((inside, c0)) == repr((ref_inside, ref_c0))
        seen_c0.add(c0 is not None)
        # each quantity against the dict it was built from
        for q, given in zip(family, inputs):
            values = list(given.values())
            assert q.hull() == (min(values), max(values))
            assert q.is_indicator() == (set(values) <= {F(0), F(1)})
            assert list(q.levels) == sorted(set(values), reverse=True)
            for w in worlds:
                if w in given:
                    assert q.levels[q.codes[w]] == given[w]
                else:
                    assert q.codes[w] == VOID
            assert q.values == given
    assert seen_c0 == {True, False}


def _random_event(rng, space, pool):
    # reuse an earlier event half of the time: shared antecedents, and
    # consequents that imply or exclude each other
    if pool and rng.random() < 0.5:
        return rng.choice(pool)
    event = Event(space, frozenset(w for w in range(len(space)) if rng.random() < 0.5))
    pool.append(event)
    return event


def _conjunction_families(count):
    """`count` seeded families of 1-4 conditional events on 16 worlds, drawn
    from a shared pool, so antecedents are shared and events dependent, with
    x_S in quarters and about 15% of them dropped."""
    rng = random.Random(21)
    space = build_world_space(["A", "B", "C", "D"])
    for _ in range(count):
        pool, family, size = [], [], rng.randint(1, 4)
        while len(family) < size:
            antecedent = _random_event(rng, space, pool)
            if antecedent.members:
                family.append(ConditionalEvent(_random_event(rng, space, pool), antecedent))
        n = len(family)
        previsions = {
            subset: F(rng.randint(0, 4), 4)
            for r in range(1, n + 1)
            for subset in itertools.combinations(range(1, n + 1), r)
            if rng.random() < 0.85
        }
        yield space, family, previsions


def test_set_algebra_conjunction_matches_the_per_world_one():
    outcomes = {"built": 0, "missing": 0}
    for space, family, previsions in _conjunction_families(600):
        try:
            union, expected, void_value = per_world_conjunction(family, previsions)
        except MissingPrevision as missing:
            with pytest.raises(MissingPrevision) as exc:
                make_conjunction(family, previsions, "C")
            assert exc.value.subset == missing.subset
            outcomes["missing"] += 1
            continue
        conj = make_conjunction(family, previsions, "C")
        assert conj.conditioning.members == union.members
        assert {w: conj.levels[conj.codes[w]] for w in union.members} == expected
        assert all(conj.codes[w] == VOID for w in range(len(space)) if w not in union)
        assert (conj.label, conj.void_value) == ("C", void_value)
        outcomes["built"] += 1
    assert min(outcomes.values()) > 50


def _void_level_in(family, values, levels):
    """Does a world where some member is void and none fails take one of
    `levels`, that is, an x_S merged into the 0 or 1 level?"""
    return any(
        v in levels
        and any(w not in ce.antecedent for ce in family)
        and all(w in ce.consequent or w not in ce.antecedent for ce in family)
        for w, v in values.items()
    )


def test_constructors_match_the_per_world_codes():
    seen = {"E contains H": 0, "E misses H": 0, "x_S = 0": 0, "x_S = 1": 0, "or": 0}
    for space, family, previsions in _conjunction_families(600):
        first = family[0]
        h = first.antecedent
        # the seeded family, and its first member made sure and impossible
        for variant in (first.consequent, h, ~h):
            members = [ConditionalEvent(variant, h)] + family[1:]
            for ce in members:
                q = indicator(ce)
                given = {w: F(1) if w in ce.consequent else F(0) for w in ce.antecedent.members}
                assert (q.levels, q.codes) == per_world_codes(len(space), given)
                seen["E contains H"] += ce.antecedent.members <= ce.consequent.members
                seen["E misses H"] += not ce.antecedent.members & ce.consequent.members
            try:
                union, values, _ = per_world_conjunction(members, previsions)
            except MissingPrevision:
                continue
            expected = per_world_codes(len(space), values)
            conj = make_conjunction(members, previsions)
            assert (conj.levels, conj.codes) == expected
            seen["x_S = 0"] += _void_level_in(members, values, {F(0)})
            seen["x_S = 1"] += _void_level_in(members, values, {F(1)})
            # fresh objects, some ints: equal values merge into one level
            fresh = {w: int(v) if v.denominator == 1 else F(2 * v.numerator, 2 * v.denominator)
                     for w, v in values.items()}
            q = ConditionalQuantity.from_values(union, fresh)
            assert (q.levels, q.codes) == expected
            negated = [ConditionalEvent(~ce.consequent, ce.antecedent) for ce in members]
            try:
                _, inner, _ = per_world_conjunction(negated, previsions)
            except MissingPrevision:
                continue
            disj = make_disjunction(members, previsions)
            complement = {w: 1 - v for w, v in inner.items()}
            assert (disj.levels, disj.codes) == per_world_codes(len(space), complement)
            seen["or"] += 1
    assert min(seen.values()) > 50, seen


def _random_formula(rng, atoms, depth=2):
    if depth == 0 or rng.random() < 0.3:
        atom = rng.choice(atoms)
        return atom if rng.random() < 0.6 else f"!{atom}"
    op = rng.choice(("&", "|"))
    left, right = (_random_formula(rng, atoms, depth - 1) for _ in range(2))
    return f"({left} {op} {right})"


def _classifier_families(seen):
    """1,000 seeded families of conditional events over two to four atoms,
    some under a constraint, with shared, nested and constant members;
    `seen` counts each kind."""
    rng = random.Random(22)
    for _ in range(1000):
        atoms = ["A", "B", "H", "K"][-rng.randint(2, 4):]
        constrained = rng.random() < 0.3
        space = build_world_space(atoms, ["!(H & K)"] if constrained else [])
        seen["constraint"] += constrained
        family, antecedents = [], []
        for _ in range(rng.randint(1, 4)):
            draw = rng.random()
            if antecedents and draw < 0.25:
                antecedent = rng.choice(antecedents)
                seen["shared"] += 1
            elif antecedents and draw < 0.5:
                # contains an earlier antecedent
                antecedent = f"{rng.choice(antecedents)} | {_random_formula(rng, atoms)}"
                seen["dependent"] += 1
            else:
                antecedent = _random_formula(rng, atoms)
            if space.event(antecedent).is_empty:
                antecedent = atoms[0]
            antecedents.append(antecedent)
            draw = rng.random()
            if draw < 0.1:
                # true wherever the member is active
                consequent = f"{antecedent} | {_random_formula(rng, atoms)}"
            elif draw < 0.2:
                # false wherever the member is active
                consequent = f"!({antecedent})"
            else:
                consequent = _random_formula(rng, atoms)
            ce = conditional(space, consequent, antecedent)
            seen["constant"] += ce.antecedent.members <= ce.consequent.members
            family.append(ce)
        yield family


def test_constituent_views_match_the_per_world_classifier():
    seen = {"constraint": 0, "shared": 0, "dependent": 0, "constant": 0, "c0": 0}
    for family in _classifier_families(seen):
        expected = per_world_constituents(family)
        quantities = [indicator(ce) for ce in family]
        blocks = enumerate_constituents(quantities)
        assert [(c.worlds, c.label()) for c in blocks] == expected
        assert [c.all_void for c in blocks] == [set(label) == {"0"} for _, label in expected]
        assert [(c.worlds, c.label()) for c in constituents_in_all_antecedents(quantities)] == [
            (worlds, label) for worlds, label in expected if "0" not in label
        ]
        seen["c0"] += blocks[-1].all_void
    assert min(seen.values()) > 100


def test_keyed_partition_matches_the_constituents_and_projects():
    seen = {"constraint": 0, "shared": 0, "dependent": 0, "constant": 0}
    projections = 0
    for family in _classifier_families(seen):
        quantities = [indicator(ce) for ce in family]
        keys = keyed_partition([q.codes for q in quantities])
        assert keys == [c.codes for c in quantity_constituents(quantities)[0]]
        # each key's worlds and marks are the classifier's block
        worlds = {}
        for w, key in enumerate(zip(*(q.codes for q in quantities))):
            worlds.setdefault(key, set()).add(w)
        marks = [
            "".join("0" if c == VOID else "+" if q.levels[c] == 1 else "-" for q, c in zip(quantities, key))
            for key in keys
        ]
        assert [(frozenset(worlds[key]), label) for key, label in zip(keys, marks)] == [
            block for block in per_world_constituents(family) if set(block[1]) != {"0"}
        ]
        # the projection of the keys onto members is the members' partition
        columns = list(zip(*keys))
        for r in range(1, len(quantities) + 1):
            for members in itertools.combinations(range(len(quantities)), r):
                projected = keyed_partition([columns[i] for i in members])
                assert projected == keyed_partition([quantities[i].codes for i in members])
                projections += 1
    assert min(seen.values()) > 100 and projections > 3000


def test_build_sigma_substitutes_previsions():
    space = build_world_space(["A", "H", "K"])
    family = (
        indicator(conditional(space, "A", "H"), "A|H"),
        indicator(conditional(space, "A", "K"), "A|K"),
    )
    mu = (F(3, 10), F(4, 5))
    equalities, rhs = fraction_rows(build_sigma(Assessment(family, mu)))
    # one column Q_h per block: the value where active, the prevision where void
    assert tuple(zip(*equalities)) == (
        (F(1), F(1)), (F(1), F(4, 5)), (F(0), F(0)),
        (F(0), F(4, 5)), (F(3, 10), F(1)), (F(3, 10), F(0)),
    )
    # the all-void block stands for the assessment vector itself
    assert quantity_constituents(family)[1] is not None
    assert rhs == mu


def test_build_sigma_without_all_void_block():
    space = build_world_space(["A", "H"])
    family = (indicator(conditional(space, "A", "H | !H"), "A"),)
    assert quantity_constituents(family)[1] is None
    system = build_sigma(Assessment(family, (F(1, 2),)))
    assert fraction_rows(system)[0] == ((F(1), F(0)),)


def test_points_for_three_events_and_their_conjunction():
    space = build_world_space(["E1", "H1", "E2", "H2", "E3", "H3"])
    events = [conditional(space, f"E{i}", f"H{i}") for i in (1, 2, 3)]
    previsions = {
        (1,): F(1, 2), (2,): F(1, 3), (3,): F(1, 4),
        (1, 2): F(1, 5), (1, 3): F(1, 6), (2, 3): F(1, 7),
        (1, 2, 3): F(1, 8),
    }
    family = tuple(indicator(ce, f"E{i+1}|H{i+1}") for i, ce in enumerate(events))
    family += (make_conjunction(events, previsions, "C"),)
    mu = (F(1, 2), F(1, 3), F(1, 4), F(1, 8))
    inside, _ = quantity_constituents(family)
    points = zip(*fraction_rows(build_sigma(Assessment(family, mu)))[0])
    by_profile = {c.profile: point for c, point in zip(inside, points)}
    one, zero = F(1), F(0)
    assert (one, one, one, one) in by_profile
    assert (one, zero, one, zero) in by_profile
    for p, point in by_profile.items():
        assert point == tuple(m if v is None else v for v, m in zip(p, mu))
    # fully active profiles carry the conjunction's own 0/1 value
    active = [p for p in by_profile if None not in p]
    assert len(active) == 8
    for p in active:
        assert p[3] == (one if p[:3] == (one, one, one) else zero)


def test_build_sigma_example_solution_checks():
    space = build_world_space(["A", "H", "K"])
    family = (
        indicator(conditional(space, "A", "H"), "A|H"),
        indicator(conditional(space, "A", "K"), "A|K"),
    )
    x, y = F(3, 10), F(4, 5)
    system = build_sigma(Assessment(family, (x, y)))
    assert system.unknown_labels == ("++", "+0", "--", "-0", "0+", "0-")
    assert fraction_rows(system)[1] == (x, y)
    # mass split across the four one-sided classes solves the system
    solution = (F(0), x / 2, F(0), (1 - x) / 2, y / 2, (1 - y) / 2)
    assert system.check_solution(solution)
    assert not system.check_solution((F(1), 0, 0, 0, 0, 0))
    assert not system.check_solution((F(1, 2),) * 6)  # breaks normalization


def test_conjunction_signature_order():
    assert [signature_label(s, 2) for s in conjunction_signatures(2)] == [
        "12", "1~2", "12~", "1~2~",
    ]
    assert [signature_label(s, 3) for s in conjunction_signatures(3)] == [
        "123", "12~3", "1~23", "1~2~3",
        "123~", "12~3~", "1~23~", "1~2~3~",
    ]


def test_sigma_star_single_event():
    x = F(2, 7)
    system = build_sigma_star((x, x))
    assert system.unknown_labels == ("1", "1~")
    assert system.check_solution((x, 1 - x))
    assert not system.check_solution((1 - x, x))


def test_sigma_star_two_events_from_sequence():
    system = build_sigma_star((X, Y, Z))
    assert system.unknown_labels == ("12", "1~2", "12~", "1~2~")
    assert fraction_rows(system)[1] == (X, Y, Z)
    lam = (Z, Y - Z, X - Z, 1 - X - Y + Z)
    assert system.check_solution(lam)
    assert not system.check_solution((Z, X - Z, Y - Z, 1 - X - Y + Z))


def test_sigma_star_from_assessment_matches_sequence(space4, pair):
    conj = make_conjunction(pair, PAIR_PREVISIONS, "C")
    family = (indicator(pair[0], "A|H"), indicator(pair[1], "B|K"), conj)
    assessment = Assessment(family, (X, Y, Z))
    from_assessment = build_sigma_star(assessment)
    from_sequence = build_sigma_star((X, Y, Z))
    assert fraction_rows(from_assessment) == fraction_rows(from_sequence)


def test_sigma_star_rejects_wrong_conditioning(space4, pair):
    family = (
        indicator(pair[0], "A|H"),
        indicator(pair[1], "B|K"),
        indicator(pair[1], "B|K again"),
    )
    with pytest.raises(NotApplicable):
        build_sigma_star(Assessment(family, (X, Y, Y)))


def test_sigma_star_checks_the_compound_against_the_conjunction_table(space4, pair):
    members = (indicator(pair[0], "A|H"), indicator(pair[1], "B|K"))
    conj = make_conjunction(pair, {(1,): F(0), (2,): F(1), (1, 2): Z})
    assert build_sigma_star(Assessment(members + (conj,), (X, Y, Z))).n_unknowns == 4
    worlds = {
        "true": space4.event("A&H&B&K"),
        "false": space4.event("!A&H"),
        "void": space4.event("!H&K"),
    }
    for kind, value in (("true", F(0)), ("false", F(1)), ("void", F(2))):
        values = dict(conj.values)
        values[min(worlds[kind].members)] = value
        off = ConditionalQuantity.from_values(conj.conditioning, values)
        with pytest.raises(NotApplicable):
            build_sigma_star(Assessment(members + (off,), (X, Y, Z)))


def test_sigma_star_rejects_logically_dependent_events(space4):
    ce = conditional(space4, "A", "H")
    nce = conditional(space4, "!A", "H")
    conj = make_conjunction([ce, nce], {(1, 2): F(0)})
    family = (indicator(ce), indicator(nce), conj)
    with pytest.raises(NotApplicable):
        build_sigma_star(Assessment(family, (X, 1 - X, F(0))))


def test_sigma_star_solution_pads_into_full_sigma(space4, pair):
    # placing the reduced-system mass on the fully active constituents and
    # zero elsewhere solves the full system, whatever the internal previsions
    conj = make_conjunction(pair, PAIR_PREVISIONS, "C")
    family = (indicator(pair[0], "A|H"), indicator(pair[1], "B|K"), conj)
    assessment = Assessment(family, (X, Y, Z))
    star = build_sigma_star((X, Y, Z))
    lam = (Z, Y - Z, X - Z, 1 - X - Y + Z)
    assert star.check_solution(lam)
    sigma = build_sigma(assessment)
    inside, _ = quantity_constituents(family)
    one, zero = F(1), F(0)
    profile_for = {
        "12": (one, one, one), "1~2": (zero, one, zero),
        "12~": (one, zero, zero), "1~2~": (zero, zero, zero),
    }
    padded = [F(0)] * len(inside)
    index_of = {c.profile: i for i, c in enumerate(inside)}
    for sig_label, mass in zip(star.unknown_labels, lam):
        padded[index_of[profile_for[sig_label]]] = mass
    assert sigma.check_solution(padded)


def test_assessment_validation(space4):
    q = indicator(conditional(space4, "A", "H"), "A|H")
    with pytest.raises(ValueError):
        Assessment((q,), (F(1, 2), F(1, 3)))
    other_space = build_world_space(["A", "H"])
    q2 = indicator(ConditionalEvent(other_space.event("A"), other_space.event("H")))
    with pytest.raises(ValueError):
        Assessment((q, q2), (F(1, 2), F(1, 3)))
    a = Assessment((q,), ("0.35",))
    assert a.values == (F(7, 20),)
    ext = a.extend(indicator(conditional(space4, "B", "K"), "B|K"), F(1, 4))
    assert len(ext) == 2
    assert ext.restrict([1]).values == (F(1, 4),)
