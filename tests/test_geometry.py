"""Tests for conditional quantities, compounds, partitions, and linear systems."""

import gc
import itertools
import math
import random
import tracemalloc
import weakref
from fractions import Fraction as F

import pytest
from oracles import (
    fraction_check_solution,
    fraction_quantity_constituents,
    fraction_rows,
    integer_solves,
    mask_of,
    per_world_codes,
    per_world_conjunction,
    per_world_constituents,
    sigma_star_solves,
    table_rows,
    tuple_partition,
    worlds_of,
)

import prevision.geometry as geometry
from prevision import (
    Assessment,
    CompoundPrevisionMap,
    ConditionalEvent,
    ConditionalQuantity,
    Event,
    MissingPrevision,
    OutOfRange,
    build_world_space,
    demorgan_previsions,
    frechet_bounds_conjunction,
    indicator,
    lambda_solution_TL,
    lambda_solution_TM,
    make_conjunction,
    make_disjunction,
)
from prevision.geometry import (
    _CHUNK,
    build_sigma,
    conjunction_signatures,
    constituents_in_all_antecedents,
    enumerate_constituents,
    keyed_partition,
    quantity_constituents,
    signature_label,
    to_fraction,
)


def conditional(space, consequent, antecedent):
    return ConditionalEvent(space.event(consequent), space.event(antecedent))


@pytest.fixture
def space4():
    return build_world_space(["A", "H", "B", "K"])


@pytest.fixture
def pair(space4):
    return [conditional(space4, "A", "H"), conditional(space4, "B", "K")]


X, Y, Z = F(7, 20), F(9, 20), F(1, 5)


def read_codes(q):
    """(levels, codes) of a quantity, its codes read out as a tuple of ints,
    the form `per_world_codes` returns."""
    return q.levels, tuple(q.codes)
PAIR_PREVISIONS = {(1,): X, (2,): Y, (1, 2): Z}


def test_to_fraction_exactness():
    assert to_fraction("0.35") == F(7, 20)
    assert to_fraction("7/20") == F(7, 20)
    assert to_fraction(1) == F(1)
    with pytest.raises(TypeError):
        to_fraction(0.35)


def test_quantity_requires_full_value_cover(space4):
    h = space4.event("H")
    values = {w: F(1) for w in worlds_of(h)}
    values.pop(min(values))
    with pytest.raises(ValueError):
        ConditionalQuantity.from_values(h, values)


def test_level_sets_must_partition_the_conditioning_worlds():
    # a mask outside the conditioning event, two overlapping masks, and a
    # conditioning world left uncovered: each once took the value of code 0
    # or the OR of two codes
    space = build_world_space(["A", "B"])
    a, ab, a_not_b = (space.event(f).members for f in ("A", "A & B", "A & !B"))
    for conditioning, level_sets in (
        (space.event("A & B"), [(F(1, 2), a)]),
        (space.event("A"), [(F(1, 2), a), (F(1, 3), ab)]),
        (space.event("A"), [(F(1, 2), ab)]),
    ):
        with pytest.raises(ValueError):
            ConditionalQuantity.from_level_sets(conditioning, level_sets)
    # a partition passes, empty masks and all, and equal values merge
    q = ConditionalQuantity.from_level_sets(
        space.event("A"), [(F(1, 2), ab), (3, 0), (F(2, 4), a_not_b)]
    )
    assert q.levels == (F(1, 2),)
    assert q.values == {w: F(1, 2) for w in worlds_of(space.event("A"))}


def test_indicator_round_trip(space4):
    ce = conditional(space4, "A", "H")
    q = indicator(ce, "A|H")
    assert set(q.levels) == {F(0), F(1)}
    assert q.hull() == (F(0), F(1))


def test_conjunction_two_events_value_table(space4, pair):
    conj = make_conjunction(pair, PAIR_PREVISIONS)
    assert conj.conditioning.members == space4.event("H|K").members
    assert conj.conditioning.members.bit_count() == 12
    cases = {
        "A&H&B&K": F(1),
        "!A&H": F(0),
        "!B&K&H": F(0),
        "!H&B&K": X,
        "A&H&!K": Y,
    }
    for formula, expected in cases.items():
        for w in worlds_of(space4.event(formula)):
            assert conj.values[w] == expected, formula
    # the both-void worlds sit outside the conditioning; the full-set entry
    # becomes the built-in prevision instead
    assert not worlds_of(space4.event("!H&!K")) & set(conj.values)
    assert conj.void_value == Z


def test_conjunction_missing_prevision(space4, pair):
    with pytest.raises(MissingPrevision) as exc:
        make_conjunction(pair, {(1,): X, (1, 2): Z})
    assert exc.value.subset == frozenset({2})


def test_missing_prevision_names_the_subset_of_the_lowest_world():
    # over A, H, B, K, A|H is void and B|K holds on worlds {3, 11}, and the
    # reverse on {12, 14}; over K, B, H, A the second block is {3, 7}.  The
    # subset named is the lowest world's, whatever the member order.
    for atoms in (["A", "H", "B", "K"], ["K", "B", "H", "A"]):
        space = build_world_space(atoms)
        a_h, b_k = conditional(space, "A", "H"), conditional(space, "B", "K")
        void_at_3 = a_h if atoms[0] == "A" else b_k
        for family in ([a_h, b_k], [b_k, a_h]):
            subset = {family.index(void_at_3) + 1}
            with pytest.raises(MissingPrevision) as exc:
                make_conjunction(family, {(1, 2): Z})
            assert exc.value.subset == subset
            with pytest.raises(MissingPrevision) as oracle:
                per_world_conjunction(family, {(1, 2): Z})
            assert oracle.value.subset == subset


@pytest.mark.parametrize("n_levels", [1, 2, 254, 255, 256, 257])
def test_level_set_codes_match_the_per_world_codes(n_levels):
    # one world per level, then a third of the rest void and the others on
    # random levels; each level's worlds come in up to two pairs, the second
    # an equal value as a fresh object or an int, and empty pairs are mixed in
    rng = random.Random(n_levels)
    space = build_world_space([f"A{i}" for i in range(max(3, (3 * n_levels).bit_length()))])
    worlds = list(range(len(space)))
    rng.shuffle(worlds)
    levels = [F(k, 7) for k in rng.sample(range(-7000, 7000), n_levels)]
    given = dict(zip(worlds, levels))
    for w in worlds[n_levels:]:
        if rng.random() < 2 / 3:
            given[w] = rng.choice(levels)
    level_sets = []
    for v in levels:
        mine = [w for w, value in given.items() if value is v]
        cut = rng.randint(0, len(mine))
        other = int(v) if v.denominator == 1 else F(2 * v.numerator, 2 * v.denominator)
        level_sets += [(v, mask_of(mine[:cut])), (other, mask_of(mine[cut:]))]
    rng.shuffle(level_sets)
    q = ConditionalQuantity.from_level_sets(Event(space, mask_of(given)), level_sets)
    assert len(q.levels) == n_levels
    assert read_codes(q) == per_world_codes(len(space), given)
    # one byte per world while the void code, n_levels, fits in one
    assert isinstance(q.codes, bytes) == (n_levels <= 255)
    assert q.values == given


@pytest.mark.parametrize("n_levels", [254, 255, 256])
def test_void_takes_the_code_after_the_last_level(n_levels):
    # levels 0..n-1 on the first n worlds, void on the rest: at 255 levels
    # the void code 255 still fits a byte, at 256 the lanes are wider
    space = build_world_space([f"A{i}" for i in range(9)])
    given = {w: F(n_levels - w, 3) for w in range(n_levels)}
    q = ConditionalQuantity.from_values(Event(space, mask_of(given)), given)
    assert list(q.codes) == [*range(n_levels), *[n_levels] * (len(space) - n_levels)]
    assert type(q.codes) is (bytes if n_levels <= 255 else tuple)
    columns = keyed_partition([q.codes], [n_levels])
    assert columns == [(bytes if n_levels <= 255 else tuple)(range(n_levels))]
    assert build_sigma(Assessment((q,), (q.levels[-1],)), columns).rows[0][:-1] == tuple(
        n_levels - c for c in range(n_levels)
    )


def test_wide_lane_constituents_match_the_fraction_partition():
    # past 255 levels the codes are a tuple; a 0/1 member splits the blocks
    rng = random.Random(21)
    space = build_world_space([f"A{i}" for i in range(9)])
    given = {w: F(rng.randrange(1000), 7) for w in rng.sample(range(len(space)), 450)}
    wide = ConditionalQuantity.from_values(Event(space, mask_of(given)), given)
    assert type(wide.codes) is tuple and len(wide.levels) > 255
    family = [wide, indicator(conditional(space, "A0", "A1 | A2"))]
    for members in (family[:1], family):
        inside, c0 = quantity_constituents(members)
        ref_inside, ref_c0 = fraction_quantity_constituents(members)
        assert [(c.worlds, c.profile, c.label()) for c in inside] == [
            (c.worlds, c.profile, c.label()) for c in ref_inside
        ]
        assert (c0.worlds, c0.profile) == (ref_c0.worlds, ref_c0.profile)


@pytest.mark.parametrize("n_atoms", [14, 20])
def test_reprs_stay_short_past_the_int_to_str_limit(n_atoms):
    # an event's mask has a bit and a quantity's codes a byte per world; at
    # 14 atoms the mask is past the 4,300-digit limit on printing an int
    space = build_world_space([f"A{i}" for i in range(n_atoms)], ["!(A3 & A4)"])
    event = space.event("A0")
    ce = ConditionalEvent(event, space.event("A1"))
    q = indicator(ce, "A0|A1")
    inside, c0 = quantity_constituents([q])
    for obj in (event, ce, q, *inside, c0):
        assert len(repr(obj)) < 1000
    assert repr(event) == f"Event({3 << n_atoms - 3} of {3 << n_atoms - 2} worlds)"


def test_levels_order_exactly_past_float_range_and_precision():
    # values past the float range, and values one float cannot tell apart,
    # still sort in exact descending order
    space = build_world_space(["A", "B", "C"])
    huge, third, tiny = F(10**400), F(1, 3), F(1, 10**30)
    values = [third, huge + 1, third + tiny, -huge, huge, third - tiny, F(0)]
    level_sets = [(v, 1 << w) for w, v in enumerate(values)] + [(F(0), 1 << 7)]
    given = dict(enumerate(values + [F(0)]))
    for q in (
        ConditionalQuantity.from_level_sets(space.everything, level_sets),
        ConditionalQuantity.from_values(space.everything, given),
    ):
        assert q.levels == tuple(sorted(set(values), reverse=True))
        assert read_codes(q) == per_world_codes(8, given)


@pytest.mark.parametrize("n_levels", [1, 3, 255, 256])
def test_from_values_and_from_level_sets_are_one_quantity(n_levels):
    # the same quantity built both ways is equal, and hashes equal: the
    # immutable record hashes its codes, wide ones included
    rng = random.Random(n_levels)
    space = build_world_space([f"A{i}" for i in range(10)])
    levels = [F(k, 9) for k in rng.sample(range(-5000, 5000), n_levels)]
    given = {w: rng.choice(levels) for w in rng.sample(range(len(space)), 700)}
    given.update(zip(rng.sample(sorted(given), n_levels), levels))
    conditioning = Event(space, mask_of(given))
    by_values = ConditionalQuantity.from_values(conditioning, given)
    level_sets = [(v, mask_of(w for w, u in given.items() if u == v)) for v in levels]
    by_level_sets = ConditionalQuantity.from_level_sets(conditioning, level_sets)
    assert by_values == by_level_sets
    assert hash(by_values) == hash(by_level_sets)
    assert read_codes(by_values) == per_world_codes(len(space), given)


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
        for w in worlds_of(space.event(formula)):
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
        for w in worlds_of(space4.event(formula)):
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
    for w in worlds_of(conj.conditioning):
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
    assert QuantityConstituent(profile, (0,) * len(profile), ()).label() == "+0(3/5)-(2)(-1)+-"
    # the partition joins the same label from per-level marks: world 0 has
    # the profile, world 1 is where the void member is active
    space = build_world_space(["A"])
    family = [
        ConditionalQuantity.from_values(Event(space, 0b10 if v is None else 0b01),
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
            ConditionalQuantity.from_values(Event(space, mask_of(values)), values)
            for values in inputs
        ]
        inside, c0 = quantity_constituents(family)
        ref_inside, ref_c0 = fraction_quantity_constituents(family)
        assert [(c.worlds, c.profile) for c in inside] == [
            (c.worlds, c.profile) for c in ref_inside
        ]
        assert [c.label() for c in inside] == [c.label() for c in ref_inside]
        assert (c0 and (c0.worlds, c0.profile)) == (ref_c0 and (ref_c0.worlds, ref_c0.profile))
        seen_c0.add(c0 is not None)
        # each quantity against the dict it was built from
        for q, given in zip(family, inputs):
            values = list(given.values())
            assert q.hull() == (min(values), max(values))
            assert list(q.levels) == sorted(set(values), reverse=True)
            for w in worlds:
                if w in given:
                    assert q.levels[q.codes[w]] == given[w]
                else:
                    assert q.codes[w] == len(q.levels)
            assert q.values == given
    assert seen_c0 == {True, False}


def _random_event(rng, space, pool):
    # reuse an earlier event half of the time: shared antecedents, and
    # consequents that imply or exclude each other
    if pool and rng.random() < 0.5:
        return rng.choice(pool)
    event = Event(space, mask_of(w for w in range(len(space)) if rng.random() < 0.5))
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
        assert {w: conj.levels[conj.codes[w]] for w in worlds_of(union)} == expected
        assert all(conj.codes[w] == len(conj.levels) for w in range(len(space)) if w not in union)
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
                given = {w: F(1) if w in ce.consequent else F(0) for w in worlds_of(ce.antecedent)}
                assert read_codes(q) == per_world_codes(len(space), given)
                seen["E contains H"] += ce.antecedent.members & ~ce.consequent.members == 0
                seen["E misses H"] += not ce.antecedent.members & ce.consequent.members
            try:
                union, values, _ = per_world_conjunction(members, previsions)
            except MissingPrevision:
                continue
            expected = per_world_codes(len(space), values)
            conj = make_conjunction(members, previsions)
            assert read_codes(conj) == expected
            seen["x_S = 0"] += _void_level_in(members, values, {F(0)})
            seen["x_S = 1"] += _void_level_in(members, values, {F(1)})
            # fresh objects, some ints: equal values merge into one level
            fresh = {w: int(v) if v.denominator == 1 else F(2 * v.numerator, 2 * v.denominator)
                     for w, v in values.items()}
            q = ConditionalQuantity.from_values(union, fresh)
            assert read_codes(q) == expected
            negated = [ConditionalEvent(~ce.consequent, ce.antecedent) for ce in members]
            try:
                _, inner, _ = per_world_conjunction(negated, previsions)
            except MissingPrevision:
                continue
            disj = make_disjunction(members, previsions)
            complement = {w: 1 - v for w, v in inner.items()}
            assert read_codes(disj) == per_world_codes(len(space), complement)
            seen["or"] += 1
    assert min(seen.values()) > 50, seen


def test_wide_conjunction_codes_match_the_per_world_ones():
    """256 levels and the void code: the codes come from two-byte lanes,
    renumbered into level order, for the conjunction and the disjunction of
    E|H1..E|H8 on 512 worlds, where every void pattern but the full one occurs."""
    space = build_world_space(["E"] + [f"H{i}" for i in range(1, 9)])
    family = [conditional(space, "E", f"H{i}") for i in range(1, 9)]
    subsets = [s for r in range(1, 9) for s in itertools.combinations(range(1, 9), r)]
    numerators = random.Random(23).sample(range(1, 1000), len(subsets))
    previsions = {s: F(k, 1000) for s, k in zip(subsets, numerators)}
    _, values, _ = per_world_conjunction(family, previsions)
    conj = make_conjunction(family, previsions)
    assert isinstance(conj.codes, tuple) and len(conj.levels) == 256
    assert read_codes(conj) == per_world_codes(len(space), values)
    negated = [ConditionalEvent(~ce.consequent, ce.antecedent) for ce in family]
    _, inner, _ = per_world_conjunction(negated, previsions)
    complement = {w: 1 - v for w, v in inner.items()}
    disj = make_disjunction(family, previsions)
    assert read_codes(disj) == per_world_codes(len(space), complement)


def test_conjunction_build_memory_stays_near_its_codes():
    """Building the n = 9 conjunction over 4^9 worlds allocates a few times
    its codes, a byte per world, at peak: a mask per void pattern would be
    2^9 masks of 4^9 bits, about 100 times the codes."""
    n = 9
    members = range(1, n + 1)
    space = build_world_space([f"E{i}" for i in members] + [f"H{i}" for i in members])
    family = [conditional(space, f"E{i}", f"H{i}") for i in members]
    xs = [F(k % 4 + 1, 5) for k in range(n)]
    previsions = {s: math.prod(xs[i - 1] for i in s)
                  for r in range(1, n) for s in itertools.combinations(members, r)}
    tracemalloc.start()
    try:
        conj = make_conjunction(family, previsions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(conj.codes) == 4**n
    assert peak < 8 * len(conj.codes), f"peak {peak} bytes"


def test_warm_builds_at_n7_share_or_translate_the_block_maps_lanes():
    """Over 4^7 worlds a warm indicator's codes are its block map's lanes,
    the same object, and a warm conjunction allocates under 2 bytes per
    world at peak: its codes, a byte per world, and the union's mask."""
    n = 7
    members = range(1, n + 1)
    space = build_world_space([f"E{i}" for i in members] + [f"H{i}" for i in members])
    family = [conditional(space, f"E{i}", f"H{i}") for i in members]
    xs = [F(k % 4 + 1, 5) for k in range(n)]
    subsets = [s for r in range(1, n) for s in itertools.combinations(members, r)]
    previsions = CompoundPrevisionMap({s: math.prod(xs[i - 1] for i in s) for s in subsets})
    cold = make_conjunction(family, previsions)
    first = family[0]
    indicator(first)
    lanes = space._block_maps[((first.consequent.members, first.antecedent.members),)][1]
    assert indicator(first).codes is lanes
    tracemalloc.start()
    try:
        warm = make_conjunction(family, previsions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert warm == cold and len(warm.codes) == len(space) == 4**n
    assert peak < 2 * len(space), f"peak {peak} bytes"


def _block_map_families(count):
    """`count` seeded families of 1-7 conditional events over 3-6 atoms, a
    third of them under a constraint, as (atoms, constraints, formula pairs,
    previsions), so that a fresh space can be built for each; x_S in
    quarters, with repeats, 0 and 1, and in a third of the families about 5%
    of them dropped."""
    rng = random.Random(31)
    for _ in range(count):
        atoms = ["A", "B", "C", "D", "E", "F"][: rng.randint(3, 6)]
        constraints = [f"!({atoms[0]} & {atoms[1]})"] if rng.random() < 0.33 else []
        space, formulas, size = build_world_space(atoms, constraints), [], rng.randint(1, 7)
        while len(formulas) < size:
            consequent, antecedent = (_random_formula(rng, atoms) for _ in range(2))
            if not space.event(antecedent).is_empty:
                formulas.append((consequent, antecedent))
        drop = rng.choice((0, 0, 0.05))
        previsions = {
            subset: F(rng.randint(0, 4), 4)
            for r in range(1, size + 1)
            for subset in itertools.combinations(range(1, size + 1), r)
            if rng.random() >= drop
        }
        yield atoms, constraints, formulas, previsions


def test_cold_and_warm_block_map_builds_match_the_per_world_ones():
    """On a fresh space every compound's first build fills the block map and
    its second reads it; both equal the per-world compound, or name the same
    missing subset, and so does each member's indicator."""
    seen = {"constrained": 0, "n = 7": 0, "built": 0, "missing": 0}
    for atoms, constraints, formulas, previsions in _block_map_families(150):
        space = build_world_space(atoms, constraints)
        family = [conditional(space, c, a) for c, a in formulas]
        negated = [ConditionalEvent(~ce.consequent, ce.antecedent) for ce in family]
        seen["constrained"] += bool(constraints)
        seen["n = 7"] += len(family) == 7
        for build, inner, complement in (
            (make_conjunction, family, False),
            (make_disjunction, negated, True),
        ):
            try:
                _, values, void_value = per_world_conjunction(inner, previsions)
            except MissingPrevision as missing:
                for _ in ("cold", "warm"):
                    with pytest.raises(MissingPrevision) as exc:
                        build(family, previsions)
                    assert exc.value.subset == missing.subset
                seen["missing"] += 1
                continue
            if complement:
                values = {w: 1 - v for w, v in values.items()}
                void_value = None if void_value is None else 1 - void_value
            expected = per_world_codes(len(space), values)
            for _ in ("cold", "warm"):
                q = build(family, previsions, "C")
                assert read_codes(q) == expected and q.void_value == void_value
                assert q.space is space and q.label == "C"
            seen["built"] += 1
        for ce in family:
            given = {w: F(w in ce.consequent) for w in worlds_of(ce.antecedent)}
            for _ in ("cold", "warm"):
                assert read_codes(indicator(ce)) == per_world_codes(len(space), given)
    assert min(seen.values()) >= 10, seen


def test_a_warm_build_runs_no_set_algebra(monkeypatch, space4, pair):
    calls = []
    real = geometry._blocks
    monkeypatch.setattr(geometry, "_blocks", lambda *args: calls.append(args) or real(*args))
    builds = (
        lambda values: make_conjunction(pair, values),
        lambda values: make_disjunction(pair, values),
        lambda values: indicator(pair[1]),
    )
    cold = [build(PAIR_PREVISIONS) for build in builds]
    assert len(calls) == 3
    other = {(1,): Y, (2,): X, (1, 2): F(0)}
    warm = [build(values) for values in (PAIR_PREVISIONS, other) for build in builds]
    assert len(calls) == 3 and warm[:3] == cold
    _, values, _ = per_world_conjunction(pair, other)
    assert read_codes(warm[3]) == per_world_codes(len(space4), values)


def test_equal_spaces_build_on_their_own_block_maps():
    spaces = [build_world_space(["A", "B", "C"], ["!(A & B)"]) for _ in range(2)]
    assert spaces[0] == spaces[1] and spaces[0] is not spaces[1]
    for space in spaces + spaces:  # cold on each, then warm
        family = [conditional(space, "A", "C"), conditional(space, "B", "!C")]
        previsions = {(1,): X, (2,): Y}
        for q in (indicator(family[0]), make_conjunction(family, previsions),
                  make_disjunction(family, previsions)):
            assert q.space is space
    assert all(len(space._block_maps) == 3 for space in spaces)


def test_a_space_keeps_the_block_maps_of_its_last_32_families(monkeypatch):
    space = build_world_space(["A", "B", "C", "D", "E"])
    families = [[ConditionalEvent(space.event("A"), Event(space, k))] for k in range(1, 34)]
    for family in families:
        make_conjunction(family, {})
    assert len(space._block_maps) == 32
    calls = []
    real = geometry._blocks
    monkeypatch.setattr(geometry, "_blocks", lambda *args: calls.append(args) or real(*args))
    make_conjunction(families[-1], {})
    assert not calls
    make_conjunction(families[0], {})  # the oldest was dropped: built again
    assert len(calls) == 1 and len(space._block_maps) == 32


def test_a_dropped_space_with_compounds_is_freed_without_the_cyclic_collector():
    # the block maps kept on the space hold ints, bytes and tuples, so the
    # compounds built on it leave no reference cycle through it
    gc.disable()
    try:
        space = build_world_space(["A", "H", "B", "K"])
        family = [conditional(space, "A", "H"), conditional(space, "B", "K")]
        quantities = [indicator(family[0]), make_conjunction(family, PAIR_PREVISIONS),
                      make_disjunction(family, PAIR_PREVISIONS)]
        assert len(space._block_maps) == 3 and quantities[0].space is space
        ref = weakref.ref(space)
        del space, family, quantities
        assert ref() is None
    finally:
        gc.enable()


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
            seen["constant"] += ce.antecedent.members & ~ce.consequent.members == 0
            family.append(ce)
        yield family


def test_constituent_views_match_the_per_world_classifier():
    seen = {"constraint": 0, "shared": 0, "dependent": 0, "constant": 0, "c0": 0}
    for family in _classifier_families(seen):
        expected = per_world_constituents(family)
        quantities = [indicator(ce) for ce in family]
        blocks = enumerate_constituents(quantities)
        assert [(c.worlds, c.label()) for c in blocks] == expected
        assert [set(c.profile) == {None} for c in blocks] == [
            set(label) == {"0"} for _, label in expected
        ]
        assert [(c.worlds, c.label()) for c in constituents_in_all_antecedents(quantities)] == [
            (worlds, label) for worlds, label in expected if "0" not in label
        ]
        seen["c0"] += set(blocks[-1].profile) == {None}
    assert min(seen.values()) > 100


def test_keyed_partition_matches_the_constituents_and_projects():
    seen = {"constraint": 0, "shared": 0, "dependent": 0, "constant": 0}
    projections = 0
    for family in _classifier_families(seen):
        quantities = [indicator(ce) for ce in family]
        voids = [len(q.levels) for q in quantities]
        columns = keyed_partition([q.codes for q in quantities], voids)
        keys = [*zip(*columns)]
        assert keys == [c.codes for c in quantity_constituents(quantities)[0]]
        # each key's worlds and marks are the classifier's block
        worlds = {}
        for w, key in enumerate(zip(*(q.codes for q in quantities))):
            worlds.setdefault(key, set()).add(w)
        marks = [
            "".join("0" if c == len(q.levels) else "+" if q.levels[c] == 1 else "-" for q, c in zip(quantities, key))
            for key in keys
        ]
        assert [(frozenset(worlds[key]), label) for key, label in zip(keys, marks)] == [
            block for block in per_world_constituents(family) if set(block[1]) != {"0"}
        ]
        # the projection of the columns onto members is the members' partition
        for r in range(1, len(quantities) + 1):
            for members in itertools.combinations(range(len(quantities)), r):
                projected = keyed_partition([columns[i] for i in members], [voids[i] for i in members])
                assert projected == keyed_partition(
                    [quantities[i].codes for i in members], [voids[i] for i in members]
                )
                projections += 1
    assert min(seen.values()) > 100 and projections > 3000


def _random_lanes(rng, members, n_worlds, voids, void_share):
    """Per member, codes 0..void on n_worlds worlds, void on about
    `void_share` of them: bytes while the void code fits a byte, else a tuple."""
    lanes = []
    for void in voids:
        codes = [
            void if rng.random() < void_share else rng.randrange(void) for _ in range(n_worlds)
        ]
        lanes.append(bytes(codes) if void < 256 else tuple(codes))
    return lanes


def assert_columns_match_the_tuple_partition(lanes, voids):
    columns = keyed_partition(lanes, voids)
    keys = tuple_partition(lanes, voids)
    assert len(columns) == len(lanes)
    for column, void in zip(columns, voids):
        assert type(column) is (bytes if void < 256 else tuple)
        assert len(column) == len(keys)
    assert [*zip(*columns)] == keys
    return columns


def test_partition_columns_are_the_tuple_partition_transposed():
    """The columns from byte records hold the tuple partition's keys: lanes
    1, 2 and 4 bytes wide, 1 to 11 members, one world, families with no
    block, and every projection of the columns onto a sub-family."""
    rng = random.Random(23)
    widths = {1: 0, 2: 0, 4: 0}
    projections = 0
    for members in range(1, 12):
        for n_worlds in (1, 2, 64, 300):
            for void_share in (0.0, 0.3, 1.0):
                voids = [rng.choice((1, 2, 3, 255, 256, 300, 70000)) for _ in range(members)]
                lanes = _random_lanes(rng, members, n_worlds, voids, void_share)
                columns = assert_columns_match_the_tuple_partition(lanes, voids)
                for void in voids:
                    widths[1 if void < 256 else 2 if void < 65536 else 4] += 1
                if void_share == 1.0:
                    assert columns == [b"" if void < 256 else () for void in voids]
                for r in range(1, min(members, 4) + 1):
                    for sub in itertools.combinations(range(members), r):
                        projected = assert_columns_match_the_tuple_partition(
                            [columns[i] for i in sub], [voids[i] for i in sub]
                        )
                        full = keyed_partition([lanes[i] for i in sub], [voids[i] for i in sub])
                        assert projected == full
                        projections += 1
    assert min(widths.values()) > 20 and projections > 1000
    # past one record buffer: blocks found in different buffers merge
    for members in (1, 3, 11):
        voids = [rng.choice((2, 3, 300, 70000)) for _ in range(members)]
        lanes = _random_lanes(rng, members, 2 * _CHUNK + 5, voids, 0.3)
        assert_columns_match_the_tuple_partition(lanes, voids)
    # quantities: a from_values lane past 255 levels beside indicators
    space = build_world_space([f"A{i}" for i in range(9)])
    given = {w: F(rng.randrange(1000), 7) for w in rng.sample(range(len(space)), 450)}
    wide = ConditionalQuantity.from_values(Event(space, mask_of(given)), given)
    assert isinstance(wide.codes, tuple)
    family = [wide, indicator(ConditionalEvent(space.event("A0"), space.event("A1 | A2")))]
    lanes, voids = [q.codes for q in family], [len(q.levels) for q in family]
    assert_columns_match_the_tuple_partition(lanes, voids)
    # one world
    one = build_world_space(["A"], ["A"])
    q = indicator(ConditionalEvent(one.event("A"), one.everything))
    assert keyed_partition([q.codes], [len(q.levels)]) == [b"\x00"]


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
    assert fraction_check_solution(system, solution)
    assert not fraction_check_solution(system, (F(1), 0, 0, 0, 0, 0))
    assert not fraction_check_solution(system, (F(1, 2),) * 6)  # breaks normalization


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
    assert [signature_label(s, 1) for s in conjunction_signatures(1)] == ["1", "1~"]
    assert sigma_star_solves((x, 1 - x), (x,), x)
    assert not sigma_star_solves((1 - x, x), (x,), x)


def test_sigma_star_two_events_from_sequence():
    lam = (Z, Y - Z, X - Z, 1 - X - Y + Z)
    assert sigma_star_solves(lam, (X, Y), Z)
    assert not sigma_star_solves((Z, X - Z, Y - Z, 1 - X - Y + Z), (X, Y), Z)


def _padded_solves(xs, overall, masses, moved=F(0)):
    """Whether `masses`, one per member subset in `conjunction_signatures`
    order, placed on the blocks where every antecedent holds and zero
    elsewhere, solve build_sigma for (E_i|H_i)_i and their conjunction,
    assessed at (xs, overall + moved).  The conjunction fills its partly void
    blocks with the min of the void members' xs and its all-void block with
    `overall`; those blocks get no mass."""
    n = len(xs)
    space = build_world_space([f"{kind}{i}" for i in range(1, n + 1) for kind in "EH"])
    events = [conditional(space, f"E{i}", f"H{i}") for i in range(1, n + 1)]
    previsions = {
        s: min(xs[i - 1] for i in s)
        for r in range(1, n) for s in itertools.combinations(range(1, n + 1), r)
    }
    previsions[tuple(range(1, n + 1))] = overall
    family = tuple(indicator(ce) for ce in events) + (make_conjunction(events, previsions),)
    system = build_sigma(Assessment(family, (*xs, overall + moved)))
    inside, _ = quantity_constituents(family)
    index_of = {
        frozenset(i for i, v in enumerate(c.profile[:n], 1) if v == 1): h
        for h, c in enumerate(inside) if None not in c.profile
    }
    padded = [F(0)] * system.n_unknowns
    for s, mass in zip(conjunction_signatures(n), masses):
        padded[index_of[s]] = mass
    return integer_solves(system, padded)


def test_sigma_star_solution_pads_into_full_sigma():
    # placing the reduced-system mass on the fully active constituents and
    # zero elsewhere solves the full system: the hand-written lambda at n = 2,
    # then the paper's explicit solutions at either Frechet bound, n = 2..4
    lam = (Z, Y - Z, X - Z, 1 - X - Y + Z)
    assert sigma_star_solves(lam, (X, Y), Z)
    assert _padded_solves((X, Y), Z, lam)
    rng = random.Random(29)
    for n in (2, 3, 4):
        for _ in range(4):
            xs = tuple(F(rng.randint(0, 20), 20) for _ in range(n))
            for builder, overall in zip(
                (lambda_solution_TL, lambda_solution_TM), frechet_bounds_conjunction(xs)
            ):
                masses = builder(xs).as_tuple()
                assert sigma_star_solves(masses, xs, overall)
                assert _padded_solves(xs, overall, masses), (builder.__name__, xs)
                for moved in (F(1, 100), F(-1, 100)):
                    assert not _padded_solves(xs, overall, masses, moved)


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
