"""Closed-form constructors and the three-event rules."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    hand_family7,
    hand_frechet_conjunction,
    hand_frechet_disjunction,
    hand_same_consequent,
    prefix_sum_lambda_solution_TL,
    sigma_star_solves,
    sorted_conjunction_signatures,
)

from prevision import (
    CompoundPrevisionMap,
    Family7Assessment,
    FrankKind,
    LambdaVector,
    OutOfRange,
    SufficiencyVerdict,
    check_family7,
    family7_bounds,
    frechet_bounds_conjunction,
    frechet_bounds_disjunction,
    lambda_solution_TL,
    lambda_solution_TM,
    lukasiewicz_sufficient,
    special_case_same_consequent,
)
from prevision.geometry import conjunction_signatures

F = Fraction

rational_unit = st.fractions(min_value=0, max_value=1, max_denominator=20)


def solves_sigma_star(vector, xs, overall):
    return sigma_star_solves(vector.as_tuple(), xs, overall)


def lower_envelope(xs):
    lo, _ = frechet_bounds_conjunction(xs)
    return lo


def upper_envelope(xs):
    _, hi = frechet_bounds_conjunction(xs)
    return hi


class TestLambdaSolutionTL:
    def test_acceptance_tuple_all_two_fifths(self):
        vec = lambda_solution_TL((F(2, 5), F(2, 5), F(2, 5)))
        assert vec.case == "e"
        assert vec.as_tuple() == (
            F(0), F(4, 25), F(4, 25), F(2, 25),
            F(0), F(6, 25), F(6, 25), F(3, 25),
        )

    def test_acceptance_tuple_half_three_fifths_seven_tenths(self):
        vec = lambda_solution_TL((F(1, 2), F(3, 5), F(7, 10)))
        assert vec.case == "b"
        assert vec.as_tuple() == (
            F(0), F(14, 45), F(7, 18), F(0),
            F(1, 10), F(4, 45), F(1, 9), F(0),
        )

    def test_two_member_form(self):
        vec = lambda_solution_TL((F(2, 5), F(2, 5)))
        assert vec.as_tuple() == (F(0), F(2, 5), F(2, 5), F(1, 5))
        assert vec.case == "b"

    def test_case_c_positive_overall(self):
        xs = (F(9, 10), F(4, 5), F(9, 10))
        vec = lambda_solution_TL(xs)
        assert vec.case == "c"
        assert vec[(1, 2, 3)] == F(3, 5)
        assert vec[(2, 3)] == F(1, 10)
        assert vec[(1, 3)] == F(1, 5)
        assert vec[(1, 2)] == F(1, 10)
        assert solves_sigma_star(vec, xs, F(3, 5))

    def test_case_d_leading_zero_gives_product_masses(self):
        xs = (F(0), F(1, 2), F(3, 4))
        vec = lambda_solution_TL(xs)
        assert vec.case == "d"
        assert vec[(2, 3)] == F(3, 8)
        assert vec[(2,)] == F(1, 8)
        assert vec[(1, 2, 3)] == F(0)
        assert solves_sigma_star(vec, xs, F(0))

    def test_case_a_saturated_prefix_no_tail(self):
        xs = (F(1), F(1), F(0))
        vec = lambda_solution_TL(xs)
        assert vec.case == "a"
        assert vec[(1, 2)] == F(1)
        assert solves_sigma_star(vec, xs, F(0))

    def test_case_f_saturated_prefix_with_tail(self):
        xs = (F(1), F(1), F(0), F(2, 5), F(3, 4))
        vec = lambda_solution_TL(xs)
        assert vec.case == "f"
        assert vec[(1, 2, 4, 5)] == F(3, 10)
        assert vec[(1, 2, 5)] == F(9, 20)
        assert vec[(1, 2, 4)] == F(1, 10)
        assert vec[(1, 2)] == F(3, 20)
        assert solves_sigma_star(vec, xs, F(0))

    def test_case_e_interior_prefix_with_tail(self):
        xs = (F(2, 5), F(2, 5), F(2, 5))
        vec = lambda_solution_TL(xs)
        assert vec[(2, 3)] == F(4, 25)
        assert vec[(2,)] == F(6, 25)
        assert vec[(1, 3)] == F(4, 25)

    def test_single_member(self):
        vec = lambda_solution_TL((F(1, 3),))
        assert vec.case == "single"
        assert vec.as_tuple() == (F(1, 3), F(2, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfRange):
            lambda_solution_TL((F(1, 2), F(3, 2)))

    @given(st.lists(rational_unit, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_solves_lower_boundary_system_exactly(self, xs):
        vec = lambda_solution_TL(xs)
        assert solves_sigma_star(vec, xs, lower_envelope(xs))


class TestLambdaSolutionTM:
    def test_frozen_sorted_input(self):
        vec = lambda_solution_TM((F(1, 5), F(1, 2), F(9, 10)))
        assert vec.permutation == (1, 2, 3)
        assert vec[(1, 2, 3)] == F(1, 5)
        assert vec[(2, 3)] == F(3, 10)
        assert vec[(3,)] == F(2, 5)
        assert vec[()] == F(1, 10)
        assert vec.as_tuple() == (
            F(1, 5), F(0), F(3, 10), F(2, 5),
            F(0), F(0), F(0), F(1, 10),
        )

    def test_permutation_applied_to_unsorted_input(self):
        xs = (F(9, 10), F(1, 5), F(1, 2))
        vec = lambda_solution_TM(xs)
        assert vec.permutation == (2, 3, 1)
        assert vec[(1, 2, 3)] == F(1, 5)
        assert vec[(1, 3)] == F(3, 10)
        assert vec[(1,)] == F(2, 5)
        assert vec[()] == F(1, 10)
        assert solves_sigma_star(vec, xs, F(1, 5))

    def test_duplicate_values(self):
        vec = lambda_solution_TM((F(1, 2), F(1, 2)))
        assert vec[(1, 2)] == F(1, 2)
        assert vec[(2,)] == F(0)
        assert vec[()] == F(1, 2)

    def test_all_zero(self):
        vec = lambda_solution_TM((F(0), F(0), F(0)))
        assert vec[()] == F(1)

    def test_vector_is_hashable_and_its_mass_read_only(self):
        # the frozen vector used to raise "unhashable type: 'dict'" on hash(),
        # and its dict let a write push the validated mass to 11/2
        vec = lambda_solution_TM([F(1, 2), F(1, 3)])
        twin = LambdaVector(2, dict(reversed(vec.components.items())), "sorted-steps", (2, 1))
        assert (twin, hash(twin)) == (vec, hash(vec))
        assert vec != lambda_solution_TL([F(1, 2), F(1, 3)])
        with pytest.raises(TypeError):
            vec.components[frozenset()] = 5
        assert sum(vec.as_tuple()) == 1 and vec[()] == F(1, 2)

    @given(st.lists(rational_unit, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_solves_upper_boundary_system_exactly(self, xs):
        vec = lambda_solution_TM(xs)
        assert solves_sigma_star(vec, xs, upper_envelope(xs))


def test_sigma_star_oracle_checks_every_equation():
    """Every Sigma* equation the oracle is written from is checked: on the
    explicit solutions at either Frechet bound, n = 1..5, moving one entry by
    1/100 breaks the normalization, moving one entry's 1/100 onto another
    breaks a member's equation, and moving the overall value breaks the full
    set's; a solution of every equality with negative entries fails too."""
    step = F(1, 100)
    rng = random.Random(2029)
    for n in range(1, 6):
        for _ in range(6):
            xs = tuple(F(rng.randint(0, 12), 12) for _ in range(n))
            for builder, overall in zip(
                (lambda_solution_TL, lambda_solution_TM), frechet_bounds_conjunction(xs)
            ):
                masses = builder(xs).as_tuple()
                assert sigma_star_solves(masses, xs, overall)
                for moved in (step, -step):
                    assert not sigma_star_solves(masses, xs, overall + moved)
                for i, j in itertools.permutations(range(len(masses)), 2):
                    single = [*masses]
                    single[i] += step
                    assert not sigma_star_solves(single, xs, overall)
                    single[j] -= step
                    assert not sigma_star_solves(single, xs, overall)
    # lambda = (z, y - z, x - z, 1 - x - y + z) meets every equality at z > min(x, y)
    q = F(1, 4)
    assert not sigma_star_solves((2 * q, -q, -q, F(1)), (q, q), 2 * q)


class TestLambdaVector:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            LambdaVector(1, {frozenset([1]): F(3, 2), frozenset(): F(-1, 2)})

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            LambdaVector(1, {frozenset([1]): F(1, 2), frozenset(): F(1, 4)})

    def test_rejects_foreign_key(self):
        with pytest.raises(ValueError):
            LambdaVector(1, {frozenset([1, 2]): F(1)})

    def test_labels_order(self):
        vec = lambda_solution_TM((F(1, 2), F(1, 2)))
        assert vec.labels() == ("12", "1~2", "12~", "1~2~")


def full_family7_system(a: Family7Assessment) -> bool:
    """Every inequality of the worked three-event system, kept for redundancy."""
    pairs = (
        (a.x_12, a.x_1, a.x_2, a.x_13, a.x_23, a.x_3),
        (a.x_13, a.x_1, a.x_3, a.x_12, a.x_23, a.x_2),
        (a.x_23, a.x_2, a.x_3, a.x_12, a.x_13, a.x_1),
    )
    for x_ij, x_i, x_j, x_ik, x_jk, x_k in pairs:
        if not max(F(0), x_i + x_j - 1, x_ik + x_jk - x_k) <= x_ij <= min(x_i, x_j):
            return False
    if 1 - a.x_1 - a.x_2 - a.x_3 + a.x_12 + a.x_13 + a.x_23 < 0:
        return False
    lower = max(
        F(0),
        a.x_12 + a.x_13 - a.x_1,
        a.x_12 + a.x_23 - a.x_2,
        a.x_13 + a.x_23 - a.x_3,
    )
    upper = min(
        a.x_12, a.x_13, a.x_23,
        1 - a.x_1 - a.x_2 - a.x_3 + a.x_12 + a.x_13 + a.x_23,
    )
    return lower <= a.x_123 <= upper


class TestCheckFamily7:
    def test_known_incoherent_lower_boundary_tuple(self):
        a = Family7Assessment(
            F(1, 2), F(3, 5), F(7, 10), F(1, 10), F(1, 5), F(3, 10), F(0)
        )
        verdict = check_family7(a)
        assert not verdict.coherent
        assert verdict.lower == F(0)
        assert verdict.upper == F(-1, 5)
        assert "no triple value" in verdict.failure

    def test_failure_side_reported(self):
        base = (F(1, 2), F(1, 2), F(1, 2), F(3, 8), F(3, 8), F(3, 8))
        low = check_family7(Family7Assessment(*base, F(0)))
        high = check_family7(Family7Assessment(*base, F(1, 2)))
        ok = check_family7(Family7Assessment(*base, F(5, 16)))
        assert not low.coherent and "below lower bound" in low.failure
        assert not high.coherent and "above upper bound" in high.failure
        assert ok.coherent and ok.failure is None
        assert (ok.lower, ok.upper) == (F(1, 4), F(3, 8))

    @given(rational_unit, rational_unit, rational_unit)
    @settings(max_examples=200, deadline=None)
    def test_all_min_and_all_product_always_coherent(self, x_1, x_2, x_3):
        assert check_family7(Family7Assessment.all_min(x_1, x_2, x_3)).coherent
        assert check_family7(Family7Assessment.all_product(x_1, x_2, x_3)).coherent

    @given(st.tuples(*[rational_unit] * 7))
    @settings(max_examples=300, deadline=None)
    def test_reduced_check_matches_full_system(self, values):
        a = Family7Assessment(*values)
        assert check_family7(a).coherent == full_family7_system(a)


class TestExtensionIntervalFamily7:
    def test_empty_when_six_values_incoherent(self):
        lower, upper = family7_bounds(
            F(1, 2), F(3, 5), F(7, 10), F(1, 10), F(1, 5), F(3, 10)
        )
        assert lower > upper

    def test_degenerate_all_ones(self):
        assert family7_bounds(1, 1, 1, 1, 1, 1) == (F(1), F(1))

    def test_point_interval(self):
        interval = family7_bounds(
            F(9, 10), F(4, 5), F(9, 10), F(7, 10), F(4, 5), F(7, 10)
        )
        assert interval == (F(3, 5), F(3, 5))

    def test_matches_bounds_helper(self):
        six = (F(1, 2), F(1, 2), F(1, 2), F(1, 4), F(1, 4), F(1, 4))
        verdict = check_family7(Family7Assessment(*six, F(1, 8)))
        assert (verdict.lower, verdict.upper) == family7_bounds(*six)

    @given(rational_unit, rational_unit, rational_unit)
    @settings(max_examples=200, deadline=None)
    def test_lukasiewicz_pairs_with_large_sum_pin_the_triple(self, x_1, x_2, x_3):
        total = x_1 + x_2 + x_3
        if total < 2:
            return
        interval = family7_bounds(
            x_1, x_2, x_3,
            x_1 + x_2 - 1, x_1 + x_3 - 1, x_2 + x_3 - 1,
        )
        assert interval == (total - 2, total - 2)


class TestSpecialCaseSameConsequent:
    def test_worked_example_overlapping(self):
        assert special_case_same_consequent(F(7, 20), F(9, 20)) == (
            F(63, 400), F(7, 20)
        )

    def test_worked_example_halves(self):
        assert special_case_same_consequent(F(1, 2), F(1, 2)) == (F(1, 4), F(1, 2))

    def test_disjoint_antecedents_pin_to_product(self):
        assert special_case_same_consequent(
            F(1, 2), F(1, 2), disjoint_antecedents=True
        ) == (F(1, 4), F(1, 4))
        assert special_case_same_consequent(
            F(7, 20), F(9, 20), disjoint_antecedents=True
        ) == (F(63, 400), F(63, 400))

    @given(rational_unit, rational_unit)
    @settings(max_examples=200, deadline=None)
    def test_interval_is_ordered_and_inside_unit(self, x, y):
        lo, hi = special_case_same_consequent(x, y)
        assert 0 <= lo <= hi <= 1


class TestLukasiewiczSufficient:
    def test_large_sum_coherent(self):
        assert (
            lukasiewicz_sufficient(F(9, 10), F(4, 5), F(9, 10))
            is SufficiencyVerdict.COHERENT
        )

    def test_pairwise_heavy_but_small_sum_incoherent(self):
        assert (
            lukasiewicz_sufficient(F(1, 2), F(3, 5), F(7, 10))
            is SufficiencyVerdict.INCOHERENT
        )

    def test_small_values_undetermined_then_full_check_accepts(self):
        xs = (F(3, 10), F(3, 10), F(3, 10))
        assert lukasiewicz_sufficient(*xs) is SufficiencyVerdict.UNDETERMINED
        assert check_family7(Family7Assessment.all_lukasiewicz(*xs)).coherent

    def test_boundary_sum_exactly_two(self):
        assert (
            lukasiewicz_sufficient(F(1), F(1, 2), F(1, 2))
            is SufficiencyVerdict.COHERENT
        )

    @given(rational_unit, rational_unit, rational_unit)
    @settings(max_examples=300, deadline=None)
    def test_never_contradicts_full_check(self, x_1, x_2, x_3):
        verdict = lukasiewicz_sufficient(x_1, x_2, x_3)
        full = check_family7(Family7Assessment.all_lukasiewicz(x_1, x_2, x_3))
        if verdict is SufficiencyVerdict.COHERENT:
            assert full.coherent
        elif verdict is SufficiencyVerdict.INCOHERENT:
            assert not full.coherent


def test_named_tnorms_match_the_handwritten_formulas():
    """The closed forms and the Frechet bounds take min, product and
    Lukasiewicz from frank.tnorm, and the signature order is counted in
    binary; each equals the formula it replaced, in Fractions."""

    def same(got, expected):
        assert got == expected
        assert all(type(v) is Fraction for v in got)

    for n in range(1, 9):
        assert conjunction_signatures(n) == sorted_conjunction_signatures(n)
    eighth = [F(k, 8) for k in range(9)]
    for xs in itertools.product(eighth, repeat=3):
        for kind, build in (
            (FrankKind.MIN, Family7Assessment.all_min),
            (FrankKind.PRODUCT, Family7Assessment.all_product),
            (FrankKind.LUKASIEWICZ, Family7Assessment.all_lukasiewicz),
        ):
            same(build(*xs).values(), hand_family7(kind, *xs).values())
        same(frechet_bounds_conjunction(xs), hand_frechet_conjunction(xs))
        same(frechet_bounds_disjunction(xs), hand_frechet_disjunction(xs))
        for disjoint in (False, True):
            same(
                special_case_same_consequent(*xs[:2], disjoint),
                hand_same_consequent(*xs[:2], disjoint),
            )
    rng = random.Random(15)
    pool = [F(0), F(1)] + [F(k, d) for d in (2, 3, 5, 8) for k in range(1, d)]
    cases = set()
    for _ in range(1500):
        xs = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            ones = rng.randint(1, len(xs))
            xs[:ones] = [F(1)] * ones
        vector, expected = lambda_solution_TL(xs), prefix_sum_lambda_solution_TL(xs)
        assert vector.case == expected.case
        same(vector.as_tuple(), expected.as_tuple())
        cases.add(vector.case)
    assert cases == {"single", "a", "b", "c", "d", "e", "f"}


# -1/10^400, whose 400-digit denominator an error line echoes abridged
TINY_NEGATIVE = F(-1, 10**400)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: family7_bounds(x, 0, 0, 0, 0, 0),
        lambda x: Family7Assessment(0, 0, 0, 0, 0, 0, x),
        lambda x: lukasiewicz_sufficient(0, x, 0),
        lambda x: special_case_same_consequent(x, 0),
        lambda x: lambda_solution_TL((F(1, 2), x)),
        lambda x: lambda_solution_TM((x, F(1, 2))),
        lambda x: CompoundPrevisionMap({(1,): x}),
    ],
    ids=["family7_bounds", "Family7Assessment", "lukasiewicz_sufficient",
         "special_case_same_consequent", "TL", "TM", "CompoundPrevisionMap"],
)
def test_an_out_of_range_value_is_echoed_abridged(call):
    with pytest.raises(OutOfRange) as refused:
        call(TINY_NEGATIVE)
    assert len(str(refused.value)) < 200
