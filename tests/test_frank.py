"""Tests for the parametric t-norm/t-conorm family."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prevision import OutOfRange, TargetOutOfBounds
from prevision.frank import (
    FrankKind,
    FrankParameter,
    frechet_bounds_conjunction,
    frechet_bounds_disjunction,
    solve_lambda,
    sum_rule_disjunction,
    tconorm,
    tnorm,
)

# reference values computed with a 50-digit arbitrary-precision evaluation of
# the closed form before this module was written; frozen here
T2_HALF_HALF = 0.228446696836388027
T2_03_07 = 0.194529369515090278
THALF_04_08 = 0.333035569197927472
T2_05_06_07 = 0.180663106714986227
S2_03_04 = 0.597204197968027582
TLIM_LOW_03_07 = 0.299721438508568009   # lambda = 1e-6
TLIM_HIGH_03_07 = 0.049593559782184629  # lambda = 1e6
TNEAR1_1E9_04_07 = 0.279999999974800000
TNEAR1_1E7_04_07 = 0.279999997480000123
LAMBDA_05_06_T035 = 0.179220769921625387
LAMBDA_05_06_T020 = 45.716114855422844
LAMBDA_05_06_07_T025 = 0.396143636128608405

MIN = FrankParameter.min()
PRODUCT = FrankParameter.product()
LUK = FrankParameter.lukasiewicz()


def test_parameter_validation():
    for bad in (0, 1, -2, math.inf, math.nan):
        with pytest.raises(OutOfRange):
            FrankParameter.generic(bad)
    with pytest.raises(ValueError):
        FrankParameter(FrankKind.MIN, 2.0)
    assert FrankParameter.from_value(0) == FrankParameter.from_value(F(0)) == MIN
    assert FrankParameter.from_value(1.0) == FrankParameter.from_value(F(2, 2)) == PRODUCT
    assert FrankParameter.from_value(math.inf) == LUK
    assert FrankParameter.from_value(2.5).kind is FrankKind.GENERIC
    with pytest.raises(OutOfRange):
        FrankParameter.from_value(-1)


@pytest.mark.parametrize(
    "value, message",
    [
        (F(1, 10**400), "is not 0 but rounds to it as a float"),
        (F(10**400 + 1, 10**400), "is not 1 but rounds to it as a float"),
        (10**400, "is too large for a float"),
        (F(10**400), "is too large for a float"),
    ],
    ids=["rounds-to-0", "rounds-to-1", "int-past-float", "fraction-past-float"],
)
def test_parameter_no_float_holds_is_refused(value, message):
    # these read as min, product and a raw OverflowError
    with pytest.raises(OutOfRange, match=message):
        FrankParameter.from_value(value)


def test_named_kinds_exact_on_rationals():
    xs = (F(1, 2), F(3, 5), F(7, 10))
    assert tnorm(MIN, xs) == F(1, 2)
    assert tnorm(PRODUCT, xs) == F(21, 100)
    assert tnorm(LUK, xs) == F(0)
    assert isinstance(tnorm(LUK, xs), F)
    assert tnorm(LUK, (F(9, 10), F(4, 5), F(9, 10))) == F(3, 5)
    assert tconorm(PRODUCT, (F(3, 10), F(2, 5))) == F(29, 50)
    assert tconorm(LUK, (F(3, 5), F(7, 10))) == F(1)
    assert tconorm(MIN, (F(1, 5), F(9, 10))) == F(9, 10)


def test_argument_one_is_dropped_for_every_kind():
    for p in (MIN, PRODUCT, LUK, FrankParameter.generic(2.0), FrankParameter.generic(0.3)):
        assert tnorm(p, (0.37, 1.0)) == 0.37
        assert tnorm(p, (1.0, 1.0)) == 1
    assert tnorm(FrankParameter.generic(5.0), (0.0, 0.8)) == 0


def test_arguments_validated():
    with pytest.raises(OutOfRange):
        tnorm(PRODUCT, ())
    with pytest.raises(OutOfRange):
        tnorm(PRODUCT, (F(3, 2),))
    with pytest.raises(OutOfRange):
        tconorm(MIN, (-0.1, 0.5))


def test_frozen_generic_values():
    assert abs(tnorm(FrankParameter.generic(2.0), (0.5, 0.5)) - T2_HALF_HALF) < 1e-13
    assert abs(tnorm(FrankParameter.generic(2.0), (0.3, 0.7)) - T2_03_07) < 1e-13
    assert abs(tnorm(FrankParameter.generic(0.5), (0.4, 0.8)) - THALF_04_08) < 1e-13
    assert abs(tnorm(FrankParameter.generic(2.0), (0.5, 0.6, 0.7)) - T2_05_06_07) < 1e-13
    assert abs(tconorm(FrankParameter.generic(2.0), (0.3, 0.4)) - S2_03_04) < 1e-13


def test_near_product_window():
    # 1e-7 away from 1 stays on the log-domain path, 1e-9 uses the expansion
    outside = FrankParameter.generic(1 + 1e-7)
    inside = FrankParameter.generic(1 + 1e-9)
    assert abs(tnorm(outside, (0.4, 0.7)) - TNEAR1_1E7_04_07) < 1e-13
    assert abs(tnorm(inside, (0.4, 0.7)) - TNEAR1_1E9_04_07) < 1e-13


def test_extreme_parameters_inside_horizon():
    assert abs(tnorm(FrankParameter.generic(1e-6), (0.3, 0.7)) - TLIM_LOW_03_07) < 1e-12
    assert abs(tnorm(FrankParameter.generic(1e6), (0.3, 0.7)) - TLIM_HIGH_03_07) < 1e-12


def test_beyond_horizon_uses_named_formulas():
    far = FrankParameter.generic(math.exp(41))
    assert tnorm(far, (0.7, 0.8)) == max(0.0, 0.7 + 0.8 - 1)
    assert tnorm(far, (0.2, 0.3)) == 0.0
    near_zero = FrankParameter.generic(math.exp(-41))
    assert tnorm(near_zero, (0.7, 0.2)) == 0.2


LIMIT_LOW_POINTS = [  # min-gap at least 0.35, so the 1e-3 window is attainable
    (0.3, 0.7), (0.1, 0.6), (0.2, 0.9), (0.05, 0.5),
    (0.1, 0.5, 0.95), (0.15, 0.6, 0.99),
]
LIMIT_HIGH_POINTS = [  # sum stays 0.35 away from the lower-bound kink
    (0.3, 0.3), (0.2, 0.4), (0.8, 0.7), (0.9, 0.6), (0.1, 0.2),
    (0.9, 0.8, 0.9), (0.2, 0.3, 0.2), (0.55, 0.85),
]


def test_limit_continuity_with_margin():
    for xs in LIMIT_LOW_POINTS:
        assert abs(tnorm(FrankParameter.generic(1e-6), xs) - min(xs)) < 1e-3
    for xs in LIMIT_HIGH_POINTS:
        lower = max(0.0, sum(xs) - (len(xs) - 1))
        assert abs(tnorm(FrankParameter.generic(1e6), xs) - lower) < 1e-3


def test_frechet_bounds_exact():
    assert frechet_bounds_conjunction((F(1, 2), F(3, 5), F(7, 10))) == (F(0), F(1, 2))
    assert frechet_bounds_disjunction((F(1, 2), F(3, 5), F(7, 10))) == (F(7, 10), F(1))
    assert frechet_bounds_conjunction((F(1), F(1))) == (F(1), F(1))
    assert frechet_bounds_conjunction((F(7, 20), F(9, 20))) == (F(0), F(7, 20))
    assert frechet_bounds_disjunction((F(7, 20), F(9, 20))) == (F(9, 20), F(4, 5))
    assert frechet_bounds_conjunction((F(9, 10), F(4, 5), F(9, 10))) == (F(3, 5), F(4, 5))
    with pytest.raises(OutOfRange):
        frechet_bounds_conjunction((F(3, 2),))


def test_sum_rule():
    assert sum_rule_disjunction(F(7, 20), F(9, 20), F(1, 5)) == F(3, 5)
    assert sum_rule_disjunction(1, 1, 1) == 1
    for p in (MIN, PRODUCT, LUK):
        x, y = F(2, 5), F(3, 4)
        assert sum_rule_disjunction(x, y, tnorm(p, (x, y))) == tconorm(p, (x, y))
    x, y = 0.4, 0.75
    z = tnorm(FrankParameter.generic(2.0), (x, y))
    assert abs(sum_rule_disjunction(x, y, z) - tconorm(FrankParameter.generic(2.0), (x, y))) < 1e-14


def test_solve_lambda_named_targets():
    param, unique = solve_lambda((F(1, 2), F(1, 2)), F(1, 4))
    assert param == PRODUCT and unique
    param, unique = solve_lambda((F(1, 2), F(1, 2)), F(1, 2))
    assert param == MIN and unique
    param, unique = solve_lambda((F(1, 2), F(1, 2)), F(0))
    assert param == LUK and unique


def test_solve_lambda_degenerate_tuples():
    param, unique = solve_lambda((F(1, 2), F(1)), F(1, 2))
    assert param == PRODUCT and not unique
    param, unique = solve_lambda((F(0), F(3, 10)), F(0))
    assert param == PRODUCT and not unique


def test_solve_lambda_out_of_bounds():
    with pytest.raises(TargetOutOfBounds):
        solve_lambda((F(1, 2), F(3, 5)), F(1, 20))
    with pytest.raises(TargetOutOfBounds):
        solve_lambda((F(1, 2), F(3, 5)), F(11, 20))


def test_solve_lambda_frozen_interior_targets():
    cases = [
        ((0.5, 0.6), 0.35, LAMBDA_05_06_T035),
        ((0.5, 0.6), 0.2, LAMBDA_05_06_T020),
        ((0.5, 0.6, 0.7), 0.25, LAMBDA_05_06_07_T025),
    ]
    for xs, target, expected in cases:
        param, unique = solve_lambda(xs, target)
        assert unique and param.kind is FrankKind.GENERIC
        assert abs(math.log(param.value) - math.log(expected)) < 1e-9
        assert abs(tnorm(param, xs) - target) < 1e-12


def test_solve_lambda_sliver_targets_round_to_named_kinds():
    xs = (F(1, 2), F(3, 5))
    param, unique = solve_lambda(xs, F(1, 10) + F(1, 10**12))
    assert param == LUK and unique
    param, unique = solve_lambda(xs, F(1, 2) - F(1, 10**12))
    assert param == MIN and unique


unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
xs_lists = st.lists(unit_floats, min_size=2, max_size=4)
log_params = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


def param_from_log(t):
    return FrankParameter.from_value(math.exp(t))


@settings(max_examples=200, deadline=None)
@given(xs_lists, log_params, log_params)
def test_monotone_decreasing_in_parameter(xs, t1, t2):
    t1, t2 = sorted((t1, t2))
    lo = tnorm(param_from_log(t1), xs)
    hi = tnorm(param_from_log(t2), xs)
    assert lo >= hi - 1e-12
    assert tnorm(MIN, xs) >= lo - 1e-12
    assert hi >= tnorm(LUK, xs) - 1e-12


@settings(max_examples=200, deadline=None)
@given(xs_lists, log_params)
def test_envelope(xs, t):
    value = tnorm(param_from_log(t), xs)
    lower, upper = frechet_bounds_conjunction([F(x) for x in xs])
    assert float(lower) - 1e-12 <= value <= float(upper) + 1e-12


@settings(max_examples=200, deadline=None)
@given(unit_floats, unit_floats, log_params)
def test_duality(x, y, t):
    param = param_from_log(t)
    assert abs(tconorm(param, (x, y)) - (x + y - tnorm(param, (x, y)))) < 1e-12
    for named in (MIN, PRODUCT, LUK):
        assert abs(tconorm(named, (x, y)) - (x + y - tnorm(named, (x, y)))) < 1e-12


@settings(max_examples=200, deadline=None)
@given(xs_lists, log_params)
def test_nary_extends_binary_associatively(xs, t):
    param = param_from_log(t)
    nested = tnorm(param, (tnorm(param, xs[:-1]), xs[-1]))
    assert abs(tnorm(param, xs) - nested) < 1e-12


unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=20)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(unit_fractions, min_size=2, max_size=4),
    st.lists(unit_fractions, min_size=4, max_size=4),
)
def test_lower_bound_convex_upper_bound_concave(a, b):
    b = b[: len(a)]
    mid = [(p + q) / 2 for p, q in zip(a, b)]
    tl = lambda xs: frechet_bounds_conjunction(xs)[0]
    tm = lambda xs: frechet_bounds_conjunction(xs)[1]
    assert tl(mid) <= (tl(a) + tl(b)) / 2
    assert tm(mid) >= (tm(a) + tm(b)) / 2
