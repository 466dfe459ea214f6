"""Tests for the exact feasibility and optimization solver."""

import gc
import itertools
import math
import random
import weakref
from copy import deepcopy
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    DenseSimplex,
    FractionSimplex,
    basic_feasible_points,
    dense_maximize_linear,
    dense_solve_feasibility,
    fraction_check_solution,
    fraction_maximize_linear,
    fraction_rows,
    fraction_solve_feasibility,
    fraction_system,
    fraction_verify_certificate,
    fraction_verify_optimum,
    integer_verify_certificate,
    integer_verify_optimum,
    oracle_feasible,
    oracle_maximum,
    per_field_pack,
    table_rows,
)
from prevision import lp
from prevision import (
    Assessment,
    ConditionalEvent,
    InfeasibleSystem,
    build_world_space,
    frechet_bounds_conjunction,
    indicator,
    make_conjunction,
)
from prevision.geometry import (
    LinearSystem,
    build_sigma,
    scale_to_integers,
    tabulate,
)
from prevision.lp import maximize_component_sum, maximize_linear, solve_feasibility


def conditional(space, consequent, antecedent):
    return ConditionalEvent(space.event(consequent), space.event(antecedent))


def example_pair_system(x=F(3, 10), y=F(4, 5)):
    space = build_world_space(["A", "H", "K"])
    family = (
        indicator(conditional(space, "A", "H"), "A|H"),
        indicator(conditional(space, "A", "K"), "A|K"),
    )
    return build_sigma(Assessment(family, (x, y)))


def never_true_system(mu):
    # the consequent cannot happen inside the antecedent
    space = build_world_space(["E", "H"], ["!(E & H)"])
    family = (indicator(conditional(space, "E", "H"), "E|H"),)
    return build_sigma(Assessment(family, (mu,)))


def full_columns(system):
    equalities, rhs = fraction_rows(system)
    rows, rhs = [list(r) for r in equalities], list(rhs)
    if system.normalization:
        rows.append([F(1)] * system.n_unknowns)
        rhs.append(F(1))
    cols = [tuple(row[j] for row in rows) for j in range(system.n_unknowns)]
    return cols, tuple(rhs)


def assert_valid_certificate(system, cert):
    if cert.feasible:
        assert cert.solution is not None and cert.dual is None
        assert fraction_check_solution(system, cert.solution)
    else:
        assert cert.solution is None and cert.dual is not None
        cols, rhs = full_columns(system)
        assert len(cert.dual) == len(rhs)
        assert cert.margin > 0
        for col in cols:
            assert sum(u * a for u, a in zip(cert.dual, col)) <= 0
        assert sum(u * b for u, b in zip(cert.dual, rhs)) == cert.margin


def test_overlapping_pair_is_feasible():
    system = example_pair_system()
    cert = solve_feasibility(system)
    assert cert.feasible
    assert_valid_certificate(system, cert)


def test_never_true_consequent_infeasible_with_certificate():
    system = never_true_system(F(1, 2))
    cert = solve_feasibility(system)
    assert not cert.feasible
    assert_valid_certificate(system, cert)
    # the certificate prices every constituent point below the assessment
    equalities, rhs = fraction_rows(system)
    points = [row for row in zip(*equalities)] or [()]
    y = [-u for u in cert.dual[:-1]]
    for point in points:
        gain = sum((q - mu) * s for q, mu, s in zip(point, rhs, y))
        assert gain >= cert.margin


def test_never_true_consequent_zero_is_fine():
    cert = solve_feasibility(never_true_system(F(0)))
    assert cert.feasible


def test_constant_one_quantity():
    space = build_world_space(["H"])
    family = (indicator(conditional(space, "H", "H"), "H|H"),)
    good = build_sigma(Assessment(family, (F(1),)))
    assert solve_feasibility(good).feasible
    bad = build_sigma(Assessment(family, (F(1, 2),)))
    cert = solve_feasibility(bad)
    assert not cert.feasible
    assert_valid_certificate(bad, cert)


def test_component_sums_on_the_pair():
    system = example_pair_system()
    # labels: ++, +0, --, -0, 0+, 0-
    in_first = [0, 1, 2, 3]
    in_second = [0, 2, 4, 5]
    for index_set in (in_first, in_second):
        result = maximize_component_sum(system, index_set)
        assert result.value == 1
        assert fraction_check_solution(system, result.solution)
        assert oracle_maximum(
            system, [1 if j in index_set else 0 for j in range(6)]
        ) == 1
    assert maximize_component_sum(system, []).value == 0


def reduced_pair_system(x, y, z):
    """Sigma* of two conditional events valued x and y and their conjunction
    valued z, over the blocks where both antecedents hold: one unknown per
    member subset S, in the order {1, 2}, {2}, {1}, {}, then the rows of
    member 1, member 2 and the conjunction."""
    one, zero = F(1), F(0)
    return fraction_system(
        ((one, zero, one, zero), (one, one, zero, zero), (one, zero, zero, zero)),
        (x, y, z),
        ("12", "1~2", "12~", "1~2~"),
    )


def test_pinned_reduced_system_optima():
    x, y, z = F(7, 20), F(9, 20), F(1, 5)
    system = reduced_pair_system(x, y, z)
    expected = {0: z, 1: y - z, 2: x - z, 3: 1 - x - y + z}
    for j, value in expected.items():
        result = maximize_component_sum(system, [j])
        assert result.value == value
        objective = [1 if i == j else 0 for i in range(4)]
        assert oracle_maximum(system, objective) == value


def test_maximize_on_infeasible_system_raises():
    with pytest.raises(InfeasibleSystem):
        maximize_component_sum(never_true_system(F(1, 2)), [0])


def x_plus_y_is_one():
    return fraction_system(((F(1), F(1)),), (F(1),), ("x", "y"), normalization=False)


def test_maximize_checks_the_refutation_before_calling_a_system_infeasible(monkeypatch):
    """A non-zero phase-1 residual whose refutation fails its check is an
    internal fault on both solve paths, not an infeasible system."""
    monkeypatch.setattr(lp._Simplex, "residual", lambda self: (1, 1))
    with pytest.raises(RuntimeError):
        solve_feasibility(x_plus_y_is_one())
    with pytest.raises(RuntimeError):
        maximize_linear(x_plus_y_is_one(), [1, 0])


def test_objectives_refuse_floats():
    with pytest.raises(TypeError, match="float"):
        maximize_linear(x_plus_y_is_one(), [0.1, 0])
    assert maximize_linear(x_plus_y_is_one(), ["1/10", 0]).value == F(1, 10)


def test_unbounded_direction_is_reported():
    free = fraction_system(
        ((F(0),),), (F(0),), ("x",), normalization=False
    )
    result = maximize_linear(free, (F(1),))
    assert not result.bounded and result.value is None
    capped = fraction_system(
        ((F(1), F(1)),), (F(1),), ("x", "y"), normalization=False
    )
    result = maximize_linear(capped, (F(1), F(0)))
    assert result.bounded and result.value == 1


def test_redundant_rows_are_tolerated():
    system = fraction_system(
        ((F(1), F(1)), (F(1), F(1)), (F(2), F(2))),
        (F(1), F(1), F(2)),
        ("x", "y"),
    )
    cert = solve_feasibility(system)
    assert cert.feasible
    result = maximize_component_sum(system, [0])
    assert result.value == 1


def test_row_permutation_invariance():
    base = example_pair_system()
    rng = random.Random(7)
    rows = list(zip(*fraction_rows(base)))
    for _ in range(5):
        rng.shuffle(rows)
        shuffled = fraction_system(
            tuple(r for r, _ in rows), tuple(b for _, b in rows), base.unknown_labels
        )
        assert solve_feasibility(shuffled).feasible
    bad = never_true_system(F(2, 3))
    cert = solve_feasibility(bad)
    assert not cert.feasible


small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=4)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=6)


@st.composite
def random_systems(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=3))
    rows = tuple(
        tuple(draw(small_fractions) for _ in range(m)) for _ in range(k)
    )
    rhs = tuple(draw(small_fractions) for _ in range(k))
    labels = tuple(f"x{j}" for j in range(m))
    return fraction_system(rows, rhs, labels)


@settings(max_examples=120, deadline=None)
@given(random_systems())
def test_feasibility_matches_bruteforce(system):
    cert = solve_feasibility(system)
    assert cert.feasible == oracle_feasible(system)
    assert_valid_certificate(system, cert)


@settings(max_examples=120, deadline=None)
@given(random_systems(), st.sets(st.integers(min_value=0, max_value=4)))
def test_maxima_match_bruteforce(system, index_set):
    index_set = {j for j in index_set if j < system.n_unknowns}
    objective = [1 if j in index_set else 0 for j in range(system.n_unknowns)]
    reference = oracle_maximum(system, objective)
    if reference is None:
        with pytest.raises(InfeasibleSystem):
            maximize_component_sum(system, index_set)
    else:
        result = maximize_component_sum(system, index_set)
        assert result.value == reference
        assert fraction_check_solution(system, result.solution)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(unit_fractions, min_size=2, max_size=2),
    unit_fractions,
)
def test_reduced_system_feasibility_matches_bruteforce(xs, overall):
    system = reduced_pair_system(*xs, overall)
    cert = solve_feasibility(system)
    assert cert.feasible == oracle_feasible(system)
    assert_valid_certificate(system, cert)


# --- differential tests against the Fraction tableau ------------------------

DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 12)


def _rational(rng, span=3):
    d = rng.choice(DENOMINATORS)
    return F(rng.randint(-span * d, span * d), d)


def differential_systems(seed=11, count=300):
    """Random systems with negative right-hand sides (row flips), mixed
    denominators, redundant rows, infeasible ones, and unnormalized ones
    with unbounded objectives."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 7)
        k = rng.randint(1, 4)
        rows = [[_rational(rng) if rng.random() < 0.7 else F(0) for _ in range(m)]
                for _ in range(k)]
        rhs = [_rational(rng) for _ in range(k)]
        if rng.random() < 0.3:
            # a redundant row: a rational combination of two existing rows
            i, j = rng.randrange(k), rng.randrange(k)
            a, b = _rational(rng), _rational(rng)
            rows.append([a * u + b * v for u, v in zip(rows[i], rows[j])])
            rhs.append(a * rhs[i] + b * rhs[j])
        if rng.random() < 0.3:
            # a planted non-negative point keeps the system feasible
            x = [F(rng.randint(0, 4), rng.choice(DENOMINATORS)) for _ in range(m)]
            rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
        normalization = rng.random() < 0.6
        objective = [_rational(rng) for _ in range(m)]
        yield fraction_system(
            tuple(map(tuple, rows)), tuple(rhs), tuple(f"x{j}" for j in range(m)),
            normalization=normalization,
        ), objective


def assert_certifies_optimum(system, result, objective):
    cols, rhs = full_columns(system)
    for col, c in zip(cols, objective):
        assert sum(y * a for y, a in zip(result.dual, col)) >= c
    assert sum(y * b for y, b in zip(result.dual, rhs)) == result.value


def test_integer_tableau_matches_fraction_tableau():
    kinds = set()
    for system, objective in differential_systems():
        cert = solve_feasibility(system)
        assert cert == fraction_solve_feasibility(system)
        reference = fraction_maximize_linear(system, objective)
        if reference is None:
            kinds.add("infeasible")
            with pytest.raises(InfeasibleSystem):
                maximize_linear(system, objective)
            continue
        result = maximize_linear(system, objective)
        assert (result.value, result.solution, result.bounded) == (
            reference.value, reference.solution, reference.bounded
        )
        if result.bounded:
            kinds.add("optimum")
            assert_certifies_optimum(system, result, objective)
        else:
            kinds.add("unbounded")
            assert result.dual is None
        if any(b < 0 for b in fraction_rows(system)[1]):
            kinds.add("flipped")
    assert kinds == {"infeasible", "optimum", "unbounded", "flipped"}


class CheckedSimplex(lp._Simplex):
    """Runs the dense integer tableau of `DenseSimplex` in lockstep: each
    pivot must divide exactly, enter the tableau's column with its cost-row
    entry, and leave E, beta and the cost row equal to the tableau's
    artificial columns, rhs column and cost row."""

    def __init__(self, system):
        super().__init__(system)
        self.oracle = DenseSimplex(system.rows, system.scales)
        self.pivots = []
        self.negative_pivots = 0

    def copy(self):
        twin = super().copy()
        twin.oracle = deepcopy(self.oracle)
        twin.pivots = list(self.pivots)
        return twin

    def _set_costs(self, costs, cost_scale):
        super()._set_costs(costs, cost_scale)
        self.oracle._set_costs(costs, cost_scale)
        self.assert_matches_oracle()

    def _pivot(self, r, c, alpha, z):
        T, k = self.oracle.T, self.k
        assert alpha == [T[i][c] for i in range(k)] and z == T[k][c]
        self.negative_pivots += alpha[r] < 0
        sign = -1 if alpha[r] < 0 else 1
        p, D = sign * alpha[r], self.D
        pivot_row = [sign * v for v in self.E[r] + [self.beta[r]]]
        others = [
            (f, E + [b])
            for i, (f, E, b) in enumerate(zip(alpha, self.E, self.beta))
            if i != r
        ]
        for f, row in others + [(z, self.w + [self.z0])]:
            assert all((p * v - f * u) % D == 0 for v, u in zip(row, pivot_row))
        super()._pivot(r, c, alpha, z)
        self.oracle._pivot(r, c)
        self.pivots.append((r, c))
        self.assert_matches_oracle()

    def assert_matches_oracle(self):
        """The tableau flips row r by f_r, so its artificial columns are E
        with column r times f_r, and the cost row's artificial part is
        w - D c_art with the same flips."""
        T, m, k, flip = self.oracle.T, self.m, self.k, self.oracle.flip
        assert self.D == self.oracle.D > 0
        assert self.basis == self.oracle.basis
        for i in range(k):
            assert [e * f for e, f in zip(self.E[i], flip)] == T[i][m:m + k]
            assert self.beta[i] == T[i][-1]
        z = T[k]
        assert [w * f for w, f in zip(self.w, flip)] == [
            v + self.D * c for v, c in zip(z[m:m + k], self.costs[m:])
        ]
        assert self.z0 == z[-1]


class RecordingFractionSimplex(FractionSimplex):
    def __init__(self, rows, rhs):
        super().__init__(rows, rhs)
        self.pivots = []

    def _pivot(self, r, c):
        super()._pivot(r, c)
        self.pivots.append((r, c))


class RecordingDenseSimplex(DenseSimplex):
    def __init__(self, rows, scales):
        super().__init__(rows, scales)
        self.pivots = []

    def _pivot(self, r, c):
        super()._pivot(r, c)
        self.pivots.append((r, c))


def conjunction_family(n, xs):
    """E_i|H_i, i = 1..n, over 2n unconstrained atoms, and their conjunction
    with product sub-previsions."""
    space = build_world_space(
        [f"E{i}" for i in range(1, n + 1)] + [f"H{i}" for i in range(1, n + 1)]
    )
    events = [
        ConditionalEvent(space.event(f"E{i}"), space.event(f"H{i}"))
        for i in range(1, n + 1)
    ]
    previsions = {
        subset: math.prod(xs[i - 1] for i in subset)
        for r in range(1, n)
        for subset in itertools.combinations(range(1, n + 1), r)
    }
    members = tuple(indicator(e, f"X{i}") for i, e in enumerate(events, 1))
    return members + (make_conjunction(events, previsions, f"and({n})"),)


def conjunction_systems():
    """The solvability systems of conjunction families, n = 3..5, at and just
    outside their Frechet bounds: n + 2 rows and 3^n - 1 unknowns.  The
    objectives are the masses of the first member's and of the conjunction's
    antecedents, and minus the first."""
    for n in range(3, 6):
        xs = tuple(F(k, 5) for k in (1, 2, 3, 4, 2)[:n])
        family = conjunction_family(n, xs)
        lo, hi = frechet_bounds_conjunction(xs)
        for z in (lo, hi, lo - F(1, 1000), hi + F(1, 1000)):
            system = build_sigma(Assessment(family, xs + (z,)))
            first, last = (
                [F(label[i] != "0") for label in system.unknown_labels]
                for i in (0, n)
            )
            yield system, (first, last, [-v for v in first])


def test_pivots_divide_exactly_and_follow_the_fraction_tableau(monkeypatch):
    """The revised solver takes the same pivots as the dense integer tableau,
    which it runs in lockstep, and as the Fraction tableau: on the seeded
    random systems, and on the wide conjunction systems against the dense
    tableau only."""
    import oracles

    revised, dense, fraction, phase1_runs = [], [], [], []

    class Recording(CheckedSimplex):
        def __init__(self, system):
            super().__init__(system)
            revised.append(self)
            phase1_runs.append(system)

        def copy(self):
            twin = super().copy()
            revised.append(twin)
            return twin

    def recorder(cls, runs):
        def make(*args):
            simplex = cls(*args)
            runs.append(simplex)
            return simplex
        return make

    monkeypatch.setattr(lp, "_Simplex", Recording)
    monkeypatch.setattr(oracles, "DenseSimplex", recorder(RecordingDenseSimplex, dense))
    monkeypatch.setattr(
        oracles, "FractionSimplex", recorder(RecordingFractionSimplex, fraction)
    )
    cases = [
        (system, (objective, [-c for c in objective]), True)
        for system, objective in differential_systems()
    ] + [(system, objectives, False) for system, objectives in conjunction_systems()]
    pivots = negative_pivots = wide = 0
    for system, objectives, small in cases:
        del revised[:], dense[:], fraction[:], phase1_runs[:]
        cert = solve_feasibility(system)
        assert cert == dense_solve_feasibility(system)
        if small:
            fraction_solve_feasibility(system)
        if cert.feasible:
            for objective in objectives:
                assert maximize_linear(system, objective) == dense_maximize_linear(
                    system, objective
                )
                if small:
                    fraction_maximize_linear(system, objective)
        # one phase 1 per system; each optimum pivots a copy of its end state
        assert phase1_runs == [system]
        assert [s.pivots for s in revised] == [s.pivots for s in dense]
        if small:
            assert [s.pivots for s in revised] == [s.pivots for s in fraction]
        else:
            wide += system.n_unknowns > 4 * len(system.rows)
        pivots += sum(len(s.pivots) for s in revised)
        negative_pivots += sum(s.negative_pivots for s in revised)
    assert pivots > 400 and negative_pivots > 0 and wide == 12


def fresh_copy(system):
    """The same system as a new object, with no solver state kept on it."""
    return LinearSystem(
        system.rows, system.scales, system.unknown_labels, system.normalization
    )


def test_warm_starts_leave_the_phase1_state_unchanged(monkeypatch):
    phase1_runs = []
    phase1 = lp._Simplex.phase1

    def counted(self):
        phase1_runs.append(self)
        return phase1(self)

    monkeypatch.setattr(lp._Simplex, "phase1", counted)
    feasible = next(s for s, _ in conjunction_systems())
    infeasible = never_true_system(F(1, 2))
    for base in (feasible, infeasible):
        m = base.n_unknowns
        objectives = (
            [F(j % 3 - 1, j % 4 + 1) for j in range(m)],
            [F(1) if j % 2 else F(-2) for j in range(m)],
        )

        def run(system, op):
            if op == "feasibility":
                return solve_feasibility(system)
            try:
                return maximize_linear(system, objectives[op])
            except InfeasibleSystem:
                return "infeasible"

        ops = ("feasibility", 0, 1)
        cold = {op: run(fresh_copy(base), op) for op in ops}
        assert cold["feasibility"].feasible == (base is feasible)
        if base is feasible:
            assert cold[0].value != cold[1].value
        else:
            assert cold[0] == cold[1] == "infeasible"
        for order in itertools.permutations(ops):
            system = fresh_copy(base)
            del phase1_runs[:]
            for op in order:
                assert run(system, op) == cold[op]
            assert len(phase1_runs) == 1


# --- packed pricing on wide systems ----------------------------------------


def wide_systems(seed=5, count=12):
    """Systems of lp.PACKED_WIDTH to 63 more unknowns, which price all columns
    at once in packed integers.  Entries are negative, zero or positive; in
    every third system they pass 2^63, and in the systems after those they
    reach 2^20, so the multipliers outgrow a field in mid-solve.  Every fourth
    system has an all-zero row, two in five have no normalization, and every
    other one has a planted non-negative point."""
    rng = random.Random(seed)
    for i in range(count):
        m = lp.PACKED_WIDTH + rng.randrange(64)
        span = (1, 2 ** 20, 2 ** 70)[i % 3]
        rows = [
            [F(rng.randint(-span, span), rng.choice(DENOMINATORS)) if rng.random() < 0.5
             else F(0) for _ in range(m)]
            for _ in range(rng.randint(2, 4))
        ]
        if i % 4 == 1:
            rows[0] = [F(0)] * m
        rhs = [_rational(rng) for _ in rows]
        if i % 2:
            x = [F(0)] * m
            for j in rng.sample(range(m), 3):
                x[j] = F(1, 3)
            rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
        yield fraction_system(
            tuple(map(tuple, rows)), tuple(rhs), tuple(f"x{j}" for j in range(m)),
            normalization=i % 5 < 3,
        ), [_rational(rng) for _ in range(m)]


def test_packed_pricing_takes_the_dense_tableau_pivots_on_wide_systems(monkeypatch):
    """Each entering column of a wide system, in phase 1 and in phase 2, is
    the column the dense integer tableau run in lockstep takes from its cost
    row (the most negative entry, or Bland's after a degenerate pivot), and
    every answer equals the tableau's."""
    kinds = set()

    class Lockstep(CheckedSimplex):
        def _entering(self):
            j, z = super()._entering()
            assert j == self.oracle._entering()
            if j is not None:
                kinds.add("after a degenerate pivot" if self.degenerate else "most negative")
            if len(self.packed) > 1:
                kinds.add("field outgrown")
            return j, z

    monkeypatch.setattr(lp, "_Simplex", Lockstep)
    for system, objective in wide_systems():
        if max(abs(v) for row in system.rows for v in row) >= 2 ** 63:
            kinds.add("past 63 bits")
        if not any(system.rows[0]):
            kinds.add("zero row")
        cert = solve_feasibility(system)
        assert cert == dense_solve_feasibility(system)
        if not cert.feasible:
            kinds.add("infeasible")
            continue
        for costs in (objective, [-c for c in objective]):
            result = maximize_linear(system, costs)
            assert result == dense_maximize_linear(system, costs)
            kinds.add("optimum" if result.bounded else "unbounded")
    assert kinds == {
        "past 63 bits", "zero row", "field outgrown", "infeasible", "optimum", "unbounded",
        "most negative", "after a degenerate pivot",
    }


def degenerate_wide_systems(seed=7, count=10):
    """Wide systems built to stall.  First Chvatal's example ("Linear
    Programming", 1983, ch. 3), max 10 x1 - 57 x2 - 9 x3 - 24 x4 with slacks
    s1..s3 as unknowns, padded to lp.PACKED_WIDTH unknowns by zero columns
    of cost -1: entering the most negative reduced cost alone cycles on it,
    through six degenerate pivots.  Then random ones: a few distinct
    integer columns, each repeated across lp.PACKED_WIDTH or more unknowns,
    and right-hand sides that are zero but for one row, so that most pivots
    leave a zero basic value.  Every other one has a planted point on two
    columns instead, and one in three has no normalization.  Costs are small
    integers, with many ties."""
    pad = lp.PACKED_WIDTH - 7
    rows = (
        (F(1, 2), F(-11, 2), F(-5, 2), F(9), F(1), F(0), F(0)) + (F(0),) * pad,
        (F(1, 2), F(-3, 2), F(-1, 2), F(1), F(0), F(1), F(0)) + (F(0),) * pad,
        (F(1), F(0), F(0), F(0), F(0), F(0), F(1)) + (F(0),) * pad,
    )
    yield fraction_system(
        rows, (F(0), F(0), F(1)), tuple(f"x{j}" for j in range(lp.PACKED_WIDTH)),
        normalization=False,
    ), [F(v) for v in (10, -57, -9, -24, 0, 0, 0)] + [F(-1)] * pad
    rng = random.Random(seed)
    for i in range(count):
        k = rng.randint(3, 5)
        entries = (-2, -1, 0, 0, 1, 1, 2)
        base = [[rng.choice(entries) for _ in range(k)] for _ in range(rng.randint(3, 8))]
        m = lp.PACKED_WIDTH + rng.randrange(64)
        columns = [rng.choice(base) for _ in range(m)]
        rows = [[F(col[r]) for col in columns] for r in range(k)]
        rhs = [F(0)] * k
        rhs[rng.randrange(k)] = _rational(rng)
        if i % 2:
            x = [F(0)] * m
            for j in rng.sample(range(m), 2):
                x[j] = F(1, 2)
            rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
        yield fraction_system(
            tuple(map(tuple, rows)), tuple(rhs), tuple(f"x{j}" for j in range(m)),
            normalization=i % 3 != 0,
        ), [F(rng.randint(-2, 2)) for _ in range(m)]


def test_degenerate_wide_systems_terminate_at_the_fraction_optimum(monkeypatch):
    """On wide systems where most pivots are degenerate, every run ends, well
    inside a cap that a cycle would pass, with the Fraction tableau's
    feasibility and optimum values; the maximizers may differ, as the
    duplicated columns make optima non-unique."""
    pivots = []

    class Counting(lp._Simplex):
        def _pivot(self, r, c, alpha, z):
            super()._pivot(r, c, alpha, z)
            pivots.append(self.degenerate)
            assert len(pivots) < 2000, "the pivots cycle"

    monkeypatch.setattr(lp, "_Simplex", Counting)
    kinds = set()
    for i, (system, objective) in enumerate(degenerate_wide_systems()):
        cert = solve_feasibility(system)
        assert cert.feasible == fraction_solve_feasibility(system).feasible
        if not cert.feasible:
            kinds.add("infeasible")
            continue
        for costs in (objective, [-c for c in objective]):
            result = maximize_linear(system, costs)
            reference = fraction_maximize_linear(system, costs)
            assert (result.value, result.bounded) == (reference.value, reference.bounded)
            kinds.add("optimum" if result.bounded else "unbounded")
        if i == 0:
            assert maximize_linear(system, objective).value == 1  # Chvatal's optimum
    assert kinds == {"infeasible", "optimum", "unbounded"}
    assert sum(pivots) > len(pivots) / 2


def test_phase1_of_the_seven_member_conjunction_family_is_short(monkeypatch):
    """Phase 1 of the n = 7 conjunction family, at and just outside its
    Frechet bounds, enters the most negative reduced cost and so takes at
    most 25 pivots; Bland's rule alone took 63 inside the bounds."""
    phase1_pivots = []

    class Counting(lp._Simplex):
        def phase1(self):
            self.pivots = 0
            super().phase1()
            phase1_pivots.append(self.pivots)

        def _pivot(self, *args):
            super()._pivot(*args)
            self.pivots += 1

    monkeypatch.setattr(lp, "_Simplex", Counting)
    xs = tuple(F(k, 5) for k in (1, 2, 3, 4, 1, 2, 3))
    family = conjunction_family(7, xs)
    lo, hi = frechet_bounds_conjunction(xs)
    for z in (lo, hi, lo - F(1, 1000), hi + F(1, 1000)):
        solve_feasibility(build_sigma(Assessment(family, xs + (z,))))
    assert len(phase1_pivots) == 4
    assert max(phase1_pivots) <= 25


def test_reduced_costs_at_the_field_bound_price_exactly():
    """Reduced costs as large as the bound on the fields, 2^63 and past it,
    from the multipliers or from the costs, carry into no neighbouring field."""
    m = lp.PACKED_WIDTH
    system = LinearSystem(((1, -1) * (m // 2) + (0,),), (1,), (), normalization=False)
    simplex = lp._Simplex(system)
    for big in (2 ** 63 - 1, 2 ** 63, 2 ** 64, 2 ** 127 + 5):
        simplex._set_costs([0] * (m + 1), 1)
        for w, expected in (([big], (1, -big)), ([-big], (0, -big))):
            simplex.w = w
            assert simplex._entering() == expected
        simplex._set_costs([-big, big] + [0] * (m - 1), 1)
        assert simplex._entering() == (1, -big)


def test_packing_puts_each_value_in_its_field():
    """A packed row is sum_j v_j 2^(64 words j), for entries up to 63 bits
    at any field width and past 63 bits in fields wide enough for them."""
    small = [0, 1, -1, 2 ** 62, -(2 ** 63) + 1, 2 ** 63 - 1, -5, 0]
    large = small + [2 ** 100, -(2 ** 100) + 3]
    for values, widths in ((small, (1, 2, 3)), (large, (2, 3))):
        for words in widths:
            expected = sum(v << 64 * words * j for j, v in enumerate(values))
            assert lp._pack(*tabulate(values), words, lp._tops(len(values), words)) == expected


def test_packing_by_distinct_value_matches_packing_per_field():
    """One `to_bytes` per table entry and a join by code give the int that
    one `to_bytes` per field gave: on the value tables of wide build_sigma
    systems and of wide systems built from Fractions, on their costs, on
    dense rows past 2^63 (tuple codes past 256 values), and on rows that
    hold a single value."""
    def check(table, codes):
        values = [table[c] for c in codes]
        bits = max(map(abs, table)).bit_length()
        for words in range((bits + 64) // 64, (bits + 64) // 64 + 2):
            packed = lp._pack(table, codes, words, lp._tops(len(codes), words))
            assert packed == per_field_pack(values, words)

    rng = random.Random(11)
    conjunctions = [(s, o[0]) for s, o in conjunction_systems() if s.n_unknowns >= lp.PACKED_WIDTH]
    wide = [*wide_systems(), *conjunctions]
    assert any(s.tables for s, _ in wide) and any(s.tables is None for s, _ in wide)
    for system, objective in wide:
        for table in system.value_tables:
            check(*table)
        check(*tabulate(scale_to_integers(objective)[0]))
    for _ in range(20):
        m = lp.PACKED_WIDTH + rng.randrange(200)
        check(*tabulate([rng.randint(-(2 ** 90), 2 ** 90) for _ in range(m)]))
        check(*tabulate([rng.choice((-1, 1)) * (2 ** 63 + rng.randrange(5)) for _ in range(m)]))
    for v in (0, 1, -1, 2 ** 63 - 1, -(2 ** 63) + 1, 2 ** 63, -(2 ** 100)):
        check(*tabulate([v] * lp.PACKED_WIDTH))


def test_value_tables_reproduce_the_rows():
    """table[code] is every row's entry: on build_sigma systems, whose tables
    are the scaled (levels, mu) per member and (1,) at code 0 for the
    normalization row, and on systems built from Fractions, whose tables are
    derived from their rows; the packed pricing reads these tables."""
    given = derived = 0
    systems = [s for s, _ in conjunction_systems()]
    systems += [s for s, _ in wide_systems()] + [s for s, _ in differential_systems(count=60)]
    for system in systems:
        assert table_rows(system) == [row[:-1] for row in system.rows]
        if system.tables is None:
            derived += system.n_unknowns >= lp.PACKED_WIDTH
            continue
        given += system.n_unknowns >= lp.PACKED_WIDTH
        *members, normalization = system.value_tables
        assert normalization == ((1,), bytes(system.n_unknowns))
        # each unknown is one block: the members' codes key it
        assert len(set(zip(*(codes for _, codes in members)))) == system.n_unknowns
        assert [table[-1] for table, _ in members] == [row[-1] for row in system.rows[:-1]]
    assert given >= 4 and derived >= 12


def test_wide_systems_from_fractions_reach_the_fraction_optimum():
    """Wide systems built from Fractions, priced from their derived tables,
    decide feasibility and reach the optimum of the Fraction tableau."""
    optima = 0
    for system, objective in wide_systems(count=8):
        assert system.n_unknowns >= lp.PACKED_WIDTH and system.tables is None
        reference = fraction_maximize_linear(system, objective)
        assert solve_feasibility(system).feasible == (reference is not None)
        if reference is None:
            continue
        result = maximize_linear(system, objective)
        assert (result.bounded, result.value) == (reference.bounded, reference.value)
        optima += result.bounded
    assert optima >= 2


def test_support_is_the_nonzero_entries_of_the_solution():
    """`support` pairs each non-zero entry of a feasible point or maximizer
    with its index, so a witness's mass needs no pass over its zeros."""
    supports = 0
    systems = [*conjunction_systems(), *differential_systems(count=80)]
    for system, objectives in systems:
        if isinstance(objectives, list):  # one objective, not a tuple of them
            objectives = (objectives,)
        cert = solve_feasibility(system)
        results = [cert, *(maximize_linear(system, o) for o in objectives)] if cert.feasible else []
        for result in results:
            if result.solution is None:
                continue
            assert sorted(result.support) == [(j, v) for j, v in enumerate(result.solution) if v]
            supports += 1
    assert supports > 60


def test_a_dropped_wide_system_is_freed_without_the_cycle_collector():
    """The packed rows live on the phase-1 state, which holds nothing that
    leads back to its system, so dropping the last reference frees it."""
    system = next(
        s for s, c in wide_systems()
        if solve_feasibility(s).feasible and maximize_linear(s, c).bounded
    )
    assert vars(system)["_phase1"].packed
    ref = weakref.ref(system)
    gc.disable()
    try:
        del system
        assert ref() is None
    finally:
        gc.enable()


def test_wrong_optimum_dual_raises(monkeypatch):
    system = example_pair_system()
    assert maximize_component_sum(system, [0]).dual is not None
    maximize_objective = lp._Simplex.maximize_objective

    def zero_multipliers(self, costs, cost_scale):
        bounded = maximize_objective(self, costs, cost_scale)
        self.w = [0] * self.k
        return bounded

    monkeypatch.setattr(lp._Simplex, "maximize_objective", zero_multipliers)
    with pytest.raises(RuntimeError, match="dual"):
        maximize_component_sum(system, [0])


def test_corrupted_solver_integers_raise_before_any_result(monkeypatch):
    """Both solve paths check the simplex's own integers: one solution entry,
    one multiplier or the refutation margin moved by 1 raises RuntimeError.
    A multiplier moves in the phase-1 state an infeasible system is refuted
    from, or in the state an optimum ends in, each a copy of the kept one."""
    point, residual = lp._Simplex.point, lp._Simplex.residual
    after_phase1, maximize_objective = lp._after_phase1, lp._Simplex.maximize_objective
    kinds = set()
    for system, objective in differential_systems():
        # a column some row weighs, and a row with a non-zero rhs
        j = next((j for j in range(system.n_unknowns) if any(row[j] for row in system.rows)), None)
        r = next((r for r, row in enumerate(system.rows) if row[-1]), None)

        def bad_point(self):
            x, D = point(self)
            return {**x, j: x.get(j, 0) + 1}, D

        def moved(simplex):
            simplex.w = [v + (i == r) for i, v in enumerate(simplex.w)]
            return simplex

        def bad_refutation(refuted):
            return moved(after_phase1(refuted).copy())

        def bad_optimum(self, costs, cost_scale):
            bounded = maximize_objective(self, costs, cost_scale)
            moved(self)
            return bounded

        def bad_residual(self):
            margin, L = residual(self)
            return margin + 1, L

        # (path, source): what is patched, and the entry moved, None for none
        patches = {
            ("feasibility", "point"): (lp._Simplex, "point", bad_point, j),
            ("maximize", "point"): (lp._Simplex, "point", bad_point, j),
            ("maximize", "multipliers"): (lp._Simplex, "maximize_objective", bad_optimum, r),
            ("feasibility", "multipliers"): (lp, "_after_phase1", bad_refutation, r),
            ("feasibility", "residual"): (lp._Simplex, "residual", bad_residual, 0),
        }
        cases = []
        if solve_feasibility(system).feasible:
            cases.append(("feasibility", "point"))
            result = maximize_linear(system, objective)
            if result.bounded:
                cases += [("maximize", "point"), ("maximize", "multipliers")]
        else:
            cases += [("feasibility", "multipliers"), ("feasibility", "residual")]
        for path, source in cases:
            owner, name, bad, hit = patches[path, source]
            if hit is None:
                continue
            kinds.add((path, source))
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, bad)
                with pytest.raises(RuntimeError):
                    if path == "feasibility":
                        solve_feasibility(system)
                    else:
                        maximize_linear(system, objective)
    assert kinds == {
        ("feasibility", "point"),
        ("feasibility", "multipliers"),
        ("feasibility", "residual"),
        ("maximize", "point"),
        ("maximize", "multipliers"),
    }


def _optimum_or_infeasible(system, objective):
    try:
        return maximize_linear(system, objective)
    except InfeasibleSystem:
        return "infeasible"


def test_objectives_of_each_accepted_type_give_equal_optima():
    """An objective of ints, of equal Fractions, of ints and Fractions mixed
    or of their "p/q" text gives the same result."""
    optima = 0
    for system, objective in differential_systems():
        ints = [math.floor(c) for c in objective]
        mixed = [c.numerator if c.denominator == 1 else c for c in objective]
        for reference, forms in (
            (ints, ([F(c) for c in ints], [str(c) for c in ints])),
            (objective, (mixed, [str(c) for c in objective])),
        ):
            result = _optimum_or_infeasible(system, reference)
            for form in forms:
                assert _optimum_or_infeasible(system, form) == result
            optima += result != "infeasible" and result.bounded
    assert optima > 100


def test_zero_mass_optimum_carries_a_dual():
    # H = 0 leaves no mass for the worlds where H holds: a zero m-value,
    # proved by the dual rather than trusted
    space = build_world_space(["E", "H"], ["!(E & H)"])
    family = (
        indicator(conditional(space, "E", "H | !H"), "E"),
        indicator(conditional(space, "H", "H | !H"), "H"),
    )
    system = build_sigma(Assessment(family, (F(1, 2), F(0))))
    h_blocks = [j for j, label in enumerate(system.unknown_labels) if label[1] == "+"]
    result = maximize_component_sum(system, h_blocks)
    assert result.value == 0
    assert_certifies_optimum(
        system, result, [1 if j in h_blocks else 0 for j in range(system.n_unknowns)]
    )


# --- integer certificate checks against the Fraction reference --------------

SEVENTH = F(1, 7)
CERTIFICATE_CHECKS = (integer_verify_certificate, fraction_verify_certificate)
OPTIMUM_CHECKS = (integer_verify_optimum, fraction_verify_optimum)


def _mixed(values):
    return len({F(v).denominator for v in values}) > 1


def _rebuilt(record, **changes):
    """A certificate or optimum rebuilt by its constructor from its fields,
    with `changes` in place of some of them."""
    return type(record)(**{**vars(record), **changes})


def _bump(values, i, delta=SEVENTH):
    values = list(values)
    values[i] += delta
    return tuple(values)


def corrupted(system, cert_or_result):
    """One-entry corruptions by 1/7 that break the certificate or optimum:
    (kind, mixed, corrupted copy).  A solution entry moves on a column that
    some row weighs; a multiplier moves on a row with non-zero rhs; a
    refutation's margin is raised.  A row with mixed denominators is taken
    where there is one."""
    cols, rhs = full_columns(system)
    rows = list(zip(*cols)) if cols else [()] * len(rhs)
    mixed_row = [_mixed(row + (b,)) for row, b in zip(rows, rhs)]
    out = []
    solution = cert_or_result.solution
    if solution is not None:
        entries = [
            (r, j) for r, row in enumerate(rows) for j, a in enumerate(row) if a != 0
        ]
        hit = min(entries, key=lambda rj: not mixed_row[rj[0]], default=None)
        if hit is not None:
            bad = _rebuilt(cert_or_result, solution=_bump(solution, hit[1]))
            out.append(("solution", mixed_row[hit[0]], bad))
    dual = cert_or_result.dual
    if dual is not None:
        nonzero = [r for r, b in enumerate(rhs) if b != 0]
        r = min(nonzero, key=lambda r: not mixed_row[r], default=None)
        if r is not None:
            out.append(("dual", mixed_row[r], _rebuilt(cert_or_result, dual=_bump(dual, r))))
        if getattr(cert_or_result, "margin", None) is not None:
            raised = _rebuilt(cert_or_result, margin=cert_or_result.margin + SEVENTH)
            out.append(("margin", False, raised))
    return out


def test_integer_checks_agree_with_the_fraction_reference():
    kinds = set()
    mixed_hits = 0
    for system, objective in differential_systems():
        cert = solve_feasibility(system)
        for verify in CERTIFICATE_CHECKS:
            verify(system, cert)
        for kind, mixed, bad in corrupted(system, cert):
            kinds.add(("feasible" if cert.feasible else "refutation", kind))
            mixed_hits += mixed
            for verify in CERTIFICATE_CHECKS:
                with pytest.raises(RuntimeError):
                    verify(system, bad)
        if not cert.feasible:
            continue
        result = maximize_linear(system, objective)
        if not result.bounded:
            continue
        for verify in OPTIMUM_CHECKS:
            verify(system, objective, result)
        for kind, mixed, bad in corrupted(system, result):
            kinds.add(("optimum", kind))
            mixed_hits += mixed
            for verify in OPTIMUM_CHECKS:
                with pytest.raises(RuntimeError):
                    verify(system, objective, bad)
    assert kinds == {
        ("feasible", "solution"),
        ("refutation", "dual"),
        ("refutation", "margin"),
        ("optimum", "solution"),
        ("optimum", "dual"),
    }
    assert mixed_hits > 300


def mixed_denominator_system(rhs):
    """(1/3) x0 + (2/7) x1 + x2 = rhs over the simplex x0 + x1 + x2 = 1."""
    return fraction_system(
        ((F(1, 3), F(2, 7), F(1)),), (rhs,), ("x0", "x1", "x2")
    )


def test_each_refutation_check_raises():
    system = mixed_denominator_system(F(3, 2))  # the row is at most 1
    cert = solve_feasibility(system)
    assert not cert.feasible
    cols, _ = full_columns(system)
    # moving the normalization multiplier by t, and the margin with it,
    # prices every column up by t
    t = 1 + max(abs(sum(u * a for u, a in zip(cert.dual, col))) for col in cols)
    cases = {
        "lacks a positive margin": _rebuilt(cert, margin=F(0)),
        "prices a column positively": _rebuilt(
            cert, dual=_bump(cert.dual, -1, t), margin=cert.margin + t
        ),
        "margin mismatch": _rebuilt(cert, margin=cert.margin + SEVENTH),
    }
    for message, bad in cases.items():
        for verify in CERTIFICATE_CHECKS:
            with pytest.raises(RuntimeError, match=message):
                verify(system, bad)


def test_each_solution_and_optimum_check_raises():
    system = mixed_denominator_system(F(1, 2))
    objective = [F(1), F(0), F(0)]
    result = maximize_linear(system, objective)
    assert result.value == F(3, 4)
    for verify in OPTIMUM_CHECKS:
        verify(system, objective, result)
    # both rows hold at (9/2, -7/2, 0): only non-negativity fails
    negative = (F(9, 2), F(-7, 2), F(0))
    assert sum(a * v for a, v in zip(fraction_rows(system)[0][0], negative)) == F(1, 2)
    cases = {
        "non-solution": [
            _rebuilt(result, solution=negative),
            _rebuilt(result, solution=_bump(result.solution, 1)),
        ],
        # the normalization multiplier moved by -1 prices every column down
        # by 1 and the bound with it
        "below its cost": [
            _rebuilt(result, dual=_bump(result.dual, -1, F(-1)), value=result.value - 1)
        ],
        "bound mismatch": [_rebuilt(result, value=result.value + SEVENTH)],
    }
    for message, corruptions in cases.items():
        for bad in corruptions:
            for verify in OPTIMUM_CHECKS:
                with pytest.raises(RuntimeError, match=message):
                    verify(system, objective, bad)
    feasible = solve_feasibility(system)
    for verify in CERTIFICATE_CHECKS:
        with pytest.raises(RuntimeError, match="non-solution"):
            verify(system, _rebuilt(feasible, solution=negative))
