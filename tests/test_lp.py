"""Tests for the exact feasibility and optimization solver."""

import itertools
import math
import random
from copy import deepcopy
from dataclasses import replace
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
    fraction_maximize_linear,
    fraction_rows,
    fraction_solve_feasibility,
    fraction_verify_certificate,
    fraction_verify_optimum,
    oracle_feasible,
    oracle_maximum,
)
from prevision import lp
from prevision import (
    Assessment,
    ConditionalEvent,
    InfeasibleSystem,
    LinearSystem,
    build_sigma,
    build_sigma_star,
    build_world_space,
    frechet_bounds_conjunction,
    indicator,
    make_conjunction,
    maximize_component_sum,
    maximize_linear,
    solve_feasibility,
)


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
        assert system.check_solution(cert.solution)
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
        assert system.check_solution(result.solution)
        assert oracle_maximum(
            system, [1 if j in index_set else 0 for j in range(6)]
        ) == 1
    assert maximize_component_sum(system, []).value == 0


def test_pinned_reduced_system_optima():
    x, y, z = F(7, 20), F(9, 20), F(1, 5)
    system = build_sigma_star((x, y, z))
    expected = {0: z, 1: y - z, 2: x - z, 3: 1 - x - y + z}
    for j, value in expected.items():
        result = maximize_component_sum(system, [j])
        assert result.value == value
        objective = [1 if i == j else 0 for i in range(4)]
        assert oracle_maximum(system, objective) == value


def test_maximize_on_infeasible_system_raises():
    with pytest.raises(InfeasibleSystem):
        maximize_component_sum(never_true_system(F(1, 2)), [0])


def test_unbounded_direction_is_reported():
    free = LinearSystem.from_fractions(
        ((F(0),),), (F(0),), ("x",), normalization=False
    )
    result = maximize_linear(free, (F(1),))
    assert not result.bounded and result.value is None
    capped = LinearSystem.from_fractions(
        ((F(1), F(1)),), (F(1),), ("x", "y"), normalization=False
    )
    result = maximize_linear(capped, (F(1), F(0)))
    assert result.bounded and result.value == 1


def test_redundant_rows_are_tolerated():
    system = LinearSystem.from_fractions(
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
        shuffled = LinearSystem.from_fractions(
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
    return LinearSystem.from_fractions(rows, rhs, labels)


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
        assert system.check_solution(result.solution)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(unit_fractions, min_size=2, max_size=2),
    unit_fractions,
)
def test_reduced_system_feasibility_matches_bruteforce(xs, overall):
    system = build_sigma_star(tuple(xs) + (overall,))
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
        yield LinearSystem.from_fractions(
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


def test_wrong_optimum_dual_raises(monkeypatch):
    system = example_pair_system()
    assert maximize_component_sum(system, [0]).dual is not None
    monkeypatch.setattr(
        lp._Simplex, "dual", lambda self: (F(0),) * self.k
    )
    with pytest.raises(RuntimeError, match="dual"):
        maximize_component_sum(system, [0])


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
CERTIFICATE_CHECKS = (lp._verify_certificate, fraction_verify_certificate)
OPTIMUM_CHECKS = (lp._verify_optimum, fraction_verify_optimum)


def _mixed(values):
    return len({F(v).denominator for v in values}) > 1


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
            bad = replace(cert_or_result, solution=_bump(solution, hit[1]))
            out.append(("solution", mixed_row[hit[0]], bad))
    dual = cert_or_result.dual
    if dual is not None:
        nonzero = [r for r, b in enumerate(rhs) if b != 0]
        r = min(nonzero, key=lambda r: not mixed_row[r], default=None)
        if r is not None:
            out.append(("dual", mixed_row[r], replace(cert_or_result, dual=_bump(dual, r))))
        if getattr(cert_or_result, "margin", None) is not None:
            raised = replace(cert_or_result, margin=cert_or_result.margin + SEVENTH)
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
    return LinearSystem.from_fractions(
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
        "lacks a positive margin": replace(cert, margin=F(0)),
        "prices a column positively": replace(
            cert, dual=_bump(cert.dual, -1, t), margin=cert.margin + t
        ),
        "margin mismatch": replace(cert, margin=cert.margin + SEVENTH),
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
            replace(result, solution=negative),
            replace(result, solution=_bump(result.solution, 1)),
        ],
        # the normalization multiplier moved by -1 prices every column down
        # by 1 and the bound with it
        "below its cost": [
            replace(result, dual=_bump(result.dual, -1, F(-1)), value=result.value - 1)
        ],
        "bound mismatch": [replace(result, value=result.value + SEVENTH)],
    }
    for message, corruptions in cases.items():
        for bad in corruptions:
            for verify in OPTIMUM_CHECKS:
                with pytest.raises(RuntimeError, match=message):
                    verify(system, objective, bad)
    feasible = solve_feasibility(system)
    for verify in CERTIFICATE_CHECKS:
        with pytest.raises(RuntimeError, match="non-solution"):
            verify(system, replace(feasible, solution=negative))
