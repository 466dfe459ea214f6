"""Acceptance gate: ten criteria, one pass/fail line each.

Each test prints its verdict line directly to the real stdout so the gate is
visible even under pytest capture.  Every numeric claim is exact unless the
criterion itself states a float tolerance.
"""

import itertools
import math
import random
import sys
import time
from fractions import Fraction

from oracles import sigma_star_solves

from prevision import (
    Assessment,
    ConditionalEvent,
    Family7Assessment,
    FrankKind,
    FrankParameter,
    SufficiencyVerdict,
    build_world_space,
    check_coherence,
    check_family7,
    dutch_book_gains,
    extension_interval,
    family7_bounds,
    find_dutch_book,
    frechet_bounds_conjunction,
    indicator,
    lambda_solution_TL,
    lambda_solution_TM,
    lukasiewicz_sufficient,
    make_conjunction,
    solve_lambda,
    special_case_same_consequent,
    tconorm,
    tnorm,
    value_table,
)

F = Fraction
SEED = 20260817

SPACE6 = build_world_space(["E1", "E2", "E3", "H1", "H2", "H3"])
EVENTS6 = [
    ConditionalEvent(SPACE6.event(f"E{i}"), SPACE6.event(f"H{i}")) for i in (1, 2, 3)
]
SPACE_SHARED = build_world_space(["E1", "E2", "E3", "H"])
EVENTS_SHARED = [
    ConditionalEvent(SPACE_SHARED.event(f"E{i}"), SPACE_SHARED.event("H"))
    for i in (1, 2, 3)
]


def report(number, description, failures):
    status = "pass" if not failures else "FAIL"
    print(
        f"acceptance {number:2d}: {status} - {description}",
        file=sys.__stdout__,
        flush=True,
    )
    assert not failures, f"criterion {number} ({description}): {failures[:3]}"


def family7_engine_assessment(values, shared=False):
    x1, x2, x3, x12, x13, x23, x123 = [F(v) for v in values]
    events = EVENTS_SHARED if shared else EVENTS6
    singles = {(1,): x1, (2,): x2, (3,): x3}
    pair_values = {(1, 2): x12, (1, 3): x13, (2, 3): x23}
    compounds = []
    for (i, j), xij in pair_values.items():
        previsions = {} if shared else {(1,): singles[(i,)], (2,): singles[(j,)]}
        previsions[(1, 2)] = xij
        compounds.append(
            make_conjunction([events[i - 1], events[j - 1]], previsions, f"C{i}{j}")
        )
    triple_previsions = {(1, 2, 3): x123}
    if not shared:
        triple_previsions.update(singles)
        triple_previsions.update(pair_values)
    triple = make_conjunction(events, triple_previsions, "C123")
    family = tuple(
        indicator(ce, f"X{i}") for i, ce in enumerate(events, 1)
    ) + tuple(compounds) + (triple,)
    return Assessment(family, (x1, x2, x3, x12, x13, x23, x123)), triple


def conjunction_family_assessment(xs, z):
    """Indicators plus the full conjunction, product internals, assessed z.

    The overall prevision is left out of the quantity itself so values
    outside [0,1] can still be assessed (and rejected as incoherent).
    """
    n = len(xs)
    events = EVENTS6[:n] if n <= 3 else None
    if events is None:
        space = build_world_space(
            [f"E{i}" for i in range(1, n + 1)] + [f"H{i}" for i in range(1, n + 1)]
        )
        events = [
            ConditionalEvent(space.event(f"E{i}"), space.event(f"H{i}"))
            for i in range(1, n + 1)
        ]
    previsions = {}
    for r in range(1, n):
        for subset in itertools.combinations(range(1, n + 1), r):
            value = F(1)
            for i in subset:
                value *= xs[i - 1]
            previsions[subset] = value
    conj = make_conjunction(events, previsions)
    family = tuple(indicator(e, f"X{i}") for i, e in enumerate(events, 1)) + (conj,)
    return Assessment(family, tuple(xs) + (z,))


def random_unit_fraction(rng, max_denominator=12):
    d = rng.randint(1, max_denominator)
    return F(rng.randint(0, d), d)


def test_criterion_01_frozen_boundary_vectors():
    failures = []
    cases = [
        (
            (F(2, 5), F(2, 5), F(2, 5)),
            (F(0), F(4, 25), F(4, 25), F(2, 25), F(0), F(6, 25), F(6, 25), F(3, 25)),
        ),
        (
            (F(1, 2), F(3, 5), F(7, 10)),
            (F(0), F(14, 45), F(7, 18), F(0), F(1, 10), F(4, 45), F(1, 9), F(0)),
        ),
    ]
    lambda_solution_TL((F(1, 3), F(1, 3)))
    for xs, expected in cases:
        vector = lambda_solution_TL(xs)
        if vector.as_tuple() != expected:
            failures.append((xs, vector.as_tuple()))
        best = min(
            _timed(lambda: lambda_solution_TL(xs)) for _ in range(5)
        )
        if best >= 0.001:
            failures.append((xs, f"took {best*1000:.3f} ms"))
    report(1, "lower-boundary mass vectors reproduce both frozen tuples in <1ms", failures)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_counterexample_with_betting_certificate():
    failures = []
    values = (F(1, 2), F(3, 5), F(7, 10), F(1, 10), F(1, 5), F(3, 10), F(0))
    assessment, _ = family7_engine_assessment(values)
    start = time.perf_counter()
    verdict = check_coherence(assessment)
    oracle = check_family7(Family7Assessment(*values))
    book = find_dutch_book(assessment)
    elapsed = time.perf_counter() - start
    if verdict.coherent:
        failures.append("engine called the counterexample coherent")
    if oracle.coherent:
        failures.append("closed form called the counterexample coherent")
    if book is None:
        failures.append("no betting certificate produced")
    else:
        gains = dutch_book_gains(assessment, book)
        if not gains or any(g <= 0 for _, g in gains):
            failures.append("certificate gain not strictly positive everywhere")
    if elapsed >= 0.1:
        failures.append(f"took {elapsed*1000:.1f} ms")
    report(2, "the seven-value counterexample fails both checkers with a book", failures)


def test_criterion_03_envelope_sharpness():
    failures = []
    rng = random.Random(SEED)
    step = F(1, 1000)
    start = time.perf_counter()
    for k in range(200):
        n = (2, 3, 4)[k % 3]
        xs = tuple(random_unit_fraction(rng) for _ in range(n))
        lo, hi = frechet_bounds_conjunction(xs)
        for z, expect in (
            (lo, True),
            (hi, True),
            (lo - step, False),
            (hi + step, False),
        ):
            got = check_coherence(conjunction_family_assessment(xs, z)).coherent
            if got != expect:
                failures.append((xs, z, got))
    elapsed = time.perf_counter() - start
    if elapsed >= 30:
        failures.append(f"took {elapsed:.1f} s")
    report(3, "conjunction envelope is sharp on 200 random tuples, n in 2..4", failures)


def test_criterion_04_mass_vectors_solve_the_system():
    failures = []
    rng = random.Random(SEED + 4)
    for k in range(500):
        n = (k % 5) + 1
        xs = tuple(random_unit_fraction(rng) for _ in range(n))
        lo, hi = frechet_bounds_conjunction(xs)
        for builder, overall in ((lambda_solution_TL, lo), (lambda_solution_TM, hi)):
            if not sigma_star_solves(builder(xs).as_tuple(), xs, overall):
                failures.append((builder.__name__, xs))
    report(4, "both boundary constructors solve the mass system exactly, 500 tuples", failures)


def test_criterion_05_oracle_equivalence_on_quarter_grid():
    failures = []
    grid = [F(k, 4) for k in range(5)]
    count = 0
    start = time.perf_counter()
    for xs in itertools.product(grid, repeat=3):
        pair_lists = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            cap = min(xs[i], xs[j])
            pair_lists.append([g for g in grid if g <= cap])
        for pairs in itertools.product(*pair_lists):
            cap = min(pairs)
            for x123 in (g for g in grid if g <= cap):
                values = xs + pairs + (x123,)
                count += 1
                oracle = check_family7(Family7Assessment(*values)).coherent
                assessment, _ = family7_engine_assessment(values)
                engine = check_coherence(assessment).coherent
                if oracle != engine:
                    failures.append((values, oracle, engine))
    elapsed = time.perf_counter() - start
    if count < 2000:
        failures.append(f"grid too small: {count}")
    if elapsed >= 300:
        failures.append(f"took {elapsed:.0f} s")
    report(
        5,
        f"closed form and engine agree on all {count} quarter-grid assessments",
        failures,
    )


def test_criterion_06_same_consequent_special_cases():
    failures = []
    lower, upper = special_case_same_consequent(F(7, 20), F(9, 20))
    if (lower, upper) != (F(63, 400), F(7, 20)):
        failures.append(("overlapping", lower, upper))
    pinned = special_case_same_consequent(F(7, 20), F(9, 20), disjoint_antecedents=True)
    if pinned != (F(63, 400), F(63, 400)):
        failures.append(("disjoint", pinned))

    for constraints, expected in (
        ((), (F(63, 400), F(7, 20))),
        (("!(H & K)",), (F(63, 400), F(63, 400))),
    ):
        space = build_world_space(["A", "H", "K"], constraints)
        first = ConditionalEvent(space.event("A"), space.event("H"))
        second = ConditionalEvent(space.event("A"), space.event("K"))
        base = Assessment(
            (indicator(first, "X"), indicator(second, "Y")), (F(7, 20), F(9, 20))
        )
        target = make_conjunction([first, second], {(1,): F(7, 20), (2,): F(9, 20)})
        result = extension_interval(base, target)
        if (result.lower, result.upper, result.exact) != (*expected, True):
            failures.append((constraints, result))
    report(6, "same-consequent special cases match the generic engine exactly", failures)


def test_criterion_07_frank_family_numerics():
    failures = []
    rng = random.Random(SEED + 7)

    def sample_param():
        return FrankParameter.from_value(math.exp(rng.uniform(-30.0, 30.0)))

    for _ in range(10_000):
        x, y = rng.random(), rng.random()
        p1, p2 = sample_param(), sample_param()
        t1 = tnorm(p1, (x, y))
        t2 = tnorm(p2, (x, y))
        lam1 = 0.0 if p1.kind is FrankKind.MIN else (
            math.inf if p1.kind is FrankKind.LUKASIEWICZ else
            (1.0 if p1.kind is FrankKind.PRODUCT else p1.value)
        )
        lam2 = 0.0 if p2.kind is FrankKind.MIN else (
            math.inf if p2.kind is FrankKind.LUKASIEWICZ else
            (1.0 if p2.kind is FrankKind.PRODUCT else p2.value)
        )
        if lam1 > lam2:
            (lam1, t1, p1), (lam2, t2, p2) = (lam2, t2, p2), (lam1, t1, p1)
        if t1 < t2 - 1e-12:
            failures.append(("monotone", x, y, lam1, lam2))
            break
        lo, hi = max(0.0, x + y - 1.0), min(x, y)
        if not (lo - 1e-12 <= t1 <= hi + 1e-12):
            failures.append(("envelope", x, y, lam1, t1))
            break
        s1 = tconorm(p1, (x, y))
        if abs(s1 - (x + y - t1)) > 1e-12:
            failures.append(("duality", x, y, lam1))
            break
        z = rng.random()
        if abs(tnorm(p1, (x, y, z)) - tnorm(p1, (tnorm(p1, (x, y)), z))) > 1e-12:
            failures.append(("associativity", x, y, z, lam1))
            break

    small, large = FrankParameter.generic(1e-6), FrankParameter.generic(1e6)
    checked = 0
    while checked < 500:
        x, y = rng.random(), rng.random()
        if abs(x - y) < 0.35 or abs(x + y - 1.0) < 0.35:
            continue
        checked += 1
        if abs(tnorm(small, (x, y)) - min(x, y)) > 1e-3:
            failures.append(("limit-min", x, y))
            break
        if abs(tnorm(large, (x, y)) - max(0.0, x + y - 1.0)) > 1e-3:
            failures.append(("limit-lukasiewicz", x, y))
            break

    checked = 0
    while checked < 200:
        x = rng.uniform(0.05, 0.95)
        y = rng.uniform(0.05, 0.95)
        lo, hi = max(0.0, x + y - 1.0), min(x, y)
        if hi - lo < 1e-3:
            continue
        sign = 1 if rng.random() < 0.5 else -1
        log_true = sign * rng.uniform(0.5, 20.0)
        target = tnorm(FrankParameter.generic(math.exp(log_true)), (x, y))
        if min(target - lo, hi - target) < 1e-3:
            continue
        checked += 1
        parameter, unique = solve_lambda((x, y), target)
        if parameter.kind is not FrankKind.GENERIC or not unique:
            failures.append(("round-trip-kind", x, y, log_true, parameter))
            break
        if abs(math.log(parameter.value) - log_true) > 1e-10:
            failures.append(("round-trip", x, y, log_true, parameter.value))
            break
    report(7, "Frank family properties, limits, and inversion hold at tolerance", failures)


def test_criterion_08_mixtures_of_coherent_assessments():
    failures = []
    rng = random.Random(SEED + 8)

    def random_coherent_values():
        while True:
            xs = [F(rng.randint(0, 10), 10) for _ in range(3)]
            pairs = []
            for i, j in ((0, 1), (0, 2), (1, 2)):
                lo = max(F(0), xs[i] + xs[j] - 1)
                hi = min(xs[i], xs[j])
                t = F(rng.randint(0, 8), 8)
                pairs.append(lo + (hi - lo) * t)
            lo, hi = family7_bounds(xs[0], xs[1], xs[2], pairs[0], pairs[1], pairs[2])
            if lo > hi:
                continue
            t = F(rng.randint(0, 8), 8)
            return tuple(xs) + tuple(pairs) + (lo + (hi - lo) * t,)

    weights = (F(1, 4), F(1, 2), F(3, 4))
    for _ in range(100):
        first = random_coherent_values()
        second = random_coherent_values()
        for values in (first, second):
            assessment, _ = family7_engine_assessment(values, shared=True)
            if not check_coherence(assessment).coherent:
                failures.append(("endpoint", values))
        for a in weights:
            mixed = tuple(a * u + (1 - a) * v for u, v in zip(first, second))
            assessment, _ = family7_engine_assessment(mixed, shared=True)
            if not check_coherence(assessment).coherent:
                failures.append(("mixture", a, first, second))
    report(8, "convex mixtures of coherent assessments stay coherent, 100 pairs", failures)


def test_criterion_09_min_and_product_closure_on_fifth_grid():
    failures = []
    grid = [F(k, 5) for k in range(6)]
    e_and_h = [e.consequent & e.antecedent for e in EVENTS6]
    not_e_and_h = [(~e.consequent) & e.antecedent for e in EVENTS6]

    def pointwise(world, xs, combine):
        subs = []
        for i in range(3):
            if world in e_and_h[i]:
                subs.append(F(1))
            elif world in not_e_and_h[i]:
                subs.append(F(0))
            else:
                subs.append(xs[i])
        return combine(subs)

    combiners = {
        "min": (Family7Assessment.all_min, lambda vs: min(vs)),
        "product": (
            Family7Assessment.all_product,
            lambda vs: vs[0] * vs[1] * vs[2],
        ),
    }
    for xs in itertools.product(grid, repeat=3):
        for name, (constructor, combine) in combiners.items():
            values = constructor(*xs).values()
            assessment, triple = family7_engine_assessment(values)
            if not check_coherence(assessment).coherent:
                failures.append((name, xs, "incoherent"))
                continue
            for constituent, value in value_table(triple):
                world = next(iter(constituent.worlds))
                expected = pointwise(world, xs, combine)
                if value != expected:
                    failures.append((name, xs, constituent.label(), value, expected))
                    break
    report(9, "all-min and all-product families are coherent with pointwise tables", failures)


def test_criterion_10_lukasiewicz_sufficiency_on_tenth_grid():
    failures = []
    grid = [F(k, 10) for k in range(11)]
    coherent_region = set()
    for xs in itertools.product(grid, repeat=3):
        verdict = lukasiewicz_sufficient(*xs)
        oracle = check_family7(Family7Assessment.all_lukasiewicz(*xs)).coherent
        if verdict is SufficiencyVerdict.COHERENT:
            coherent_region.add(xs)
            if not oracle:
                failures.append((xs, "said coherent, oracle disagrees"))
        elif verdict is SufficiencyVerdict.INCOHERENT and oracle:
            failures.append((xs, "said incoherent, oracle disagrees"))
    expected_region = {
        xs for xs in itertools.product(grid, repeat=3) if sum(xs) >= 2
    }
    if coherent_region != expected_region:
        failures.append(
            ("region mismatch", len(coherent_region), len(expected_region))
        )
    report(10, "sufficiency verdicts never contradict and cover exactly sum>=2", failures)
