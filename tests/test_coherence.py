"""The coherence engine: recursion, betting certificates, extensions."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import fraction_book_gains, fraction_rows, fraction_sigma, propagated_interval
from prevision import (
    Assessment,
    CompoundPrevisionMap,
    ConditionalEvent,
    DutchBook,
    Family7Assessment,
    IncoherentBase,
    LinearSystem,
    build_sigma,
    build_world_space,
    check_coherence,
    check_family7,
    demorgan_previsions,
    dutch_book_gains,
    extension_interval,
    find_dutch_book,
    frechet_bounds_conjunction,
    frechet_bounds_disjunction,
    indicator,
    make_conjunction,
    make_disjunction,
    quantity_constituents,
    special_case_same_consequent,
    value_table,
)
from prevision.coherence import _checked_book, _family7_dispatch

F = Fraction


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
    family = tuple(indicator(e, f"X{i}") for i, e in enumerate(events, 1))
    return family + (make_conjunction(events, previsions, f"and({n})"),)


def pair_setup(consequents=("A", "B"), constraints=()):
    space = build_world_space(["A", "B", "H", "K"], constraints)
    first = ConditionalEvent(space.event(consequents[0]), space.event("H"))
    second = ConditionalEvent(space.event(consequents[1]), space.event("K"))
    return space, first, second


def pair_conjunction_assessment(first, second, x, y, z):
    conj = make_conjunction([first, second], {(1,): x, (2,): y, (1, 2): z})
    family = (indicator(first, "X1"), indicator(second, "X2"), conj)
    return Assessment(family, (x, y, z))


def family7_assessment(values, shared_antecedent=False, events=None):
    """The three conditionals, three pairwise conjunctions, and the triple;
    `events`, when given, replaces the conditionals E_i|H_i."""
    x1, x2, x3, x12, x13, x23, x123 = [F(v) for v in values]
    if events is None and shared_antecedent:
        space = build_world_space(["E1", "E2", "E3", "H"])
        events = [
            ConditionalEvent(space.event(f"E{i}"), space.event("H"))
            for i in (1, 2, 3)
        ]
    elif events is None:
        space = build_world_space(["E1", "E2", "E3", "H1", "H2", "H3"])
        events = [
            ConditionalEvent(space.event(f"E{i}"), space.event(f"H{i}"))
            for i in (1, 2, 3)
        ]
    singles = {(1,): x1, (2,): x2, (3,): x3}
    pair_values = {(1, 2): x12, (1, 3): x13, (2, 3): x23}
    compounds = []
    for (i, j), xij in pair_values.items():
        previsions = {}
        if not shared_antecedent:
            previsions = {(1,): singles[(i,)], (2,): singles[(j,)]}
        previsions[(1, 2)] = xij
        compounds.append(
            make_conjunction([events[i - 1], events[j - 1]], previsions, f"C{i}{j}")
        )
    triple_previsions = {(1, 2, 3): x123}
    if not shared_antecedent:
        triple_previsions.update(singles)
        triple_previsions.update(pair_values)
    triple = make_conjunction(events, triple_previsions, "C123")
    family = tuple(
        indicator(ce, f"X{i}") for i, ce in enumerate(events, 1)
    ) + tuple(compounds) + (triple,)
    return Assessment(family, (x1, x2, x3, x12, x13, x23, x123)), triple


class TestCheckCoherence:
    def test_independent_pair_any_values_coherent(self):
        space, first, second = pair_setup()
        family = (indicator(first, "X"), indicator(second, "Y"))
        for x in (F(0), F(1, 3), F(1)):
            for y in (F(0), F(2, 3), F(1)):
                verdict = check_coherence(Assessment(family, (x, y)))
                assert verdict.coherent
                assert verdict.dutch_book is None

    def test_single_level_trace_when_no_zero_mass(self):
        space, first, second = pair_setup()
        family = (indicator(first, "X"), indicator(second, "Y"))
        verdict = check_coherence(Assessment(family, (F(1, 2), F(1, 2))))
        assert len(verdict.trace) == 1
        assert verdict.trace[0].i0 == frozenset()
        assert verdict.trace[0].feasible

    def test_conditional_forced_to_one(self):
        space = build_world_space(["E", "H"], ["!(H & !E)"])
        ce = ConditionalEvent(space.event("E"), space.event("H"))
        q = indicator(ce)
        assert check_coherence(Assessment((q,), (F(1),))).coherent
        verdict = check_coherence(Assessment((q,), (F(1, 2),)))
        assert not verdict.coherent
        book = verdict.dutch_book
        assert book is not None and book.margin > 0
        gains = dutch_book_gains(Assessment((q,), (F(1, 2),)), book)
        assert gains and all(g > 0 for _, g in gains)

    def test_conditional_forced_to_zero(self):
        space = build_world_space(["E", "H"], ["!(E & H)"])
        ce = ConditionalEvent(space.event("E"), space.event("H"))
        q = indicator(ce)
        assert check_coherence(Assessment((q,), (F(0),))).coherent
        assert not check_coherence(Assessment((q,), (F(1, 100),))).coherent

    def test_prevision_outside_value_hull(self):
        space, first, _ = pair_setup()
        q = indicator(first, "X")
        verdict = check_coherence(Assessment((q,), (F(2),)))
        assert not verdict.coherent
        assert verdict.dutch_book.stakes == (F(-1),)
        assert verdict.dutch_book.margin == F(1)

    def test_zero_probability_antecedent_recursion(self):
        space = build_world_space(["E", "H"])
        h = indicator(
            ConditionalEvent(space.event("H"), space.everything), "H"
        )
        e_given_h = indicator(
            ConditionalEvent(space.event("E"), space.event("H")), "E|H"
        )
        for x in (F(0), F(1, 3), F(1)):
            verdict = check_coherence(Assessment((h, e_given_h), (F(0), x)))
            assert verdict.coherent
            assert len(verdict.trace) == 2
            assert verdict.trace[0].i0 == frozenset({2})
            assert verdict.trace[1].member_indices == (2,)

    def test_one_partition_per_level_serves_system_and_book(self, monkeypatch):
        """One pass over the worlds keys a check's partition; each further
        level projects it; no constituent object is built on the way."""
        import prevision.coherence as coherence
        import prevision.geometry as geometry

        real = geometry.keyed_partition
        passes = []

        def recorded(kind):
            def partition(codes):
                passes.append((kind, len(codes), len(codes[0]) if codes else 0))
                return real(codes)
            return partition

        def built(*args):
            raise AssertionError("constituent object built on the check path")

        # build_sigma keys the worlds; _run_level projects the keys
        monkeypatch.setattr(geometry, "keyed_partition", recorded("worlds"))
        monkeypatch.setattr(coherence, "keyed_partition", recorded("projection"))
        monkeypatch.setattr(geometry, "QuantityConstituent", built)

        space = build_world_space(["E", "H"])
        h = indicator(ConditionalEvent(space.event("H"), space.everything), "H")
        e_given_h = indicator(
            ConditionalEvent(space.event("E"), space.event("H")), "E|H"
        )
        same = indicator(
            ConditionalEvent(space.event("E & H"), space.event("H")), "EH|H"
        )
        assessment = Assessment((h, e_given_h, same), (F(0), F(1, 3), F(1, 2)))
        verdict = check_coherence(assessment)
        assert not verdict.coherent
        assert [r.member_indices for r in verdict.trace] == [(1, 2, 3), (2, 3)]
        assert verdict.dutch_book.member_indices == (2, 3)
        level_one = len(build_sigma(assessment).keys)
        assert passes[:2] == [("worlds", 3, len(space)), ("projection", 2, level_one)]

        # the grid7 and conj-scale shapes: one world pass per check
        cases = [family7_assessment(v)[0] for v in random.Random(3).sample(quarter_grid(), 40)]
        for n in (3, 4, 5):
            xs = tuple(F(k, 5) for k in (1, 2, 3, 4, 1)[:n])
            lo, hi = frechet_bounds_conjunction(xs)
            cases += [Assessment(conjunction_family(n, xs), xs + (z,)) for z in (lo, hi, hi + F(1, 1000))]
        for case in cases:
            passes.clear()
            verdict = check_coherence(case)
            kinds = [kind for kind, _, _ in passes]
            assert kinds == ["worlds"] + ["projection"] * (kinds.count("projection"))
            assert passes[0][2] == len(case.space)
            assert kinds.count("projection") == sum(r.feasible for r in verdict.trace)

    def test_family7_counterexample_incoherent_with_book(self):
        assessment, _ = family7_assessment(
            ("1/2", "3/5", "7/10", "1/10", "1/5", "3/10", 0)
        )
        verdict = check_coherence(assessment)
        assert not verdict.coherent
        book = verdict.dutch_book
        assert book is not None and book.margin > 0
        gains = dutch_book_gains(assessment, book)
        assert gains and all(g >= book.margin for _, g in gains)
        assert find_dutch_book(assessment) == book

    def test_family7_all_product_coherent(self):
        assessment, _ = family7_assessment(
            ("1/2", "1/2", "1/2", "1/4", "1/4", "1/4", "1/8")
        )
        assert check_coherence(assessment).coherent

    def test_family7_convex_mixture_coherent(self):
        a = ("1/2", "1/2", "1/2", "1/4", "1/4", "1/4", "1/8")
        b = ("1/2", "1/2", "1/2", "1/2", "1/2", "1/2", "1/2")
        for weight in (F(1, 4), F(1, 2), F(3, 4)):
            mixed = tuple(
                weight * F(u) + (1 - weight) * F(v) for u, v in zip(a, b)
            )
            assessment, _ = family7_assessment(mixed)
            assert check_coherence(assessment).coherent

    def test_conjunction_coherent_exactly_on_envelope(self):
        xs = (F(1, 2), F(3, 5), F(7, 10))
        lo, hi = frechet_bounds_conjunction(xs)
        space = build_world_space(["E1", "E2", "E3", "H1", "H2", "H3"])
        events = [
            ConditionalEvent(space.event(f"E{i}"), space.event(f"H{i}"))
            for i in (1, 2, 3)
        ]
        family = tuple(indicator(ce, f"X{i}") for i, ce in enumerate(events, 1))

        def assess(z):
            conj = make_conjunction(
                events,
                {
                    (1,): xs[0], (2,): xs[1], (3,): xs[2],
                    (1, 2): xs[0] * xs[1], (1, 3): xs[0] * xs[2],
                    (2, 3): xs[1] * xs[2], (1, 2, 3): z,
                },
            )
            return Assessment(family + (conj,), xs + (z,))

        assert check_coherence(assess(lo)).coherent
        assert check_coherence(assess(hi)).coherent
        assert check_coherence(assess((lo + hi) / 2)).coherent
        assert not check_coherence(assess(hi + F(1, 100))).coherent

    def test_eight_member_conjunction_at_and_past_its_upper_bound(self):
        # 16 atoms, 65,536 worlds, 3^8 - 1 = 6,560 unknowns over 10 rows
        n = 8
        xs = tuple(F(k, 5) for k in (1, 2, 3, 4, 1, 2, 3, 4))
        family = conjunction_family(n, xs)
        _, hi = frechet_bounds_conjunction(xs)
        at_bound = check_coherence(Assessment(family, xs + (hi,)))
        assert at_bound.coherent
        assert len(at_bound.trace[0].solution) == 3**n - 1
        past = Assessment(family, xs + (hi + F(1, 1000),))
        verdict = check_coherence(past)
        assert not verdict.coherent
        gains = dutch_book_gains(past, verdict.dutch_book)
        assert len(gains) == 3**n - 1
        assert all(g > 0 for _, g in gains)

    def test_shared_antecedent_family7_matches_characterization(self):
        cases = [
            Family7Assessment.all_min("2/5", "1/2", "3/5").values(),
            Family7Assessment.all_product("2/5", "1/2", "3/5").values(),
            Family7Assessment.all_lukasiewicz("2/5", "1/2", "3/5").values(),
            ("1/2", "3/5", "7/10", "1/10", "1/5", "3/10", 0),
        ]
        for values in cases:
            assessment, _ = family7_assessment(values, shared_antecedent=True)
            expected = check_family7(Family7Assessment(*values)).coherent
            assert check_coherence(assessment).coherent == expected


def quarter_grid():
    """The criterion-5 grid: quarter-valued (x1, x2, x3, x12, x13, x23, x123)
    with each pair at most its members' minimum and the triple at most the
    pairs' minimum."""
    grid = [F(k, 4) for k in range(5)]
    points = []
    for xs in itertools.product(grid, repeat=3):
        caps = [min(xs[i], xs[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        for pairs in itertools.product(*([g for g in grid if g <= c] for c in caps)):
            points += [xs + pairs + (z,) for z in grid if z <= min(pairs)]
    return points


def assert_book_check_matches_fraction_gains(assessment, book):
    """dutch_book_gains equals the Fraction gains on every constituent, and
    the integer check accepts the book exactly when every gain is at least
    a positive margin: at the least gain when that is positive, and never
    just above it."""
    reference = fraction_book_gains(assessment, book)
    sub = assessment.restrict([p - 1 for p in book.member_indices])
    partition = quantity_constituents(sub.family)
    assert dutch_book_gains(assessment, book, partition) == reference
    system = build_sigma(sub, [c.codes for c in partition[0]])
    least = min(g for _, g in reference)
    at_least = DutchBook(book.member_indices, book.stakes, least)
    if least > 0:
        assert _checked_book(at_least, system) is at_least
    else:
        with pytest.raises(RuntimeError, match="betting certificate"):
            _checked_book(at_least, system)
    above = DutchBook(book.member_indices, book.stakes, least + F(1, 10**12))
    with pytest.raises(RuntimeError, match="betting certificate"):
        _checked_book(above, system)
    return least


class TestIntegerBookCheck:
    def test_quarter_grid_books_match_fraction_gains(self):
        assert len(quarter_grid()) == 2603
        books = 0
        for values in random.Random(43).sample(quarter_grid(), 640):
            assessment, _ = family7_assessment(values)
            book = check_coherence(assessment).dutch_book
            if book is None:
                continue
            books += 1
            assert assert_book_check_matches_fraction_gains(assessment, book) >= book.margin > 0
        assert books >= 500

    def test_mixed_denominator_stakes_and_previsions(self):
        _, first, second = pair_setup()
        x, y = F(1, 3), F(2, 7)
        books = []
        # z above min(x, y) is incoherent, and its book inherits the
        # denominators 3 and 7
        for z in (F(3, 7), F(5, 21), F(1, 5)):
            assessment = pair_conjunction_assessment(first, second, x, y, z)
            verdict = check_coherence(assessment)
            assert verdict.coherent == (z <= min(x, y))
            if verdict.dutch_book is not None:
                books.append((assessment, verdict.dutch_book))
        assert len(books) == 1
        assessment, book = books[0]
        assert assert_book_check_matches_fraction_gains(assessment, book) >= book.margin
        rng = random.Random(7)
        for _ in range(200):
            members = sorted(rng.sample((1, 2, 3), rng.randint(1, 3)))
            stakes = tuple(
                F(rng.randint(-9, 9), rng.choice((1, 3, 7, 21))) for _ in members
            )
            book = DutchBook(tuple(members), stakes, F(2, 7))
            assert_book_check_matches_fraction_gains(assessment, book)


def assert_rows_match_fraction_sigma(assessment, partition=None):
    """build_sigma's integer rows and scales equal the oracle's Fraction rows
    through LinearSystem.from_fractions, and its views give them back."""
    system = build_sigma(assessment, partition and [c.codes for c in partition[0]])
    equalities, rhs, labels = fraction_sigma(assessment, partition)
    assert system == LinearSystem.from_fractions(equalities, rhs, labels)
    assert fraction_rows(system) == (tuple(equalities), rhs)


def assert_book_gains_match(assessment, verdict):
    book = verdict.dutch_book
    if book is None:
        return 0
    assert dutch_book_gains(assessment, book) == fraction_book_gains(assessment, book)
    return 1


class TestIntegerRows:
    """build_sigma emits integer rows straight from the value codes; the
    Fraction rows they replaced are oracles.fraction_sigma."""

    def test_grid7_level_systems_and_books(self):
        systems = books = 0
        for values in random.Random(61).sample(quarter_grid(), 300):
            assessment, _ = family7_assessment(values)
            verdict = check_coherence(assessment)
            for record in verdict.trace:
                level = assessment.restrict(p - 1 for p in record.member_indices)
                assert_rows_match_fraction_sigma(level)
                systems += 1
            books += assert_book_gains_match(assessment, verdict)
        assert systems > 300 and books > 200

    def test_conjunction_families(self):
        rng = random.Random(62)
        cases = books = 0
        for n in range(2, 6):
            for _ in range(3):
                xs = tuple(F(rng.randint(0, 5), 5) for _ in range(n))
                family = conjunction_family(n, xs)
                lo, hi = frechet_bounds_conjunction(xs)
                for z in (lo, (lo + hi) / 2, hi, hi + F(1, 7), lo - F(1, 1000)):
                    assessment = Assessment(family, xs + (z,))
                    assert_rows_match_fraction_sigma(assessment)
                    books += assert_book_gains_match(assessment, check_coherence(assessment))
                    cases += 1
        assert cases == 60 and books >= 10

    def test_extend_bases_with_a_trailing_target(self):
        space = build_world_space(["A", "B", "C"])
        pool = TestExactPropagation.EVENT_POOL
        rng = random.Random(63)

        def draw(label):
            return indicator(
                ConditionalEvent(space.event(rng.choice(pool)), space.event(rng.choice(pool))),
                label,
            )

        for _ in range(300):
            size = rng.randint(1, 3)
            members = tuple(draw(f"X{i}") for i in range(1, size + 1))
            base = Assessment(members, tuple(F(rng.randint(0, 5), 5) for _ in range(size)))
            partition = quantity_constituents(members + (draw("T"),))
            assert_rows_match_fraction_sigma(base, partition)


class TestValueTable:
    def test_forced_constant_one(self):
        space = build_world_space(["E", "H"], ["!(H & !E)"])
        q = indicator(ConditionalEvent(space.event("E"), space.event("H")))
        rows = value_table(q)
        assert all(v == 1 for _, v in rows)

    def test_forced_constant_zero(self):
        space = build_world_space(["E", "H"], ["!(E & H)"])
        q = indicator(ConditionalEvent(space.event("E"), space.event("H")))
        rows = value_table(q)
        assert all(v == 0 for _, v in rows)

    def test_three_member_conjunction_case_table(self):
        space = build_world_space(["E1", "E2", "E3", "H1", "H2", "H3"])
        events = [
            ConditionalEvent(space.event(f"E{i}"), space.event(f"H{i}"))
            for i in (1, 2, 3)
        ]
        previsions = {
            (1,): F(11, 100), (2,): F(12, 100), (3,): F(13, 100),
            (1, 2): F(21, 100), (1, 3): F(22, 100), (2, 3): F(23, 100),
            (1, 2, 3): F(31, 100),
        }
        conj = make_conjunction(events, previsions)
        rows = value_table(conj)
        values = [v for _, v in rows]
        assert len(rows) == 9
        assert values.count(F(1)) == 1 and values.count(F(0)) == 1
        for subset, x in previsions.items():
            assert values.count(x) == 1
        assert rows[-1][0].all_void and rows[-1][1] == F(31, 100)

    def test_free_void_value_reported_as_none(self):
        space, first, _ = pair_setup()
        rows = value_table(indicator(first))
        assert rows[-1][0].all_void and rows[-1][1] is None


class TestExtensionInterval:
    def test_pair_conjunction_envelope(self):
        space, first, second = pair_setup()
        family = (indicator(first, "X"), indicator(second, "Y"))
        base = Assessment(family, (F(7, 20), F(9, 20)))
        target = make_conjunction([first, second], {(1,): F(7, 20), (2,): F(9, 20)})
        closed = extension_interval(base, target)
        generic = propagated_interval(base, target)
        assert (closed.lower, closed.upper) == (F(0), F(7, 20))
        assert closed.exact
        assert (generic.lower, generic.upper, generic.exact) == (
            closed.lower, closed.upper, True
        )

    def test_pair_disjunction_envelope(self):
        space, first, second = pair_setup()
        family = (indicator(first, "X"), indicator(second, "Y"))
        base = Assessment(family, (F(7, 20), F(9, 20)))
        target = make_disjunction(
            [first, second],
            demorgan_previsions(
                CompoundPrevisionMap({(1,): F(7, 20), (2,): F(9, 20)})
            ),
        )
        lo, hi = frechet_bounds_disjunction((F(7, 20), F(9, 20)))
        closed = extension_interval(base, target)
        generic = propagated_interval(base, target)
        assert (closed.lower, closed.upper) == (lo, hi) == (F(9, 20), F(4, 5))
        assert closed.exact
        assert (generic.lower, generic.upper, generic.exact) == (lo, hi, True)

    def test_same_consequent_overlapping(self):
        space = build_world_space(["A", "H", "K"])
        first = ConditionalEvent(space.event("A"), space.event("H"))
        second = ConditionalEvent(space.event("A"), space.event("K"))
        base = Assessment(
            (indicator(first, "X"), indicator(second, "Y")),
            (F(7, 20), F(9, 20)),
        )
        target = make_conjunction([first, second], {(1,): F(7, 20), (2,): F(9, 20)})
        closed = extension_interval(base, target)
        generic = propagated_interval(base, target)
        assert (closed.lower, closed.upper) == (F(63, 400), F(7, 20))
        assert closed.exact
        assert (generic.lower, generic.upper, generic.exact) == (
            F(63, 400), F(7, 20), True
        )

    def test_disjoint_antecedents_pin_product(self):
        space = build_world_space(["A", "H", "K"], ["!(H & K)"])
        first = ConditionalEvent(space.event("A"), space.event("H"))
        second = ConditionalEvent(space.event("A"), space.event("K"))
        base = Assessment(
            (indicator(first, "X"), indicator(second, "Y")),
            (F(7, 20), F(9, 20)),
        )
        target = make_conjunction([first, second], {(1,): F(7, 20), (2,): F(9, 20)})
        closed = extension_interval(base, target)
        generic = propagated_interval(base, target)
        assert (closed.lower, closed.upper) == (F(63, 400), F(63, 400))
        assert closed.exact
        assert (generic.lower, generic.upper, generic.exact) == (
            F(63, 400), F(63, 400), True
        )

    def test_closed_forms_answer_for_their_own_shapes(self):
        # extension_interval propagates the Frechet-Hoeffding and the
        # same-consequent shapes: each must meet its public closed form
        fifths = [F(k, 5) for k in range(6)]
        for n in (2, 3):
            space = build_world_space(
                [f"E{i}" for i in range(1, n + 1)] + [f"H{i}" for i in range(1, n + 1)]
            )
            events = [
                ConditionalEvent(space.event(f"E{i}"), space.event(f"H{i}"))
                for i in range(1, n + 1)
            ]
            family = tuple(indicator(e, f"X{i}") for i, e in enumerate(events, 1))
            subsets = [
                s for r in range(1, n) for s in itertools.combinations(range(1, n + 1), r)
            ]
            for xs in itertools.product(fifths, repeat=n):
                base = Assessment(family, xs)
                # independent sub-compounds, inside their own envelopes
                conj = make_conjunction(
                    events, {s: math.prod(xs[i - 1] for i in s) for s in subsets}
                )
                disj = make_disjunction(
                    events, {s: math.prod(1 - xs[i - 1] for i in s) for s in subsets}
                )
                for target, bounds in (
                    (conj, frechet_bounds_conjunction),
                    (disj, frechet_bounds_disjunction),
                ):
                    result = extension_interval(base, target)
                    assert (result.lower, result.upper) == bounds(xs)
        for constraints, disjoint in (((), False), (["!(H & K)"], True)):
            ahk = build_world_space(["A", "H", "K"], constraints)
            first = ConditionalEvent(ahk.event("A"), ahk.event("H"))
            second = ConditionalEvent(ahk.event("A"), ahk.event("K"))
            family = (indicator(first, "X"), indicator(second, "Y"))
            for x, y in itertools.product(fifths, repeat=2):
                target = make_conjunction([first, second], {(1,): x, (2,): y})
                result = extension_interval(Assessment(family, (x, y)), target)
                assert (result.lower, result.upper) == special_case_same_consequent(
                    x, y, disjoint
                )
        # propagation gives the family7 interval too, so only the dispatcher
        # itself shows that the shape is recognized
        values = ("1/2", "1/2", "1/2", "3/8", "3/8", "3/8", 0)
        assessment, triple = family7_assessment(values)
        assert _family7_dispatch(assessment.restrict(range(6)), triple) == (F(1, 4), F(3, 8))
        # one shared antecedent: 9 blocks, and the closed form still applies
        assessment, triple = family7_assessment(values, shared_antecedent=True)
        assert _family7_dispatch(assessment.restrict(range(6)), triple) == (F(1, 4), F(3, 8))
        # dependent events, E1|H and E1|(H | K): 15 blocks, where the closed
        # form would claim [1/4, 3/8]
        space = build_world_space(["E1", "E3", "H", "K", "H3"])
        events = [
            ConditionalEvent(space.event(e), space.event(h))
            for e, h in (("E1", "H"), ("E1", "H | K"), ("E3", "H3"))
        ]
        assessment, triple = family7_assessment(values, events=events)
        base = assessment.restrict(range(6))
        assert _family7_dispatch(base, triple) is None
        result = extension_interval(base, triple)
        assert (result.lower, result.upper) == (F(9, 32), F(11, 32))

    def test_target_already_in_family(self):
        space, first, second = pair_setup()
        family = (indicator(first, "X"), indicator(second, "Y"))
        base = Assessment(family, (F(7, 20), F(9, 20)))
        result = extension_interval(base, indicator(first, "again"))
        assert (result.lower, result.upper, result.exact) == (
            F(7, 20), F(7, 20), True
        )

    def test_family7_triple_interval(self):
        values = ("1/2", "1/2", "1/2", "3/8", "3/8", "3/8", 0)
        assessment, triple = family7_assessment(values)
        base = assessment.restrict(range(6))
        closed = extension_interval(base, triple)
        generic = propagated_interval(base, triple)
        assert (closed.lower, closed.upper) == (F(1, 4), F(3, 8))
        assert closed.exact
        assert (generic.lower, generic.upper, generic.exact) == (
            F(1, 4), F(3, 8), True
        )

    def test_adversarial_internal_previsions_skip_closed_form(self):
        space = build_world_space(["E1", "E2", "E3", "H1", "H2", "H3"])
        events = [
            ConditionalEvent(space.event(f"E{i}"), space.event(f"H{i}"))
            for i in (1, 2, 3)
        ]
        family = tuple(indicator(ce, f"X{i}") for i, ce in enumerate(events, 1))
        base = Assessment(family, (F(1), F(1), F(1)))
        target = make_conjunction(
            events,
            {
                (1,): F(1), (2,): F(1), (3,): F(1),
                (1, 2): F(0), (1, 3): F(0), (2, 3): F(0),
            },
        )
        result = extension_interval(base, target)
        assert (result.lower, result.upper, result.exact) == (F(0), F(1), True)

    def test_incoherent_base_raises(self):
        space = build_world_space(["E", "H"], ["!(E & H)"])
        q = indicator(ConditionalEvent(space.event("E"), space.event("H")))
        base = Assessment((q,), (F(1, 2),))
        with pytest.raises(IncoherentBase):
            extension_interval(base, indicator(
                ConditionalEvent(space.event("E"), space.everything)
            ))


class TestExactPropagation:
    """Generic extension intervals on random indicator families: the target's
    antecedent may carry zero mass, so propagation past the first level
    decides the endpoints."""

    LITERALS = ("A", "B", "C", "!A", "!B", "!C")
    EVENT_POOL = LITERALS + tuple(
        f"{a} & {b}"
        for a, b in itertools.combinations(LITERALS, 2)
        if a.lstrip("!") != b.lstrip("!")
    )
    STEP = F(1, 10**6)

    def test_pinned_value_with_vanishing_antecedent_mass(self):
        space = build_world_space(["A", "B", "C"])
        x = indicator(ConditionalEvent(space.event("B"), space.event("!A")), "X")
        y = indicator(ConditionalEvent(space.event("!B"), space.event("A & !C")), "Y")
        target = indicator(
            ConditionalEvent(space.event("B"), space.event("A & !C")), "T"
        )
        base = Assessment((x, y), (F(3, 5), F(3, 5)))
        for result in (extension_interval(base, target), propagated_interval(base, target)):
            assert (result.lower, result.upper, result.exact) == (
                F(2, 5), F(2, 5), True
            )

    def test_fifth_valued_sweep_is_sharp(self):
        space = build_world_space(["A", "B", "C"])
        rng = random.Random(5)

        def draw(label):
            return indicator(
                ConditionalEvent(
                    space.event(rng.choice(self.EVENT_POOL)),
                    space.event(rng.choice(self.EVENT_POOL)),
                ),
                label,
            )

        coherent_bases = 0
        for _ in range(4000):
            size = rng.randint(1, 3)
            members = tuple(draw(f"X{i}") for i in range(1, size + 1))
            values = tuple(F(rng.randint(0, 5), 5) for _ in range(size))
            target = draw("T")
            base = Assessment(members, values)
            if not check_coherence(base).coherent:
                continue
            coherent_bases += 1
            result = propagated_interval(base, target)
            assert result.exact and result.lower <= result.upper
            middle = (result.lower + result.upper) / 2
            for mu in (result.lower, middle, result.upper):
                assert check_coherence(base.extend(target, mu)).coherent
            for mu in (result.lower - self.STEP, result.upper + self.STEP):
                beyond = base.extend(target, mu)
                book = find_dutch_book(beyond)
                assert book is not None
                gains = dutch_book_gains(beyond, book)
                assert gains and all(g > 0 for _, g in gains)
        # pins the draw: among its bases are two whose target is pinned (to
        # 1/5 and 2/5) only past the first level
        assert coherent_bases == 1240
