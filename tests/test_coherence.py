"""The coherence engine: recursion, betting certificates, extensions."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from oracles import (
    fraction_book_gains,
    fraction_rows,
    fraction_sigma,
    fraction_system,
    per_member_m_values,
    table_rows,
    worlds_of,
)
from prevision import (
    Assessment,
    CompoundPrevisionMap,
    ConditionalEvent,
    DutchBook,
    Event,
    Family7Assessment,
    IncoherentBase,
    build_world_space,
    check_coherence,
    check_family7,
    demorgan_previsions,
    dutch_book_gains,
    extension_interval,
    family7_bounds,
    find_dutch_book,
    frechet_bounds_conjunction,
    frechet_bounds_disjunction,
    indicator,
    make_conjunction,
    make_disjunction,
    special_case_same_consequent,
    value_table,
)
from prevision.coherence import LevelRecord, _checked_book
from prevision.geometry import (
    ConditionalQuantity,
    build_sigma,
    keyed_partition,
    quantity_constituents,
)

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

    def test_hull_screen_keys_a_member_by_its_own_levels(self, monkeypatch):
        """Every built quantity has a world at every level, so its level
        codes are its keyed partition, and a prevision outside its hull is
        booked without a pass over the worlds."""
        import prevision.geometry as geometry

        space, first, second = pair_setup()
        _, forced, _ = pair_setup(constraints=["!(H & !A)"])
        h = space.event("H")
        pair = {(1,): F(1, 3), (2,): F(1, 2)}
        quantities = [
            indicator(first),
            indicator(forced),  # true wherever its antecedent holds: one level
            make_conjunction([first, second], pair),
            make_conjunction([first, second], {(1,): F(1, 2), (2,): F(1, 2)}),  # levels merge
            make_disjunction([first, second], demorgan_previsions(CompoundPrevisionMap(pair))),
            ConditionalQuantity.from_values(h, {w: F(w % 3, 4) for w in worlds_of(h)}),
        ]
        for q in quantities:
            columns = keyed_partition([q.codes], [len(q.levels)])
            assert [*map(tuple, columns)] == [tuple(range(len(q.levels)))]
        assert [len(q.levels) for q in quantities] == [2, 1, 4, 3, 4, 3]

        def no_world_pass(*args):
            raise AssertionError("the hull screen walked the worlds")

        monkeypatch.setattr(geometry, "keyed_partition", no_world_pass)
        for q in quantities:
            lo, hi = q.hull()
            for mu, stake in ((lo - 1, F(1)), (hi + F(1, 2), F(-1))):
                verdict = check_coherence(Assessment((q,), (mu,)))
                assert not verdict.coherent
                assert verdict.dutch_book.stakes == (stake,)
                assert verdict.dutch_book.margin == (lo - mu if mu < lo else mu - hi)

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
        passes, lanes = [], []  # lanes: the checked quantities' world codes

        def partition(codes, voids):
            assert len(voids) == len(codes)
            worlds = [any(lane is q.codes for q in lanes) for lane in codes]
            assert len(set(worlds)) == 1  # world codes and block columns never mix
            kind = "worlds" if worlds[0] else "projection"
            passes.append((kind, len(codes), len(codes[0]) if codes else 0))
            return real(codes, voids)

        def built(*args):
            raise AssertionError("constituent object built on the check path")

        # the walk keys the worlds, then projects the keys, through either name
        monkeypatch.setattr(geometry, "keyed_partition", partition)
        monkeypatch.setattr(coherence, "keyed_partition", partition)
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
        lanes[:] = assessment.family
        verdict = check_coherence(assessment)
        assert not verdict.coherent
        assert [r.member_indices for r in verdict.trace] == [(1, 2, 3), (2, 3)]
        assert verdict.dutch_book.member_indices == (2, 3)
        level_one = build_sigma(assessment).n_unknowns
        assert passes[:2] == [("worlds", 3, len(space)), ("projection", 2, level_one)]

        # the grid7 and conj-scale shapes: one world pass per check
        cases = [family7_assessment(v)[0] for v in random.Random(3).sample(quarter_grid(), 40)]
        for n in (3, 4, 5):
            xs = tuple(F(k, 5) for k in (1, 2, 3, 4, 1)[:n])
            lo, hi = frechet_bounds_conjunction(xs)
            cases += [Assessment(conjunction_family(n, xs), xs + (z,)) for z in (lo, hi, hi + F(1, 1000))]
        for case in cases:
            passes.clear()
            lanes[:] = case.family
            verdict = check_coherence(case)
            kinds = [kind for kind, _, _ in passes]
            assert kinds == ["worlds"] + ["projection"] * (kinds.count("projection"))
            assert passes[0][2] == len(case.space)
            # a level that leaves members at zero projects the columns for the next
            assert kinds.count("projection") == sum(bool(r.i0) for r in verdict.trace)
        # the views, which build constituents, meet the guard
        with pytest.raises(AssertionError, match="constituent object"):
            quantity_constituents(case.family)

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
    assert dutch_book_gains(assessment, book) == reference
    system = build_sigma(sub)
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
    through `fraction_system`, and its views give them back."""
    system = build_sigma(assessment, partition and [*zip(*(c.codes for c in partition[0]))])
    equalities, rhs, labels = fraction_sigma(assessment, partition)
    assert system == fraction_system(equalities, rhs, labels)
    assert fraction_rows(system) == (tuple(equalities), rhs)


def assert_book_gains_match(assessment, verdict):
    book = verdict.dutch_book
    if book is None:
        return 0
    assert dutch_book_gains(assessment, book) == fraction_book_gains(assessment, book)
    return 1


def assert_record_keeps_its_level(record, walked, target=None):
    """A walked record keeps its members' assessment, cut from the `walked`
    one, their block columns with the target's lane last and their void
    codes, and the system over the columns' member-active prefix; a record
    with the same compared fields and none of these is equal, with the same
    hash and repr."""
    t = len(record.member_indices)
    assert record.assessment == walked.restrict([p - 1 for p in record.member_indices])
    lanes = record.assessment.family + (() if target is None else (target,))
    assert list(record.voids) == [len(q.levels) for q in lanes] and len(record.columns) == len(lanes)
    active = [key[:t] != tuple(record.voids[:t]) for key in zip(*record.columns)]
    m = sum(active)
    assert active == [True] * m + [False] * (len(active) - m)
    assert record.system == build_sigma(record.assessment, [c[:m] for c in record.columns])
    bare = LevelRecord(*(getattr(record, name) for name in LevelRecord._compared))
    assert bare.system is None
    assert (bare, hash(bare), repr(bare)) == (record, hash(record), repr(record))


def test_walked_records_keep_their_level_systems(monkeypatch):
    """A multi-level check and the walks of extension intervals, sub-walks
    included, leave each level's system on its record."""
    space = build_world_space(["E", "H"])
    h = indicator(ConditionalEvent(space.event("H"), space.everything), "H")
    e_given_h = indicator(ConditionalEvent(space.event("E"), space.event("H")), "E|H")
    base = Assessment((h, e_given_h), (F(0), F(1, 3)))
    verdict = check_coherence(base)
    assert verdict.coherent and len(verdict.trace) == 2
    for record in verdict.trace:
        assert_record_keeps_its_level(record, base)

    import prevision.coherence as coherence

    traces, depth = [], [0]

    def propagate(trace, target):
        traces.append((trace, target, depth[0]))  # at depth 1 and past, a sub-walk's
        depth[0] += 1
        try:
            return real_propagate(trace, target)
        finally:
            depth[0] -= 1

    real_propagate = coherence._propagate
    monkeypatch.setattr(coherence, "_propagate", propagate)
    space = build_world_space(["A", "B", "C"])
    rng = random.Random(65)

    def draw(label):
        pool = TestExactPropagation.EVENT_POOL
        consequent, antecedent = (space.event(rng.choice(pool)) for _ in range(2))
        return indicator(ConditionalEvent(consequent, antecedent), label)

    for _ in range(400):
        size = rng.randint(1, 3)
        members = tuple(draw(f"X{i}") for i in range(1, size + 1))
        base = Assessment(members, tuple(F(rng.randint(0, 5), 5) for _ in range(size)))
        if check_coherence(base).coherent:
            extension_interval(base, draw("T"))
    levels = 0
    for trace, target, _ in traces:
        for record in trace:
            assert_record_keeps_its_level(record, trace[0].assessment, target)
            levels += 1
    assert len(traces) > 100 and levels > len(traces)
    assert any(sub for _, _, sub in traces)


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

    def test_propagation_systems_tables_reproduce_their_rows(self, monkeypatch):
        """The Charnes-Cooper and void-target systems of extension intervals
        derive their value tables from their rows, and table[code] gives
        back every entry, as it does on the level systems of build_sigma."""
        import prevision.coherence as coherence

        kinds = {"build_sigma": 0, "charnes-cooper": 0, "void-target": 0}

        def checked(real):
            def solve(system, *args):
                assert table_rows(system) == [row[:-1] for row in system.rows]
                if system.tables is not None:
                    kinds["build_sigma"] += 1
                else:
                    kinds["void-target" if system.normalization else "charnes-cooper"] += 1
                return real(system, *args)
            return solve

        monkeypatch.setattr(coherence, "_linear_range", checked(coherence._linear_range))
        monkeypatch.setattr(coherence, "_m_values", checked(coherence._m_values))
        space = build_world_space(["A", "B", "C"])
        pool = TestExactPropagation.EVENT_POOL
        rng = random.Random(64)

        def draw(label):
            return indicator(
                ConditionalEvent(space.event(rng.choice(pool)), space.event(rng.choice(pool))),
                label,
            )

        for _ in range(3000):
            if min(kinds.values()) >= 5:
                break
            size = rng.randint(1, 3)
            members = tuple(draw(f"X{i}") for i in range(1, size + 1))
            base = Assessment(members, tuple(F(rng.randint(0, 5), 5) for _ in range(size)))
            if check_coherence(base).coherent:
                extension_interval(base, draw("T"))
        assert min(kinds.values()) >= 5


class TestZeroSet:
    """One LP over the union of the active sets that no witness gives mass
    proves each of them zero when its maximum is 0; otherwise each member
    gets its own LP, and the m-values are those of one LP per member."""

    @staticmethod
    def spy(monkeypatch):
        """Record every `_m_values` call with its arguments and answer, and
        the `maximize_component_sum` calls made inside it."""
        import prevision.coherence as coherence

        calls, real_m_values, real_maximize = [], coherence._m_values, coherence.maximize_component_sum

        def m_values(system, columns, voids, witnesses):
            calls.append({"args": (system, columns, voids, witnesses), "lps": []})
            calls[-1]["answer"] = real_m_values(system, columns, voids, witnesses)
            return calls[-1]["answer"]

        def maximize(system, index_set):
            index_set = set(index_set)
            calls[-1]["lps"].append(index_set)
            return real_maximize(system, index_set)

        monkeypatch.setattr(coherence, "_m_values", m_values)
        monkeypatch.setattr(coherence, "maximize_component_sum", maximize)
        return calls

    @staticmethod
    def active(columns, voids, i):
        return {h for h, c in enumerate(columns[i]) if c != voids[i]}

    def test_one_lp_proves_three_zeros(self, monkeypatch):
        """(0, 1/2, 3/4, 0, 0, 0, 0): level one is solvable with members 2, 3
        and 6 stuck at zero, and level two is booked.  One LP over their
        union proves the three zeros, where one LP per member took three."""
        assessment, _ = family7_assessment((0, F(1, 2), F(3, 4), 0, 0, 0, 0))
        unpatched = check_coherence(assessment)
        calls = self.spy(monkeypatch)
        verdict = check_coherence(assessment)
        assert verdict == unpatched and not verdict.coherent
        assert verdict.trace[0].i0 == {2, 3, 6} and verdict.trace[1].member_indices == (2, 3, 6)
        (call,) = calls
        system, columns, voids, witnesses = call["args"]
        assert call["lps"] == [set().union(*(self.active(columns, voids, i) for i in (1, 2, 5)))]
        assert call["answer"] == per_member_m_values(system, columns, voids, witnesses)
        level = verdict.trace[0]
        assert level.m_values == tuple(call["answer"][0])
        assert [level.m_values[i] for i in (1, 2, 5)] == [0, 0, 0]

    def test_positive_union_falls_back_to_one_lp_per_member(self, monkeypatch):
        """An extension on a coherent base over {A, B, C}, from the extend
        benchmark's pool: the base's level-one system leaves X2 and X3 without
        witness mass, their union can get mass, and each then gets its own
        LP, with maxima 1 and 15/17."""
        space = build_world_space(["A", "B", "C"])
        base = Assessment(
            tuple(
                indicator(ConditionalEvent(space.event(e), space.event(h)), f"X{i}")
                for i, (e, h) in enumerate(
                    (("!A & !C", "!B"), ("C", "A & B"), ("!A & !B", "C & !A")), 1
                )
            ),
            (F(2, 5), F(3, 5), F(1, 5)),
        )
        target = indicator(ConditionalEvent(space.event("B & !A"), space.event("A & B")), "T")
        calls = self.spy(monkeypatch)
        interval = extension_interval(base, target)
        assert (interval.lower, interval.upper) == (0, 0)
        (call,) = [c for c in calls if len(c["lps"]) > 1]
        system, columns, voids, witnesses = call["args"]
        assert len(system.rows) == len(base) + 1  # the members and the normalization
        union, *own = call["lps"]
        assert own == [self.active(columns, voids, i) for i in (1, 2)]
        assert union == own[0] | own[1]
        m_values, witnessed, zero = call["answer"]
        assert m_values[1:] == [1, F(15, 17)] and zero == []
        assert call["answer"] == per_member_m_values(system, columns, voids, witnesses)

    def test_m_values_match_one_lp_per_member(self, monkeypatch):
        """Every level of quarter-grid checks and of random extensions gives
        the m-values, witnessed positions and zero set of one LP per member;
        both outcomes of the union LP occur."""
        calls = self.spy(monkeypatch)
        for values in random.Random(26).sample(quarter_grid(), 400):
            check_coherence(family7_assessment(values)[0])
        space = build_world_space(["A", "B", "C"])
        pool = TestExactPropagation.EVENT_POOL
        rng = random.Random(26)

        def draw(label):
            return indicator(
                ConditionalEvent(space.event(rng.choice(pool)), space.event(rng.choice(pool))),
                label,
            )

        for _ in range(300):
            size = rng.randint(2, 3)
            members = tuple(draw(f"X{i}") for i in range(1, size + 1))
            base = Assessment(members, tuple(F(rng.randint(0, 5), 5) for _ in range(size)))
            if check_coherence(base).coherent:
                extension_interval(base, draw("T"))
        unions = {"zero": 0, "positive": 0}
        for call in calls:
            assert call["answer"] == per_member_m_values(*call["args"])
            system, columns, voids, witnesses = call["args"]
            rest = [i for i in range(len(columns))
                    if not any(h in self.active(columns, voids, i)
                               for w in witnesses for h, _ in w.support)]
            if len(rest) > 1:
                assert call["lps"][0] == set().union(*(self.active(columns, voids, i) for i in rest))
                unions["zero" if len(call["lps"]) == 1 else "positive"] += 1
        assert min(unions.values()) >= 5, unions


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
        assert set(rows[-1][0].profile) == {None} and rows[-1][1] == F(31, 100)

    def test_free_void_value_reported_as_none(self):
        space, first, _ = pair_setup()
        rows = value_table(indicator(first))
        assert set(rows[-1][0].profile) == {None} and rows[-1][1] is None


def test_book_gains_and_value_table_at_the_atom_bound_stay_small():
    """On the CLI's 20-atom problem the book's gains and the conjunction's
    table come from the keyed partition, with no set of worlds per block:
    each peaks under 10 MB in tracemalloc, where such sets took over 80 MB."""
    space = build_world_space([f"A{i}" for i in range(20)], ["!(A3 & A4)"])
    x, y = (ConditionalEvent(space.event("A0"), space.event(h)) for h in ("A1", "A2"))
    conj = make_conjunction([x, y], {1: F(7, 20), 2: F(9, 20)}, "C")
    assessment = Assessment(
        (indicator(x, "X"), indicator(y, "Y"), conj), (F(7, 20), F(9, 20), F(9, 10))
    )
    book = check_coherence(assessment).dutch_book
    tracemalloc.start()
    try:
        gains = dutch_book_gains(assessment, book)
        gains_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rows = value_table(conj)
        table_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(c.label(), g) for c, g in gains] == [
        ("+++", F(11, 20)), ("+0(9/20)", F(11, 10)), ("---", F(11, 20)),
        ("-0-", F(11, 20)), ("0+(7/20)", F(11, 20)), ("0--", F(9, 10)),
    ]
    assert [(c.label(), v) for c, v in rows] == [
        ("+", 1), ("(9/20)", F(9, 20)), ("(7/20)", F(7, 20)), ("-", 0), ("0", None),
    ]
    assert gains_peak < 10 * 2**20 and table_peak < 10 * 2**20


class TestExtensionInterval:
    def test_pair_conjunction_envelope(self):
        space, first, second = pair_setup()
        family = (indicator(first, "X"), indicator(second, "Y"))
        base = Assessment(family, (F(7, 20), F(9, 20)))
        target = make_conjunction([first, second], {(1,): F(7, 20), (2,): F(9, 20)})
        result = extension_interval(base, target)
        assert (result.lower, result.upper, result.exact) == (F(0), F(7, 20), True)

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
        result = extension_interval(base, target)
        assert (lo, hi) == (F(9, 20), F(4, 5))
        assert (result.lower, result.upper, result.exact) == (lo, hi, True)

    def test_same_consequent_overlapping(self):
        space = build_world_space(["A", "H", "K"])
        first = ConditionalEvent(space.event("A"), space.event("H"))
        second = ConditionalEvent(space.event("A"), space.event("K"))
        base = Assessment(
            (indicator(first, "X"), indicator(second, "Y")),
            (F(7, 20), F(9, 20)),
        )
        target = make_conjunction([first, second], {(1,): F(7, 20), (2,): F(9, 20)})
        result = extension_interval(base, target)
        assert (result.lower, result.upper, result.exact) == (F(63, 400), F(7, 20), True)

    def test_disjoint_antecedents_pin_product(self):
        space = build_world_space(["A", "H", "K"], ["!(H & K)"])
        first = ConditionalEvent(space.event("A"), space.event("H"))
        second = ConditionalEvent(space.event("A"), space.event("K"))
        base = Assessment(
            (indicator(first, "X"), indicator(second, "Y")),
            (F(7, 20), F(9, 20)),
        )
        target = make_conjunction([first, second], {(1,): F(7, 20), (2,): F(9, 20)})
        result = extension_interval(base, target)
        assert (result.lower, result.upper, result.exact) == (F(63, 400), F(63, 400), True)

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
        # the family7 triple, propagated: with 27 blocks, with one shared
        # antecedent (9 blocks), and with the pairs in any order
        values = ("1/2", "1/2", "1/2", "3/8", "3/8", "3/8", 0)
        for shared in (False, True):
            assessment, triple = family7_assessment(values, shared_antecedent=shared)
            result = extension_interval(assessment.restrict(range(6)), triple)
            assert (result.lower, result.upper) == (F(1, 4), F(3, 8))
        space = build_world_space(["E1", "E2", "E3", "H1", "H2", "H3"])
        events = [
            ConditionalEvent(space.event(f"E{i}"), space.event(f"H{i}")) for i in (1, 2, 3)
        ]
        assessment, triple = family7_assessment(values, events=events)
        singles, pairs = assessment.family[:3], assessment.family[3:6]
        xs, pair_xs = assessment.values[:3], assessment.values[3:6]
        for order in itertools.permutations(range(3)):
            base = Assessment(
                singles + tuple(pairs[k] for k in order), xs + tuple(pair_xs[k] for k in order)
            )
            result = extension_interval(base, triple)
            assert (result.lower, result.upper) == (F(1, 4), F(3, 8))
        # off the family7 shape: a pair off by 1/8 where one member is void,
        # one pair listed twice, and a triple whose entry for the pair (1, 2)
        # is off by 1/8; each interval is sharp
        off = make_conjunction(events[:2], {(1,): xs[0] + F(1, 8), (2,): xs[1]})
        entries = {(1,): xs[0], (2,): xs[1], (3,): xs[2], (1, 3): pair_xs[1], (2, 3): pair_xs[2]}
        off_triple = make_conjunction(events, {**entries, (1, 2): pair_xs[0] + F(1, 8)})
        cases = [
            (Assessment(singles + compounds, assessment.values[:6]), triple)
            for compounds in ((off,) + pairs[1:], (pairs[0], pairs[0], pairs[2]))
        ] + [(assessment.restrict(range(6)), off_triple)]
        for base, target in cases:
            result = extension_interval(base, target)
            assert (result.lower, result.upper) == (F(1, 4), F(3, 8))
            for mu in (result.lower, result.upper):
                assert check_coherence(base.extend(target, mu)).coherent
            for mu in (result.lower - F(1, 64), result.upper + F(1, 64)):
                assert not check_coherence(base.extend(target, mu)).coherent
        # dependent events, E1|H and E1|(H | K): 15 blocks, where the closed
        # form would claim [1/4, 3/8]
        space = build_world_space(["E1", "E3", "H", "K", "H3"])
        events = [
            ConditionalEvent(space.event(e), space.event(h))
            for e, h in (("E1", "H"), ("E1", "H | K"), ("E3", "H3"))
        ]
        assessment, triple = family7_assessment(values, events=events)
        result = extension_interval(assessment.restrict(range(6)), triple)
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
        result = extension_interval(base, triple)
        assert (result.lower, result.upper, result.exact) == (F(1, 4), F(3, 8), True)

    def test_family7_triple_meets_closed_form_on_quarter_grid(self):
        quarters = [F(k, 4) for k in range(5)]
        space = build_world_space(["E1", "E2", "E3", "H1", "H2", "H3"])
        events = [
            ConditionalEvent(space.event(f"E{i}"), space.event(f"H{i}")) for i in (1, 2, 3)
        ]
        coherent = 0
        for six in itertools.product(quarters, repeat=6):
            bounds = family7_bounds(*six)
            if bounds[0] > bounds[1]:
                continue
            coherent += 1
            assessment, triple = family7_assessment(six + (0,), events=events)
            result = extension_interval(assessment.restrict(range(6)), triple)
            assert (result.lower, result.upper) == bounds, six
        assert coherent == 329

    def test_whole_union_targets_need_no_charnes_cooper_system(self, monkeypatch):
        """A target active on every block of a level gets its range from that
        level's own system; only a target void on some block needs the
        Charnes-Cooper system."""
        import prevision.coherence as coherence

        real = coherence._charnes_cooper_range
        calls = []

        def refuse(*args):
            raise AssertionError("Charnes-Cooper system built")

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(coherence, "_charnes_cooper_range", refuse)
        for n, xs in ((2, (F(7, 20), F(9, 20))), (3, (F(1, 2), F(2, 5), F(3, 4)))):
            family = conjunction_family(n, xs)
            result = extension_interval(Assessment(family[:n], xs), family[n])
            assert (result.lower, result.upper) == frechet_bounds_conjunction(xs)
        for constraints, disjoint in (((), False), (["!(H & K)"], True)):
            ahk = build_world_space(["A", "H", "K"], constraints)
            first = ConditionalEvent(ahk.event("A"), ahk.event("H"))
            second = ConditionalEvent(ahk.event("A"), ahk.event("K"))
            base = Assessment((indicator(first, "X"), indicator(second, "Y")), (F(7, 20), F(9, 20)))
            target = make_conjunction([first, second], {(1,): F(7, 20), (2,): F(9, 20)})
            result = extension_interval(base, target)
            assert (result.lower, result.upper) == special_case_same_consequent(
                F(7, 20), F(9, 20), disjoint
            )
        assessment, triple = family7_assessment(("1/2", "1/2", "1/2", "3/8", "3/8", "3/8", 0))
        result = extension_interval(assessment.restrict(range(6)), triple)
        assert (result.lower, result.upper) == family7_bounds(*assessment.values[:6])
        # T is void on the !A blocks of X's antecedent
        monkeypatch.setattr(coherence, "_charnes_cooper_range", counted)
        space = build_world_space(["A", "B", "C"])
        x = indicator(ConditionalEvent(space.event("B"), space.event("!A")), "X")
        y = indicator(ConditionalEvent(space.event("!B"), space.event("A & !C")), "Y")
        target = indicator(ConditionalEvent(space.event("B"), space.event("A & !C")), "T")
        result = extension_interval(Assessment((x, y), (F(3, 5), F(3, 5))), target)
        assert (result.lower, result.upper) == (F(2, 5), F(2, 5))
        assert calls

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
        result = extension_interval(base, target)
        assert (result.lower, result.upper, result.exact) == (F(2, 5), F(2, 5), True)

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
            result = extension_interval(base, target)
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


@pytest.mark.parametrize(
    "build",
    [
        lambda space: ConditionalQuantity.from_level_sets(Event(space, 0), []),
        lambda space: ConditionalQuantity.from_values(Event(space, 0), {}),
        lambda space: ConditionalQuantity(Event(space, 0), (), b"\x00" * len(space)),
    ],
    ids=["from_level_sets", "from_values", "init"],
)
def test_a_quantity_on_an_empty_conditioning_event_is_refused(build):
    """Such a quantity has no levels, so no hull: each engine entry it reached
    ended in an IndexError.  It is refused where it is built, as an empty
    antecedent is."""
    space, first, _ = pair_setup()
    base = Assessment((indicator(first),), (F(1, 2),))
    entries = (
        lambda q: check_coherence(Assessment((q,), (F(0),))),
        lambda q: extension_interval(base, q),
        value_table,
    )
    for entry in entries:
        with pytest.raises(ValueError, match="conditioning event must be non-empty"):
            entry(build(space))


@pytest.mark.parametrize(
    "indices, stakes",
    [((0,), (F(1),)), ((3,), (F(1),)), ((1, 2), (F(1),)), ((1,), (F(1), F(1)))],
    ids=["index 0", "past the family", "a stake short", "a stake over"],
)
def test_a_malformed_book_is_refused(indices, stakes):
    """Index 0 read the last member through a wrapped-around index, an index
    past the family ended in IndexError, and stakes were zipped with the
    members, so a missing one counted as 0 and an extra one was dropped."""
    _, first, second = pair_setup()
    assessment = Assessment((indicator(first), indicator(second)), (F(1, 2), F(1, 3)))
    with pytest.raises(ValueError, match="one stake per member index"):
        dutch_book_gains(assessment, DutchBook(indices, stakes, F(1)))
    gains = dutch_book_gains(assessment, DutchBook((2,), (F(1),), F(1)))
    assert sorted({g for _, g in gains}) == [F(-1, 3), F(2, 3)]
