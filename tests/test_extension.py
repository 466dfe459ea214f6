"""Extension intervals from one walk over the base's levels.

The base verdict and the propagation share each level's partition, refined
by the target, and its phase 1.  `oracles.two_walk_extension` is the
extension as it ran before, a verdict walk and then a propagation with a
partition and a phase 1 of its own at every level, over every block the
target refines; every interval here must equal its interval, and the
closed-form shapes their closed forms.  The engine solves each level's
system over the blocks where some member is active, and the blocks where
only the target is active enter as the target's values there.  The work
counts spy on `lp._Simplex.phase1`, on the calls of `keyed_partition` that
read the quantities' world codes, and on `coherence.maximize_linear`; one
test also records the width of every system solved through `coherence`'s
solver names.
"""

import math
import random
from fractions import Fraction

import pytest

import prevision.coherence as coherence
import prevision.geometry as geometry
import prevision.lp as lp
from oracles import two_walk_extension
from prevision import (
    Assessment,
    ConditionalEvent,
    IncoherentBase,
    build_world_space,
    extension_interval,
    family7_bounds,
    frechet_bounds_conjunction,
    indicator,
    make_conjunction,
    special_case_same_consequent,
)
from test_identity import (
    EVENT_POOL,
    extension_cases,
    family7,
    independent_events,
    product_conjunction,
)

F = Fraction


def interval(base, target):
    """extension_interval's endpoints, or None over an incoherent base."""
    try:
        result = extension_interval(base, target)
    except IncoherentBase:
        return None
    assert result.exact
    return result.lower, result.upper


def abc_indicator(space, consequent, antecedent, label):
    return indicator(ConditionalEvent(space.event(consequent), space.event(antecedent)), label)


def test_target_from_another_world_space_is_refused():
    """A target over {A, B} used to fail inside the partition, and A|D over
    {A, B, D}, a space of the same size, to give [0, 1]."""
    abc = build_world_space(["A", "B", "C"])
    base = Assessment((abc_indicator(abc, "A", "B", "X"),), (F(1, 2),))
    for atoms, antecedent in ((["A", "B"], "B"), (["A", "B", "D"], "D")):
        target = abc_indicator(build_world_space(atoms), "A", antecedent, "T")
        with pytest.raises(ValueError, match="family members live in different world spaces"):
            extension_interval(base, target)


def test_one_walk_matches_two_walks_on_the_identity_pool():
    cases = list(extension_cases(random.Random(5)))
    assert len(cases) == 257
    answers = [two_walk_extension(base, target) for base, target in cases]
    assert [interval(base, target) for base, target in cases] == answers
    assert sum(answer is not None for answer in answers) == 115


def test_one_walk_matches_two_walks_on_random_extensions():
    abc, rng = build_world_space(["A", "B", "C"]), random.Random(28)

    def draw(label):
        return abc_indicator(abc, rng.choice(EVENT_POOL), rng.choice(EVENT_POOL), label)

    extensions = 0
    while extensions < 300:  # on coherent bases; an incoherent one raises on both paths
        members = tuple(draw(f"X{i}") for i in range(1, rng.randint(1, 3) + 1))
        base = Assessment(members, tuple(F(rng.randint(0, 5), 5) for _ in members))
        target = draw("T")
        expected = two_walk_extension(base, target)
        assert interval(base, target) == expected
        extensions += expected is not None


def test_closed_form_shapes_match_two_walks_and_their_closed_forms():
    rng, events = random.Random(29), independent_events(3)
    shapes = {"compound": 0, "family7": 0, "same": 0}
    for _ in range(20):
        xs = tuple(F(rng.randint(0, 5), 5) for _ in range(rng.randint(2, 3)))
        members, conj = product_conjunction(events[: len(xs)], xs)
        base = Assessment(members, xs)
        assert interval(base, conj) == two_walk_extension(base, conj) == frechet_bounds_conjunction(xs)
        shapes["compound"] += 1

        xs = [F(rng.randint(0, 5), 5) for _ in range(3)]
        pairs = [
            F(rng.randint(math.ceil(5 * max(0, xs[i] + xs[j] - 1)), int(5 * min(xs[i], xs[j]))), 5)
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        bounds = family7_bounds(*xs, *pairs)
        if bounds[0] <= bounds[1]:
            family = family7(events, xs + pairs)
            base = Assessment(family[:6], xs + pairs)
            assert interval(base, family[6]) == two_walk_extension(base, family[6]) == bounds
            shapes["family7"] += 1

        disjoint = rng.random() < 0.5
        ahk = build_world_space(["A", "H", "K"], ["!(H & K)"] if disjoint else [])
        first, second = (ConditionalEvent(ahk.event("A"), ahk.event(h)) for h in ("H", "K"))
        x, y = F(rng.randint(0, 5), 5), F(rng.randint(0, 5), 5)
        base = Assessment((indicator(first, "X"), indicator(second, "Y")), (x, y))
        target = make_conjunction([first, second], {(1,): x, (2,): y}, "C")
        expected = special_case_same_consequent(x, y, disjoint)
        assert interval(base, target) == two_walk_extension(base, target) == expected
        shapes["same"] += 1
    assert min(shapes.values()) >= 10, shapes


@pytest.fixture
def work(monkeypatch):
    """Counts of phase-1 runs and world passes, the objectives of the
    `coherence.maximize_linear` calls on normalized (level) systems, and the
    widths of the other (Charnes-Cooper) systems it maximizes over, made by
    `measure(run, quantities)` for the world codes of `quantities`."""
    counts = {}
    real_phase1, real_partition, real_maximize = (
        lp._Simplex.phase1, geometry.keyed_partition, coherence.maximize_linear
    )
    lanes = []

    def phase1(self):
        counts["phase1"] += 1
        return real_phase1(self)

    def partition(codes, voids):
        counts["world passes"] += all(any(c is q.codes for q in lanes) for c in codes)
        return real_partition(codes, voids)

    def maximize(system, objective):
        if system.normalization:
            counts["level LPs"].append(tuple(objective))
        else:
            counts["Charnes-Cooper widths"].add(system.n_unknowns)
        return real_maximize(system, objective)

    monkeypatch.setattr(lp._Simplex, "phase1", phase1)
    monkeypatch.setattr(geometry, "keyed_partition", partition)
    monkeypatch.setattr(coherence, "keyed_partition", partition)
    monkeypatch.setattr(coherence, "maximize_linear", maximize)

    def measure(run, quantities):
        lanes[:] = quantities
        counts.update(
            {"phase1": 0, "world passes": 0, "level LPs": [], "Charnes-Cooper widths": set()}
        )
        answer = run()
        return answer, dict(counts)

    return measure


def readme_problem():
    space = build_world_space(["A", "H", "K"])
    x, y = (ConditionalEvent(space.event("A"), space.event(h)) for h in ("H", "K"))
    base = Assessment((indicator(x, "X"), indicator(y, "Y")), (F(7, 20), F(9, 20)))
    return base, make_conjunction([x, y], {(1,): F(7, 20), (2,): F(9, 20)})


def family7_problem():
    values = [F(1, 2), F(2, 5), F(3, 5), F(1, 5), F(3, 10), F(1, 5)]
    family = family7(independent_events(3), values)
    return Assessment(family[:6], values), family[6]


@pytest.mark.parametrize("problem", [readme_problem, family7_problem])
def test_one_walk_saves_a_world_pass_and_a_phase1(work, problem):
    base, target = problem()
    quantities = (*base.family, target)
    answer, new = work(lambda: interval(base, target), quantities)
    expected, old = work(lambda: two_walk_extension(base, target), quantities)
    assert answer == expected and answer[0] < answer[1]
    assert new["world passes"] == 1 and old["world passes"] == 2
    assert new["phase1"] == old["phase1"] - 1


def test_level_point_with_target_mass_runs_only_the_least_mass_lp(work):
    """X1 = !C|(!A & !B) = 2/5, X2 = (B & !C)|!A = 3/5 and T = C|!B: the
    level's phase-1 point gives the target's active blocks mass, so they can
    carry mass, and the least-mass LP alone runs on the level's system.  The
    oracle's two K-mass LPs also span the blocks where only the target is
    active, each of them in K."""
    abc = build_world_space(["A", "B", "C"])
    base = Assessment(
        (abc_indicator(abc, "!C", "!A & !B", "X1"), abc_indicator(abc, "B & !C", "!A", "X2")),
        (F(2, 5), F(3, 5)),
    )
    target = abc_indicator(abc, "C", "!B", "T")
    answer, new = work(lambda: interval(base, target), (*base.family, target))
    expected, old = work(lambda: two_walk_extension(base, target), (*base.family, target))
    assert answer == expected == (0, 1)
    (least,) = new["level LPs"]
    assert set(least) == {0, -1}
    m = len(least)
    assert [c[:m] for c in old["level LPs"]] == [least, tuple(-c for c in least)]
    assert [set(c[m:]) for c in old["level LPs"]] == [{-1}, {1}]


def test_level_point_without_target_mass_runs_only_the_mass_maximum(work):
    """X = !A|(B & C) = 0 and T = B|!A: the level's phase-1 point gives the
    target's active blocks no mass, so it is a point of least mass, and the
    most-mass LP alone runs on the level's system.  The oracle's two K-mass
    LPs also span the blocks where only the target is active."""
    abc = build_world_space(["A", "B", "C"])
    base = Assessment((abc_indicator(abc, "!A", "B & C", "X"),), (F(0),))
    target = abc_indicator(abc, "B", "!A", "T")
    answer, new = work(lambda: interval(base, target), (*base.family, target))
    expected, old = work(lambda: two_walk_extension(base, target), (*base.family, target))
    assert answer == expected == (0, 1)
    (most,) = new["level LPs"]
    assert set(most) == {0, 1}
    m = len(most)
    assert [c[:m] for c in old["level LPs"]] == [tuple(-c for c in most), most]
    assert [set(c[m:]) for c in old["level LPs"]] == [{-1}, {1}]


def test_target_only_mass_spares_the_charnes_cooper_system(work):
    """X = A|B = 1 and T = C|((B & !A) | !B): the level's system puts all
    mass on A & B, where the target is void, so its active blocks carry mass
    only where the target alone is active, C and !C under !B.  Their values
    0 and 1 span the hull, and no Charnes-Cooper system is built; the
    oracle's spans every block and the scale, 6 unknowns."""
    abc = build_world_space(["A", "B", "C"])
    base = Assessment((abc_indicator(abc, "A", "B", "X"),), (F(1),))
    target = abc_indicator(abc, "C", "(B & !A) | !B", "T")
    answer, new = work(lambda: interval(base, target), (*base.family, target))
    expected, old = work(lambda: two_walk_extension(base, target), (*base.family, target))
    assert answer == expected == (0, 1)
    assert new["Charnes-Cooper widths"] == set() and old["Charnes-Cooper widths"] == {6}
    (most,) = new["level LPs"]
    assert most == (0, 1, 1)


def test_level_that_cannot_reach_the_target_leaves_its_blocks_to_the_next(work):
    """X1 = (A & C)|A = 4/5, X2 = (B & !A)|!C = 1 and T = C|(!A & !B): X2 = 1
    keeps all mass off !A & !B & !C, the one block where T and a member are
    active, so the first level's system puts no mass on K; T alone is active
    on !A & !B & C.  The next level's range covers that block's value, so no
    void-target LP and no sub-walk from the world codes run: one world pass
    and the two levels' phase-1 runs."""
    abc = build_world_space(["A", "B", "C"])
    base = Assessment(
        (abc_indicator(abc, "A & C", "A", "X1"), abc_indicator(abc, "B & !A", "!C", "X2")),
        (F(4, 5), F(1)),
    )
    target = abc_indicator(abc, "C", "!A & !B", "T")
    answer, new = work(lambda: interval(base, target), (*base.family, target))
    expected, _ = work(lambda: two_walk_extension(base, target), (*base.family, target))
    assert answer == expected == (0, 1)
    assert new["world passes"] == 1 and new["phase1"] == 2
    assert new["level LPs"] == [(0, 0, 0, 1), (0, 0)]


def test_every_extension_lp_runs_on_its_levels_member_active_blocks(monkeypatch):
    """On the identity pool, each system an extension solves while it
    propagates, a level's own, its Charnes-Cooper form or its void-target
    form, is at most one unknown (the scale) wider than the blocks where some
    member of the level being propagated is active."""
    widths, level = [], {}
    real_propagate = coherence._propagate

    def propagate(trace, target):
        def walked():
            for record in trace:
                t = len(record.assessment)
                members = zip(*record.columns[:t])
                level["m"] = sum(key != tuple(record.voids[:t]) for key in members)
                yield record

        return real_propagate(walked(), target)

    def spy(real):
        def solve(system, *args):
            if level:
                widths.append((system.n_unknowns, level["m"]))
            return real(system, *args)

        return solve

    monkeypatch.setattr(coherence, "_propagate", propagate)
    for name in ("solve_feasibility", "maximize_linear", "maximize_component_sum"):
        monkeypatch.setattr(coherence, name, spy(getattr(coherence, name)))
    for base, target in extension_cases(random.Random(5)):
        interval(base, target)
        level.clear()
    assert len(widths) > 200
    assert all(n <= m + 1 for n, m in widths), max(n - m for n, m in widths)


@pytest.mark.parametrize("n", [5, 6])
def test_extensions_on_systems_past_the_packed_width(n):
    """The indicators of n independent E_i|H_i make a level system of
    3^n - 1 unknowns, 242 or 728, past `lp.PACKED_WIDTH`: these extensions
    price every column at once, with non-zero costs.  Their conjunction's
    interval is its Frechet bounds.  (E1 | !H1)|(H1 | none), where none is
    the event that no H_i holds, reads E1 under H1 and 1 on none, so its
    interval is [x_1, 1]; it and seeded targets whose antecedent reaches
    none get the oracle's interval."""
    events = independent_events(n)
    xs = (F(9, 10), F(4, 5), F(9, 10), F(4, 5), F(9, 10), F(9, 10))[:n]
    members, conj = product_conjunction(events, xs)
    base = Assessment(members, xs)
    assert geometry.build_sigma(base).n_unknowns == 3**n - 1 >= lp.PACKED_WIDTH
    assert interval(base, conj) == frechet_bounds_conjunction(xs)
    assert frechet_bounds_conjunction(xs)[0] > 0
    space, rng = events[0].space, random.Random(n)
    none = " & ".join(f"!H{i}" for i in range(1, n + 1))
    target = abc_indicator(space, "E1 | !H1", f"H1 | ({none})", "T")
    assert interval(base, target) == two_walk_extension(base, target) == (xs[0], 1)
    for _ in range(3):
        i, j, k = (rng.randint(1, n) for _ in range(3))
        consequent = rng.choice([f"E{i}", f"E{i} | !H{i}", f"E{i} & H{i}", f"E{i} & E{j}"])
        antecedent = rng.choice([f"H{i} | !H{j}", f"E{j}", f"!H{j}", f"H{i} | (E{k} & !H{j})"])
        target = abc_indicator(space, consequent, antecedent, "T")
        assert not (target.conditioning & space.event(none)).is_empty
        assert interval(base, target) == two_walk_extension(base, target)
