"""Identity gate: digests over the engine's observable answers.

Verdicts with their traces, Dutch books and gains, the constituents' sorted
world tuples and labels, the solvability systems' unknown labels, and
extension intervals are written in a canonical form (Fractions as "p/q",
sets as sorted tuples) and hashed, one digest per kind of input: the 2,603
quarter-grid seven-member assessments, the n-member conjunction families for
n = 3..6 at and just outside their Frechet bounds, and a seeded pool of
extension cases.  A further digest covers the verdicts alone, over all three
kinds.  A change that should leave every answer as it was keeps the pinned
digests; a change that alters an answer on purpose says so and pins the new
ones.  A change of pivoting rule may move a solution or an m-value to
another optimum, never a verdict.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

from prevision import (
    Assessment,
    ConditionalEvent,
    build_world_space,
    check_coherence,
    dutch_book_gains,
    extension_interval,
    family7_bounds,
    frechet_bounds_conjunction,
    indicator,
    make_conjunction,
)
from prevision.geometry import build_sigma

F = Fraction

# Pinned per kind.  Grid and extension systems are narrower than
# lp.PACKED_WIDTH, so their pivots, and with them every solution and m-value,
# follow Bland's rule alone; the conjunction families of n >= 5 enter the
# most negative reduced cost, so their basic solutions are those of that rule.
DIGESTS = {
    "grid": "1d460d20141d7a89bc6cf722fb2a86e516fe8e595d2ed1a51e9134dfe1ae848f",
    "conjunction": "78c9283c95a0b8684f0b4a1601109a9efa14b7dc191beace5321e8d0d219d114",
    "extension": "01d9e1fe427129e20786bc62d524db0412de3495755385852db5af6e3cf3ce1f",
}
# The verdicts alone (`canonical_outcome`) over all three kinds: no pivot rule
# may change them.
VERDICT_DIGEST = "163b4112a849fe2a15bd62ddd7402cb2ff3072c75be70fa1ca078ff57ad296b0"


def _fractions(values):
    return None if values is None else tuple(str(v) for v in values)


def _indices(members):
    return None if members is None else tuple(sorted(members))


def canonical_verdict(assessment, verdict):
    """The verdict's trace and book, the book's gain on every constituent
    with its worlds and label, and the level-one system's unknown labels."""
    records = tuple(
        (r.member_indices, r.labels, r.feasible, _fractions(r.solution),
         _fractions(r.m_values), _indices(r.m_witnessed), _indices(r.i0))
        for r in verdict.trace
    )
    book = verdict.dutch_book
    gains = None
    if book is not None:
        gains = tuple(
            (tuple(sorted(c.worlds)), c.label(), str(g))
            for c, g in dutch_book_gains(assessment, book)
        )
        book = (book.member_indices, _fractions(book.stakes), str(book.margin))
    labels = build_sigma(assessment).unknown_labels
    return (verdict.coherent, records, book, gains, labels)


def independent_events(n):
    """E_i|H_i, i = 1..n, over 2n unconstrained atoms."""
    space = build_world_space(
        [f"E{i}" for i in range(1, n + 1)] + [f"H{i}" for i in range(1, n + 1)]
    )
    return [
        ConditionalEvent(space.event(f"E{i}"), space.event(f"H{i}"))
        for i in range(1, n + 1)
    ]


def product_conjunction(events, xs):
    """The indicators and their conjunction with product sub-previsions."""
    n = len(events)
    previsions = {
        subset: math.prod(xs[i - 1] for i in subset)
        for r in range(1, n)
        for subset in itertools.combinations(range(1, n + 1), r)
    }
    members = tuple(indicator(e, f"X{i}") for i, e in enumerate(events, 1))
    return members, make_conjunction(events, previsions, f"and({n})")


def family7(events, values):
    """Three indicators, their pair conjunctions and the triple, with the
    triple's built-in prevision when `values` has a seventh entry."""
    singles = dict(zip((1, 2, 3), values[:3]))
    pairs = dict(zip(((1, 2), (1, 3), (2, 3)), values[3:6]))
    compounds = tuple(
        make_conjunction(
            [events[i - 1], events[j - 1]],
            {(1,): singles[i], (2,): singles[j], (1, 2): x},
            f"C{i}{j}",
        )
        for (i, j), x in pairs.items()
    )
    triple = {(1,): values[0], (2,): values[1], (3,): values[2], **pairs}
    if len(values) == 7:
        triple[(1, 2, 3)] = values[6]
    members = tuple(indicator(e, f"X{i}") for i, e in enumerate(events, 1))
    return members + compounds + (make_conjunction(events, triple, "C123"),)


def quarter_grid():
    grid = [F(k, 4) for k in range(5)]
    points = []
    for xs in itertools.product(grid, repeat=3):
        caps = [min(xs[i], xs[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        for pairs in itertools.product(*([g for g in grid if g <= c] for c in caps)):
            points += [xs + pairs + (z,) for z in grid if z <= min(pairs)]
    return points


def grid_cases():
    events = independent_events(3)
    for values in quarter_grid():
        yield Assessment(family7(events, values), values)


def conjunction_cases():
    fifths = tuple(F(k, 5) for k in (1, 2, 3, 4, 1, 2, 3))
    for n, families in ((3, 3), (4, 6), (5, 4), (6, 2)):
        events = independent_events(n)
        for f in range(families):
            xs = (fifths[f:] + fifths[:f])[:n]
            members, conj = product_conjunction(events, xs)
            lo, hi = frechet_bounds_conjunction(xs)
            for z in (lo, hi, lo - F(1, 1000), hi + F(1, 1000)):
                yield Assessment(members + (conj,), xs + (z,))


LITERALS = ("A", "B", "C", "!A", "!B", "!C")
EVENT_POOL = LITERALS + tuple(
    f"{a} & {b}"
    for a, b in itertools.combinations(LITERALS, 2)
    if a.lstrip("!") != b.lstrip("!")
)


def extension_cases(rng, generic=200, closed_form=20):
    """(base, target): random indicator bases over {A, B, C}, then full
    conjunctions, family-7 triples and same-consequent pairs."""
    abc = build_world_space(["A", "B", "C"])

    def draw(label):
        consequent, antecedent = rng.choice(EVENT_POOL), rng.choice(EVENT_POOL)
        return indicator(ConditionalEvent(abc.event(consequent), abc.event(antecedent)), label)

    for _ in range(generic):
        members = tuple(draw(f"X{i}") for i in range(1, rng.randint(1, 3) + 1))
        values = tuple(F(rng.randint(0, 5), 5) for _ in members)
        yield Assessment(members, values), draw("T")
    events = independent_events(3)
    ahk = build_world_space(["A", "H", "K"], ["!(H & K)"])
    for _ in range(closed_form):
        xs = tuple(F(rng.randint(0, 5), 5) for _ in range(rng.randint(2, 3)))
        members, conj = product_conjunction(events[:len(xs)], xs)
        yield Assessment(members, xs), conj
        xs = [F(rng.randint(0, 5), 5) for _ in range(3)]
        pairs = [
            F(rng.randint(math.ceil(5 * max(0, xs[i] + xs[j] - 1)), int(5 * min(xs[i], xs[j]))), 5)
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        lo, hi = family7_bounds(*xs, *pairs)
        if lo <= hi:
            family = family7(events, xs + pairs)
            yield Assessment(family[:6], xs + pairs), family[6]
        first = ConditionalEvent(ahk.event("A"), ahk.event("H"))
        second = ConditionalEvent(ahk.event("A"), ahk.event("K"))
        x, y = F(rng.randint(0, 5), 5), F(rng.randint(0, 5), 5)
        pair = (indicator(first, "X"), indicator(second, "Y"))
        yield Assessment(pair, (x, y)), make_conjunction([first, second], {(1,): x, (2,): y}, "C")


def canonical_outcome(verdict):
    """The verdict alone: coherent or not, each level's members, whether its
    system is feasible and its zero set, and the booked members.  Solutions,
    m-values and books are left out, as they follow the pivots taken."""
    book = verdict.dutch_book
    return (
        verdict.coherent,
        tuple((r.member_indices, r.feasible, _indices(r.i0)) for r in verdict.trace),
        None if book is None else book.member_indices,
    )


def identity_digests():
    """({kind: digest}, verdict digest, {kind: case count})."""
    digests = {kind: hashlib.sha256() for kind in ("grid", "conjunction", "extension")}
    outcomes = hashlib.sha256()
    counts = dict.fromkeys(digests, 0)

    def add(kind, verdict, entry):
        digests[kind].update(repr((kind, entry)).encode())
        outcomes.update(repr((kind, canonical_outcome(verdict))).encode())
        counts[kind] += 1

    for kind, cases in (("grid", grid_cases()), ("conjunction", conjunction_cases())):
        for assessment in cases:
            verdict = check_coherence(assessment)
            add(kind, verdict, canonical_verdict(assessment, verdict))
    for base, target in extension_cases(random.Random(5)):
        verdict = check_coherence(base)
        entry = canonical_verdict(base, verdict)
        if verdict.coherent:
            interval = extension_interval(base, target)
            entry += (str(interval.lower), str(interval.upper), interval.exact)
        add("extension", verdict, entry)
    return {k: d.hexdigest() for k, d in digests.items()}, outcomes.hexdigest(), counts


def test_answers_match_the_pinned_digest():
    digests, outcomes, counts = identity_digests()
    assert counts == {"grid": 2603, "conjunction": 60, "extension": 257}
    assert outcomes == VERDICT_DIGEST
    assert digests == DIGESTS
