"""Coherence decisions, betting certificates, and extension intervals.

An assessment is coherent when its solvability system admits a solution and,
recursively, the sub-assessment on the members whose antecedents can never
receive positive mass is itself coherent.  Incoherence always comes with a
stake vector whose gain is strictly positive on every constituent inside the
union of antecedents of the failing sub-family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .closed_form import family7_bounds
from .errors import IncoherentBase
from .geometry import (
    Assessment,
    ConditionalQuantity,
    VOID,
    LinearSystem,
    QuantityConstituent,
    as_conditional_event,
    build_sigma,
    enumerate_constituents,
    follows_compound_table,
    keyed_partition,
    quantity_constituents,
)
from .lp import maximize_component_sum, maximize_linear, solve_feasibility

# Not called here: kept importable because benchmarks/tracing.py patches them by name.
from .frank import frechet_bounds_conjunction, frechet_bounds_disjunction  # noqa: F401
from .geometry import constituents_in_all_antecedents  # noqa: F401

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class DutchBook:
    """Stakes against a sub-family with a uniformly positive gain.

    `member_indices` are 1-based positions in the assessed family; `stakes`
    pair with them; `margin` is a lower bound on the gain over every
    constituent inside the sub-family's union of antecedents.
    """

    member_indices: tuple
    stakes: tuple
    margin: Fraction


@dataclass(frozen=True)
class LevelRecord:
    """One level of the recursion: which members were in play and what the
    solvability analysis found."""

    member_indices: tuple
    labels: tuple
    feasible: bool
    solution: Optional[tuple]
    m_values: Optional[tuple]
    m_witnessed: frozenset
    i0: Optional[frozenset]


@dataclass(frozen=True)
class CoherenceVerdict:
    coherent: bool
    trace: tuple
    dutch_book: Optional[DutchBook] = None


@dataclass(frozen=True)
class ExtensionInterval:
    """The closed interval of coherent values for one further quantity.

    Every path computes both endpoints exactly, so `exact` is always True.
    """

    lower: Fraction
    upper: Fraction
    exact: bool


def _book_gains(system: LinearSystem, stakes):
    """The stakes' gain on every unknown of the booked sub-family's system,
    as integers over one common denominator L; returns (gains, L).

    Row i holds member i's value where active and its prevision where void,
    so a gain is the stakes' combination of a column minus that of the rhs.
    """
    sums, L = system.combine(tuple(stakes) + (0,))
    return [a - sums[-1] for a in sums[:-1]], L


def dutch_book_gains(
    assessment: Assessment, book: DutchBook, partition=None
) -> list[tuple[QuantityConstituent, Fraction]]:
    """Gain of the stakes on every constituent inside the booked sub-family's
    union of antecedents.  Void members contribute nothing by construction.

    `partition` is the booked sub-family's quantity_constituents when
    already computed.
    """
    sub = assessment.restrict([p - 1 for p in book.member_indices])
    inside = (partition or quantity_constituents(sub.family))[0]
    gains, L = _book_gains(build_sigma(sub, [c.codes for c in inside]), book.stakes)
    return [(c, Fraction(g, L)) for c, g in zip(inside, gains)]


def _checked_book(book: DutchBook, system: LinearSystem) -> DutchBook:
    """Require gain >= margin and gain > 0 on every constituent of the booked
    sub-family's `system`, compared in integers: gain g / L against margin
    p / q as g * q against p * L."""
    gains, L = _book_gains(system, book.stakes)
    p, q = book.margin.numerator, book.margin.denominator
    for h, g in enumerate(gains):
        if g * q < p * L or g <= 0:
            raise RuntimeError(f"betting certificate failed on {system.unknown_labels[h]}")
    return book


def _hull_screen(assessment: Assessment):
    """Reject previsions outside the quantity's own value range; such a value
    loses to a single-quantity book before any system is built."""
    for pos, (q, mu) in enumerate(zip(assessment.family, assessment.values), 1):
        lo, hi = q.hull()
        if lo <= mu <= hi:
            continue
        stake = ONE if mu < lo else -ONE
        margin = lo - mu if mu < lo else mu - hi
        book = _checked_book(
            DutchBook((pos,), (stake,), margin), build_sigma(assessment.restrict([pos - 1]))
        )
        record = LevelRecord((pos,), (q.label,), False, None, None, frozenset(), None)
        return CoherenceVerdict(False, (record,), book)
    return None


def _active_sets(columns):
    return [{h for h, c in enumerate(column) if c != VOID} for column in columns]


def _support(solution):
    return [(h, v) for h, v in enumerate(solution) if v]


def _m_values(system: LinearSystem, actives, witnesses):
    """Maximal mass each active set can carry over `system`.

    A set that some witness solution already gives positive mass needs no
    solve; every other set gets its verified maximum, and each maximizer
    joins the witnesses.  A witness is a basic solution, so its mass on a set
    is summed over its few non-zero entries only.  Returns the m-values, the
    positions settled by a witness, and the positions stuck at zero.
    """
    supports = [_support(w) for w in witnesses]
    m_values = [None] * len(actives)
    witnessed = set()
    zero = []
    for i, active in enumerate(actives):
        mass = max(sum(v for h, v in s if h in active) for s in supports)
        if mass > 0:
            m_values[i] = mass
            witnessed.add(i)
            continue
        best = maximize_component_sum(system, active)
        m_values[i] = best.value
        supports.append(_support(best.solution))
        if best.value == 0:
            zero.append(i)
    return m_values, witnessed, zero


def _run_level(current: Assessment, index_map: tuple, keys):
    """One recursion level on `current`, the members `index_map` (1-based) of
    the assessment: one system for the simplex and the book check, over `keys`
    (None: one pass over the worlds), whose projection keys the next level."""
    system = build_sigma(current, keys)
    labels = tuple(q.label for q in current.family)
    cert = solve_feasibility(system)
    if not cert.feasible:
        stakes = tuple(-u for u in cert.dual[:-1])
        book = _checked_book(DutchBook(index_map, stakes, cert.margin), system)
        record = LevelRecord(index_map, labels, False, None, None, frozenset(), None)
        return record, book, None, None
    columns = list(zip(*system.keys))
    m_values, witnessed, zero = _m_values(system, _active_sets(columns), [cert.solution])
    record = LevelRecord(
        index_map,
        labels,
        True,
        cert.solution,
        tuple(m_values),
        frozenset(index_map[i] for i in witnessed),
        frozenset(index_map[i] for i in zero),
    )
    return record, None, zero, keyed_partition([columns[i] for i in zero])


def check_coherence(assessment: Assessment) -> CoherenceVerdict:
    """Decide coherence by solvability plus the zero-mass recursion.

    Each level solves the system over the constituents inside the union of
    antecedents, then maximizes the mass reachable by each member's
    antecedent; members stuck at zero form the next level's family.  The
    family strictly shrinks, so the loop is capped defensively at its size.
    """
    screened = _hull_screen(assessment)
    if screened is not None:
        return screened
    trace = []
    current = assessment
    index_map = tuple(range(1, len(assessment) + 1))
    keys = None
    for _ in range(len(assessment)):
        record, book, zero, keys = _run_level(current, index_map, keys)
        trace.append(record)
        if book is not None:
            return CoherenceVerdict(False, tuple(trace), book)
        if not zero:
            return CoherenceVerdict(True, tuple(trace))
        current = current.restrict(zero)
        index_map = tuple(index_map[i] for i in zero)
    raise RuntimeError("recursion failed to terminate")


def find_dutch_book(assessment: Assessment) -> Optional[DutchBook]:
    """The betting certificate of an incoherent assessment, None otherwise."""
    return check_coherence(assessment).dutch_book


def value_table(quantity: ConditionalQuantity) -> tuple:
    """(block, value) rows covering the whole space.

    Rows partition by the quantity's value; the all-void block carries the
    built-in prevision, which is forced when the quantity is constant on its
    conditioning event and left as None when genuinely free.
    """
    inside, c0 = quantity_constituents([quantity])
    rows = [(c, c.profile[0]) for c in inside]
    if c0 is not None:
        v = quantity.void_value
        if v is None:
            lo, hi = quantity.hull()
            v = lo if lo == hi else None
        rows.append((c0, v))
    return tuple(rows)


# --- extension intervals ----------------------------------------------------


def _indicator_events(quantities):
    events = []
    for q in quantities:
        ce = as_conditional_event(q)
        if ce is None:
            return None
        events.append(ce)
    return events


def _match_pair_conjunction(events, xs, compound):
    """Does `compound` follow the two-member conjunction table for `events`
    with partially-void values equal to the assessed previsions?"""
    exact = {(): ONE, (1,): xs[0], (2,): xs[1]}
    return follows_compound_table(
        compound, events, ZERO, lambda s: (exact[s], exact[s]) if s in exact else None
    )


def _family7_dispatch(assessment: Assessment, target: ConditionalQuantity):
    """Closed-form interval for the triple conjunction over three indicators
    assessed together with their three pairwise conjunctions."""
    if len(assessment) != 6:
        return None
    events = _indicator_events(assessment.family[:3])
    if events is None:
        return None
    blocks = enumerate_constituents(assessment.family[:3])
    same_antecedent = all(
        ce.antecedent.members == events[0].antecedent.members for ce in events
    )
    if not (len(blocks) == 27 or (same_antecedent and len(blocks) == 9)):
        return None
    xs = assessment.values[:3]
    pair_of = {}
    for k, compound in enumerate(assessment.family[3:], start=3):
        matched = None
        for pair in ((0, 1), (0, 2), (1, 2)):
            pair_events = [events[pair[0]], events[pair[1]]]
            pair_xs = (xs[pair[0]], xs[pair[1]])
            if _match_pair_conjunction(pair_events, pair_xs, compound):
                matched = pair
                break
        if matched is None or matched in pair_of.values():
            return None
        pair_of[k] = matched
    if set(pair_of.values()) != {(0, 1), (0, 2), (1, 2)}:
        return None
    by_pair = {pair: assessment.values[k] for k, pair in pair_of.items()}
    exact = {(): ONE, (1,): xs[0], (2,): xs[1], (3,): xs[2]}
    exact.update(((i + 1, j + 1), v) for (i, j), v in by_pair.items())
    if not follows_compound_table(target, events, ZERO, lambda s: (exact[s], exact[s])):
        return None
    bounds = family7_bounds(
        xs[0], xs[1], xs[2], by_pair[(0, 1)], by_pair[(0, 2)], by_pair[(1, 2)]
    )
    if bounds[0] > bounds[1]:
        raise RuntimeError("closed form contradicts a coherent base")
    return bounds


def _charnes_cooper_range(system: LinearSystem, t: int, codes, levels):
    """Least and greatest target value over the solutions of `system` that
    give the target's active blocks positive mass; the target's levels and
    code on each unknown are `levels` and `codes`, after `t` member rows.

    Scale-invariant form: a mass vector zeta with unit mass on the target's
    active blocks and total mass `scale`; the target value is then the
    active sum of zeta times the target's values.  Member row i becomes
    (row_i | -mu_i | 0) with the same scale s_i.
    """
    k_mass = tuple(0 if c == VOID else 1 for c in codes)
    cc = LinearSystem(
        tuple(row[:-1] + (-row[-1], 0) for row in system.rows[:t])
        + ((1,) * len(k_mass) + (-1, 0), k_mass + (0, 1)),
        system.scales[:t] + (1, 1),
        lambda: system.unknown_labels + ("scale",),
        normalization=False,
    )
    objective = [ZERO if c == VOID else levels[c] for c in codes] + [ZERO]
    hi = maximize_linear(cc, objective).value
    lo = -maximize_linear(cc, [-c for c in objective]).value
    return lo, hi


def _propagate(assessment: Assessment, trace, target: ConditionalQuantity):
    """The exact coherent range of the target over a coherent assessment,
    walking the levels `trace` of the assessment's own verdict.

    At each level the members in play and the target share one partition.
    Where the target's active blocks K must carry mass, the level's
    linear-fractional range is the answer.  Where K never carries mass, the
    target joins the next level.  Where K may carry mass or not, values
    outside that range leave the target void, and the members that then get
    no mass, with the target, form a strictly smaller problem whose range
    joins the level's range.
    """
    hull = target.hull()
    for record in trace:
        current = assessment.restrict(p - 1 for p in record.member_indices)
        t = len(current)
        system = build_sigma(current, keyed_partition([q.codes for q in (*current.family, target)]))
        columns = list(zip(*system.keys))
        k_mass = tuple(0 if c == VOID else 1 for c in columns[t])
        least = maximize_linear(system, [-v for v in k_mass])
        if least.value == 0 and maximize_linear(system, k_mass).value == 0:
            continue
        lo, hi = _charnes_cooper_range(system, t, columns[t], target.levels)
        if least.value < 0 or (lo, hi) == hull:
            return lo, hi
        # the member rows, K's mass set to zero, then the normalization row
        void_target = LinearSystem(
            system.rows[:t] + (k_mass + (0,),) + system.rows[t:],
            system.scales[:t] + (1,) + system.scales[t:],
            system.labels,
        )
        _, _, zero = _m_values(void_target, _active_sets(columns[:t]), [least.solution])
        if not zero:
            return hull
        sub = current.restrict(zero)
        verdict = check_coherence(sub)
        if not verdict.coherent:
            raise RuntimeError("restriction of a coherent assessment failed")
        sub_lo, sub_hi = _propagate(sub, verdict.trace, target)
        return min(lo, sub_lo), max(hi, sub_hi)
    return hull


def extension_interval(
    assessment: Assessment, target: ConditionalQuantity
) -> ExtensionInterval:
    """The closed interval of values mu for which adding (target, mu) keeps
    the assessment coherent.

    Raises IncoherentBase when the assessment itself fails.  A target already
    in the family gets its assessed value, and the triple conjunction over a
    three-event family with its pairwise conjunctions gets `family7_bounds`.
    Every other target, the Frechet-Hoeffding and same-consequent shapes
    included, is propagated exactly through the levels of the assessment's
    own verdict, with linear programs only.  Both endpoints are exact:
    `exact` is always True.
    """
    verdict = check_coherence(assessment)
    if not verdict.coherent:
        raise IncoherentBase("the base assessment is not coherent")
    for q, mu in zip(assessment.family, assessment.values):
        if (q.levels, q.codes) == (target.levels, target.codes):
            return ExtensionInterval(mu, mu, True)
    interval = _family7_dispatch(assessment, target)
    if interval is None:
        interval = _propagate(assessment, verdict.trace, target)
    return ExtensionInterval(interval[0], interval[1], True)
