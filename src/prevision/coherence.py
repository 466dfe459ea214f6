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
from typing import Callable, Optional

from .closed_form import family7_bounds
from .errors import IncoherentBase
from .events import constituents_in_all_antecedents, enumerate_constituents
from .frank import frechet_bounds_conjunction, frechet_bounds_disjunction
from .geometry import (
    Assessment,
    ConditionalQuantity,
    LinearSystem,
    QuantityConstituent,
    as_conditional_event,
    build_sigma,
    quantity_constituents,
)
from .lp import maximize_component_sum, maximize_linear, solve_feasibility

ZERO = Fraction(0)
ONE = Fraction(1)
WIDTH_GOAL = Fraction(1, 10**9)


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
    """The closed interval of coherent values for one further quantity."""

    lower: Fraction
    upper: Fraction
    exact: bool


def dutch_book_gains(
    assessment: Assessment, book: DutchBook, partition=None
) -> list[tuple[QuantityConstituent, Fraction]]:
    """Gain of the stakes on every constituent inside the booked sub-family's
    union of antecedents.  Void members contribute nothing by construction.

    `partition` is the booked sub-family's quantity_constituents when
    already computed.
    """
    sub = assessment.restrict([p - 1 for p in book.member_indices])
    if partition is None:
        partition = quantity_constituents(sub.family)
    inside, _ = partition
    gains = []
    for c in inside:
        gain = sum(
            (s * (v - mu) for s, v, mu in zip(book.stakes, c.profile, sub.values)
             if v is not None),
            ZERO,
        )
        gains.append((c, gain))
    return gains


def _checked_book(assessment: Assessment, book: DutchBook, partition=None) -> DutchBook:
    for c, gain in dutch_book_gains(assessment, book, partition):
        if gain < book.margin or gain <= 0:
            raise RuntimeError(f"betting certificate failed on {c.label()}")
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
        book = _checked_book(assessment, DutchBook((pos,), (stake,), margin))
        record = LevelRecord(
            (pos,), (q.label,), False, None, None, frozenset(), None
        )
        return CoherenceVerdict(False, (record,), book)
    return None


def _active_sets(inside, n):
    return [
        [h for h, c in enumerate(inside) if c.profile[i] is not None]
        for i in range(n)
    ]


def _run_level(assessment: Assessment, current: Assessment, index_map: tuple):
    """One recursion level on `current`, the members `index_map` (1-based) of
    `assessment`; its one partition serves the system and the book check."""
    partition = quantity_constituents(current.family)
    system = build_sigma(current, partition)
    inside, _ = partition
    labels = tuple(q.label for q in current.family)
    cert = solve_feasibility(system)
    if not cert.feasible:
        stakes = tuple(-u for u in cert.dual[:-1])
        book = _checked_book(
            assessment, DutchBook(index_map, stakes, cert.margin), partition
        )
        record = LevelRecord(
            index_map, labels, False, None, None, frozenset(), None
        )
        return record, book, None
    n = len(current)
    actives = _active_sets(inside, n)
    witnesses = [cert.solution]
    m_values = [None] * n
    witnessed = set()
    zero = []
    for i in range(n):
        mass = max(sum(w[h] for h in actives[i]) for w in witnesses)
        if mass > 0:
            # some already-found solution puts mass on this member's
            # antecedent, so its maximum is positive without another solve
            m_values[i] = mass
            witnessed.add(i)
            continue
        best = maximize_component_sum(system, actives[i])
        m_values[i] = best.value
        witnesses.append(best.solution)
        if best.value == 0:
            zero.append(i)
    record = LevelRecord(
        index_map,
        labels,
        True,
        cert.solution,
        tuple(m_values),
        frozenset(index_map[i] for i in witnessed),
        frozenset(index_map[i] for i in zero),
    )
    return record, None, zero


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
    for _ in range(len(assessment)):
        record, book, zero = _run_level(assessment, current, index_map)
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


def _member_statuses(events, world):
    void, any_true, any_false = [], False, False
    for i, ce in enumerate(events):
        if world not in ce.antecedent:
            void.append(i)
        elif world in ce.consequent:
            any_true = True
        else:
            any_false = True
    return void, any_true, any_false


def _antecedent_union(events):
    union = events[0].antecedent
    for ce in events[1:]:
        union = union | ce.antecedent
    return union


def _compound_values_consistent(events, xs, target, kind) -> bool:
    """Does the target's table follow the n-ary compound pattern with every
    partially-void value inside its own sub-family envelope?"""
    for w in target.conditioning.members:
        void, any_true, any_false = _member_statuses(events, w)
        value = target.values[w]
        if kind == "conjunction":
            if any_false:
                lo = hi = ZERO
            elif not void:
                lo = hi = ONE
            else:
                lo, hi = frechet_bounds_conjunction([xs[i] for i in void])
        else:
            if any_true:
                lo = hi = ONE
            elif not void:
                lo = hi = ZERO
            else:
                lo, hi = frechet_bounds_disjunction([xs[i] for i in void])
        if not lo <= value <= hi:
            return False
    return True


def _full_compound_dispatch(assessment: Assessment, target: ConditionalQuantity):
    """Envelope bounds for the conjunction or disjunction of the whole family.

    Applies when every member is a conditional-event indicator, the events
    are logically independent inside the joint antecedent, and the target
    follows the compound value pattern with each partially-void value inside
    its own sub-family envelope; the coherent set is then exactly the
    envelope interval.
    """
    events = _indicator_events(assessment.family)
    if events is None:
        return None
    n = len(events)
    if target.conditioning.members != _antecedent_union(events).members:
        return None
    if len(constituents_in_all_antecedents(events)) != 1 << n:
        return None
    xs = assessment.values
    if _compound_values_consistent(events, xs, target, "conjunction"):
        return frechet_bounds_conjunction(xs)
    if _compound_values_consistent(events, xs, target, "disjunction"):
        return frechet_bounds_disjunction(xs)
    return None


def _match_pair_conjunction(events, xs, compound):
    """Does `compound` follow the two-member conjunction table for `events`
    with partially-void values equal to the assessed previsions?"""
    if compound.conditioning.members != _antecedent_union(events).members:
        return False
    for w in compound.conditioning.members:
        void, _, any_false = _member_statuses(events, w)
        value = compound.values[w]
        if any_false:
            expected = ZERO
        elif not void:
            expected = ONE
        else:
            expected = xs[void[0]] if len(void) == 1 else None
        if expected is not None and value != expected:
            return False
    return True


def _family7_dispatch(assessment: Assessment, target: ConditionalQuantity):
    """Closed-form interval for the triple conjunction over three indicators
    assessed together with their three pairwise conjunctions."""
    if len(assessment) != 6:
        return None
    events = _indicator_events(assessment.family[:3])
    if events is None:
        return None
    blocks = enumerate_constituents(events)
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
            pair_xs = {0: xs[pair[0]], 1: xs[pair[1]]}
            if _match_pair_conjunction(pair_events, pair_xs, compound):
                matched = pair
                break
        if matched is None or matched in pair_of.values():
            return None
        pair_of[k] = matched
    if set(pair_of.values()) != {(0, 1), (0, 2), (1, 2)}:
        return None
    by_pair = {pair: assessment.values[k] for k, pair in pair_of.items()}
    if target.conditioning.members != _antecedent_union(events).members:
        return None
    for w in target.conditioning.members:
        void, _, any_false = _member_statuses(events, w)
        value = target.values[w]
        if any_false:
            expected = ZERO
        elif not void:
            expected = ONE
        elif len(void) == 1:
            expected = xs[void[0]]
        else:
            expected = by_pair[tuple(void)]
        if value != expected:
            return None
    bounds = family7_bounds(
        xs[0], xs[1], xs[2], by_pair[(0, 1)], by_pair[(0, 2)], by_pair[(1, 2)]
    )
    if bounds[0] > bounds[1]:
        raise RuntimeError("closed form contradicts a coherent base")
    return bounds


def _same_consequent_dispatch(assessment: Assessment, target: ConditionalQuantity):
    """Closed-form interval for the conjunction of two indicators whose
    joint profile classes show a shared consequent (no true-false mix) or
    incompatible antecedents (no doubly-active class)."""
    if len(assessment) != 2:
        return None
    events = _indicator_events(assessment.family)
    if events is None:
        return None
    xs = {0: assessment.values[0], 1: assessment.values[1]}
    if not _match_pair_conjunction(events, xs, target):
        return None
    inside, c0 = quantity_constituents(assessment.family)

    def mark(v):
        return "V" if v is None else ("T" if v == ONE else "F")

    classes = {tuple(mark(v) for v in c.profile) for c in inside}
    overlapping = {
        ("T", "T"), ("F", "F"), ("T", "V"), ("V", "T"), ("F", "V"), ("V", "F")
    }
    disjoint = {("T", "V"), ("V", "T"), ("F", "V"), ("V", "F")}
    x, y = assessment.values
    if classes == overlapping and c0 is not None:
        return x * y, min(x, y)
    if classes == disjoint:
        return x * y, x * y
    return None


def _closed_form_interval(assessment: Assessment, target: ConditionalQuantity):
    for dispatch in (
        _family7_dispatch,
        _full_compound_dispatch,
        _same_consequent_dispatch,
    ):
        interval = dispatch(assessment, target)
        if interval is not None:
            return interval
    return None


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The smallest-denominator rational strictly between lo and hi."""
    if not lo < hi:
        raise ValueError("need a non-empty open interval")
    if hi <= 0:
        return -_simplest_between(-hi, -lo)
    if lo < 0:
        return ZERO
    floor = lo.numerator // lo.denominator
    if lo == floor:
        if hi > floor + 1:
            return Fraction(floor + 1)
        reciprocal = ONE / (hi - floor)
        k = reciprocal.numerator // reciprocal.denominator + 1
        return floor + Fraction(1, k)
    if floor + 1 < hi:
        return Fraction(floor + 1)
    return floor + 1 / _simplest_between(ONE / (hi - floor), ONE / (lo - floor))


def _level_one_range(assessment: Assessment, target: ConditionalQuantity):
    """The first-level solvable range of the target's value, when the target
    must receive positive antecedent mass; None when mass can vanish."""
    family = assessment.family + (target,)
    inside, _ = quantity_constituents(family)
    t = len(assessment)
    active = [h for h, c in enumerate(inside) if c.profile[t] is not None]
    rows = tuple(
        tuple(
            assessment.values[i] if c.profile[i] is None else c.profile[i]
            for c in inside
        )
        for i in range(t)
    )
    base = LinearSystem(rows, assessment.values, tuple(c.label() for c in inside))
    low_mass = -maximize_linear(
        base, [-1 if h in active else 0 for h in range(len(inside))]
    ).value
    if low_mass == 0:
        return None
    # scale-invariant form: mass vector zeta with unit mass on the target's
    # active blocks, total mass t_scale; the target value is the active sum
    cc_rows = tuple(
        row + (-assessment.values[i],) for i, row in enumerate(rows)
    ) + (
        tuple(ONE for _ in inside) + (-ONE,),
        tuple(ONE if h in active else ZERO for h in range(len(inside))) + (ZERO,),
    )
    cc_rhs = (ZERO,) * (t + 1) + (ONE,)
    cc = LinearSystem(
        cc_rows,
        cc_rhs,
        tuple(c.label() for c in inside) + ("scale",),
        normalization=False,
    )
    objective = [
        inside[h].profile[t] if h in active else ZERO for h in range(len(inside))
    ] + [ZERO]
    hi = maximize_linear(cc, objective).value
    lo = -maximize_linear(cc, [-c for c in objective]).value
    return lo, hi


def _probe_factory(assessment: Assessment, target: ConditionalQuantity):
    cache: dict[Fraction, bool] = {}

    def probe(mu: Fraction) -> bool:
        if mu not in cache:
            cache[mu] = check_coherence(assessment.extend(target, mu)).coherent
        return cache[mu]

    return probe


def _refine_endpoint(
    bad: Fraction, good: Fraction, probe: Callable[[Fraction], bool]
) -> Fraction:
    """Shrink (bad, good] below the width goal; returns the coherent side."""
    while abs(good - bad) > WIDTH_GOAL:
        lo, hi = (bad, good) if bad < good else (good, bad)
        mid = _simplest_between(lo, hi)
        plain = (lo + hi) / 2
        if abs(mid - plain) > (hi - lo) / 4:
            mid = plain
        if probe(mid):
            good = mid
        else:
            bad = mid
    lo, hi = (bad, good) if bad < good else (good, bad)
    if hi - lo > 0:
        snap = _simplest_between(lo, hi)
        if snap != good and probe(snap):
            good = snap
    return good


def _seed_coherent(a: Fraction, b: Fraction, probe) -> Optional[Fraction]:
    seen = set()
    for depth in range(1, 13):
        for k in range(1, 1 << depth, 2):
            mu = a + (b - a) * Fraction(k, 1 << depth)
            if mu in seen:
                continue
            seen.add(mu)
            if probe(mu):
                return mu
    return None


def _generic_interval(
    assessment: Assessment, target: ConditionalQuantity
) -> ExtensionInterval:
    lo_hull, hi_hull = target.hull()
    level_one = _level_one_range(assessment, target)
    a, b = level_one if level_one is not None else (lo_hull, hi_hull)
    probe = _probe_factory(assessment, target)
    probe_a, probe_b = probe(a), probe(b)
    if probe_a and probe_b:
        return ExtensionInterval(a, b, True)
    if a == b:
        raise RuntimeError("pinned extension value failed the coherence probe")
    seed = a if probe_a else (b if probe_b else _seed_coherent(a, b, probe))
    if seed is None:
        raise RuntimeError("no coherent extension located inside the bounds")
    lower = a if probe_a else _refine_endpoint(a, seed, probe)
    upper = b if probe_b else _refine_endpoint(b, seed, probe)
    return ExtensionInterval(lower, upper, False)


def extension_interval(
    assessment: Assessment,
    target: ConditionalQuantity,
    use_closed_form: bool = True,
) -> ExtensionInterval:
    """The closed interval of values mu for which adding (target, mu) keeps
    the assessment coherent.

    Raises IncoherentBase when the assessment itself fails.  Known family
    shapes go through the closed forms; everything else runs the first-level
    value-range analysis, endpoint probes, and, only when an endpoint is not
    confirmed, a rational bisection to width 1e-9 (`exact` is False then).
    """
    if not check_coherence(assessment).coherent:
        raise IncoherentBase("the base assessment is not coherent")
    for q, mu in zip(assessment.family, assessment.values):
        if (
            q.conditioning.members == target.conditioning.members
            and q.values == target.values
        ):
            return ExtensionInterval(mu, mu, True)
    if use_closed_form:
        interval = _closed_form_interval(assessment, target)
        if interval is not None:
            return ExtensionInterval(interval[0], interval[1], True)
    return _generic_interval(assessment, target)
