"""Coherence decisions, betting certificates, and extension intervals.

An assessment is coherent when its solvability system admits a solution and,
recursively, the sub-assessment on the members whose antecedents can never
receive positive mass is itself coherent.  Incoherence always comes with a
stake vector whose gain is strictly positive on every constituent inside the
union of antecedents of the failing sub-family.
"""

from __future__ import annotations

from fractions import Fraction

from . import _bind
from .errors import IncoherentBase
from .geometry import (
    Assessment,
    ConditionalQuantity,
    LinearSystem,
    QuantityConstituent,
    build_sigma,
    keyed_partition,
    quantity_constituents,
)
from .lp import maximize_component_sum, maximize_linear, solve_feasibility
from .record import Record

# Not called here: kept importable because benchmarks/tracing.py patches them by name;
# `__getattr__` binds the closed-form and Frank ones on first read (PEP 562).
from .geometry import constituents_in_all_antecedents, enumerate_constituents  # noqa: F401

ONE = Fraction(1)


def __getattr__(name: str):
    if name in ("family7_bounds", "frechet_bounds_conjunction", "frechet_bounds_disjunction"):
        _bind(("closed_form", "frank"), globals())
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class DutchBook(Record):
    """Stakes against a sub-family with a uniformly positive gain.

    `member_indices` are 1-based positions in the assessed family; `stakes`
    pair with them; `margin` is a lower bound on the gain over every
    constituent inside the sub-family's union of antecedents.
    """

    _compared = _shown = ("member_indices", "stakes", "margin")

    def __init__(self, member_indices: tuple, stakes: tuple, margin: Fraction):
        vars(self).update(member_indices=member_indices, stakes=stakes, margin=margin)


class LevelRecord(Record):
    """One level of the recursion: which members were in play and what the
    solvability analysis found; `solution`, `m_values` and the zero-mass
    set `i0` are None on an unsolvable level.  A walked level also keeps, neither
    compared nor shown, its `assessment` (the members in play), their block
    `columns` with any target's lane last, the lanes' `voids` codes, and the
    `system` over the blocks where some member is active; None elsewhere."""

    _compared = _shown = (
        "member_indices", "labels", "feasible", "solution", "m_values", "m_witnessed", "i0"
    )

    def __init__(self, member_indices, labels, feasible, solution, m_values, m_witnessed, i0,
                 assessment=None, columns=None, voids=None, system=None):
        vars(self).update(
            member_indices=member_indices, labels=labels, feasible=feasible, solution=solution,
            m_values=m_values, m_witnessed=m_witnessed, i0=i0,
            assessment=assessment, columns=columns, voids=voids, system=system,
        )


class CoherenceVerdict(Record):
    """Whether an assessment is coherent, the `trace` of its level records, which
    keep their level systems, and the checked Dutch book of an incoherent one."""

    _compared = _shown = ("coherent", "trace", "dutch_book")

    def __init__(self, coherent: bool, trace: tuple, dutch_book: DutchBook | None = None):
        vars(self).update(coherent=coherent, trace=trace, dutch_book=dutch_book)


class ExtensionInterval(Record):
    """The closed interval of coherent values for one further quantity.

    Every path computes both endpoints exactly, so `exact` is always True.
    """

    _compared = _shown = ("lower", "upper", "exact")

    def __init__(self, lower: Fraction, upper: Fraction, exact: bool):
        vars(self).update(lower=lower, upper=upper, exact=exact)


def _book_gains(system: LinearSystem, stakes):
    """The stakes' gain on every unknown of the booked sub-family's system,
    as integers over one common denominator L; returns (gains, L).

    Row i holds member i's value where active and its prevision where void,
    so a gain is the stakes' combination of a column minus that of the rhs.
    """
    sums, L = system.combine(tuple(stakes) + (0,))
    return [a - sums[-1] for a in sums[:-1]], L


def dutch_book_gains(
    assessment: Assessment, book: DutchBook
) -> list[tuple[QuantityConstituent, Fraction]]:
    """Gain of the stakes on every constituent inside the booked sub-family's
    union of antecedents.  Void members contribute nothing by construction.
    """
    indices = book.member_indices
    if len(book.stakes) != len(indices) or not all(1 <= p <= len(assessment) for p in indices):
        raise ValueError("a book needs one stake per member index, each in 1..len(assessment)")
    sub = assessment.restrict([p - 1 for p in indices])
    inside = quantity_constituents(sub.family)[0]
    gains, L = _book_gains(build_sigma(sub), book.stakes)  # over the same blocks, in order
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
        codes = (range(len(q.levels)),)  # each level holds on some world
        book = _checked_book(
            DutchBook((pos,), (stake,), margin), build_sigma(assessment.restrict([pos - 1]), codes)
        )
        record = LevelRecord((pos,), (q.label,), False, None, None, frozenset(), None)
        return CoherenceVerdict(False, (record,), book)
    return None


def _m_values(system: LinearSystem, columns, voids, witnesses):
    """Maximal mass each member's active set, the unknowns whose code in
    `columns` is not its void code in `voids`, can carry over `system`.

    A set that some witness solution already gives positive mass needs no
    solve; every other set gets its verified maximum, and each maximizer
    joins the witnesses.  A witness is a basic solution, so its mass on a set
    is summed over its `support`, its few non-zero entries.  When two or more
    sets get no witness mass, one LP first maximizes their union's mass; a
    maximum of 0 stands for each set's own, whose 0/1 objective lies below
    the union's, so the union's verified dual proves each zero, and its
    maximizer is the phase-1 point, as each set's own would be.  Returns the
    m-values, the positions settled by a witness, and the positions stuck at zero.
    """
    supports = [w.support for w in witnesses]
    m_values = [None] * len(columns)
    witnessed = set()
    zero = []
    union = None

    def active(i):
        return (h for h, c in enumerate(columns[i]) if c != voids[i])

    for i, (column, void) in enumerate(zip(columns, voids)):
        mass = max(sum(v for h, v in s if column[h] != void) for s in supports)
        if mass > 0:
            m_values[i] = mass
            witnessed.add(i)
            continue
        if union is None:  # the first set without witness mass, before any LP
            rest = [j for j in range(i, len(columns))
                    if all(columns[j][h] == voids[j] for s in supports for h, _ in s)]
            union = len(rest) > 1 and maximize_component_sum(
                system, (h for j in rest for h in active(j))
            )
        best = union if union and union.value == 0 else maximize_component_sum(system, active(i))
        m_values[i] = best.value
        supports.append(best.support)
        if best.value == 0:
            zero.append(i)
    return m_values, witnessed, zero


def _walk(assessment: Assessment, target=None, lanes=None) -> CoherenceVerdict:
    """The verdict on `assessment`, whose records keep each level's state.  The
    first level keys `lanes`, the members' and any target's world codes or a
    walked level's columns for them, and each later one projects the last; the
    member-active prefix of its columns makes a level's one system."""
    if (screened := _hull_screen(assessment)) is not None:
        return screened
    quantities = assessment.family + (() if target is None else (target,))
    voids = [len(q.levels) for q in quantities]
    columns = keyed_partition(lanes or [q.codes for q in quantities], voids)
    current, index_map, trace = assessment, tuple(range(1, len(assessment) + 1)), []
    for _ in range(len(assessment)):
        t, m = len(current), len(columns[0])
        while m and all(column[m - 1] == void for column, void in zip(columns[:t], voids)):
            m -= 1
        system = build_sigma(current, [column[:m] for column in columns])
        labels = tuple(q.label for q in current.family)
        state = (current, tuple(columns), tuple(voids), system)  # kept on the level's record
        cert = solve_feasibility(system)
        if not cert.feasible:
            stakes = tuple(-u for u in cert.dual[:-1])
            book = _checked_book(DutchBook(index_map, stakes, cert.margin), system)
            record = LevelRecord(index_map, labels, False, None, None, frozenset(), None, *state)
            return CoherenceVerdict(False, (*trace, record), book)
        m_values, witnessed, zero = _m_values(system, columns[:t], voids, [cert])
        witnessed, i0 = (frozenset(index_map[i] for i in s) for s in (witnessed, zero))
        trace.append(LevelRecord(index_map, labels, True, cert.solution, tuple(m_values),
                                 witnessed, i0, *state))
        if not zero:
            return CoherenceVerdict(True, tuple(trace))
        keep = zero + list(range(t, len(columns)))  # the target's lane stays last
        voids = [voids[i] for i in keep]
        columns = keyed_partition([columns[i] for i in keep], voids)
        current, index_map = current.restrict(zero), tuple(index_map[i] for i in zero)
    raise RuntimeError("recursion failed to terminate")


def check_coherence(assessment: Assessment) -> CoherenceVerdict:
    """Decide coherence by solvability plus the zero-mass recursion.

    Each level solves the system over the constituents inside the union of
    antecedents, then maximizes the mass reachable by each member's
    antecedent; members stuck at zero form the next level's family.  The
    family strictly shrinks, so the loop is capped defensively at its size.
    """
    return _walk(assessment)


def find_dutch_book(assessment: Assessment) -> DutchBook | None:
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


def _linear_range(system: LinearSystem, objective):
    """Least and greatest value of `objective` over the solutions of `system`."""
    hi = maximize_linear(system, objective).value
    lo = -maximize_linear(system, [-c for c in objective]).value
    return lo, hi


def _charnes_cooper_range(system: LinearSystem, t: int, values, k_mass):
    """Least and greatest target value over the solutions of `system`, after
    `t` member rows, that give positive mass to the target's active blocks,
    where `k_mass` is 1; `values` is its value per unknown, 0 where void.

    Scale-invariant form: a mass vector zeta with unit mass on the target's
    active blocks and total mass `scale`; the target value is then the
    active sum of zeta times the target's values.  Member row i becomes
    (row_i | -mu_i | 0) with the same scale s_i.
    """
    cc = LinearSystem(
        tuple(row[:-1] + (-row[-1], 0) for row in system.rows[:t])
        + ((1,) * len(k_mass) + (-1, 0), k_mass + (0, 1)),
        system.scales[:t] + (1, 1),
        lambda: system.unknown_labels + ("scale",),
        normalization=False,
    )
    return _linear_range(cc, [*values, 0])


def _propagate(trace, target: ConditionalQuantity):
    """The exact coherent range of the target over a coherent assessment,
    from the `trace` of its walk with the target (`_walk`): each level record's
    members, block columns and void codes, and system over the blocks where
    some member is active.

    On the blocks Q where only the target is active, sorted last, every
    member row reads its prevision, the rhs, so the solutions over all
    blocks mix the level system's with point masses on Q: each range below
    is the level system's, widened to the target's values on Q.  Where the
    target is active on every block, the range of its values is the answer.
    Else Q lies in the target's active blocks K, and the level's verified
    phase-1 point leaves one LP on K's mass: with mass on K, whether K must
    carry mass, and then the linear-fractional range is the answer; without,
    whether K can, and if not the target joins the next level, whose range
    covers Q's values.  Where K may carry mass or not, values outside it leave
    the target void, and the members that then get no mass, with the target,
    form on its columns a strictly smaller problem whose range joins the level's.
    """
    hull = target.hull()
    for level in trace:
        system, columns, voids = level.system, level.columns, level.voids
        t, void, m = len(level.assessment), voids[-1], system.n_unknowns
        values = [*map((*target.levels, 0).__getitem__, columns[t])]  # 0 where void
        values, ends = values[:m], values[m:]  # the target's values on Q, then its range's ends
        if void not in columns[t][:m]:
            ends += _linear_range(system, values)
            return min(ends), max(ends)
        k_mass = tuple(int(c != void) for c in columns[t][:m])
        witness = solve_feasibility(system)  # without K mass, a point of least K mass
        if any(k_mass[h] for h, _ in witness.support):  # K can carry mass
            witness = maximize_linear(system, [-v for v in k_mass])
            ends += _charnes_cooper_range(system, t, values, k_mass)
            if witness.value < 0:  # K must carry mass
                return min(ends), max(ends)
        elif maximize_linear(system, k_mass).value > 0:  # K can carry mass here
            ends += _charnes_cooper_range(system, t, values, k_mass)
        else:  # K never carries mass here: the next level covers Q
            continue
        lo, hi = min(ends), max(ends)
        if (lo, hi) == hull:
            return lo, hi
        # the member rows, K's mass set to zero, then the normalization row
        void_target = LinearSystem(
            system.rows[:t] + (k_mass + (0,),) + system.rows[t:],
            system.scales[:t] + (1,) + system.scales[t:],
            system.labels,
        )
        _, _, zero = _m_values(void_target, columns[:t], voids, [witness])
        if not zero:
            return hull
        lanes = [columns[i] for i in (*zero, t)]
        verdict = _walk(level.assessment.restrict(zero), target, lanes)
        if not verdict.coherent:
            raise RuntimeError("restriction of a coherent assessment failed")
        sub_lo, sub_hi = _propagate(verdict.trace, target)
        return min(lo, sub_lo), max(hi, sub_hi)
    return hull


def extension_interval(
    assessment: Assessment, target: ConditionalQuantity
) -> ExtensionInterval:
    """The closed interval of values mu for which adding (target, mu) keeps
    the assessment coherent.

    Raises ValueError for a target over another world space, IncoherentBase
    when the assessment itself fails.  A target already in the family gets
    its assessed value.  Every other target, the Frechet-Hoeffding,
    same-consequent and three-event family shapes included, is propagated
    exactly, with linear programs only, through the levels of the verdict's
    own walk, whose blocks the target refines.  `exact` is always True.
    """
    if target.space is not assessment.space:
        raise ValueError("family members live in different world spaces")
    verdict = _walk(assessment, target)
    if not verdict.coherent:
        raise IncoherentBase("the base assessment is not coherent")
    for q, mu in zip(assessment.family, assessment.values):
        if (q.levels, q.codes) == (target.levels, target.codes):
            return ExtensionInterval(mu, mu, True)
    return ExtensionInterval(*_propagate(verdict.trace, target), True)
