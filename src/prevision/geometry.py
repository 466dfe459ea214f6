"""Conditional quantities, compound conditionals, partitions, and linear systems.

A conditional quantity X|K takes one exact rational value on each world of
K; outside K it is void and, once assessed, stands in for its own prevision.
It is stored in one form, built from level sets {value: worlds}: its
distinct values (levels) in descending order and, per world, the index of
the world's value among them or VOID.  Indicators and the conjunctions and
disjunctions of conditional events (over the union of the antecedents, with
assessed previsions filling the partially-void cases) get their level sets
by set algebra on the events.  An assessed family's constituents are the
joint code tuples (keys) of its worlds: `keyed_partition` finds them in one
pass and projects them onto sub-families, and `quantity_constituents` adds
each block's worlds, values and +/-/0 label for callers that show them.
From the keys `build_sigma` builds the feasibility systems whose
solvability coherence checking rests on, one column Q_h per constituent, in
one form: integer rows each scaled by the lcm of its denominators;
`scale_to_integers` is the one place a Fraction row becomes such a row.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from types import MappingProxyType
from typing import Optional, Sequence, Union

from .errors import MissingPrevision, NotApplicable, OutOfRange
from .events import ConditionalEvent, Event, WorldSpace

ZERO = Fraction(0)
ONE = Fraction(1)
# The value code of a world outside a quantity's conditioning event; it
# exceeds every level index, so ascending codes put void after every value.
VOID = sys.maxsize


def to_fraction(value) -> Fraction:
    """Exact conversion; floats are rejected so no binary rounding sneaks in."""
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass a Fraction, int, or string")
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class ConditionalQuantity:
    """X|K: an exact value on every world of K, void elsewhere.

    Stored as `levels`, the distinct values in descending order, and `codes`,
    for each world of the space the index of its value in `levels`, or VOID.
    Build one with `from_level_sets` ((value, worlds) pairs) or `from_values`
    ({world: value}).

    `void_value` is the quantity's own prevision when one is built in (the
    compound constructions put the top-level prevision there); None means the
    void value is supplied later through an assessment.
    """

    conditioning: Event
    levels: tuple
    codes: tuple
    label: str = "X|K"
    void_value: Optional[Fraction] = None

    def __post_init__(self):
        if self.void_value is not None:
            object.__setattr__(self, "void_value", to_fraction(self.void_value))

    @classmethod
    def from_level_sets(cls, conditioning, level_sets, label="X|K", void_value=None):
        """The quantity worth v on the worlds of each (v, worlds) pair; the
        pairs cover the conditioning worlds.  Equal values merge, and empty
        sets are dropped."""
        merged = {}
        for v, worlds in level_sets:
            if worlds:
                merged.setdefault(to_fraction(v), []).extend(worlds)
        levels = sorted(merged, reverse=True)
        codes = [VOID] * len(conditioning.space)
        for i, v in enumerate(levels):
            for w in merged[v]:
                codes[w] = i
        return cls(conditioning, tuple(levels), tuple(codes), label, void_value)

    @classmethod
    def from_values(cls, conditioning, values, label="X|K", void_value=None):
        """The quantity worth values[w] on each world w of the conditioning."""
        if values.keys() != conditioning.members:
            raise ValueError("values must cover exactly the conditioning worlds")
        level_sets = ((v, (w,)) for w, v in values.items())
        return cls.from_level_sets(conditioning, level_sets, label, void_value)

    @property
    def space(self) -> WorldSpace:
        return self.conditioning.space

    @cached_property
    def values(self):
        """A read-only {world: value} view over the conditioning worlds."""
        return MappingProxyType({w: self.levels[c] for w, c in enumerate(self.codes) if c != VOID})

    def hull(self) -> tuple[Fraction, Fraction]:
        return self.levels[-1], self.levels[0]

    def is_indicator(self) -> bool:
        return set(self.levels) <= {ZERO, ONE}


def indicator(ce: ConditionalEvent, label: str = "E|H") -> ConditionalQuantity:
    """The 0/1 quantity of a conditional event on its antecedent."""
    h, e = ce.antecedent.members, ce.consequent.members
    return ConditionalQuantity.from_level_sets(ce.antecedent, [(ONE, h & e), (ZERO, h - e)], label)


def as_conditional_event(q: ConditionalQuantity) -> Optional[ConditionalEvent]:
    """Recover E|H from an indicator quantity; None if values are not 0/1."""
    if not q.is_indicator():
        return None
    one = q.levels.index(ONE) if ONE in q.levels else None
    ones = frozenset(w for w, c in enumerate(q.codes) if c == one)
    return ConditionalEvent(Event(q.space, ones), q.conditioning)


class CompoundPrevisionMap:
    """x_S per non-empty member subset S, each value in [0, 1].

    Keys are 1-based member indices.  Entries are previsions of the
    sub-compounds over S, evaluated beforehand; singletons are the plain
    conditional previsions.
    """

    def __init__(self, entries):
        store = {}
        for key, value in dict(entries).items():
            subset = frozenset(key) if not isinstance(key, int) else frozenset([key])
            if not subset or not all(isinstance(i, int) and i >= 1 for i in subset):
                raise ValueError(f"bad member subset {key!r}")
            v = to_fraction(value)
            if not 0 <= v.numerator <= v.denominator:
                raise OutOfRange(f"prevision {v} for subset {sorted(subset)} not in [0,1]")
            store[subset] = v
        self._entries = store

    def get(self, subset) -> Optional[Fraction]:
        return self._entries.get(frozenset(subset))

    def require(self, subset) -> Fraction:
        value = self.get(subset)
        if value is None:
            raise MissingPrevision(subset)
        return value

    def items(self):
        return self._entries.items()

    def __len__(self):
        return len(self._entries)


def demorgan_previsions(m: CompoundPrevisionMap) -> CompoundPrevisionMap:
    """Complement every entry: disjunction previsions become the previsions of
    the negated family's conjunctions, and vice versa."""
    return CompoundPrevisionMap({tuple(sorted(s)): ONE - v for s, v in m.items()})


def _conjunction_blocks(family):
    """(union, false, blocks): the union of antecedents, its worlds where some
    member fails, and its other worlds grouped by the tuple of 1-based members
    void on them; the block of () holds the worlds where every member holds.

    Each member splits every block by its antecedent, so the work is set
    algebra on the events, not a classification of each world.
    """
    union = family[0].antecedent
    for ce in family[1:]:
        union = union | ce.antecedent
    false = frozenset().union(
        *(ce.antecedent.members - ce.consequent.members for ce in family)
    )
    blocks = {(): union.members - false}
    for i, ce in enumerate(family, start=1):
        split = {}
        for void, worlds in blocks.items():
            active = worlds & ce.antecedent.members
            if active:
                split[void] = active
            if len(active) < len(worlds):
                split[void + (i,)] = worlds - active
        blocks = split
    return union, false, blocks


def follows_compound_table(target, events, at_false, bounds) -> bool:
    """Is the target conditioned on the events' union of antecedents, equal
    to `at_false` wherever some event fails, and inside bounds(S) = (lo, hi)
    wherever exactly the events S (1-based; () for none) are void?  S with
    bounds(S) None is left free.  Each block is checked by its set of codes."""
    union, false, blocks = _conjunction_blocks(events)
    if target.conditioning.members != union.members:
        return False
    levels, codes = target.levels, target.codes
    # the false worlds first, held at at_false
    for void, worlds in [(None, false), *blocks.items()]:
        lohi = (at_false, at_false) if void is None else bounds(void)
        if lohi is not None and not all(
            lohi[0] <= levels[c] <= lohi[1] for c in set(map(codes.__getitem__, worlds))
        ):
            return False
    return True


def _conjunction_level_sets(family, previsions):
    """(union, level sets, x of the full set) of the family's conjunction: 0
    on the false worlds, 1 where every member holds, and x_S on the block
    where exactly the members S are void."""
    if not family:
        raise ValueError("family must be non-empty")
    if not isinstance(previsions, CompoundPrevisionMap):
        previsions = CompoundPrevisionMap(previsions)
    union, false, blocks = _conjunction_blocks(family)
    xs = {void: previsions.get(void) if void else ONE for void in blocks}
    missing = {w: void for void, ws in blocks.items() if xs[void] is None for w in ws}
    if missing:
        # name the subset of the first world, in the union's order, lacking one
        previsions.require(missing[next(w for w in union.members if w in missing)])
    level_sets = [(ZERO, false)] + [(xs[void], ws) for void, ws in blocks.items()]
    return union, level_sets, previsions.get(range(1, len(family) + 1))


def make_conjunction(
    family: Sequence[ConditionalEvent],
    previsions,
    label: Optional[str] = None,
) -> ConditionalQuantity:
    """The conjunction of the family as a quantity on the union of antecedents.

    Value 1 where every member holds, 0 where any member fails, and the
    supplied x_S where exactly the members in S are void.  The full-set entry,
    when present, becomes the built-in void value.
    """
    family = list(family)
    union, level_sets, void = _conjunction_level_sets(family, previsions)
    return ConditionalQuantity.from_level_sets(
        union, level_sets, label or f"and({len(family)})", void
    )


def make_disjunction(
    family: Sequence[ConditionalEvent],
    negation_previsions,
    label: Optional[str] = None,
) -> ConditionalQuantity:
    """The disjunction, as one minus the conjunction of the negated family.

    `negation_previsions` holds x_S for the conjunctions of negated members;
    convert a map of direct disjunction previsions with demorgan_previsions.
    """
    negated = [ConditionalEvent(~ce.consequent, ce.antecedent) for ce in family]
    union, level_sets, void = _conjunction_level_sets(negated, negation_previsions)
    return ConditionalQuantity.from_level_sets(
        union,
        [(ONE - v, worlds) for v, worlds in level_sets],
        label or f"or({len(family)})",
        None if void is None else ONE - void,
    )


@dataclass(frozen=True)
class Assessment:
    """A family of conditional quantities with assigned previsions."""

    family: tuple[ConditionalQuantity, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        family = tuple(self.family)
        values = tuple(to_fraction(v) for v in self.values)
        if not family:
            raise ValueError("assessment family must be non-empty")
        if len(family) != len(values):
            raise ValueError("one prevision per family member required")
        space = family[0].space
        for q in family:
            if q.space is not space:
                raise ValueError("family members live in different world spaces")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "values", values)

    @property
    def space(self) -> WorldSpace:
        return self.family[0].space

    def __len__(self):
        return len(self.family)

    def restrict(self, indices) -> "Assessment":
        indices = list(indices)
        return Assessment(
            tuple(self.family[i] for i in indices),
            tuple(self.values[i] for i in indices),
        )

    def extend(self, quantity: ConditionalQuantity, value) -> "Assessment":
        return Assessment(self.family + (quantity,), self.values + (to_fraction(value),))


def _mark(v) -> str:
    """A profile entry's mark: + for 1, - for 0, 0 for void, else (v)."""
    if v is None:
        return "0"
    if v.denominator == 1:
        if v.numerator == 1:
            return "+"
        if v.numerator == 0:
            return "-"
    return f"({v})"


@dataclass(frozen=True)
class QuantityConstituent:
    """A block of worlds with one common value-or-void profile.

    For indicators the profile is 1 (true, "+"), 0 (false, "-") or None
    (void, "0") per member.
    """

    worlds: frozenset[int]
    profile: tuple  # per member: a Fraction, or None when void
    # per member, the code of its value (VOID when void), from the partition
    codes: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def all_void(self) -> bool:
        return all(v is None for v in self.profile)

    def label(self) -> str:
        return "".join(_mark(v) for v in self.profile)


def keyed_partition(codes) -> list:
    """The constituents inside the union of conditioning events as sorted
    joint code tuples, one code per column of `codes`: one pass over the
    worlds given the members' codes, a projection given columns of a
    family's keys (a sub-family's keys project the family's)."""
    keys = set(zip(*codes))
    keys.discard((VOID,) * len(codes))
    return sorted(keys)


def quantity_constituents(family):
    """Partition the space by joint profile.

    Worlds are grouped by their tuple of value codes, one per member, and the
    blocks ordered by those tuples: per member, values descending, void last.
    Returns (inside, c0): the blocks meeting some conditioning event, in that
    order, and the all-void block or None.
    """
    # sets grown world by world, as the order a frozenset iterates in (and
    # so each block's repr) depends on how its source was built
    blocks: dict[tuple, set[int]] = {}
    for w, key in enumerate(zip(*(q.codes for q in family))):
        blocks.setdefault(key, set()).add(w)
    values = [{**dict(enumerate(q.levels)), VOID: None} for q in family]

    def block(key):
        profile = tuple(map(dict.__getitem__, values, key))
        return QuantityConstituent(frozenset(blocks[key]), profile, key)

    void_key = (VOID,) * len(values)
    inside = [block(key) for key in sorted(blocks) if key != void_key]
    c0 = block(void_key) if void_key in blocks else None
    return inside, c0


def enumerate_constituents(family) -> list:
    """Every block of quantity_constituents, the all-void block last."""
    inside, c0 = quantity_constituents(family)
    return inside if c0 is None else inside + [c0]


def constituents_in_all_antecedents(family) -> list:
    """The blocks where every member is active."""
    return [c for c in quantity_constituents(family)[0] if VOID not in c.codes]


def scale_to_integers(values) -> tuple:
    """(ints, s): the rationals times s, the lcm of their denominators, as
    integers.  Every Fraction row, vector or objective that meets the
    integer form below goes through here."""
    s = lcm(*(v.denominator for v in values))
    return [v.numerator * (s // v.denominator) for v in values], s


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Equalities over non-negative unknowns that sum to one, unless
    `normalization` is False, in one integer form.

    Row r of `rows` is the r-th equality with its rhs appended, times
    `scales[r]`, the lcm of that row's denominators, as integers; with
    normalization the last row is (1, ..., 1 | 1) with scale 1.  The simplex,
    every certificate check of `lp` and the book check of `coherence` read
    these rows, and `columns` is their transpose; the tests' Fraction view of
    them is `oracles.fraction_rows`.  `labels` names the unknowns, or returns
    their names when `unknown_labels` is first read; `keys` holds a
    `build_sigma` system's block codes.  `lp` also keeps the simplex state
    after phase 1 on the system, so that every LP on it runs phase 1 once.
    """

    rows: tuple
    scales: tuple
    labels: object
    normalization: bool = True
    keys: Optional[list] = field(default=None, repr=False)

    def __eq__(self, other):
        form = lambda s: (s.rows, s.scales, s.unknown_labels, s.normalization)
        return isinstance(other, LinearSystem) and form(self) == form(other)

    def __hash__(self):
        return hash((self.rows, self.scales))

    @cached_property
    def unknown_labels(self) -> tuple:
        return tuple(self.labels() if callable(self.labels) else self.labels)

    @classmethod
    def from_fractions(cls, equalities, rhs, unknown_labels, normalization=True):
        """The system of rational `equalities` with right-hand sides `rhs`."""
        rows, scales = [], []
        for row, b in zip(equalities, rhs):
            ints, s = scale_to_integers((*row, b))
            rows.append(tuple(ints))
            scales.append(s)
        if normalization:
            rows.append((1,) * (len(unknown_labels) + 1))
            scales.append(1)
        return cls(tuple(rows), tuple(scales), tuple(unknown_labels), normalization)

    @property
    def n_unknowns(self) -> int:
        return len(self.rows[0]) - 1 if self.rows else len(self.unknown_labels)

    @cached_property
    def columns(self) -> tuple:
        """The integer rows transposed, rhs left out: one tuple per unknown,
        the columns that the simplex prices and enters."""
        if not self.rows:
            return ((),) * self.n_unknowns
        return tuple(zip(*self.rows))[:-1]

    def combine(self, weights) -> tuple:
        """(sums, L): sum_r w_r * row_r over the rational rows, normalization
        row included, rhs last, as integers over one common denominator L.
        Integer row r is s_r times rational row r, so it weighs w_r / s_r."""
        W, L = scale_to_integers([Fraction(w, s) for w, s in zip(weights, self.scales)])
        sums = [0] * (self.n_unknowns + 1)
        for w, row in zip(W, self.rows):
            if w:
                sums = [a + w * v for a, v in zip(sums, row)]
        return sums, L

    def check_solution(self, vec) -> bool:
        """Non-negativity and every row, normalization included, checked in
        integers: vec times the lcm L of its denominators against each row,
        whose rhs is then scaled by L too."""
        ints, L = scale_to_integers([to_fraction(v) for v in vec])
        if len(ints) != self.n_unknowns or any(x < 0 for x in ints):
            return False
        support = [(j, x) for j, x in enumerate(ints) if x]
        return all(
            sum(row[j] * x for j, x in support) == row[-1] * L for row in self.rows
        )


def build_sigma(assessment: Assessment, keys=None) -> LinearSystem:
    """The solvability system of the assessment: one row per quantity,
    unknowns indexed by the constituents inside the union of antecedents.

    Row i holds, per block, the value of quantity i where active and its
    prevision mu_i where void, with mu_i as rhs.  It is built in integers
    from the block's code: s_i is the lcm of the denominators of the
    quantity's levels and mu_i, and each entry is a level or mu_i times s_i.

    `keys` is the family's keyed_partition when already known, else it is
    computed here.  Its tuples may carry the codes of further trailing
    quantities; these only refine the blocks.  The labels mark the family's
    own codes and are joined only when read.
    """
    family = assessment.family
    if keys is None:
        keys = keyed_partition([q.codes for q in family])
    columns = list(zip(*keys)) or [()] * len(family)
    rows, scales = [], []
    for q, mu, column in zip(family, assessment.values, columns):
        ints, s = scale_to_integers((*q.levels, mu))
        entry = {**dict(enumerate(ints[:-1])), VOID: ints[-1]}
        rows.append((*map(entry.__getitem__, column), ints[-1]))
        scales.append(s)
    rows.append((1,) * (len(keys) + 1))
    scales.append(1)

    def labels():
        marks = [{**dict(enumerate(map(_mark, q.levels))), VOID: "0"} for q in family]
        return ("".join(map(dict.__getitem__, marks, key)) for key in keys)

    return LinearSystem(tuple(rows), tuple(scales), labels, True, keys)


def conjunction_signatures(n: int) -> list[frozenset]:
    """All member subsets S of {1..n}, in the canonical unknown order.

    The order puts the last member's bar in the most significant position and
    members 1..n-1 after it, unbarred before barred; it matches the worked
    solution tuples that the closed-form constructors reproduce.
    """
    def position(s):
        pos = 0 if n in s else 1 << (n - 1)
        for j in range(1, n):
            if j not in s:
                pos += 1 << (n - 1 - j)
        return pos

    return sorted((frozenset(s) for s in _subsets(n)), key=position)


def _subsets(n):
    for mask in range(1 << n):
        yield [j for j in range(1, n + 1) if mask >> (j - 1) & 1]


def signature_label(s, n: int) -> str:
    """Compact subset label: barred members carry a trailing tilde."""
    return "".join(f"{j}" if j in s else f"{j}~" for j in range(1, n + 1))


def build_sigma_star(assessment: Union[Assessment, Sequence]) -> LinearSystem:
    """The reduced system over the 2^n blocks where every antecedent holds.

    Accepts either an assessed family (n conditional-event indicators plus
    their n-ary conjunction, shape checked) or a bare value sequence
    (x_1, ..., x_n, x_overall).  Unknowns follow conjunction_signatures.
    """
    if isinstance(assessment, Assessment):
        xs, x_all = _sigma_star_values_from_assessment(assessment)
    else:
        values = [to_fraction(v) for v in assessment]
        if len(values) < 2:
            raise NotApplicable("need at least one member prevision plus the overall one")
        xs, x_all = values[:-1], values[-1]
    n = len(xs)
    sigs = conjunction_signatures(n)
    full = frozenset(range(1, n + 1))
    equalities = [
        tuple(ONE if j in s else ZERO for s in sigs) for j in range(1, n + 1)
    ]
    equalities.append(tuple(ONE if s == full else ZERO for s in sigs))
    return LinearSystem.from_fractions(
        equalities, tuple(xs) + (x_all,), [signature_label(s, n) for s in sigs]
    )


def _sigma_star_values_from_assessment(assessment: Assessment):
    family = assessment.family
    if len(family) < 2:
        raise NotApplicable("family must contain members plus their conjunction")
    members, compound = family[:-1], family[-1]
    events = []
    for q in members:
        ce = as_conditional_event(q)
        if ce is None:
            raise NotApplicable(f"{q.label} is not a conditional-event indicator")
        events.append(ce)
    if not follows_compound_table(
        compound, events, ZERO, lambda s: (ZERO, ONE) if s else (ONE, ONE)
    ):
        raise NotApplicable("last member does not look like the family's conjunction")
    if len(constituents_in_all_antecedents(members)) != 1 << len(members):
        raise NotApplicable("events are not logically independent inside the joint antecedent")
    return list(assessment.values[:-1]), assessment.values[-1]
