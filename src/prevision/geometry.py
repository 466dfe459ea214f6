"""Conditional quantities, compound conditionals, partitions, and linear systems.

A conditional quantity X|K takes one exact rational value on each world of
K; outside K it is void and, once assessed, stands in for its own prevision.
It is stored in one form: its distinct values (levels) in descending order
and per world a code byte, the index of its value or, where void, the level
count.  It is built from level sets, (value, mask) pairs over the bit masks of
`events`, and its codes come from the masks by a few bulk integer operations
per bit plane, never by a Python int per world or a pass per level.  Indicators
and the conjunctions and disjunctions of conditional events (over the union
of the antecedents, with assessed previsions filling the partially-void
cases) get their level sets by integer algebra (&, ^, |) on the masks.  An
assessed family's constituents are the joint codes (keys) of its worlds:
`keyed_partition` finds them in one pass, as a code column per member, and
projects the columns onto sub-families; `quantity_constituents` gives each
key its values and +/-/0 label, and reads a block's worlds off the code lanes
only when asked.  From the columns `build_sigma` builds the feasibility
systems whose solvability coherence checking rests on, one column Q_h per
constituent, in one form: integer rows each scaled by the lcm of its
denominators, each a value table read at a code per unknown;
`scale_to_integers` is the one place a Fraction row becomes such a row.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import compress, count, repeat
from math import lcm
from operator import itemgetter, or_
from types import MappingProxyType

from .errors import MissingPrevision, NotApplicable, OutOfRange
from .events import ConditionalEvent, Event, WorldSpace, spread_bits
from .record import Record, to_fraction

ZERO = Fraction(0)
ONE = Fraction(1)
# array typecodes, and struct formats, of unsigned integers 1, 2 and 4 bytes wide
_TYPECODES = {1: "B", 2: "H", 4: "I"}
# Worlds per record buffer of keyed_partition.  One buffer for all 16,384
# worlds of an n = 7 family (128 KB) raised conj-scale's peak RSS by 0.1 MB.
_CHUNK = 4096


class ConditionalQuantity(Record):
    """X|K: an exact value on every world of K, void elsewhere.

    Stored as `levels`, the distinct values in descending order, and `codes`,
    per world the index of its value in `levels` or, where void, len(levels):
    bytes, or a tuple past 255 levels.  Build one with `from_level_sets`
    ((value, mask) pairs) or `from_values` ({world: value}).

    `void_value` is the quantity's own prevision when one is built in (the
    compound constructions put the top-level prevision there); None means the
    void value is supplied later through an assessment.
    """

    _compared = ("conditioning", "levels", "codes", "label", "void_value")
    # codes holds a byte per world, as WorldSpace.kept a bit: not shown
    _shown = ("conditioning", "levels", "label", "void_value")

    def __init__(self, conditioning: Event, levels: tuple, codes, label="X|K", void_value=None):
        if void_value is not None:
            void_value = to_fraction(void_value)
        vars(self).update(
            conditioning=conditioning, levels=levels, codes=codes, label=label,
            void_value=void_value,
        )

    @classmethod
    def from_level_sets(cls, conditioning, level_sets, label="X|K", void_value=None):
        """The quantity worth v on the worlds of each (v, mask) pair; the
        masks cover the conditioning worlds.  Equal values merge, and empty
        masks are dropped.  Values are compared as integers over their
        common denominator, not as Fractions."""
        pairs = [(to_fraction(v), worlds) for v, worlds in level_sets if worlds]
        values, masks = {}, {}
        for key, (v, worlds) in zip(scale_to_integers([v for v, _ in pairs])[0], pairs):
            values.setdefault(key, v)
            masks[key] = masks.get(key, 0) | worlds
        keys = sorted(values, reverse=True)
        levels, masks = tuple(map(values.get, keys)), list(map(masks.get, keys))
        return cls._from_levels(conditioning, levels, masks, label, void_value)

    @classmethod
    def _from_levels(cls, conditioning, levels, masks, label, void_value=None):
        """The quantity worth levels[i] on the worlds of masks[i]: the levels
        are Fractions in descending order, and the masks are non-empty and
        partition the conditioning worlds."""
        codes = _codes([*masks, (~conditioning).members], len(conditioning.space))
        return cls(conditioning, levels, codes, label, void_value)

    @classmethod
    def from_values(cls, conditioning, values, label="X|K", void_value=None):
        """The quantity worth values[w] on each world w of the conditioning, coded
        world by world: level sets would hold a mask per distinct value."""
        n = len(conditioning.space)
        inside = spread_bits(conditioning.members).to_bytes(n, "little")
        if values.keys() != set(compress(range(n), inside)):
            raise ValueError("values must cover exactly the conditioning worlds")
        values = {w: to_fraction(v) for w, v in values.items()}
        levels = sorted(set(values.values()), reverse=True)
        index = {v: i for i, v in enumerate(levels)}
        codes = [index.get(values.get(w), len(levels)) for w in range(n)]  # void last
        codes = bytes(codes) if len(levels) < 256 else tuple(codes)
        return cls(conditioning, tuple(levels), codes, label, void_value)

    @property
    def space(self) -> WorldSpace:
        return self.conditioning.space

    @cached_property
    def values(self):
        """A read-only {world: value} view over the conditioning worlds."""
        void = len(self.levels)
        return MappingProxyType({w: self.levels[c] for w, c in enumerate(self.codes) if c != void})

    def hull(self) -> tuple[Fraction, Fraction]:
        return self.levels[-1], self.levels[0]

    def is_indicator(self) -> bool:
        return set(self.levels) <= {ZERO, ONE}


def _codes(masks, n_worlds):
    """The code of each world, i on the worlds of masks[i], which partition
    the worlds: bytes, or past 256 masks a tuple read from wider lanes.

    A world's lane holds its code.  While more than three lane values
    remain, plane j, the union of the masks whose lane has bit j set, is
    spread into bit j of the lanes, and the masks are merged in pairs by
    lane >> 1; the last three are spread and weighted by their lane.  The
    work is a few operations on whole masks per plane, never a pass over the
    worlds per level.
    """
    width = 1 if len(masks) <= 1 << 8 else 2 if len(masks) <= 1 << 16 else 4
    by_lane = list(masks)  # the masks by lane >> j
    total = j = 0
    while len(by_lane) > 3:
        total += spread_bits(reduce(or_, by_lane[1::2]), width) << j
        by_lane = list(map(or_, by_lane[::2], by_lane[1::2] + [0]))
        j += 1
    for lane, mask in enumerate(by_lane[1:], 1):
        total += lane * spread_bits(mask, width) << j
    lanes = total.to_bytes(n_worlds * width, "little")
    if width == 1:
        return lanes
    lanes = array(_TYPECODES[width], lanes)
    if sys.byteorder == "big":
        lanes.byteswap()
    return tuple(lanes)  # hashable, as the immutable quantity is


def indicator(ce: ConditionalEvent, label: str = "E|H") -> ConditionalQuantity:
    """The 0/1 quantity of a conditional event on its antecedent."""
    h, e = ce.antecedent.members, ce.consequent.members
    true, false = h & e, h & ~e
    if true and false:
        return ConditionalQuantity._from_levels(ce.antecedent, (ONE, ZERO), [true, false], label)
    return ConditionalQuantity._from_levels(ce.antecedent, (ONE,) if true else (ZERO,), [h], label)


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

    def get(self, subset) -> Fraction | None:
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


def _conjunction_level_sets(family, previsions):
    """(union, level sets, x of the full set) of the family's conjunction: 0
    on the worlds where some member fails, 1 where every member holds, and
    x_S on the block where exactly the members S are void.

    Each member splits every block by its antecedent, so the work is integer
    algebra on the event masks, not a classification of each world.
    """
    if not family:
        raise ValueError("family must be non-empty")
    if not isinstance(previsions, CompoundPrevisionMap):
        previsions = CompoundPrevisionMap(previsions)
    union = reduce(or_, (ce.antecedent for ce in family))
    false = 0
    for ce in family:
        false |= ce.antecedent.members & ~ce.consequent.members
    blocks = {(): union.members & ~false}
    for i, ce in enumerate(family, start=1):
        split = {}
        for void, worlds in blocks.items():
            active = worlds & ce.antecedent.members
            if active:
                split[void] = active
            if active != worlds:
                split[void + (i,)] = worlds ^ active
        blocks = split
    xs = {void: previsions.get(void) if void else ONE for void in blocks}
    missing = [(void, ws) for void, ws in blocks.items() if xs[void] is None]
    if missing:
        # name the subset of the lowest world lacking one
        previsions.require(min(missing, key=lambda block: block[1] & -block[1])[0])
    level_sets = [(ZERO, false)] + [(xs[void], ws) for void, ws in blocks.items()]
    return union, level_sets, previsions.get(range(1, len(family) + 1))


def make_conjunction(
    family: Sequence[ConditionalEvent],
    previsions,
    label: str | None = None,
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
    label: str | None = None,
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


class Assessment(Record):
    """A family of conditional quantities with assigned previsions."""

    _compared = _shown = ("family", "values")

    def __init__(self, family: tuple[ConditionalQuantity, ...], values: tuple[Fraction, ...]):
        family = tuple(family)
        values = tuple(to_fraction(v) for v in values)
        if not family:
            raise ValueError("assessment family must be non-empty")
        if len(family) != len(values):
            raise ValueError("one prevision per family member required")
        space = family[0].space
        for q in family:
            if q.space is not space:
                raise ValueError("family members live in different world spaces")
        vars(self).update(family=family, values=values)

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


class QuantityConstituent(Record):
    """A block of worlds with one common value-or-void profile.

    For indicators the profile is 1 (true, "+"), 0 (false, "-") or None
    (void, "0") per member.  `codes` is the block's key, per member the code
    of its value (void: its level count); `lanes` holds the members' codes
    per world, from which `worlds` is read only when asked.
    """

    _compared = _shown = ("profile", "codes")

    def __init__(self, profile: tuple, codes: tuple, lanes: tuple):
        # profile: per member a Fraction, or None when void
        vars(self).update(profile=profile, codes=codes, lanes=lanes)

    @cached_property
    def worlds(self) -> frozenset:
        return frozenset(compress(count(), map(self.codes.__eq__, zip(*self.lanes))))

    @property
    def all_void(self) -> bool:
        return all(v is None for v in self.profile)

    def label(self) -> str:
        return "".join(_mark(v) for v in self.profile)


@lru_cache(maxsize=256)
def _records(voids) -> tuple:
    """Per lane its byte width; the record size, unpacker and all-void record."""
    widths = [1 if v < 256 else 2 if v < 65536 else 4 for v in voids]
    void = b"".join(map(int.to_bytes, voids, widths, repeat("big")))
    return widths, len(void), struct.Struct(f"{len(void)}s").iter_unpack, void


def keyed_partition(codes, voids) -> list:
    """The constituents inside the union of conditioning events as one code
    column per lane of `codes` (world codes, or a projected family's columns),
    void code voids[i]: bytes, or a tuple past 255 levels, in key order.  Each
    lane goes big-endian, as wide as its void code (its largest), into one
    record per world, _CHUNK worlds at a time; the distinct records but the
    all-void one, sorted, are the keys, and the columns are sliced back out
    of their join."""
    widths, size, unpack, void = _records(tuple(voids))
    keys, n = set(), len(codes[0])
    for start in range(0, n, _CHUNK):
        chunk = codes if n <= _CHUNK else [lane[start : start + _CHUNK] for lane in codes]
        records, at = bytearray(size * len(chunk[0])), 0
        for lane, width in zip(chunk, widths):
            if width == 1:
                records[at::size] = lane
            else:
                data = struct.pack(f">{len(lane)}{_TYPECODES[width]}", *lane)
                for b in range(width):
                    records[at + b :: size] = data[b::width]
            at += width
        keys.update(map(itemgetter(0), unpack(records)))
    keys.discard(void)
    keys, columns, at = b"".join(sorted(keys)), [], 0
    for width in widths:
        columns.append(keys[at::size] if width == 1 else _field(keys, at, width, size))
        at += width
    return columns


def _field(keys, at, width, size) -> tuple:
    """Bytes at..at + width of each record of `keys`, as big-endian codes."""
    fields = struct.iter_unpack(f"{at}x{width}s{size - at - width}x", keys)
    fields = b"".join(map(itemgetter(0), fields))
    return struct.unpack(f">{len(fields) // width}{_TYPECODES[width]}", fields)


def quantity_constituents(family):
    """(inside, c0): the blocks of `keyed_partition` in key order (per member,
    values descending, void last), each with its profile read off the levels
    by code, and the all-void block, or None where the conditioning events
    cover the space."""
    lanes = tuple(q.codes for q in family)
    values = [(*q.levels, None) for q in family]  # by code
    voids = tuple(len(q.levels) for q in family)
    block = lambda key: QuantityConstituent(tuple(map(tuple.__getitem__, values, key)), key, lanes)
    covered = reduce(or_, (q.conditioning for q in family)).is_sure
    return [*map(block, zip(*keyed_partition(lanes, voids)))], None if covered else block(voids)


def enumerate_constituents(family) -> list:
    """Every block of quantity_constituents, the all-void block last."""
    inside, c0 = quantity_constituents(family)
    return inside if c0 is None else inside + [c0]


def constituents_in_all_antecedents(family) -> list:
    """The blocks where every member is active."""
    return [c for c in quantity_constituents(family)[0] if None not in c.profile]


def scale_to_integers(values) -> tuple:
    """(ints, s): the rationals times s, the lcm of their denominators, as
    integers.  Every Fraction row, vector or objective that meets the
    integer form below goes through here."""
    s = lcm(*(v.denominator for v in values))
    return [v.numerator * (s // v.denominator) for v in values], s


def tabulate(values) -> tuple:
    """(table, codes): the distinct values, and each value's index in them."""
    index = dict(zip(dict.fromkeys(values), count()))
    codes = [*map(index.__getitem__, values)]
    return [*index], bytes(codes) if len(index) <= 256 else tuple(codes)


class LinearSystem(Record):
    """Equalities over non-negative unknowns that sum to one, unless
    `normalization` is False, in one integer form.

    Row r of `rows` is the r-th equality with its rhs appended, times
    `scales[r]`, the lcm of that row's denominators, as integers; with
    normalization the last row is (1, ..., 1 | 1) with scale 1.  The simplex,
    every certificate check of `lp` and the book check of `coherence` read
    these rows; the tests' Fraction view of them is `oracles.fraction_rows`.
    `value_tables` gives row r as (table, codes), entry j table[codes[j]]:
    `tables` where given, as by `build_sigma`, else derived from the rows.
    `labels` names the unknowns, or returns their names when `unknown_labels`
    is first read; `codes` holds a `build_sigma` system's block columns.  `lp`
    also keeps the simplex state after phase 1 on the system, so that every
    LP on it runs phase 1 once.
    """

    _shown = ("rows", "scales", "labels", "normalization")

    def __init__(self, rows, scales, labels, normalization=True, codes=None, tables=None):
        vars(self).update(
            rows=rows, scales=scales, labels=labels, normalization=normalization,
            codes=codes, tables=tables,
        )

    def __eq__(self, other):
        form = lambda s: (s.rows, s.scales, s.unknown_labels, s.normalization)
        return isinstance(other, LinearSystem) and form(self) == form(other)

    def __hash__(self):
        return hash((self.rows, self.scales))

    @cached_property
    def unknown_labels(self) -> tuple:
        return tuple(self.labels() if callable(self.labels) else self.labels)

    @cached_property
    def value_tables(self) -> tuple:
        return self.tables or tuple(tabulate(row[:-1]) for row in self.rows)

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

    def combine(self, weights) -> tuple:
        """(sums, L): sum_r w_r * row_r over the rational rows, normalization
        row included, rhs last, as integers over one common denominator L.
        Integer row r is s_r times rational row r, so it weighs w_r / s_r."""
        W, L = scale_to_integers([Fraction(w, s) for w, s in zip(weights, self.scales)])
        return self.weigh(W), L

    def weigh(self, W) -> list:
        """sum_r W_r * row_r over the integer rows, rhs last."""
        sums = [0] * (self.n_unknowns + 1)
        for w, row in zip(W, self.rows):
            if w:
                sums = [a + w * v for a, v in zip(sums, row)]
        return sums

    def check_solution(self, vec) -> bool:
        """Non-negativity and every row, in integers: vec times the lcm of its denominators."""
        ints, L = scale_to_integers([to_fraction(v) for v in vec])
        return len(ints) == self.n_unknowns and self.solves(dict(enumerate(ints)), L)

    def solves(self, x, D) -> bool:
        """x_j / D, for j in the dict x and 0 elsewhere, is non-negative and meets each row."""
        return D > 0 and min(x.values(), default=0) >= 0 and all(
            sum(row[j] * v for j, v in x.items()) == row[-1] * D for row in self.rows
        )


def build_sigma(assessment: Assessment, codes=None) -> LinearSystem:
    """The solvability system of the assessment: one row per quantity,
    unknowns indexed by the constituents inside the union of antecedents.

    Row i holds, per block, the value of quantity i where active and its
    prevision mu_i where void, with mu_i as rhs.  It is built in integers
    from the block's code: s_i is the lcm of the denominators of the
    quantity's levels and mu_i, and row i's table, read at the block's code,
    is (levels, mu_i) times s_i; the normalization row's is (1,) at code 0.

    `codes` is the family's keyed_partition when already known, else it is
    computed here.  Columns of further trailing quantities only refine the
    blocks.  The labels mark the family's own codes and are joined only when
    read.
    """
    family = assessment.family
    if codes is None:
        codes = keyed_partition([q.codes for q in family], [len(q.levels) for q in family])
    m, rows, scales, tables = len(codes[0]), [], [], []
    for q, mu, column in zip(family, assessment.values, codes):
        ints, s = scale_to_integers((*q.levels, mu))
        rows.append((*map(ints.__getitem__, column), ints[-1]))
        scales.append(s)
        tables.append((ints, column))
    rows.append((1,) * (m + 1))
    scales.append(1)
    tables.append(((1,), bytes(m)))

    def labels():
        marks = [(*map(_mark, q.levels), "0") for q in family]
        return ("".join(map(tuple.__getitem__, marks, key)) for key in zip(*codes))

    return LinearSystem(tuple(rows), tuple(scales), labels, True, codes, tuple(tables))


def conjunction_signatures(n: int) -> list[frozenset]:
    """All member subsets S of {1..n}, in the canonical unknown order.

    Position p in the order has a set bit for each barred member: member n's
    bar is the top bit and members 1..n-1 follow it, so unbarred comes before
    barred; it matches the worked solution tuples that the closed-form
    constructors reproduce.
    """
    # bit n-1 is member n's bar, and bit n-1-j member j's for j < n
    bit = {j: (n - 1 - j) % n for j in range(1, n + 1)}
    return [frozenset(j for j in bit if not p >> bit[j] & 1) for p in range(1 << n)]


def signature_label(s, n: int) -> str:
    """Compact subset label: barred members carry a trailing tilde."""
    return "".join(f"{j}" if j in s else f"{j}~" for j in range(1, n + 1))


def build_sigma_star(values: Sequence) -> LinearSystem:
    """The reduced system over the 2^n blocks where every antecedent holds,
    for the value sequence (x_1, ..., x_n, x_overall) of n logically
    independent conditional events and their conjunction.  Unknowns follow
    conjunction_signatures.
    """
    values = [to_fraction(v) for v in values]
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
