"""Conditional quantities, compound conditionals, partitions, and linear systems.

A conditional quantity X|K takes one exact rational value on each world of
K; outside K it is void and, once assessed, stands in for its own prevision.
It is stored in one form: its distinct values (levels) in descending order
and per world a code byte, the index of its value or, where void, the level
count.  `_lanes` codes each quantity but those of `from_values`: it folds
(key, mask) blocks over the bit masks of `events` into the bit planes of the
codes as they arrive, never a Python int per world or a pass per block.  A
conjunction's blocks, made by integer algebra on the masks, depend only on
its events, so each space keeps a block map per family of under 8 members:
a compound or an indicator (a one-member conjunction, which shares the map's
lanes) then only gives each block its value and relabels the lanes in level
order.  Level sets, and wider families, fold their values via `_quantity`.
An assessed family's constituents are the joint codes (keys) of its worlds:
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

from .errors import MissingPrevision, OutOfRange
from .events import ConditionalEvent, Event, WorldSpace, spread_bits
from .record import Record, to_fraction

ZERO = Fraction(0)
ONE = Fraction(1)
# array typecodes, and struct formats, of unsigned integers 1, 2 and 4 bytes wide
_TYPECODES = {1: "B", 2: "H", 4: "I"}
# Block maps kept per space, the oldest dropped past it: an entry holds a
# byte per world, 16 KB over 4^7 worlds and 1 MB over 2^20.
_BLOCK_MAPS = 32
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
        if conditioning.is_empty:
            raise ValueError("conditioning event must be non-empty")
        if void_value is not None:
            void_value = to_fraction(void_value)
        vars(self).update(
            conditioning=conditioning, levels=levels, codes=codes, label=label,
            void_value=void_value,
        )

    @classmethod
    def from_level_sets(cls, conditioning, level_sets, label="X|K", void_value=None):
        """The quantity worth v on the worlds of each (v, mask) pair; the
        masks partition the conditioning worlds.  Equal values merge, and
        empty masks are dropped."""
        blocks = [(to_fraction(v), worlds) for v, worlds in level_sets]
        masks = [worlds for _, worlds in blocks]
        # disjoint masks, and only they, sum to their union
        if not sum(masks) == reduce(or_, masks, 0) == conditioning.members:
            raise ValueError("level sets must partition the conditioning worlds")
        return _quantity(conditioning, blocks, label, void_value)

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


def _lanes(blocks, outside, n_worlds) -> tuple:
    """(keys, codes): each (key, mask) block is folded into the bit planes of
    the codes as it arrives, its key numbered from 0 as first seen, and the
    worlds of the mask `outside` get the code after the last; keys by code.
    Each plane is then spread into its bit of the lanes at once: a byte per
    world, or past 256 codes a tuple."""
    seen, planes = {}, []
    for key, worlds in blocks:
        if not worlds:
            continue
        code = seen.setdefault(key, len(seen))
        planes += [0] * (len(seen).bit_length() - len(planes))  # and the void code's
        j = 0
        while code:  # the block's worlds join the plane of each bit of its code
            if code & 1:
                planes[j] |= worlds
            code, j = code >> 1, j + 1
    void = len(seen)
    for j in range(void.bit_length()):
        if void >> j & 1:
            planes[j] |= outside
    width = 1 if void < 1 << 8 else 2 if void < 1 << 16 else 4
    total = sum(spread_bits(plane, width, j) for j, plane in enumerate(planes) if plane)
    lanes = total.to_bytes(n_worlds * width, "little")
    if width > 1:
        lanes = array(_TYPECODES[width], lanes)
        if sys.byteorder == "big":
            lanes.byteswap()
        lanes = tuple(lanes)  # hashable
    return tuple(seen), lanes


def _quantity(conditioning, blocks, label, void_value=None):
    """The quantity worth x on the worlds of each (x, mask) block, a Fraction
    and a mask; the blocks partition the conditioning worlds, equal values may
    recur, and empty masks are skipped.  No mask per level, or pass per block."""
    n = len(conditioning.space)
    values, codes = _lanes(blocks, ((1 << n) - 1) ^ conditioning.members, n)
    return ConditionalQuantity(conditioning, *_levels(values, codes), label, void_value)


def _levels(values, codes) -> tuple:
    """(levels, codes): the distinct values of codes 0, 1, ... in descending
    order, and the codes renumbered to index them, void last; the same codes
    where each keeps its number."""
    ratios = [x.as_integer_ratio() for x in values]
    value = dict(zip(ratios, values))  # the distinct values, by ratio
    # whole part, the float of the rest, and on a tie of both the value: exact
    order = sorted(value, key=lambda r: (r[0] // r[1], r[0] % r[1] / r[1], value[r]), reverse=True)
    level = dict(zip(order, count()))
    renumber = [*map(level.__getitem__, ratios), len(order)]
    levels = tuple(map(value.__getitem__, order))
    if renumber == [*range(len(renumber))]:
        return levels, codes
    if isinstance(codes, bytes):
        return levels, codes.translate(bytes(renumber).ljust(256, b"\0"))
    return levels, tuple(map(renumber.__getitem__, codes))


def indicator(ce: ConditionalEvent, label: str = "E|H") -> ConditionalQuantity:
    """The 0/1 quantity of a conditional event on its antecedent: the
    one-member conjunction, whose codes are its block map's lanes, shared."""
    return _conjunction([ce], {}, label)


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


def _conjunction(family, previsions, label, complement=False):
    """The family's conjunction, or with `complement` one minus it, as a
    quantity on the union of antecedents: 0 on the worlds where some member
    fails, 1 where every member holds, and x_S on the block where exactly the
    members S are void; x of the full set is the built-in void value.  An x_S
    whose S names a member outside the family is refused."""
    if not family:
        raise ValueError("family must be non-empty")
    if not isinstance(previsions, CompoundPrevisionMap):
        previsions = CompoundPrevisionMap(previsions)
    for subset, _ in previsions.items():
        if max(subset) > len(family):
            raise ValueError(f"bad member subset {tuple(sorted(subset))} for {len(family)} members")
    union = reduce(or_, (ce.antecedent for ce in family))
    void_value = previsions.get(range(1, len(family) + 1))
    if complement and void_value is not None:
        void_value = ONE - void_value
    if len(family) >= 8:  # 2^n + 1 block ids pass a byte lane: no block map
        blocks = _values(_blocks(family, union.members), previsions, complement)
        return _quantity(union, blocks, label, void_value)
    blocks, lanes = _block_map(family, union)
    xs = [x for x, _ in _values(zip(blocks, repeat(None)), previsions, complement)]
    return ConditionalQuantity(union, *_levels(xs, lanes), label, void_value)


def _values(blocks, previsions, complement):
    """(x, worlds) per ((void set, lowest world), worlds) block: x is 1 where
    no member is void, 0 on the false block (void set None), else x_S, or
    with `complement` one minus that.  Blocks lacking x_S are left out; once
    every block is out, the subset of the lowest world lacking one is raised
    as MissingPrevision."""
    get, missing = previsions.get, []
    for (s, at), worlds in blocks:
        x = ZERO if s is None else get(s) if s else ONE
        if x is None:
            missing.append((at, s))
        else:
            yield ONE - x if complement else x, worlds
    if missing:
        previsions.require(min(missing)[1])


def _block_map(family, union):
    """(blocks, lanes): the family's blocks of worlds, each its void set and
    lowest world, and per world its block id, as `_blocks` gives them, then
    the worlds outside `union`; built once per space and event family."""
    space, key = union.space, tuple((ce.consequent.members, ce.antecedent.members) for ce in family)
    maps = space._block_maps
    if key not in maps:
        if len(maps) >= _BLOCK_MAPS:
            del maps[next(iter(maps))]  # the oldest
        maps[key] = _lanes(_blocks(family, union.members), space._full ^ union.members, len(space))
    return maps[key]


def _blocks(family, union):
    """((void set, lowest world), worlds) per non-empty block of the
    conjunction on the worlds `union`: where no member is void, then each
    void set's, then the false block (void set None), where some member
    fails.  Each member splits every block by its antecedent, depth first,
    active part first: integer algebra on the event masks, with at most one
    block per member held at a time."""
    false = reduce(or_, (ce.antecedent.members & ~ce.consequent.members for ce in family))
    antecedents, n = [ce.antecedent.members for ce in family], len(family)
    stack = [(0, frozenset(), union & ~false)]  # (i, void members, worlds)
    while stack:
        i, void, worlds = stack.pop()
        if not worlds:
            continue
        if i < n:
            active = worlds & antecedents[i]
            stack += (i + 1, void | {i + 1}, worlds ^ active), (i + 1, void, active)
            continue
        yield (void, (worlds & -worlds).bit_length() - 1), worlds
    if false:
        yield (None, (false & -false).bit_length() - 1), false


def make_conjunction(
    family: Sequence[ConditionalEvent],
    previsions,
    label: str | None = None,
) -> ConditionalQuantity:
    """The conjunction of the family as a quantity on the union of antecedents.

    Value 1 where every member holds, 0 where any member fails, and the
    supplied x_S where exactly the members in S are void.  The full-set entry,
    when present, becomes the built-in void value.  Under 8 members the first
    build on a space makes the family's block map, and every later build, with
    any previsions, only relabels its lanes.
    """
    family = list(family)
    return _conjunction(family, previsions, label or f"and({len(family)})")


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
    return _conjunction(negated, negation_previsions, label or f"or({len(negated)})", True)


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
    is first read.  `lp` also keeps the simplex state after phase 1 on the
    system, so that every LP on it runs phase 1 once.
    """

    _shown = ("rows", "scales", "labels", "normalization")

    def __init__(self, rows, scales, labels, normalization=True, tables=None):
        vars(self).update(
            rows=rows, scales=scales, labels=labels, normalization=normalization, tables=tables
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

    @property
    def n_unknowns(self) -> int:
        return len(self.rows[0]) - 1

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
    blocks.  Each row's column stays only in its value table and the labels,
    which mark the family's own codes and are joined only when read.
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

    return LinearSystem(tuple(rows), tuple(scales), labels, True, tuple(tables))


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

