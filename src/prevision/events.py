"""Formulas, finite world spaces, events, and conditional events.

A world space numbers the truth assignments over a list of atoms that survive
the declared constraints, keeping only their mask.  An event is a bit mask,
one Python int with bit w set for each world w in it.  A formula is read into
its event in one pass: each grammar level combines the masks of its parts by
integer algebra (&, |, ^), and an atom's mask is read as it is met.  An atom's
mask is built once per space by shifting and doubling a bit pattern, whose
bits at the assignments a constraint drops are squeezed out in one bytes pass.
The constituents of a family of conditional events, its blocks of worlds with
one true/false/void pattern, are the partition of the family's indicators in
`geometry`.
"""

from __future__ import annotations

import re
from functools import cached_property, reduce
from operator import and_

from .errors import EmptySpace, FormulaError, SpaceTooLarge, UnknownAtom, abridged
from .record import Record

# A world space numbers up to 2**MAX_ATOMS assignments; each event holds one
# bit and each conditional quantity one code byte per world.  At 20 atoms
# (Python 3.11, two-core Xeon VM) a build plus one event per atom peaks at
# 16 MB RSS in 0.05 s, or at 20 MB in 0.4 s under one constraint, and a CLI
# check of two conditionals and their conjunction under it at 21 MB in 0.2 s.
MAX_ATOMS = 20
# A formula has at most MAX_FORMULA_TOKENS tokens, which bounds its length
# before any of it is read, and nests "!" and "(" at most MAX_FORMULA_NESTING
# deep: reading it recurses once per nesting level, inside Python's recursion
# limit, and loops over a chain of "&" or "|".
MAX_FORMULA_TOKENS = 500
MAX_FORMULA_NESTING = 100

# bytes.translate tables from the characters of a binary numeral, its "0b"
# included, to flag bytes 0 or 2^k, k = 0..7, and from kept lanes, 2 and 3,
# to binary digits
_FLAGS = [bytes.maketrans(b"01b", bytes((0, 1 << k, 0))) for k in range(8)]
_KEPT_DIGITS = bytes.maketrans(b"\x02\x03", b"01")

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([!&|()=])|(\S))")


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(3):
            raise FormulaError(f"unexpected character {m.group(3)!r} in {abridged(text)}")
        tokens.append(m.group(1) or m.group(2))
    if len(tokens) > MAX_FORMULA_TOKENS:
        raise FormulaError(f"a formula of {len(tokens)} tokens; at most {MAX_FORMULA_TOKENS}")
    return tokens


class _Parser:
    """Recursive descent over: equiv > or > and > not > atom/parens, each
    level combining the masks of its parts.

    "=" binds loosest and declares extensional equality of its two sides.
    An undeclared atom reads as no world; the first one met is raised once
    the whole formula has parsed, so a malformed formula is refused first.
    """

    def __init__(self, space, text):
        self.tokens = _tokenize(text)
        self.pos = self.nesting = 0
        self.space, self.text, self.full = space, text, space._full
        self.unknown = None

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        if self.take() != tok:
            raise FormulaError(f"expected {tok!r} in {abridged(self.text)}")

    def parse(self) -> int:
        mask = self.equiv()
        if self.peek() is not None:
            raise FormulaError(f"trailing tokens in {abridged(self.text)}")
        if self.unknown is not None:
            raise UnknownAtom(self.unknown)
        return mask

    def equiv(self):
        mask = self.disj()
        if self.peek() == "=":
            self.take()
            mask = self.full ^ mask ^ self.disj()
        return mask

    def disj(self):
        mask = self.conj()
        while self.peek() == "|":
            self.take()
            mask |= self.conj()
        return mask

    def conj(self):
        mask = self.unary()
        while self.peek() == "&":
            self.take()
            mask &= self.unary()
        return mask

    def unary(self):
        tok = self.peek()
        if tok in ("!", "("):
            self.take()
            self.nesting += 1
            if self.nesting > MAX_FORMULA_NESTING:
                raise FormulaError(f"a formula nested more than {MAX_FORMULA_NESTING} deep")
            mask = self.full ^ self.unary() if tok == "!" else self.equiv()
            if tok == "(":
                self.expect(")")
            self.nesting -= 1
            return mask
        if tok is None or tok in "&|()=!":
            raise FormulaError(f"malformed formula {abridged(self.text)}")
        self.take()
        if tok in self.space.atoms:
            return self.space._atom_mask(tok)
        self.unknown = self.unknown or tok
        return 0


def spread_bits(mask: int, width: int = 1, bit: int = 0) -> int:
    """The int whose lane w, `width` bytes wide, holds bit w of `mask` at bit
    `bit` of the lane (below 8 * width): at width 1 and bit 0, byte w of its
    n little-endian bytes is 1 where bit w is set."""
    flags = bin(mask).encode().translate(_FLAGS[bit % 8])  # "0b" gives two lanes of 0 on top
    if width > 1:
        flags, bits = bytearray(len(flags) * width), flags
        flags[width - 1 - bit // 8::width] = bits
    return int.from_bytes(flags, "big")


def _pattern(shift: int, n_worlds: int) -> int:
    """The mask of the numbers below n_worlds, a power of two, with bit
    `shift` set: runs of 2**shift clear then set bits, doubled to length."""
    run = 1 << shift
    mask, period = ((1 << run) - 1) << run, 2 * run
    while period < n_worlds:
        mask |= mask << period
        period *= 2
    return mask


class WorldSpace(Record):
    """The truth assignments over `atoms` surviving the constraints, bit a of
    `kept` set for each: world w is the w-th, in increasing (`itertools.product`)
    order, and atom i of n is true in assignment a when bit n - 1 - i is set.
    It keeps what depends on it alone, each built once: its atoms' masks, and
    `geometry`'s block maps of event families."""

    # kept has 2**len(atoms) bits, past the int-to-str limit: not shown
    _compared, _shown = ("atoms", "kept"), ("atoms",)

    def __init__(self, atoms: tuple[str, ...], kept: int):
        vars(self).update(atoms=atoms, kept=kept)

    def __len__(self):
        return self.kept.bit_count()

    @cached_property
    def _full(self) -> int:
        return (1 << len(self)) - 1

    @cached_property
    def _atom_masks(self) -> dict:
        # {name: mask}, filled as atoms are named; it holds ints only, so
        # keeping it here makes no reference cycle
        return {}

    @cached_property
    def _block_maps(self) -> dict:
        # `geometry`'s {event family: block map}; ints, bytes and tuples only
        return {}

    def _atom_mask(self, name) -> int:
        masks = self._atom_masks
        if name not in masks:
            masks[name] = self._build_atom_mask(name)
        return masks[name]

    def _build_atom_mask(self, name) -> int:
        n_assignments = 1 << len(self.atoms)
        pattern = _pattern(len(self.atoms) - 1 - self.atoms.index(name), n_assignments)
        if len(self) == n_assignments:
            return pattern
        # lane a, top first, is 2 + true where kept and 0 or 1 where dropped
        lanes = (spread_bits(pattern) + 2 * spread_bits(self.kept)).to_bytes(n_assignments, "big")
        return int(lanes.replace(b"\x00", b"").replace(b"\x01", b"").translate(_KEPT_DIGITS), 2)

    def event(self, formula: str) -> "Event":
        """Event denoted by a Boolean formula over the declared atoms."""
        return Event(self, _Parser(self, formula).parse())

    @property
    def everything(self) -> "Event":
        return Event(self, self._full)


def build_world_space(atoms, constraints=()) -> WorldSpace:
    """Number the assignments over `atoms` satisfying every constraint.

    Raises SpaceTooLarge for more than MAX_ATOMS atoms, before anything is
    built, UnknownAtom for undeclared references and EmptySpace when the
    constraints are jointly unsatisfiable.
    """
    atoms = tuple(atoms)
    if len(atoms) > MAX_ATOMS:
        raise SpaceTooLarge(
            f"{len(atoms)} atoms declared; at most {MAX_ATOMS} are supported"
        )
    if len(set(atoms)) != len(atoms):
        raise ValueError("atom names must be distinct")
    space = WorldSpace(atoms, (1 << 2 ** len(atoms)) - 1)
    if not constraints:
        return space
    kept = reduce(and_, (space.event(text).members for text in constraints))
    if not kept:
        raise EmptySpace(f"constraints {abridged(list(constraints))} admit no world")
    return WorldSpace(atoms, kept)


class Event(Record):
    """A set of worlds of one space, as a mask: bit w of `members` is set
    when world w is in the event."""

    _compared = ("space", "members")

    def __init__(self, space: WorldSpace, members: int):
        vars(self).update(space=space, members=members)

    def __repr__(self):
        # the mask has a bit per world, past the int-to-str limit at 14 atoms
        return f"Event({self.members.bit_count()} of {len(self.space)} worlds)"

    def _check(self, other):
        if self.space is not other.space:
            raise ValueError("events live in different world spaces")

    def __and__(self, other) -> "Event":
        self._check(other)
        return Event(self.space, self.members & other.members)

    def __or__(self, other) -> "Event":
        self._check(other)
        return Event(self.space, self.members | other.members)

    def __invert__(self) -> "Event":
        return Event(self.space, self.space._full ^ self.members)

    def __contains__(self, world_index: int) -> bool:
        return world_index >= 0 and self.members >> world_index & 1 == 1

    @property
    def is_empty(self) -> bool:
        return not self.members

    @property
    def is_sure(self) -> bool:
        return self.members == self.space._full


class ConditionalEvent(Record):
    """E|H: consequent E regarded conditionally on a non-empty antecedent H."""

    _compared = _shown = ("consequent", "antecedent")

    def __init__(self, consequent: Event, antecedent: Event):
        consequent._check(antecedent)
        if antecedent.is_empty:
            raise ValueError("antecedent must be non-empty")
        vars(self).update(consequent=consequent, antecedent=antecedent)

    @property
    def space(self) -> WorldSpace:
        return self.antecedent.space
