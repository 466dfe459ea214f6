"""Formulas, finite world spaces, events, and conditional events.

A world space numbers the truth assignments over a list of atoms that survive
the declared constraints, without materializing any.  An event is a bit mask,
one Python int with bit w set for each world w in it; a formula's event is
integer algebra (&, |, ^) over the masks of the atoms it names.  An atom's
mask is built once per space: by shifting and doubling a bit pattern when no
constraint is declared, else in one bulk pass over the surviving assignments.
The constituents of a family of conditional events, its blocks of worlds with
one true/false/void pattern, are the partition of the family's indicators in
`geometry`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, repeat
from operator import and_

from .errors import EmptySpace, FormulaError, SpaceTooLarge, UnknownAtom, abridged

# A world space numbers up to 2**MAX_ATOMS assignments; each event holds one
# bit and each conditional quantity one code per world.  At 20 atoms (Python
# 3.11, two-core Xeon VM) a build plus one event per atom peaks at 15 MB RSS
# in 0.1 s, or at 47 MB in 1.2 s under one constraint, and a CLI check of two
# conditionals and their conjunction under that constraint at 72 MB in 0.5 s.
MAX_ATOMS = 20
# A formula has at most MAX_FORMULA_TOKENS tokens and nests "!" and "(" at most
# MAX_FORMULA_NESTING deep, so parsing and evaluating it, which recurse once per
# nesting level and per chained operator, stay inside Python's recursion limit.
MAX_FORMULA_TOKENS = 500
MAX_FORMULA_NESTING = 100

# bytes.translate tables from the characters of a binary numeral, its "0b"
# included, to flag bytes, and from flag bytes to binary digits
_FLAGS = bytes.maketrans(b"01b", b"\x00\x01\x00")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

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
    """Recursive descent over: equiv > or > and > not > atom/parens.

    "=" binds loosest and declares extensional equality of its two sides.
    """

    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = self.nesting = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        if self.take() != tok:
            raise FormulaError(f"expected {tok!r} in {abridged(self.text)}")

    def parse(self):
        node = self.equiv()
        if self.peek() is not None:
            raise FormulaError(f"trailing tokens in {abridged(self.text)}")
        return node

    def equiv(self):
        node = self.disj()
        if self.peek() == "=":
            self.take()
            node = ("eq", node, self.disj())
        return node

    def disj(self):
        node = self.conj()
        while self.peek() == "|":
            self.take()
            node = ("or", node, self.conj())
        return node

    def conj(self):
        node = self.unary()
        while self.peek() == "&":
            self.take()
            node = ("and", node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok in ("!", "("):
            self.take()
            self.nesting += 1
            if self.nesting > MAX_FORMULA_NESTING:
                raise FormulaError(f"a formula nested more than {MAX_FORMULA_NESTING} deep")
            node = ("not", self.unary()) if tok == "!" else self.equiv()
            if tok == "(":
                self.expect(")")
            self.nesting -= 1
            return node
        if tok is None or tok in "&|()=!":
            raise FormulaError(f"malformed formula {abridged(self.text)}")
        return ("atom", self.take())


def parse_formula(text):
    return _Parser(_tokenize(text), text).parse()


def spread_bits(mask: int, width: int = 1) -> int:
    """The int whose lane w, `width` bytes wide, holds bit w of `mask`: at
    width 1, byte w of its n little-endian bytes is 1 where bit w is set."""
    flags = bin(mask).encode().translate(_FLAGS)  # "0b" gives two lanes of 0 on top
    if width > 1:
        flags, bits = bytearray(len(flags) * width), flags
        flags[width - 1::width] = bits
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


def _evaluate(node, atom_mask, full):
    """The mask of the worlds where a parsed formula holds, by integer
    algebra over the masks of its atoms, which `atom_mask` maps each name to."""
    kind = node[0]
    if kind == "atom":
        return atom_mask(node[1])
    if kind == "not":
        return full ^ _evaluate(node[1], atom_mask, full)
    a = _evaluate(node[1], atom_mask, full)
    b = _evaluate(node[2], atom_mask, full)
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    return full ^ a ^ b  # eq


@dataclass(frozen=True)
class WorldSpace:
    """The truth assignments over `atoms` surviving the constraints: world w is
    assignment number `assignments[w]`, in increasing (`itertools.product`)
    order, and atom i of n is true in assignment a when bit n - 1 - i is set."""

    atoms: tuple[str, ...]
    assignments: range | tuple[int, ...]

    def __len__(self):
        return len(self.assignments)

    @cached_property
    def _full(self) -> int:
        return (1 << len(self)) - 1

    @cached_property
    def _atom_masks(self) -> dict:
        # {name: mask}, filled as atoms are named; it holds ints only, so
        # keeping it here makes no reference cycle
        return {}

    def _atom_mask(self, name) -> int:
        masks = self._atom_masks
        if name not in masks:
            masks[name] = self._build_atom_mask(name)
        return masks[name]

    def _build_atom_mask(self, name) -> int:
        if name not in self.atoms:
            raise UnknownAtom(name)
        shift = len(self.atoms) - 1 - self.atoms.index(name)
        if isinstance(self.assignments, range):
            return _pattern(shift, len(self))
        # byte w is 1 when the atom is true in world w
        flags = bytes(map(bool, map(and_, self.assignments, repeat(1 << shift))))
        return int(flags[::-1].translate(_DIGITS), 2)

    def event(self, formula: str) -> "Event":
        """Event denoted by a Boolean formula over the declared atoms."""
        return Event(self, _evaluate(parse_formula(formula), self._atom_mask, self._full))

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
    space = WorldSpace(atoms, range(2 ** len(atoms)))
    if not constraints:
        return space
    kept = reduce(and_, (space.event(text).members for text in constraints))
    if not kept:
        raise EmptySpace(f"constraints {abridged(list(constraints))} admit no world")
    flags = spread_bits(kept).to_bytes(len(space), "little")
    return WorldSpace(atoms, tuple(compress(space.assignments, flags)))


@dataclass(frozen=True)
class Event:
    """A set of worlds of one space, as a mask: bit w of `members` is set
    when world w is in the event."""

    space: WorldSpace
    members: int

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
        return self.members >> world_index & 1 == 1

    @property
    def is_empty(self) -> bool:
        return not self.members

    @property
    def is_sure(self) -> bool:
        return self.members == self.space._full


@dataclass(frozen=True)
class ConditionalEvent:
    """E|H: consequent E regarded conditionally on a non-empty antecedent H."""

    consequent: Event
    antecedent: Event

    def __post_init__(self):
        self.consequent._check(self.antecedent)
        if self.antecedent.is_empty:
            raise ValueError("antecedent must be non-empty")

    @property
    def space(self) -> WorldSpace:
        return self.antecedent.space
