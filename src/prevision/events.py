"""Formulas, finite world spaces, events, and conditional events.

A world space numbers the truth assignments over a list of atoms that survive
the declared constraints, without materializing any.  Events are sets of world
numbers; a formula's event is set algebra over the worlds of the atoms it names,
each found by a bit test when named.  The constituents of a family of conditional
events, its blocks of worlds with one true/false/void pattern, are the partition
of the family's indicators in `geometry`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, count, repeat
from operator import and_, eq

from .errors import EmptySpace, FormulaError, SpaceTooLarge, UnknownAtom, abridged

# A world space numbers up to 2**MAX_ATOMS assignments; each event and each
# conditional quantity holds up to one entry per world.  At 20 atoms (Python
# 3.11, two-core Xeon VM) a build plus one event per atom peaks at 743 MB RSS,
# and a CLI check of two conditionals and their conjunction at 347 MB in 1.2 s.
MAX_ATOMS = 20
# A formula has at most MAX_FORMULA_TOKENS tokens and nests "!" and "(" at most
# MAX_FORMULA_NESTING deep, so parsing and evaluating it, which recurse once per
# nesting level and per chained operator, stay inside Python's recursion limit.
MAX_FORMULA_TOKENS = 500
MAX_FORMULA_NESTING = 100

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


def _atom_names(node) -> list:
    """The atoms a parsed formula names, once per mention, in evaluation order."""
    if node[0] == "atom":
        return [node[1]]
    return [name for child in node[1:] for name in _atom_names(child)]


def _evaluate(node, atom_worlds, everything):
    """The worlds where a parsed formula holds, by set algebra over the
    worlds of its atoms, which `atom_worlds` maps each name to."""
    kind = node[0]
    if kind == "atom":
        return atom_worlds(node[1])
    if kind == "not":
        return everything - _evaluate(node[1], atom_worlds, everything)
    a = _evaluate(node[1], atom_worlds, everything)
    b = _evaluate(node[2], atom_worlds, everything)
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    return everything - (a ^ b)  # eq


@dataclass(frozen=True)
class WorldSpace:
    """The truth assignments over `atoms` surviving the constraints: world w is
    assignment number `assignments[w]`, in increasing (`itertools.product`)
    order, and atom i of n is true in assignment a when bit n - 1 - i is set."""

    atoms: tuple[str, ...]
    assignments: range | tuple[int, ...]

    def __len__(self):
        return len(self.assignments)

    def _atom_worlds(self, name):
        if name not in self.atoms:
            raise UnknownAtom(name)
        bit = 1 << (len(self.atoms) - 1 - self.atoms.index(name))
        return frozenset(compress(count(), map(and_, self.assignments, repeat(bit))))

    def event(self, formula: str) -> "Event":
        """Event denoted by a Boolean formula over the declared atoms.  An atom
        named again right after itself reuses its worlds: a set is kept only
        while the next atom named is the same, so beyond the sets that the
        evaluation holds at most one is alive, and only until that mention."""
        node = parse_formula(formula)
        names = _atom_names(node)
        again = map(eq, names, names[1:] + [None])  # is the next atom named the same?
        kept = None

        def atom_worlds(name):
            nonlocal kept
            worlds = self._atom_worlds(name) if kept is None else kept
            kept = worlds if next(again) else None
            return worlds

        return Event(self, _evaluate(node, atom_worlds, self._worlds))

    @cached_property
    def _worlds(self) -> frozenset:
        # not a cached Event: that would point back here, a reference cycle
        return frozenset(range(len(self)))

    @property
    def everything(self) -> "Event":
        return Event(self, self._worlds)


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
    return WorldSpace(atoms, tuple(sorted(kept)))


@dataclass(frozen=True)
class Event:
    """A set of worlds of one space."""

    space: WorldSpace
    members: frozenset[int]

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
        return Event(self.space, self.space._worlds - self.members)

    def __contains__(self, world_index: int) -> bool:
        return world_index in self.members

    @property
    def is_empty(self) -> bool:
        return not self.members

    @property
    def is_sure(self) -> bool:
        return len(self.members) == len(self.space)


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
