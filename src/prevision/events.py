"""Formulas, finite world spaces, events, and conditional events.

A world space materializes every truth assignment over a list of atoms that
survives the declared constraints.  Events are sets of world indices, so the
Boolean algebra is plain set algebra.  The constituents of a family of
conditional events, its blocks of worlds with one true/false/void pattern,
are the partition of the family's indicators in `geometry`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .errors import EmptySpace, FormulaError, SpaceTooLarge, UnknownAtom

# A world space holds up to 2**MAX_ATOMS assignment tuples (about 200 MB at
# 20 atoms), and each conditional quantity holds one value code per world
# (8 MB at 20 atoms); every partition scans the codes of all worlds.
MAX_ATOMS = 20

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([!&|()=])|(\S))")


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(3):
            raise FormulaError(f"unexpected character {m.group(3)!r} in {text!r}")
        tokens.append(m.group(1) or m.group(2))
    return tokens


class _Parser:
    """Recursive descent over: equiv > or > and > not > atom/parens.

    "=" binds loosest and declares extensional equality of its two sides.
    """

    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        if self.take() != tok:
            raise FormulaError(f"expected {tok!r} in {self.text!r}")

    def parse(self):
        node = self.equiv()
        if self.peek() is not None:
            raise FormulaError(f"trailing tokens in {self.text!r}")
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
        if tok == "!":
            self.take()
            return ("not", self.unary())
        if tok == "(":
            self.take()
            node = self.equiv()
            self.expect(")")
            return node
        if tok is None or tok in "&|()=!":
            raise FormulaError(f"malformed formula {self.text!r}")
        return ("atom", self.take())


def parse_formula(text):
    return _Parser(_tokenize(text), text).parse()


def _eval_node(node, assignment, atom_index):
    kind = node[0]
    if kind == "atom":
        name = node[1]
        if name not in atom_index:
            raise UnknownAtom(name)
        return assignment[atom_index[name]]
    if kind == "not":
        return not _eval_node(node[1], assignment, atom_index)
    a = _eval_node(node[1], assignment, atom_index)
    b = _eval_node(node[2], assignment, atom_index)
    if kind == "and":
        return a and b
    if kind == "or":
        return a or b
    return a == b  # eq


def _formula_atoms(node, out):
    if node[0] == "atom":
        out.add(node[1])
    elif node[0] == "not":
        _formula_atoms(node[1], out)
    else:
        _formula_atoms(node[1], out)
        _formula_atoms(node[2], out)
    return out


@dataclass(frozen=True)
class WorldSpace:
    """All truth assignments over `atoms` surviving the constraints."""

    atoms: tuple[str, ...]
    worlds: tuple[tuple[bool, ...], ...]
    _index: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(self.atoms)})

    def __len__(self):
        return len(self.worlds)

    def event(self, formula: str) -> "Event":
        """Event denoted by a Boolean formula over the declared atoms."""
        node = parse_formula(formula)
        for name in _formula_atoms(node, set()):
            if name not in self._index:
                raise UnknownAtom(name)
        members = frozenset(
            i for i, w in enumerate(self.worlds) if _eval_node(node, w, self._index)
        )
        return Event(self, members)

    @property
    def everything(self) -> "Event":
        return Event(self, frozenset(range(len(self.worlds))))


def build_world_space(atoms, constraints=()) -> WorldSpace:
    """Enumerate the assignments over `atoms` satisfying every constraint.

    Raises SpaceTooLarge for more than MAX_ATOMS atoms, before anything is
    enumerated, UnknownAtom for undeclared references and EmptySpace when the
    constraints are jointly unsatisfiable.
    """
    atoms = tuple(atoms)
    if len(atoms) > MAX_ATOMS:
        raise SpaceTooLarge(
            f"{len(atoms)} atoms declared; at most {MAX_ATOMS} are supported"
        )
    if len(set(atoms)) != len(atoms):
        raise ValueError("atom names must be distinct")
    index = {a: i for i, a in enumerate(atoms)}
    nodes = []
    for text in constraints:
        node = parse_formula(text)
        for name in _formula_atoms(node, set()):
            if name not in index:
                raise UnknownAtom(name)
        nodes.append(node)
    worlds = tuple(
        w
        for w in itertools.product((False, True), repeat=len(atoms))
        if all(_eval_node(n, w, index) for n in nodes)
    )
    if not worlds:
        raise EmptySpace(f"constraints {list(constraints)!r} admit no world")
    return WorldSpace(atoms, worlds)


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
        return Event(self.space, frozenset(range(len(self.space))) - self.members)

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
