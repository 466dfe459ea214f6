"""Slow exact reference computations the fast solvers are tested against.

Feasibility and optima are obtained by enumerating every basic solution of
the equality system and keeping the non-negative ones.  A non-empty system
of the form {A x = b, x >= 0} always has a basic feasible point, and a linear
functional over the bounded ones we test attains its maximum at one, so
exhaustive enumeration is a complete oracle for small sizes.

`FractionSimplex` is the two-phase simplex on a Fraction tableau that the
integer solver in `prevision.lp` replaced.  It follows Bland's rule
throughout, so on systems narrower than `PACKED_WIDTH` it takes the same
pivots and the fast solver must return identical certificates and optima;
on wider ones only the optimum values must agree.

`DenseSimplex` is the dense fraction-free integer tableau that the revised
simplex of `prevision.lp` replaced: it rewrites every column on every pivot
and reruns phase 1 for each LP.  Its artificial columns, rhs column and cost
row are, up to the row flips, what the revised solver keeps, so the two must
agree after every pivot and take the same pivots: Bland's column below
`PACKED_WIDTH` unknowns, from there the most negative cost-row entry (lowest
index on a tie) except right after a degenerate pivot, where Bland's column
enters, all read off the cost row in plain integers.  `dense_solve_feasibility` and
`dense_maximize_linear` run it the way `prevision.lp` used to.
`per_field_pack` packs a row for priced columns one `int.to_bytes` per
field, as `lp._pack` did before it converted each distinct value once; the
two must give equal ints.

The `fraction_*` checks are the certificate, optimum and betting-book checks
in Fraction arithmetic on the unscaled rows that the integer checks in
`prevision.lp` and `prevision.coherence` replaced; they must agree.
`fraction_combine` weighs a system's rows by one Fraction per row, as
`LinearSystem.combine` did before it reduced integer pairs; the two must
return identical sums and denominators.

`fraction_quantity_constituents` and `per_world_conjunction` are the
partition and the conjunction built world by world from Fraction values that
the integer value codes and the set algebra of `prevision.geometry` replaced;
they must return identical blocks and values.  The oracle's blocks are
`ProfileBlock`s that hold their worlds, where a constituent of
`prevision.geometry` reads them off its code lanes only when asked.
`per_world_codes` derives a quantity's levels and codes from its
{world: value} dict, one Python int per world, as quantities did before they
were built from level sets; every constructor's codes must read back equal
to it.  `fraction_sigma` is the solvability system as Fraction rows, which
`build_sigma` now emits as integer rows straight from the value codes;
through `fraction_system` the two must give identical rows and scales.
`fraction_system` builds a `LinearSystem` from Fraction equalities and
right-hand sides, each row scaled to integers by the lcm of its
denominators, and `fraction_rows`, its inverse, reads a system's integer
rows back as Fraction equalities and right-hand sides: the two views
`LinearSystem` used to carry for the tests alone.  `table_rows` reads the
rows back from the system's value tables, entry j of row r as
table[codes[j]], which must give every row's entries.  `integer_solves`
checks a Fraction vector by `LinearSystem.solves`, the solver's own
integer check, on the vector times the lcm of its denominators.

`tuple_partition` is the keyed partition as sorted joint code tuples, one
`zip` over the lanes and a set of tuples, as `keyed_partition` returned it
before it returned code columns from byte records; the columns must be its
tuples transposed, one column per lane.

`per_world_constituents` is the partition of a family of conditional events
that classifies each world member by member as true, false or void; the
constituent views of `prevision.geometry`, which group the indicators' value
codes instead, must return the same blocks, labels and order.

`per_world_space` and `per_world_event` are world spaces and events as they
were before formulas were evaluated by set algebra: every assignment
materialized as a {name: bool} dict, and each formula evaluated once per
world.  `set_algebra_event` is the evaluator that the bit masks of
`prevision.events` replaced: each atom's worlds a frozenset found by a bit
test on every assignment number, and the formula set algebra over them.  All
three read a formula with Python's `ast`, not the package's parser, so a
grammar fault there shows as a disagreement: "!" and "=" become "~" and "==",
which with "&" and "|" bind in the grammar's order, and any other node
Python accepts (a call, a tuple, a constant, a chained or non-"=="
comparison) makes the formula malformed, refused before any atom is looked
up.  They do not apply the package's token and nesting caps.
`assignment_numbers` lists those numbers from a space's constraint mask, as
constrained spaces kept them before they kept only the mask.
`build_world_space` and `WorldSpace.event` must give the same worlds under
the same numbering, and raise the same error types; `worlds_of` reads an
event's mask back as a frozenset of world numbers, one bit test per world,
and `mask_of` is its inverse.

`sorted_conjunction_signatures` is the canonical unknown order as it was
built before it was counted in binary: every member subset, sorted by its
position key.  `sigma_star_solves` checks a mass vector in that order
against the reduced system Sigma* of n logically independent conditional
events and their conjunction, written from its defining equations, where
`prevision.geometry` once built it as a `LinearSystem`.  `HAND_TNORMS`
holds min, product and max(sum - (n - 1), 0) written out by hand, as the
closed forms and the Frechet bounds wrote them before they took the named
t-norms from `frank.tnorm`; the `hand_*` functions and
`prefix_sum_lambda_solution_TL` (whose running bound came from prefix sums)
are those closed forms, and each must return equal Fractions.

`per_member_m_values` finds a level's m-values with one exact LP for every
member that no witness gives mass, as `coherence._m_values` did before one
LP over the union of those members' active sets could prove them all zero;
the two must return equal m-values, witnessed positions and zero sets.

`two_walk_extension` is `coherence.extension_interval` as it was before one
walk served both the base verdict and the propagation: `check_coherence` on
the base, then each level of its trace partitioned again over the worlds
with the target added, phase 1 run on that level's system, and both K-mass
LPs run wherever the target may be void.  It looks the engine's names up in
`prevision.coherence` and `prevision.geometry`, so spies on those count its
work too; the two must return equal intervals.
"""

import ast
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations, compress, count, product, repeat
from math import lcm, prod
from operator import and_
from typing import NamedTuple

from prevision import coherence, geometry
from prevision.closed_form import Family7Assessment, LambdaVector, _tail_products
from prevision.errors import EmptySpace, FormulaError, UnknownAtom
from prevision.frank import FrankKind
from prevision.geometry import (
    CompoundPrevisionMap,
    LinearSystem,
    _mark,
    quantity_constituents,
    scale_to_integers,
    to_fraction,
)
from prevision.lp import (
    PACKED_WIDTH,
    FeasibilityCertificate,
    OptimizationResult,
    _check_optimum,
    _check_refutation,
    maximize_component_sum,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def _echelon(rows):
    """Row-reduce a copy; returns (reduced rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        d = rows[r][c]
        rows[r] = [v / d for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _solve_square(matrix, rhs):
    n = len(matrix)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        d = aug[col][col]
        aug[col] = [v / d for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def fraction_system(equalities, rhs, unknown_labels, normalization=True):
    """The LinearSystem of rational `equalities` with right-hand sides `rhs`:
    each row with its rhs times the lcm of its denominators, as integers, and
    with normalization the row (1, ..., 1 | 1) last."""
    rows, scales = [], []
    for row, b in zip(equalities, rhs):
        ints, s = scale_to_integers((*row, b))
        rows.append(tuple(ints))
        scales.append(s)
    if normalization:
        rows.append((1,) * (len(unknown_labels) + 1))
        scales.append(1)
    return LinearSystem(tuple(rows), tuple(scales), tuple(unknown_labels), normalization)


def fraction_rows(system):
    """(equalities, rhs) of the system in Fractions, the normalization row
    left out: each integer row over its scale, rhs split off."""
    k = len(system.rows) - system.normalization
    given = list(zip(system.rows[:k], system.scales[:k]))
    equalities = tuple(tuple(Fraction(v, s) for v in row[:-1]) for row, s in given)
    return equalities, tuple(Fraction(row[-1], s) for row, s in given)


def _full_rows(system):
    equalities, rhs = fraction_rows(system)
    rows, rhs = [list(r) for r in equalities], list(rhs)
    if system.normalization:
        rows.append([Fraction(1)] * system.n_unknowns)
        rhs.append(Fraction(1))
    return rows, rhs


def basic_feasible_points(system):
    """Every vertex of {rows . x = rhs, x >= 0}, exactly."""
    rows, rhs = _full_rows(system)
    m = system.n_unknowns
    _, pivots_plain = _echelon(rows)
    reduced_aug, pivots_aug = _echelon([row + [b] for row, b in zip(rows, rhs)])
    if len(pivots_aug) > len(pivots_plain):
        return []  # right-hand side is outside the row space
    rank = len(pivots_plain)
    base = [row[:-1] for row in reduced_aug[:rank]]
    base_rhs = [row[-1] for row in reduced_aug[:rank]]
    points = set()
    for cols in combinations(range(m), rank):
        square = [[base[i][c] for c in cols] for i in range(rank)]
        partial = _solve_square(square, base_rhs)
        if partial is None or any(v < 0 for v in partial):
            continue
        full = [Fraction(0)] * m
        for c, v in zip(cols, partial):
            full[c] = v
        if all(sum(a * x for a, x in zip(row, full)) == b for row, b in zip(rows, rhs)):
            points.add(tuple(full))
    return sorted(points)


def oracle_feasible(system) -> bool:
    return bool(basic_feasible_points(system))


def oracle_maximum(system, objective):
    """Exact max of objective . x over the system; None when infeasible.

    Only sound for bounded feasible sets (our systems carry a normalization
    row, which bounds them).
    """
    points = basic_feasible_points(system)
    if not points:
        return None
    objective = [Fraction(c) for c in objective]
    return max(sum(c * x for c, x in zip(objective, p)) for p in points)


class FractionSimplex:
    """Tableau with unknown columns first, one artificial per row, rhs last."""

    def __init__(self, rows, rhs):
        self.m = len(rows[0]) if rows else 0
        self.k = len(rows)
        self.flip = [-1 if b < 0 else 1 for b in rhs]
        self.T = []
        for r in range(self.k):
            f = self.flip[r]
            row = [f * v for v in rows[r]] + [ZERO] * self.k + [f * rhs[r]]
            row[self.m + r] = ONE
            self.T.append(row)
        self.basis = [self.m + r for r in range(self.k)]

    def _pivot(self, r, c):
        T = self.T
        d = T[r][c]
        T[r] = [v / d for v in T[r]]
        row_r = T[r]
        for i in range(self.k):
            if i != r and T[i][c] != 0:
                f = T[i][c]
                T[i] = [v - f * w for v, w in zip(T[i], row_r)]
        self.basis[r] = c

    def _maximize(self, costs, allowed):
        """Bland's rule throughout; True at optimum, False when unbounded."""
        while True:
            basic = set(self.basis)
            cb = [costs[b] for b in self.basis]
            entering = None
            for j in allowed:
                if j in basic:
                    continue
                reduced = costs[j]
                for r in range(self.k):
                    if cb[r] != 0 and self.T[r][j] != 0:
                        reduced -= cb[r] * self.T[r][j]
                if reduced > 0:
                    entering = j
                    break
            if entering is None:
                return True
            leaving, best = None, None
            for r in range(self.k):
                a = self.T[r][entering]
                if a > 0:
                    ratio = self.T[r][-1] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[r] < self.basis[leaving])
                    ):
                        best, leaving = ratio, r
            if leaving is None:
                return False
            self._pivot(leaving, entering)

    def phase1(self) -> Fraction:
        """Drive the artificials toward zero; returns their residual sum."""
        costs = [ZERO] * self.m + [Fraction(-1)] * self.k
        self._maximize(costs, range(self.m))
        return sum(
            self.T[r][-1] for r in range(self.k) if self.basis[r] >= self.m
        )

    def drive_out_artificials(self):
        for r in range(self.k):
            if self.basis[r] < self.m:
                continue
            c = next((j for j in range(self.m) if self.T[r][j] != 0), None)
            if c is not None:
                self._pivot(r, c)
            # rows with no unknown left are redundant and stay inert

    def maximize_objective(self, objective) -> bool:
        costs = list(objective) + [ZERO] * self.k
        return self._maximize(costs, range(self.m))

    def solution(self) -> tuple:
        x = [ZERO] * self.m
        for r in range(self.k):
            if self.basis[r] < self.m:
                x[self.basis[r]] = self.T[r][-1]
        return tuple(x)

    def refutation(self) -> tuple:
        """Row multipliers v with v . column <= 0 and v . rhs > 0."""
        art_rows = [r for r in range(self.k) if self.basis[r] >= self.m]
        return tuple(
            self.flip[r] * sum(self.T[i][self.m + r] for i in art_rows)
            for r in range(self.k)
        )


def fraction_solve_feasibility(system) -> FeasibilityCertificate:
    """solve_feasibility on the Fraction tableau, without re-verification."""
    rows, rhs = _full_rows(system)
    simplex = FractionSimplex(rows, rhs)
    residual = simplex.phase1()
    if residual == 0:
        return FeasibilityCertificate(True, solution=simplex.solution())
    return FeasibilityCertificate(False, dual=simplex.refutation(), margin=residual)


def fraction_maximize_linear(system, objective):
    """maximize_linear on the Fraction tableau; None when infeasible."""
    objective = [Fraction(c) for c in objective]
    rows, rhs = _full_rows(system)
    simplex = FractionSimplex(rows, rhs)
    if simplex.phase1() != 0:
        return None
    simplex.drive_out_artificials()
    if not simplex.maximize_objective(objective):
        return OptimizationResult(None, None, bounded=False)
    x = simplex.solution()
    return OptimizationResult(sum(c * v for c, v in zip(objective, x)), x)


class DenseSimplex:
    """Dense integer tableau: unknown columns, one artificial per row, rhs
    last, plus a cost row.

    Input row r, already multiplied by s_r, the lcm of its denominators, is
    flipped to a non-negative rhs.  Its artificial keeps a unit column, so it
    stands for s_r times the unscaled artificial.  This is the same LP in rescaled
    variables, which takes the same pivots as the rational tableau.

    The true tableau is T / D.  Pivoting on p = T[r][c] maps every other row
    to (p * T[i] - T[i][c] * T[r]) / D, an exact division by Sylvester's
    identity, and D becomes p.  A negative pivot negates its row first, so
    D stays positive and ratio and sign tests compare integers directly.
    The cost row holds D * (c_B B^-1 A - c); a negative entry prices its
    column in.  `degenerate` holds whether the last pivot was on a row whose
    rhs was 0.
    """

    def __init__(self, rows, scales):
        """`rows` and `scales` are a system's integer rows, rhs last, each
        s_r times the input row, and the s_r."""
        self.m = len(rows[0]) - 1 if rows else 0
        self.k = len(rows)
        self.scale = list(scales)
        self.flip = []
        self.T = []
        for r, entries in enumerate(rows):
            f = -1 if entries[-1] < 0 else 1
            row = [f * v for v in entries[:-1]] + [0] * self.k + [f * entries[-1]]
            row[self.m + r] = 1
            self.T.append(row)
            self.flip.append(f)
        self.T.append([0] * (self.m + self.k + 1))
        self.D = 1
        self.basis = [self.m + r for r in range(self.k)]

    def _pivot(self, r, c):
        T, D = self.T, self.D
        self.degenerate = T[r][-1] == 0
        if T[r][c] < 0:
            T[r] = [-v for v in T[r]]
        row_r = T[r]
        p = row_r[c]
        for i, row in enumerate(T):
            if i == r:
                continue
            f = row[c]
            if f:
                T[i] = [(p * v - f * w) // D for v, w in zip(row, row_r)]
            elif p != D:
                T[i] = [p * v // D for v in row]
        self.D = p
        self.basis[r] = c

    def _set_costs(self, costs, cost_scale):
        """Install integer costs for every non-rhs column; the true costs are
        costs / cost_scale."""
        self.costs, self.cost_scale = costs, cost_scale
        self.degenerate = False
        z = [-self.D * c for c in costs] + [0]
        for i, b in enumerate(self.basis):
            if costs[b]:
                z = [v + costs[b] * t for v, t in zip(z, self.T[i])]
        self.T[self.k] = z

    def _entering(self):
        """The entering column, or None at optimum."""
        z = self.T[self.k][: self.m]
        if self.m < PACKED_WIDTH or self.degenerate:
            return next((j for j, v in enumerate(z) if v < 0), None)
        least = min(z)
        return z.index(least) if least < 0 else None

    def _maximize(self):
        """True at optimum, False when unbounded."""
        T, k, basis = self.T, self.k, self.basis
        while True:
            entering = self._entering()
            if entering is None:
                return True
            leaving = None
            for r in range(k):
                a = T[r][entering]
                if a <= 0:
                    continue
                if leaving is not None:
                    # ratios T[r][-1] / a against the best, cross-multiplied
                    lhs, rhs = T[r][-1] * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[leaving]):
                        continue
                leaving, best_a, best_b = r, a, T[r][-1]
            if leaving is None:
                return False
            self._pivot(leaving, entering)

    def phase1(self) -> Fraction:
        """Drive the artificials toward zero; returns their residual sum."""
        top = lcm(*self.scale)
        self._set_costs([0] * self.m + [-(top // s) for s in self.scale], top)
        self._maximize()
        return Fraction(-self.T[self.k][-1], top * self.D)

    def drive_out_artificials(self):
        for r in range(self.k):
            if self.basis[r] < self.m:
                continue
            c = next((j for j in range(self.m) if self.T[r][j] != 0), None)
            if c is not None:
                self._pivot(r, c)
            # rows with no unknown left are redundant and stay inert

    def maximize_objective(self, objective) -> bool:
        costs, cost_scale = scale_to_integers(objective)
        self._set_costs(costs + [0] * self.k, cost_scale)
        return self._maximize()

    def solution(self) -> tuple:
        x = [ZERO] * self.m
        for r in range(self.k):
            if self.basis[r] < self.m:
                x[self.basis[r]] = Fraction(self.T[r][-1], self.D)
        return tuple(x)

    def dual(self) -> tuple:
        """y = c_B B^-1 on the input rows, read from the artificial columns
        of the cost row and undoing the row flips and scalings."""
        z, m, D = self.T[self.k], self.m, self.D
        return tuple(
            Fraction(
                f * s * (z[m + r] + D * self.costs[m + r]), self.cost_scale * D
            )
            for r, (f, s) in enumerate(zip(self.flip, self.scale))
        )

    def refutation(self) -> tuple:
        """Row multipliers v with v . column <= 0 and v . rhs > 0: minus the
        phase-1 dual."""
        return tuple(-v for v in self.dual())


def dense_solve_feasibility(system) -> FeasibilityCertificate:
    """solve_feasibility on the dense integer tableau, without
    re-verification."""
    simplex = DenseSimplex(system.rows, system.scales)
    residual = simplex.phase1()
    if residual == 0:
        return FeasibilityCertificate(True, solution=simplex.solution())
    return FeasibilityCertificate(False, dual=simplex.refutation(), margin=residual)


def dense_maximize_linear(system, objective):
    """maximize_linear on the dense integer tableau, phase 1 included; None
    when infeasible."""
    objective = [Fraction(c) for c in objective]
    simplex = DenseSimplex(system.rows, system.scales)
    if simplex.phase1() != 0:
        return None
    simplex.drive_out_artificials()
    if not simplex.maximize_objective(objective):
        return OptimizationResult(None, None, bounded=False)
    x = simplex.solution()
    return OptimizationResult(
        sum(c * v for c, v in zip(objective, x)), x, dual=simplex.dual()
    )


def per_field_pack(values, words):
    """sum_j values[j] 2^(B j), B = 64 words, packed as `lp._pack` did
    before it converted each distinct value once: one `int.to_bytes` per
    field, two's complement, then the fields whose sign bit is set borrow
    from the next."""
    fields = b"".join(v.to_bytes(8 * words, "little", signed=True) for v in values)
    fields = int.from_bytes(fields, "little")
    tops = int.from_bytes((bytes(8 * words - 1) + b"\x80") * len(values), "little")
    return fields - ((fields & tops) << 1)


def fraction_check_solution(system, vec) -> bool:
    """Whether vec, one entry per unknown, is non-negative and meets every
    row, normalization included, in Fractions."""
    vec = [Fraction(v) for v in vec]
    if len(vec) != system.n_unknowns:
        return False
    if any(v < 0 for v in vec):
        return False
    if system.normalization and sum(vec) != 1:
        return False
    for row, b in zip(*fraction_rows(system)):
        if sum(c * v for c, v in zip(row, vec)) != b:
            return False
    return True


def fraction_verify_certificate(system, cert) -> None:
    """Raise RuntimeError unless the certificate holds, in Fractions."""
    rows, rhs = _full_rows(system)
    if cert.feasible:
        if not fraction_check_solution(system, cert.solution):
            raise RuntimeError("solver produced a non-solution")
        return
    if cert.margin is None or cert.margin <= 0:
        raise RuntimeError("refutation lacks a positive margin")
    for j in range(system.n_unknowns):
        if sum(u * row[j] for u, row in zip(cert.dual, rows)) > 0:
            raise RuntimeError("refutation prices a column positively")
    if sum(u * b for u, b in zip(cert.dual, rhs)) != cert.margin:
        raise RuntimeError("refutation margin mismatch")


def fraction_verify_optimum(system, objective, result) -> None:
    """Raise RuntimeError unless the maximizer is feasible and the dual
    proves its value by weak duality, in Fractions."""
    rows, rhs = _full_rows(system)
    if not fraction_check_solution(system, result.solution):
        raise RuntimeError("optimizer produced a non-solution")
    for j, c in enumerate(objective):
        if sum(u * row[j] for u, row in zip(result.dual, rows) if u) < c:
            raise RuntimeError("optimum dual prices a column below its cost")
    if sum(u * b for u, b in zip(result.dual, rhs)) != result.value:
        raise RuntimeError("optimum dual bound mismatch")


def integer_solves(system, vec) -> bool:
    """`LinearSystem.solves` on vec, one entry per unknown, times the lcm of
    its denominators."""
    ints, D = scale_to_integers([Fraction(v) for v in vec])
    return len(ints) == system.n_unknowns and system.solves(dict(enumerate(ints)), D)


def integer_verify_certificate(system, cert) -> None:
    """Raise RuntimeError unless the certificate holds, by the solver's own
    integer checks on the system's integer rows."""
    if cert.feasible:
        if not integer_solves(system, cert.solution):
            raise RuntimeError("solver produced a non-solution")
    else:  # multipliers y_r / s_r on the integer rows; no margin checks as 0
        rational = [*map(Fraction, cert.dual, system.scales), cert.margin or 0]
        (*u, margin), L = scale_to_integers(rational)
        _check_refutation(system, u, margin, L)


def integer_verify_optimum(system, objective, result) -> None:
    """Raise RuntimeError unless the maximizer is feasible and the dual
    proves its value, by the solver's own integer checks."""
    if not integer_solves(system, result.solution):
        raise RuntimeError("optimizer produced a non-solution")
    (*w, value), L = scale_to_integers([*map(Fraction, result.dual, system.scales), result.value])
    _check_optimum(system, w, value, L, *scale_to_integers(objective))


def fraction_combine(system, weights):
    """`LinearSystem.combine` in Fractions: the weight w_r / s_r of integer
    row r as one Fraction per row, scaled to integers together."""
    W, L = scale_to_integers([Fraction(w, s) for w, s in zip(weights, system.scales)])
    return system.weigh(W), L


def fraction_book_gains(assessment, book):
    """The gain of the book's stakes on every constituent inside the booked
    sub-family's union of antecedents, in Fractions."""
    sub = assessment.restrict([p - 1 for p in book.member_indices])
    inside, _ = quantity_constituents(sub.family)
    return [
        (c, sum(
            (s * (v - mu) for s, v, mu in zip(book.stakes, c.profile, sub.values)
             if v is not None),
            ZERO,
        ))
        for c in inside
    ]


def fraction_sigma(assessment, partition=None):
    """(equalities, rhs, labels) of the solvability system in Fractions: per
    quantity, its value on each block inside the union of antecedents, or its
    prevision where void, and the prevision as rhs.  `partition` may carry
    further trailing quantities; they only refine the blocks, and the labels
    mark the assessed quantities alone."""
    if partition is None:
        partition = quantity_constituents(assessment.family)
    inside, _ = partition
    mus = assessment.values
    points = [[mu if v is None else v for v, mu in zip(c.profile, mus)] for c in inside]
    equalities = [tuple(point[i] for point in points) for i in range(len(mus))]
    labels = [profile_label(c.profile[:len(mus)]) for c in inside]
    return equalities, mus, labels


def tuple_partition(codes, voids):
    """The joint code tuples of the lanes `codes`, all but the all-void
    one, sorted: the blocks of `keyed_partition`, a tuple per block."""
    keys = set(zip(*codes))
    keys.discard(tuple(voids))
    return sorted(keys)


def table_rows(system):
    """Each row's entries, rhs left out, read from its value table by code."""
    return [tuple(table[c] for c in codes) for table, codes in system.value_tables]


def profile_label(profile):
    return "".join(map(_mark, profile))


class ProfileBlock(NamedTuple):
    """A block of worlds found world by world, with its joint profile."""

    worlds: frozenset
    profile: tuple

    def label(self):
        return profile_label(self.profile)


def _profile_sort_key(profile):
    # active values descending, void last, as the value codes sort
    return tuple((1, ZERO) if v is None else (0, -v) for v in profile)


def fraction_quantity_constituents(family):
    """Partition the space by the joint profile of Fraction values, world by
    world; returns (inside, c0) like `quantity_constituents`, as blocks
    that hold their worlds."""
    family = list(family)
    space = family[0].space
    blocks = {}
    for w in range(len(space)):
        profile = tuple(q.values.get(w) for q in family)
        blocks.setdefault(profile, set()).add(w)
    ordered = sorted(blocks, key=_profile_sort_key)
    inside = [
        ProfileBlock(frozenset(blocks[p]), p)
        for p in ordered
        if not all(v is None for v in p)
    ]
    c0_profile = (None,) * len(family)
    c0 = None
    if c0_profile in blocks:
        c0 = ProfileBlock(frozenset(blocks[c0_profile]), c0_profile)
    return inside, c0


def per_world_constituents(family):
    """(worlds, label) per constituent of the conditional events, each world
    marked per member true (+), false (-) or void (0); ordered by label with
    + < - < 0, so the all-void block comes last."""
    blocks = {}
    for w in range(len(family[0].space)):
        label = "".join(
            "0" if w not in ce.antecedent else "+" if w in ce.consequent else "-"
            for ce in family
        )
        blocks.setdefault(label, set()).add(w)
    order = sorted(blocks, key=lambda label: ["+-0".index(m) for m in label])
    return [(frozenset(blocks[label]), label) for label in order]


def _compound_statuses(family, world):
    void, false = [], False
    for i, ce in enumerate(family, start=1):
        if world not in ce.antecedent:
            void.append(i)
        elif world not in ce.consequent:
            false = True
    return void, false


def per_member_m_values(system, columns, voids, witnesses):
    """(m-values, witnessed positions, zero positions) of the members whose
    active sets are the unknowns h with columns[i][h] != voids[i]: a witness's
    mass where some witness gives one, else the member's own maximum, whose
    maximizer then joins the witnesses."""
    supports = [w.support for w in witnesses]
    m_values, witnessed, zero = [None] * len(columns), set(), []
    for i, (column, void) in enumerate(zip(columns, voids)):
        mass = max(sum(v for h, v in s if column[h] != void) for s in supports)
        if mass > 0:
            m_values[i] = mass
            witnessed.add(i)
            continue
        best = maximize_component_sum(system, (h for h, c in enumerate(column) if c != void))
        m_values[i] = best.value
        supports.append(best.support)
        if best.value == 0:
            zero.append(i)
    return m_values, witnessed, zero


def per_world_conjunction(family, previsions):
    """(union, values, x of the full set): the conjunction of the family as a
    plain {world: value} dict over the union of antecedents, each world
    classified member by member; mirrors `make_conjunction`."""
    family = list(family)
    if not isinstance(previsions, CompoundPrevisionMap):
        previsions = CompoundPrevisionMap(previsions)
    union = family[0].antecedent
    for ce in family[1:]:
        union = union | ce.antecedent
    values = {}
    for w in sorted(worlds_of(union)):
        void, false = _compound_statuses(family, w)
        if false:
            values[w] = ZERO
        elif not void:
            values[w] = ONE
        else:
            values[w] = previsions.require(void)
    return union, values, previsions.get(range(1, len(family) + 1))


def per_world_codes(n_worlds, values):
    """(levels, codes) of a {world: value} dict over a space of n_worlds
    worlds: the distinct values descending, and per world the index of its
    value, or the level count where void, as a tuple of ints.  Values are
    grouped by object identity, then the few distinct objects compared as
    integers over their common denominator."""
    objects = {id(v): to_fraction(v) for v in values.values()}
    scaled = dict(zip(objects, scale_to_integers(list(objects.values()))[0]))
    by_value = {scaled[key]: v for key, v in objects.items()}
    order = sorted(by_value, reverse=True)
    rank = {s: i for i, s in enumerate(order)}
    code_of = {key: rank[s] for key, s in scaled.items()}
    codes = [len(order)] * n_worlds
    for w, v in values.items():
        codes[w] = code_of[id(v)]
    return tuple(by_value[s] for s in order), tuple(codes)


_PYTHON_OPERATORS = str.maketrans({"!": "~", "=": "=="})
_FORMULA_NODES = (ast.Expression, ast.Name, ast.Load, ast.UnaryOp, ast.Invert, ast.BinOp,
                  ast.BitAnd, ast.BitOr, ast.Compare, ast.Eq)


@cache
def _formula_tree(text):
    """The Python expression tree of a formula, "!" and "=" read as "~" and
    "==", which with "&" and "|" bind in the grammar's order, once its every
    node is one the grammar has: a call, a tuple, a constant or a chained or
    non-"==" comparison is malformed."""
    try:
        tree = ast.parse(text.translate(_PYTHON_OPERATORS).strip(), mode="eval")
    except SyntaxError:
        raise FormulaError(f"malformed formula {text!r}") from None
    for node in ast.walk(tree):
        chained = isinstance(node, ast.Compare) and len(node.ops) > 1
        if chained or not isinstance(node, _FORMULA_NODES):
            raise FormulaError(f"malformed formula {text!r}")
    return tree.body


def _formula_value(text, atom, sure):
    """The value of a formula read by Python's parser, over the values that
    `atom` gives each name it meets, left to right, and `sure`, the value of
    a formula that always holds: "!" is sure ^ x and "=" is sure ^ a ^ b."""

    def value(node):
        if isinstance(node, ast.Name):
            return atom(node.id)
        if isinstance(node, ast.UnaryOp):
            return sure ^ value(node.operand)
        if isinstance(node, ast.Compare):
            return sure ^ value(node.left) ^ value(node.comparators[0])
        left, right = value(node.left), value(node.right)
        return left & right if isinstance(node.op, ast.BitAnd) else left | right

    return value(_formula_tree(text))


class _World(dict):
    """One world's truth value per atom name; an undeclared name raises UnknownAtom."""

    def __missing__(self, name):
        raise UnknownAtom(name)


def per_world_space(atoms, constraints=()):
    """(atoms, worlds): the worlds over `atoms`, in `itertools.product`
    order, on which every constraint holds, each constraint read on every
    assignment before the next."""
    assignments = [_World(zip(atoms, w)) for w in product((False, True), repeat=len(atoms))]
    holds = [[_formula_value(t, w.__getitem__, True) for w in assignments] for t in constraints]
    worlds = [w for w, *flags in zip(assignments, *holds) if all(flags)]
    if not worlds:
        raise EmptySpace(f"constraints {list(constraints)!r} admit no world")
    return atoms, worlds


def per_world_event(space, formula):
    """The numbers of the worlds of a `per_world_space` on which `formula` holds."""
    _, worlds = space
    holds = (_formula_value(formula, w.__getitem__, True) for w in worlds)
    return frozenset(compress(count(), holds))


def worlds_of(event):
    """The numbers of the worlds in an event, one bit test of its mask per world."""
    return frozenset(w for w in range(len(event.space)) if event.members >> w & 1)


def mask_of(worlds):
    """The mask with bit w set for each world number w."""
    return sum(1 << w for w in set(worlds))


def assignment_numbers(space):
    """The surviving assignment numbers of a world space, world w's at
    position w: the set bits of its constraint mask, read one binary digit
    per assignment."""
    bits = format(space.kept, "b")[::-1]  # character a is bit a
    return [a for a, bit in enumerate(bits) if bit == "1"]


def set_algebra_event(space, formula):
    """The worlds of `space` where `formula` holds, as a frozenset: set
    algebra over the worlds of the atoms it names, each atom's found by a
    bit test on every assignment number when it is named."""
    everything = frozenset(range(len(space)))
    assignments = assignment_numbers(space)

    def atom_worlds(name):
        if name not in space.atoms:
            raise UnknownAtom(name)
        bit = 1 << (len(space.atoms) - 1 - space.atoms.index(name))
        return frozenset(compress(count(), map(and_, assignments, repeat(bit))))

    return _formula_value(formula, atom_worlds, everything)


def sorted_conjunction_signatures(n):
    """Every member subset of {1..n}, sorted so that member n's bar weighs
    most and members 1..n-1 follow it, unbarred before barred."""
    def position(s):
        pos = 0 if n in s else 1 << (n - 1)
        for j in range(1, n):
            if j not in s:
                pos += 1 << (n - 1 - j)
        return pos

    subsets = (
        frozenset(j for j in range(1, n + 1) if mask >> (j - 1) & 1)
        for mask in range(1 << n)
    )
    return sorted(subsets, key=position)


def sigma_star_solves(masses, xs, overall) -> bool:
    """Whether `masses`, one lambda_S per member subset S in the canonical
    order, solve Sigma* for members valued xs and their conjunction valued
    `overall`: every lambda_S >= 0 and they sum to 1, the lambda_S with
    member i in S sum to x_i for each member i, and lambda of the full set
    is `overall`."""
    n, masses = len(xs), [Fraction(v) for v in masses]
    subsets = sorted_conjunction_signatures(n)
    if len(masses) != len(subsets) or min(masses) < 0 or sum(masses) != 1:
        return False
    mass = dict(zip(subsets, masses))
    members = all(sum(v for s, v in mass.items() if i in s) == x for i, x in enumerate(xs, 1))
    return members and mass[frozenset(range(1, n + 1))] == overall


HAND_TNORMS = {
    FrankKind.MIN: lambda *xs: min(xs),
    FrankKind.PRODUCT: lambda *xs: prod(xs, start=ONE),
    FrankKind.LUKASIEWICZ: lambda *xs: max(sum(xs) - (len(xs) - 1), ZERO),
}


def hand_family7(kind, x_1, x_2, x_3):
    """The seven values with every pair and the triple valued by one named t-norm."""
    t = HAND_TNORMS[kind]
    pairs = t(x_1, x_2), t(x_1, x_3), t(x_2, x_3)
    return Family7Assessment(x_1, x_2, x_3, *pairs, t(x_1, x_2, x_3))


def hand_frechet_conjunction(xs):
    xs = [Fraction(x) for x in xs]
    lower = sum(xs) - (len(xs) - 1)
    return (lower if lower > 0 else ZERO), min(xs)


def hand_frechet_disjunction(xs):
    xs = [Fraction(x) for x in xs]
    return max(xs), min(ONE, sum(xs))


def hand_same_consequent(x, y, disjoint_antecedents=False):
    x, y = Fraction(x), Fraction(y)
    return (x * y, x * y) if disjoint_antecedents else (x * y, min(x, y))


def prefix_sum_lambda_solution_TL(xs):
    """lambda_solution_TL with its running lower bound taken from prefix sums."""
    xs = [Fraction(x) for x in xs]
    m = len(xs)
    full = frozenset(range(1, m + 1))
    if m == 1:
        return LambdaVector(1, {full: xs[0], frozenset(): 1 - xs[0]}, case="single")
    prefix_sums = list(accumulate(xs))
    running = [max(prefix_sums[h - 1] - (h - 1), ZERO) for h in range(1, m + 1)]
    if running[m - 1] > 0:
        entries = {full: running[m - 1]}
        for r in range(1, m + 1):
            entries[full - {r}] = 1 - xs[r - 1]
        return LambdaVector(m, entries, case="c")
    if xs[0] == 0:
        return LambdaVector(m, dict(_tail_products(range(1, m + 1), xs)), case="d")
    h_star = max(h for h in range(1, m + 1) if running[h - 1] > 0)
    prefix = frozenset(range(1, h_star + 1))
    pivot = h_star + 1
    blocks = _tail_products(range(h_star + 2, m + 1), xs)
    entries = {}
    if running[h_star - 1] == 1:
        case = "a" if h_star == m - 1 else "f"
        for s, w in blocks:
            entries[prefix | s] = w
    else:
        case = "b" if h_star == m - 1 else "e"
        rho = xs[pivot - 1] / (1 - running[h_star - 1])
        for s, w in blocks:
            for r in range(1, h_star + 1):
                gap = 1 - xs[r - 1]
                entries[(prefix - {r}) | {pivot} | s] = gap * rho * w
                entries[(prefix - {r}) | s] = gap * (1 - rho) * w
            entries[prefix | s] = running[h_star - 1] * w
    return LambdaVector(m, entries, case=case)


def two_walk_extension(assessment, target):
    """(lower, upper) of the target over a coherent base, None over an
    incoherent one, by the base's verdict and then a propagation of its own."""
    verdict = coherence.check_coherence(assessment)
    if not verdict.coherent:
        return None
    for q, mu in zip(assessment.family, assessment.values):
        if (q.levels, q.codes) == (target.levels, target.codes):
            return mu, mu
    return _two_walk_propagate(assessment, verdict.trace, target)


def _two_walk_propagate(assessment, trace, target):
    hull = target.hull()
    for record in trace:
        current = assessment.restrict(p - 1 for p in record.member_indices)
        members = (*current.family, target)
        t, voids, void = len(current), [len(q.levels) for q in members], len(target.levels)
        columns = geometry.keyed_partition([q.codes for q in members], voids)
        system = coherence.build_sigma(current, columns)
        values = [*map((*target.levels, 0).__getitem__, columns[t])]  # 0 where void
        if void not in columns[t]:
            return coherence._linear_range(system, values)
        k_mass = tuple(int(c != void) for c in columns[t])
        least = coherence.maximize_linear(system, [-v for v in k_mass])
        if least.value == 0 and coherence.maximize_linear(system, k_mass).value == 0:
            continue
        lo, hi = coherence._charnes_cooper_range(system, t, values, k_mass)
        if least.value < 0 or (lo, hi) == hull:
            return lo, hi
        void_target = geometry.LinearSystem(
            system.rows[:t] + (k_mass + (0,),) + system.rows[t:],
            system.scales[:t] + (1,) + system.scales[t:],
            system.labels,
        )
        _, _, zero = coherence._m_values(void_target, columns[:t], voids, [least])
        if not zero:
            return hull
        sub = current.restrict(zero)
        verdict = coherence.check_coherence(sub)
        assert verdict.coherent, "restriction of a coherent assessment failed"
        sub_lo, sub_hi = _two_walk_propagate(sub, verdict.trace, target)
        return min(lo, sub_lo), max(hi, sub_hi)
    return hull
