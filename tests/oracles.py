"""Slow exact reference computations the fast solvers are tested against.

Feasibility and optima are obtained by enumerating every basic solution of
the equality system and keeping the non-negative ones.  A non-empty system
of the form {A x = b, x >= 0} always has a basic feasible point, and a linear
functional over the bounded ones we test attains its maximum at one, so
exhaustive enumeration is a complete oracle for small sizes.

`FractionSimplex` is the two-phase simplex on a Fraction tableau that the
integer solver in `prevision.lp` replaced.  It takes the same pivots, so the
fast solver must return identical certificates and optima.

The `fraction_*` checks are the certificate, optimum and betting-book checks
in Fraction arithmetic on the unscaled rows that the integer checks in
`prevision.lp` and `prevision.coherence` replaced; they must agree.

`fraction_quantity_constituents` and `per_world_conjunction` are the
partition and the conjunction built world by world from Fraction values that
the integer value codes and the set algebra of `prevision.geometry` replaced;
they must return identical blocks and values.  `fraction_sigma` is the
solvability system as Fraction rows, which `build_sigma` now emits as integer
rows straight from the value codes; through `LinearSystem.from_fractions` the
two must give identical rows and scales.

`per_world_constituents` is the partition of a family of conditional events
that classifies each world member by member as true, false or void; the
constituent views of `prevision.geometry`, which group the indicators' value
codes instead, must return the same blocks, labels and order.

`propagated_interval` is `extension_interval` with the closed forms left
out, so tests can hold each closed form against exact propagation.
"""

from fractions import Fraction
from itertools import combinations

from prevision.coherence import ExtensionInterval, _propagate, check_coherence
from prevision.errors import IncoherentBase
from prevision.geometry import (
    CompoundPrevisionMap,
    ConditionalQuantity,
    QuantityConstituent,
    quantity_constituents,
)
from prevision.lp import FeasibilityCertificate, OptimizationResult

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


def _full_rows(system):
    rows = [[Fraction(v) for v in r] for r in system.equalities]
    rhs = [Fraction(v) for v in system.rhs]
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


def fraction_check_solution(system, vec) -> bool:
    """LinearSystem.check_solution on Fraction rows."""
    vec = [Fraction(v) for v in vec]
    if len(vec) != system.n_unknowns:
        return False
    if any(v < 0 for v in vec):
        return False
    if system.normalization and sum(vec) != 1:
        return False
    for row, b in zip(system.equalities, system.rhs):
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
    further trailing quantities; they only refine the blocks."""
    if partition is None:
        partition = quantity_constituents(assessment.family)
    inside, _ = partition
    mus = assessment.values
    points = [[mu if v is None else v for v, mu in zip(c.profile, mus)] for c in inside]
    equalities = [tuple(point[i] for point in points) for i in range(len(mus))]
    return equalities, mus, [c.label() for c in inside]


def propagated_interval(base, target):
    """The target propagated through the levels of the base verdict's trace:
    extension_interval without the closed forms."""
    verdict = check_coherence(base)
    if not verdict.coherent:
        raise IncoherentBase("the base assessment is not coherent")
    return ExtensionInterval(*_propagate(base, verdict.trace, target), True)


def _profile_sort_key(profile):
    # active values descending, void last; mirrors TRUE < FALSE < VOID
    return tuple((1, ZERO) if v is None else (0, -v) for v in profile)


def fraction_quantity_constituents(family):
    """Partition the space by the joint profile of Fraction values, world by
    world; returns (inside, c0) like `quantity_constituents`."""
    family = list(family)
    space = family[0].space
    blocks = {}
    for w in range(len(space)):
        profile = tuple(q.values.get(w) for q in family)
        blocks.setdefault(profile, set()).add(w)
    ordered = sorted(blocks, key=_profile_sort_key)
    inside = [
        QuantityConstituent(frozenset(blocks[p]), p)
        for p in ordered
        if not all(v is None for v in p)
    ]
    c0_profile = (None,) * len(family)
    c0 = None
    if c0_profile in blocks:
        c0 = QuantityConstituent(frozenset(blocks[c0_profile]), c0_profile)
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


def per_world_conjunction(family, previsions, label=None):
    """The conjunction of the family, each world of the union of antecedents
    classified member by member; mirrors `make_conjunction`."""
    family = list(family)
    if not isinstance(previsions, CompoundPrevisionMap):
        previsions = CompoundPrevisionMap(previsions)
    union = family[0].antecedent
    for ce in family[1:]:
        union = union | ce.antecedent
    values = {}
    for w in union.members:
        void, false = _compound_statuses(family, w)
        if false:
            values[w] = ZERO
        elif not void:
            values[w] = ONE
        else:
            values[w] = previsions.require(void)
    return ConditionalQuantity(
        union,
        values,
        label or f"and({len(family)})",
        void_value=previsions.get(range(1, len(family) + 1)),
    )
