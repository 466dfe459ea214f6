"""Slow exact reference computations the fast solvers are tested against.

Feasibility and optima are obtained by enumerating every basic solution of
the equality system and keeping the non-negative ones.  A non-empty system
of the form {A x = b, x >= 0} always has a basic feasible point, and a linear
functional over the bounded ones we test attains its maximum at one, so
exhaustive enumeration is a complete oracle for small sizes.

`FractionSimplex` is the two-phase simplex on a Fraction tableau that the
integer solver in `prevision.lp` replaced.  It takes the same pivots, so the
fast solver must return identical certificates and optima.

`DenseSimplex` is the dense fraction-free integer tableau that the revised
simplex of `prevision.lp` replaced: it rewrites every column on every pivot
and reruns phase 1 for each LP.  Its artificial columns, rhs column and cost
row are, up to the row flips, what the revised solver keeps, so the two must
agree after every pivot and take the same pivots.  `dense_solve_feasibility` and
`dense_maximize_linear` run it the way `prevision.lp` used to.

The `fraction_*` checks are the certificate, optimum and betting-book checks
in Fraction arithmetic on the unscaled rows that the integer checks in
`prevision.lp` and `prevision.coherence` replaced; they must agree.

`fraction_quantity_constituents` and `per_world_conjunction` are the
partition and the conjunction built world by world from Fraction values that
the integer value codes and the set algebra of `prevision.geometry` replaced;
they must return identical blocks and values.  `per_world_codes` derives a
quantity's levels and codes from its {world: value} dict, as quantities did
before they were built from level sets; every constructor must agree with it.  `fraction_sigma` is the
solvability system as Fraction rows, which `build_sigma` now emits as integer
rows straight from the value codes; through `LinearSystem.from_fractions` the
two must give identical rows and scales.  `fraction_rows` reads a system's
integer rows back as Fraction equalities and right-hand sides, the view
`LinearSystem` used to carry for the tests alone.

`per_world_constituents` is the partition of a family of conditional events
that classifies each world member by member as true, false or void; the
constituent views of `prevision.geometry`, which group the indicators' value
codes instead, must return the same blocks, labels and order.

`propagated_interval` is `extension_interval` with the one closed form it
still dispatches, `family7_bounds`, left out, so tests can hold that closed
form against exact propagation.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from prevision.coherence import ExtensionInterval, _propagate, check_coherence
from prevision.errors import IncoherentBase
from prevision.geometry import (
    VOID,
    CompoundPrevisionMap,
    QuantityConstituent,
    quantity_constituents,
    scale_to_integers,
    to_fraction,
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
    variables: Bland's rule takes the same pivots as on the rational tableau.

    The true tableau is T / D.  Pivoting on p = T[r][c] maps every other row
    to (p * T[i] - T[i][c] * T[r]) / D, an exact division by Sylvester's
    identity, and D becomes p.  A negative pivot negates its row first, so
    D stays positive and ratio and sign tests compare integers directly.
    The cost row holds D * (c_B B^-1 A - c); a negative entry prices its
    column in.
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
        z = [-self.D * c for c in costs] + [0]
        for i, b in enumerate(self.basis):
            if costs[b]:
                z = [v + costs[b] * t for v, t in zip(z, self.T[i])]
        self.T[self.k] = z

    def _maximize(self):
        """Bland's rule throughout; True at optimum, False when unbounded."""
        T, k, basis = self.T, self.k, self.basis
        while True:
            z = T[k]
            entering = next((j for j in range(self.m) if z[j] < 0), None)
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


def fraction_check_solution(system, vec) -> bool:
    """LinearSystem.check_solution on Fraction rows."""
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
    labels = [QuantityConstituent(c.worlds, c.profile[:len(mus)]).label() for c in inside]
    return equalities, mus, labels


def propagated_interval(base, target):
    """The target propagated through the levels of the base verdict's trace:
    extension_interval without the family7 closed form."""
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
    for w in union.members:
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
    value, or VOID.  Values are grouped by object identity, then the few
    distinct objects compared as integers over their common denominator."""
    objects = {id(v): to_fraction(v) for v in values.values()}
    scaled = dict(zip(objects, scale_to_integers(list(objects.values()))[0]))
    by_value = {scaled[key]: v for key, v in objects.items()}
    order = sorted(by_value, reverse=True)
    rank = {s: i for i, s in enumerate(order)}
    code_of = {key: rank[s] for key, s in scaled.items()}
    codes = [VOID] * n_worlds
    for w, v in values.items():
        codes[w] = code_of[id(v)]
    return tuple(by_value[s] for s in order), tuple(codes)
