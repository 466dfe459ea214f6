"""Exact linear solving for feasibility systems over non-negative unknowns.

A two-phase revised simplex that never cycles, so runs terminate and answers
are exact.  The systems are wide and short (a few rows, up to thousands of
unknowns), so no tableau is kept: the state is a k x k integer basis inverse
in Bareiss form, the basic values and the cost row's multipliers, and a
column is read from the system's integer rows (each rational row times the
lcm of its denominators, as `geometry.LinearSystem` stores them) only to
price it or to enter it.  The state shares one positive common denominator,
the previous pivot, so each pivot divides exactly and no gcd is ever taken.
Phase 1 runs once per system; the end state is kept on the system, and
every later optimum on it starts from a copy.

A system of fewer than PACKED_WIDTH unknowns, as every system of a
seven-member check or 3-atom extension is, prices one column after another,
a dot product each, and Bland's rule enters the first that prices in.  A
wider one, such as the 3^n - 1 unknowns of an n-member conjunction family,
packs each integer row into one Python int with a field per unknown, from
the row's value table (`LinearSystem.value_tables`): one `to_bytes` per table
entry and one join over the row's codes.  It prices every column with one
packed multiply-add per pivot (`_Simplex._entering_packed`).  The most negative
reduced cost enters, the lowest index on a tie (20 pivots in phase 1 of an
n = 7 family, against Bland's 63), except right after a degenerate pivot,
where Bland's column does: a cycle holds degenerate pivots only, and all
but its first would follow Bland's rule, so none occurs.  The packing only
picks the column; no answer rests on it, since every certificate below is
checked column by column.

An infeasible system yields a separating certificate: multipliers u, one per
row (normalization row last when present), with u . column <= 0 for every
unknown's column while u . rhs equals a strictly positive margin.  An optimum
comes with a dual y, y . column >= cost for every unknown's column and
y . rhs equal to the optimum.  Each is checked before it is returned, on
the solver's own integers against the system's integer rows: the basic
values over D, and the cost row's multipliers over cost_scale * D, whose
combination of the rows gives the certificate's sums directly.  The returned
Fractions are built once, from exactly the integers that passed; no check
trusts the solver state and none does Fraction arithmetic per entry.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import InfeasibleSystem
from .geometry import LinearSystem, scale_to_integers, tabulate
from .record import Record, to_fraction

ZERO = Fraction(0)
# From PACKED_WIDTH unknowns on, columns are priced at once in packed integers.
# On conj-scale (Python 3.11, two-core Xeon VM, best of 7) that took 0.49-0.51
# ms per operation against 0.48-0.49 ms column by column at 80 unknowns, and
# 1.14-1.16 against 1.22-1.27 ms at 242; paired 8 s conj-scale runs at a width
# of 64 or 256 gained nothing.  Other systems have at most 26 unknowns, and
# packed they lose: at a width of 0, grid7 fell from 1,271-1,274 to 1,162-1,189
# operations per second, its tail rose from 1.16 to 1.31-1.33 ms (8 s pairs),
# and the pivots, so the grid digest, changed.  So both paths stay.
PACKED_WIDTH = 128


class FeasibilityCertificate(Record):
    """Either a non-negative normalized solution or a priced refutation;
    `support`, a solution's non-zero entries, is neither compared nor shown."""

    _compared = _shown = ("feasible", "solution", "dual", "margin")

    def __init__(self, feasible: bool, solution=None, dual=None, margin=None, support=()):
        vars(self).update(
            feasible=feasible, solution=solution, dual=dual, margin=margin, support=support
        )


class OptimizationResult(Record):
    """The optimum, a maximizer, and the dual multipliers (one per row,
    normalization row last) that prove the optimum; `support` as above."""

    _compared = _shown = ("value", "solution", "bounded", "dual")

    def __init__(self, value, solution, bounded=True, dual=None, support=()):
        vars(self).update(
            value=value, solution=solution, bounded=bounded, dual=dual, support=support
        )


class _Simplex:
    """Revised simplex in Bareiss form over a system's integer rows, each
    already multiplied by s_r, the lcm of its denominators.

    Row r gets an artificial with column f_r e_r, f_r the sign of its rhs, so
    the artificials start at the non-negative values |b_r|.  An artificial
    stands for s_r times the unscaled one.  This is the same LP in rescaled
    variables, which takes the same pivots as the rational tableau.

    With B the basis and D the previous pivot (positive), the state is
    E = D B^-1, beta = D B^-1 b, the basic values times D, and the cost
    row's multipliers w = c_B E with z0 = c_B beta.  Tableau column j is
    E A_j / D, computed only for the entering column, and w . A_j - D c_j is
    D times unknown j's reduced cost; a negative value prices it in.
    Pivoting on p = (E A_c)_r maps every other row v of E, beta and the cost
    row to (p v - f u) / D, with u row r and f that row's entry in column c,
    an exact division by Sylvester's identity, and D becomes p.  A negative
    pivot negates its row first, so D stays positive and ratio and sign
    tests compare integers directly.
    """

    def __init__(self, system: LinearSystem):
        self.rows = system.rows
        self.scale = system.scales
        self.m = system.n_unknowns
        self.k = k = len(system.rows)
        self.E = [[0] * k for _ in range(k)]
        self.beta = []
        for r, row in enumerate(system.rows):
            f = -1 if row[-1] < 0 else 1
            self.E[r][r] = f
            self.beta.append(f * row[-1])
        self.D = 1
        self.basis = [self.m + r for r in range(k)]
        if self.m >= PACKED_WIDTH:  # each row's bound and packing from its table
            self.tables = system.value_tables
            self.row_bounds = [max(map(abs, table)) for table, _ in self.tables]
            self.packed = {}
        else:  # the rows transposed, rhs left out
            self.columns = tuple(zip(*self.rows))[:-1]

    def copy(self) -> "_Simplex":
        """An independent state to pivot further; `self` stays as it is."""
        twin = object.__new__(type(self))
        vars(twin).update(
            vars(self),
            E=[list(row) for row in self.E],
            beta=list(self.beta),
            basis=list(self.basis),
        )
        return twin

    def _integer_column(self, c):
        if self.m >= PACKED_WIDTH:  # no transposed copy of a wide system's rows
            return [row[c] for row in self.rows]
        return self.columns[c]

    def _column(self, c) -> list:
        """Tableau column c times D."""
        col = self._integer_column(c)
        return [sum(map(mul, row, col)) for row in self.E]

    def _reduced_cost(self, c) -> int:
        return sum(map(mul, self.w, self._integer_column(c))) - self.D * self.costs[c]

    def _entering(self):
        """The entering unknown and its reduced cost times D, or (None, None)
        at optimum."""
        if self.m >= PACKED_WIDTH:
            return self._entering_packed()
        w, D = self.w, self.D
        for j, (col, c) in enumerate(zip(self.columns, self.costs)):
            z = sum(map(mul, w, col))
            if c:
                z -= D * c
            if z < 0:
                return j, z
        return None, None

    def _entering_packed(self):
        """Every column priced at once.  Packed with entry j in field j of
        B = 64 words bits, each integer row P_r and the costs C give
        sum_r w_r P_r - D C, whose field j is D times unknown j's reduced
        cost.  Every field, and every entry packed, is below 2^(B-1) in
        absolute value: B exceeds the bit length of the bound
        sum_r |w_r| max|row_r| + D max|c| and of each entry.  So with 2^(B-1)
        added to each, the fields are the sum's base-2^B digits, and a top
        bit is clear exactly when the reduced cost is negative.  The lowest
        such field is Bland's column, taken after a degenerate pivot; else
        the least field enters, found by the top 64-bit words and, among
        columns tied on those, whole fields.  Its cost is then recomputed."""
        w, D = self.w, self.D
        bound = sum(map(mul, map(abs, w), self.row_bounds)) + D * self.cost_bound
        words = (max(bound, *self.row_bounds).bit_length() + 64) // 64
        if words not in self.packed:
            tops = _tops(self.m, words)
            self.packed[words] = (tops, *(_pack(*table, words, tops) for table in self.tables))
        tops, *rows = self.packed[words]
        if words not in self.packed_costs:
            self.packed_costs[words] = _pack(*self.cost_table, words, tops)
        fields = sum(map(mul, w, rows)) + tops - D * self.packed_costs[words]
        negative = tops & ~fields
        if not negative:
            return None, None
        j = (negative & -negative).bit_length() // (64 * words) - 1
        if not self.degenerate:
            digits, B = fields.to_bytes(8 * words * self.m, "little"), 8 * words
            top = array("Q", digits)[words - 1 :: words]
            if sys.byteorder == "big":
                top.byteswap()
            j = top.index(least := min(top))
            if words > 1 and top.count(least) > 1:
                tied = (t for t in range(j, self.m) if top[t] == least)
                j = min(tied, key=lambda t: int.from_bytes(digits[B * t : B * t + B], "little"))
        z = self._reduced_cost(j)
        if z >= 0:
            raise RuntimeError("packed pricing chose a column that does not price in")
        return j, z

    def _pivot(self, r, c, alpha, z):
        """Pivot on row r and column c, whose tableau column is alpha and
        whose cost-row entry is z, both times D."""
        E, beta, D = self.E, self.beta, self.D
        self.degenerate = beta[r] == 0  # then the next pricing takes Bland's column
        p = alpha[r]
        if p < 0:
            p = -p
            E[r] = [-v for v in E[r]]
            beta[r] = -beta[r]
        row_r, b_r = E[r], beta[r]
        for i, f in enumerate(alpha):
            if i == r:
                continue
            if f:
                E[i] = [(p * v - f * u) // D for v, u in zip(E[i], row_r)]
                beta[i] = (p * beta[i] - f * b_r) // D
            elif p != D:
                E[i] = [p * v // D for v in E[i]]
                beta[i] = p * beta[i] // D
        if z:
            self.w = [(p * v - z * u) // D for v, u in zip(self.w, row_r)]
            self.z0 = (p * self.z0 - z * b_r) // D
        elif p != D:
            self.w = [p * v // D for v in self.w]
            self.z0 = p * self.z0 // D
        self.D = p
        self.basis[r] = c

    def _set_costs(self, costs, cost_scale):
        """Install integer costs for every unknown and artificial; the true
        costs are costs / cost_scale."""
        self.costs, self.cost_scale = costs, cost_scale
        self.w, self.z0 = [0] * self.k, 0
        self.degenerate = False
        if self.m >= PACKED_WIDTH:
            self.cost_table = tabulate(costs[: self.m])
            self.cost_bound = max(map(abs, self.cost_table[0]))
            self.packed_costs = {}
        for row, b, i in zip(self.E, self.beta, self.basis):
            if costs[i]:
                self.w = [v + costs[i] * u for v, u in zip(self.w, row)]
                self.z0 += costs[i] * b

    def _maximize(self):
        """True at optimum, False when unbounded."""
        beta, basis = self.beta, self.basis
        while True:
            entering, z = self._entering()
            if entering is None:
                return True
            alpha = self._column(entering)
            leaving = None
            for r, a in enumerate(alpha):
                if a <= 0:
                    continue
                if leaving is not None:
                    # ratios beta[r] / a against the best, cross-multiplied
                    lhs, rhs = beta[r] * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and basis[r] > basis[leaving]):
                        continue
                leaving, best_a, best_b = r, a, beta[r]
            if leaving is None:
                return False
            self._pivot(leaving, entering, alpha, z)

    def phase1(self):
        """Drive the artificials toward zero."""
        top = lcm(*self.scale)
        self._set_costs([0] * self.m + [-(top // s) for s in self.scale], top)
        self._maximize()

    def drive_out_artificials(self):
        for r in range(self.k):
            if self.basis[r] < self.m:
                continue
            row = self.E[r]
            c = next(
                (j for j in range(self.m) if sum(map(mul, row, self._integer_column(j)))),
                None,
            )
            if c is not None:
                self._pivot(r, c, self._column(c), self._reduced_cost(c))
            # rows with no unknown left are redundant and stay inert

    def maximize_objective(self, costs, cost_scale) -> bool:
        self._set_costs(costs + [0] * self.k, cost_scale)
        return self._maximize()

    def point(self) -> tuple:
        """(x, D): x maps each basic unknown to its value times D."""
        return {b: v for b, v in zip(self.basis, self.beta) if b < self.m}, self.D

    def residual(self) -> tuple:
        """(r, L): the artificials' sum after phase 1 is r / L, L = cost_scale D."""
        return -self.z0, self.cost_scale * self.D


def _tops(m, words) -> int:
    """2^(B-1) in each of m fields of B = 64 words bits: every field's top bit."""
    return int.from_bytes((bytes(8 * words - 1) + b"\x80") * m, "little")


def _pack(table, codes, words, tops) -> int:
    """sum_j table[codes[j]] 2^(B j), B = 64 words, for table entries below
    2^(B-1) in absolute value and tops = _tops(len(codes), words): each entry
    is put in two's complement once, the fields are joined by code, and the
    fields whose sign bit is set then borrow from the next."""
    table = [v.to_bytes(8 * words, "little", signed=True) for v in table]
    fields = int.from_bytes(b"".join(map(table.__getitem__, codes)), "little")
    return fields - ((fields & tops) << 1)


def _after_phase1(system: LinearSystem) -> _Simplex:
    """The simplex on `system` at the end of phase 1.  Phase 1 does not
    depend on any objective, so it runs once per system; the state is kept
    on the system, and an optimum pivots a copy of it."""
    state = vars(system).get("_phase1")
    if state is None:
        state = _Simplex(system)
        state.phase1()
        vars(system)["_phase1"] = state
    return state


def _check_refutation(system: LinearSystem, u, margin, L):
    """u / L on the integer rows prices every column at most 0 and the rhs
    at margin / L > 0."""
    if margin <= 0 or L <= 0:
        raise RuntimeError("refutation lacks a positive margin")
    sums = system.weigh(u)
    if any(a > 0 for a in sums[:-1]):
        raise RuntimeError("refutation prices a column positively")
    if sums[-1] != margin:
        raise RuntimeError("refutation margin mismatch")


def _check_optimum(system: LinearSystem, w, value, L, costs, cost_scale):
    """By weak duality, w / L on the integer rows (L > 0) proves that no
    feasible point beats value / L on the objective costs / cost_scale."""
    sums = system.weigh(w)
    if any(a * cost_scale < c * L for a, c in zip(sums, costs)):
        raise RuntimeError("optimum dual prices a column below its cost")
    if sums[-1] != value:
        raise RuntimeError("optimum dual bound mismatch")


def _solution(system: LinearSystem, x, D) -> tuple:
    """(solution, support): the point x / D and its non-zero entries (j, v)."""
    support = tuple([(j, Fraction(v, D)) for j, v in x.items() if v])
    solution = [ZERO] * system.n_unknowns
    for j, v in support:
        solution[j] = v
    return tuple(solution), support


def _refutation(system: LinearSystem, simplex: _Simplex) -> tuple:
    """(dual, margin) of the phase-1 end state of an infeasible system,
    checked on the solver's integers before any Fraction is built."""
    margin, L = simplex.residual()
    u = [-v for v in simplex.w]
    _check_refutation(system, u, margin, L)
    return tuple(Fraction(s * v, L) for v, s in zip(u, system.scales)), Fraction(margin, L)


def solve_feasibility(system: LinearSystem) -> FeasibilityCertificate:
    """Decide {equalities, non-negativity, normalization} exactly."""
    simplex = _after_phase1(system)
    if simplex.residual()[0] == 0:
        x, D = simplex.point()
        if not system.solves(x, D):
            raise RuntimeError("solver produced a non-solution")
        solution, support = _solution(system, x, D)
        return FeasibilityCertificate(True, solution, support=support)
    dual, margin = _refutation(system, simplex)
    return FeasibilityCertificate(False, dual=dual, margin=margin)


def maximize_linear(system: LinearSystem, objective: Sequence) -> OptimizationResult:
    """Exact max of objective . x over the system; a checked refutation backs
    InfeasibleSystem.  Ints and Fractions pass unconverted, other entries go
    through `to_fraction`, which refuses floats."""
    objective = [c if isinstance(c, (int, Fraction)) else to_fraction(c) for c in objective]
    costs, cost_scale = scale_to_integers(objective)
    if len(costs) != system.n_unknowns:
        raise ValueError("objective length must match the unknown count")
    simplex = _after_phase1(system)
    if simplex.residual()[0] != 0:
        _refutation(system, simplex)
        raise InfeasibleSystem("system has no non-negative solution")
    simplex = simplex.copy()
    simplex.drive_out_artificials()
    if not simplex.maximize_objective(costs, cost_scale):
        return OptimizationResult(None, None, bounded=False)
    x, D = simplex.point()
    w, L = simplex.w, cost_scale * D
    value = sum(costs[j] * v for j, v in x.items())
    if not system.solves(x, D):
        raise RuntimeError("optimizer produced a non-solution")
    _check_optimum(system, w, value, L, costs, cost_scale)
    dual = tuple(Fraction(s * v, L) for v, s in zip(w, system.scales))
    solution, support = _solution(system, x, D)
    return OptimizationResult(Fraction(value, L), solution, dual=dual, support=support)


def maximize_component_sum(system: LinearSystem, index_set) -> OptimizationResult:
    """Exact max of the unknown-sum over index_set; raises when infeasible."""
    indices = set(index_set)
    if any(not 0 <= j < system.n_unknowns for j in indices):
        raise ValueError("index out of range")
    return maximize_linear(system, [int(j in indices) for j in range(system.n_unknowns)])
