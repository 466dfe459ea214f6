"""Exact linear solving for feasibility systems over non-negative unknowns.

A two-phase revised simplex with Bland's rule, so runs terminate and answers
are exact.  The systems are wide and short (a few rows, up to thousands of
unknowns), so no tableau is kept: the state is a k x k integer basis inverse
in Bareiss form, the basic values and the cost row's multipliers, and a
column is read from the system's integer columns (each rational row times
the lcm of its denominators, as `geometry.LinearSystem` stores them) only to
price it or to enter it.  The state shares one positive common denominator,
the previous pivot, so each pivot divides exactly and no gcd is ever taken.
Phase 1 runs once per system and its end state is kept on the system; every
later optimum on that system starts from a copy of it.  Solutions, optima
and multipliers come back as Fractions.

An infeasible system yields a separating certificate: multipliers u, one per
row (normalization row last when present), with u . column <= 0 for every
unknown's column while u . rhs equals a strictly positive margin.  An optimum
comes with a dual y, y . column >= cost for every unknown's column and
y . rhs equal to the optimum.  Certificates, duals and solutions are
re-verified before being returned, in integer arithmetic on the same integer
rows: the returned Fractions are brought over one common denominator,
so no check trusts the solver state and none does Fraction arithmetic per
entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .errors import InfeasibleSystem
from .geometry import LinearSystem, scale_to_integers

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class FeasibilityCertificate:
    """Either a non-negative normalized solution or a priced refutation."""

    feasible: bool
    solution: Optional[tuple] = None
    dual: Optional[tuple] = None
    margin: Optional[Fraction] = None


@dataclass(frozen=True)
class OptimizationResult:
    """The optimum, a maximizer, and the dual multipliers (one per row,
    normalization row last) that prove the optimum."""

    value: Optional[Fraction]
    solution: Optional[tuple]
    bounded: bool = True
    dual: Optional[tuple] = None


class _Simplex:
    """Revised simplex in Bareiss form over a system's integer rows, each
    already multiplied by s_r, the lcm of its denominators.

    Row r gets an artificial with column f_r e_r, f_r the sign of its rhs, so
    the artificials start at the non-negative values |b_r|.  An artificial
    stands for s_r times the unscaled one.  This is the same LP in rescaled
    variables: Bland's rule takes the same pivots as on the rational tableau.

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
        self.columns = system.columns
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

    def _column(self, c) -> list:
        """Tableau column c times D."""
        col = self.columns[c]
        return [sum(map(mul, row, col)) for row in self.E]

    def _reduced_cost(self, c) -> int:
        return sum(map(mul, self.w, self.columns[c])) - self.D * self.costs[c]

    def _entering(self):
        """Bland's rule: the first unknown with a negative reduced cost, and
        that cost, or (None, None) at optimum."""
        w, D = self.w, self.D
        for j, (col, c) in enumerate(zip(self.columns, self.costs)):
            z = sum(map(mul, w, col))
            if c:
                z -= D * c
            if z < 0:
                return j, z
        return None, None

    def _pivot(self, r, c, alpha, z):
        """Pivot on row r and column c, whose tableau column is alpha and
        whose cost-row entry is z, both times D."""
        E, beta, D = self.E, self.beta, self.D
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
        for row, b, i in zip(self.E, self.beta, self.basis):
            if costs[i]:
                self.w = [v + costs[i] * u for v, u in zip(self.w, row)]
                self.z0 += costs[i] * b

    def _maximize(self):
        """Bland's rule throughout; True at optimum, False when unbounded."""
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

    def phase1(self) -> Fraction:
        """Drive the artificials toward zero; returns their residual sum."""
        top = lcm(*self.scale)
        self._set_costs([0] * self.m + [-(top // s) for s in self.scale], top)
        self._maximize()
        return self.residual()

    def residual(self) -> Fraction:
        """The artificials' sum at the end of phase 1."""
        return Fraction(-self.z0, self.cost_scale * self.D)

    def drive_out_artificials(self):
        for r in range(self.k):
            if self.basis[r] < self.m:
                continue
            row = self.E[r]
            c = next(
                (j for j, col in enumerate(self.columns) if sum(map(mul, row, col))),
                None,
            )
            if c is not None:
                self._pivot(r, c, self._column(c), self._reduced_cost(c))
            # rows with no unknown left are redundant and stay inert

    def maximize_objective(self, objective) -> bool:
        costs, cost_scale = scale_to_integers(objective)
        self._set_costs(costs + [0] * self.k, cost_scale)
        return self._maximize()

    def solution(self) -> tuple:
        x = [ZERO] * self.m
        for b, v in zip(self.basis, self.beta):
            if b < self.m:
                x[b] = Fraction(v, self.D)
        return tuple(x)

    def dual(self) -> tuple:
        """y = c_B B^-1 = w / D on the input rows, undoing their scalings."""
        return tuple(
            Fraction(s * v, self.cost_scale * self.D)
            for v, s in zip(self.w, self.scale)
        )

    def refutation(self) -> tuple:
        """Row multipliers v with v . column <= 0 and v . rhs > 0: minus the
        phase-1 dual."""
        return tuple(-v for v in self.dual())


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


def _verify_certificate(system: LinearSystem, cert: FeasibilityCertificate):
    if cert.feasible:
        if not system.check_solution(cert.solution):
            raise RuntimeError("solver produced a non-solution")
        return
    if cert.margin is None or cert.margin <= 0:
        raise RuntimeError("refutation lacks a positive margin")
    sums, L = system.combine(cert.dual)
    if any(a > 0 for a in sums[:-1]):
        raise RuntimeError("refutation prices a column positively")
    if sums[-1] * cert.margin.denominator != cert.margin.numerator * L:
        raise RuntimeError("refutation margin mismatch")


def _verify_optimum(system: LinearSystem, objective, result: OptimizationResult):
    """The maximizer is feasible, and by weak duality y . A_j >= c_j on every
    column and y . b equal to the value prove that no feasible point does
    better."""
    if not system.check_solution(result.solution):
        raise RuntimeError("optimizer produced a non-solution")
    sums, L = system.combine(result.dual)
    costs, cost_scale = scale_to_integers(objective)
    # y . A_j = sums_j / L against c_j = costs_j / cost_scale
    if any(a * cost_scale < c * L for a, c in zip(sums, costs)):
        raise RuntimeError("optimum dual prices a column below its cost")
    if sums[-1] * result.value.denominator != result.value.numerator * L:
        raise RuntimeError("optimum dual bound mismatch")


def solve_feasibility(system: LinearSystem) -> FeasibilityCertificate:
    """Decide {equalities, non-negativity, normalization} exactly."""
    simplex = _after_phase1(system)
    residual = simplex.residual()
    if residual == 0:
        cert = FeasibilityCertificate(True, solution=simplex.solution())
    else:
        cert = FeasibilityCertificate(
            False, dual=simplex.refutation(), margin=residual
        )
    _verify_certificate(system, cert)
    return cert


def maximize_linear(system: LinearSystem, objective: Sequence) -> OptimizationResult:
    """Exact max of objective . x over the system; raises when infeasible."""
    objective = [Fraction(c) for c in objective]
    if len(objective) != system.n_unknowns:
        raise ValueError("objective length must match the unknown count")
    simplex = _after_phase1(system)
    if simplex.residual() != 0:
        raise InfeasibleSystem("system has no non-negative solution")
    simplex = simplex.copy()
    simplex.drive_out_artificials()
    if not simplex.maximize_objective(objective):
        return OptimizationResult(None, None, bounded=False)
    x = simplex.solution()
    result = OptimizationResult(
        sum(c * v for c, v in zip(objective, x)), x, dual=simplex.dual()
    )
    _verify_optimum(system, objective, result)
    return result


def maximize_component_sum(system: LinearSystem, index_set) -> OptimizationResult:
    """Exact max of the unknown-sum over index_set; raises when infeasible."""
    indices = set(index_set)
    if any(not 0 <= j < system.n_unknowns for j in indices):
        raise ValueError("index out of range")
    objective = [ONE if j in indices else ZERO for j in range(system.n_unknowns)]
    return maximize_linear(system, objective)
