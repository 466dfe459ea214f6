"""Exact linear solving for feasibility systems over non-negative unknowns.

A dense two-phase simplex with Bland's rule, so runs terminate and answers
are exact.  The tableau is fraction-free: it starts from the system's integer
rows (each rational row times the lcm of its denominators, as
`geometry.LinearSystem` stores them), and all rows share one positive common
denominator, the previous pivot, so each pivot divides exactly (Bareiss
elimination) and no gcd is ever taken.  Solutions, optima and multipliers
come back as Fractions.

An infeasible system yields a separating certificate: multipliers u, one per
row (normalization row last when present), with u . column <= 0 for every
unknown's column while u . rhs equals a strictly positive margin.  An optimum
comes with a dual y, y . column >= cost for every unknown's column and
y . rhs equal to the optimum.  Certificates, duals and solutions are
re-verified before being returned, in integer arithmetic on the same integer
rows: the returned Fractions are brought over one common denominator,
so no check trusts the tableau and none does Fraction arithmetic per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
    """Integer tableau: unknown columns, one artificial per row, rhs last,
    plus a cost row.

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
    simplex = _Simplex(system.rows, system.scales)
    residual = simplex.phase1()
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
    simplex = _Simplex(system.rows, system.scales)
    if simplex.phase1() != 0:
        raise InfeasibleSystem("system has no non-negative solution")
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
