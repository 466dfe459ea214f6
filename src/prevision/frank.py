"""The Frank family of t-norms and t-conorms, with inversion and bounds.

The family interpolates three named operators as the parameter grows:
minimum, product, Lukasiewicz.  Named kinds evaluate exactly on rational
inputs; a generic parameter evaluates in log-domain floating point, with a
series expansion near the product point and named-kind fallbacks once the
closed form would underflow.  The conjunction/disjunction envelope bounds are
always exact rationals.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction

from .errors import OutOfRange, TargetOutOfBounds, abridged
from .record import Record, to_fraction

# expansion window around the product point, and the log-parameter horizon
# beyond which the float closed form degenerates
_PRODUCT_WINDOW = 1e-8
_LOG_HORIZON = 40.0


class FrankKind(Enum):
    MIN = "min"
    PRODUCT = "product"
    LUKASIEWICZ = "lukasiewicz"
    GENERIC = "generic"


class FrankParameter(Record):
    """One member of the family; named kinds are never encoded as Generic."""

    _compared = _shown = ("kind", "value")

    def __init__(self, kind: FrankKind, value: float | None = None):
        if kind is FrankKind.GENERIC:
            if value is None or not math.isfinite(value) or value <= 0 or value == 1:
                raise OutOfRange("generic parameter must be finite, positive, and not 1")
        elif value is not None:
            raise ValueError("named kinds carry no numeric value")
        vars(self).update(kind=kind, value=value)

    @classmethod
    def min(cls) -> "FrankParameter":
        return cls(FrankKind.MIN)

    @classmethod
    def product(cls) -> "FrankParameter":
        return cls(FrankKind.PRODUCT)

    @classmethod
    def lukasiewicz(cls) -> "FrankParameter":
        return cls(FrankKind.LUKASIEWICZ)

    @classmethod
    def generic(cls, value: float) -> "FrankParameter":
        return cls(FrankKind.GENERIC, float(value))

    @classmethod
    def from_value(cls, value) -> "FrankParameter":
        """Canonicalize a raw parameter value: exactly 0, 1 or inf name a kind; a
        value that only rounds to 0 or 1 as a float, or that no float holds, is refused."""
        if value < 0:
            raise OutOfRange("parameter must be non-negative")
        if value == 0:
            return cls.min()
        if value == 1:
            return cls.product()
        if value == math.inf:
            return cls.lukasiewicz()
        try:
            x = float(value)
        except OverflowError:
            raise OutOfRange("parameter is too large for a float") from None
        if x in (0, 1):
            raise OutOfRange(f"parameter is not {int(x)} but rounds to it as a float")
        return cls.generic(x)


Real = int | float | Fraction


def _validated(xs: Sequence[Real], what: str = "argument") -> list:
    xs = list(xs)
    if not xs:
        raise OutOfRange(f"need at least one {what}")
    for x in xs:
        if not 0 <= x <= 1:
            raise OutOfRange(f"{what} {abridged(x)} outside [0,1]")
    return xs


def _zero_like(xs) -> Real:
    return sum(xs) * 0


def _lukasiewicz(xs) -> Real:
    rest = [x for x in xs if x != 1]  # keeps T(x, 1) = x exact in floats
    if not rest:
        return min(xs)
    if len(rest) == 1:
        return rest[0]
    s = sum(rest) - (len(rest) - 1)
    return s if s > 0 else _zero_like(xs)


def _log1mexp(u: float) -> float:
    """log(1 - e^u) for u < 0, stable in both regimes."""
    if u > -math.log(2):
        return math.log(-math.expm1(u))
    return math.log1p(-math.exp(u))


def _tnorm_generic(lam: float, xs: Sequence[float]) -> float:
    t = math.log(lam)
    xs = [float(x) for x in xs]
    if any(x == 0.0 for x in xs):
        return 0.0
    xs = [x for x in xs if x != 1.0]
    if not xs:
        return 1.0
    if len(xs) == 1:
        return xs[0]
    if abs(t) <= _PRODUCT_WINDOW:
        p = math.prod(xs)
        return p + t * p * (sum(xs) - (len(xs) - 1) - p) / 2
    if t > _LOG_HORIZON:
        return max(0.0, sum(xs) - (len(xs) - 1))
    if t < -_LOG_HORIZON:
        return min(xs)
    if t > 0:
        log_num = 0.0
        for x in xs:
            e = math.expm1(x * t)
            if e == 0.0:  # x*t underflowed; the whole product collapses
                return 0.0
            log_num += math.log(e)
        log_den = (len(xs) - 1) * math.log(math.expm1(t))
        return math.log1p(math.exp(log_num - log_den)) / t
    log_num = 0.0
    for x in xs:
        u = x * t
        if u == 0.0:
            return 0.0
        log_num += _log1mexp(u)
    s = log_num - (len(xs) - 1) * _log1mexp(t)
    if s == 0.0:  # every argument is within float noise of 1
        return min(xs)
    return _log1mexp(s) / t


def tnorm(parameter: FrankParameter, xs: Sequence[Real]) -> Real:
    """T_lambda of the arguments; exact for named kinds on rational inputs."""
    xs = _validated(xs)
    if parameter.kind is FrankKind.MIN:
        return min(xs)
    if parameter.kind is FrankKind.PRODUCT:
        return math.prod(xs)
    if parameter.kind is FrankKind.LUKASIEWICZ:
        return _lukasiewicz(xs)
    return _tnorm_generic(parameter.value, xs)


def tconorm(parameter: FrankParameter, xs: Sequence[Real]) -> Real:
    """S_lambda(xs) = 1 - T_lambda(1-x_1, ..., 1-x_n).

    Named kinds use that complement form exactly.  The generic parameter
    folds the two-argument sum identity S(x, y) = x + y - T(x, y) instead:
    the family satisfies both identities, and the fold keeps the sum form
    exact in floats where the complement form drifts at extreme parameters.
    """
    xs = _validated(xs)
    if parameter.kind is not FrankKind.GENERIC:
        return 1 - tnorm(parameter, [1 - x for x in xs])
    acc = float(xs[0])
    for x in xs[1:]:
        x = float(x)
        acc = acc + x - _tnorm_generic(parameter.value, (acc, x))
        acc = min(1.0, max(0.0, acc))
    return acc


def frechet_bounds_conjunction(xs: Sequence[Real]) -> tuple[Fraction, Fraction]:
    """Exact sharp envelope for the conjunction prevision: (T_L, T_M)."""
    xs = [to_fraction(x) for x in _validated(xs)]
    return tnorm(FrankParameter.lukasiewicz(), xs), tnorm(FrankParameter.min(), xs)


def frechet_bounds_disjunction(xs: Sequence[Real]) -> tuple[Fraction, Fraction]:
    """Exact sharp envelope for the disjunction prevision: (S_M, S_L)."""
    xs = [to_fraction(x) for x in _validated(xs)]
    return tconorm(FrankParameter.min(), xs), tconorm(FrankParameter.lukasiewicz(), xs)


def sum_rule_disjunction(x: Real, y: Real, z: Real) -> Real:
    """Prevision of the pair's disjunction from the conjunction's: x + y - z."""
    return x + y - z


def solve_lambda(xs: Sequence[Real], target: Real) -> tuple[FrankParameter, bool]:
    """Invert the family: find the parameter whose t-norm hits the target.

    Returns (parameter, unique).  A target outside the exact envelope raises;
    a tuple on which the family is constant returns the canonical Product
    with unique=False.  Interior targets are bisected on log(lambda) to
    within 1e-13, far past the 1e-10 contract.
    """
    xs = _validated(xs)
    exact = [Fraction(x) if isinstance(x, float) else to_fraction(x) for x in xs]
    lower, upper = frechet_bounds_conjunction(exact)
    if not lower <= target <= upper:
        raise TargetOutOfBounds(
            f"target {abridged(target)} outside the attainable range"
            f" [{abridged(lower)}, {abridged(upper)}]"
        )
    if lower == upper:
        return FrankParameter.product(), False
    if target == upper:
        return FrankParameter.min(), True
    if target == lower:
        return FrankParameter.lukasiewicz(), True
    floats = [float(x) for x in xs]
    target_f = float(target)
    lo, hi = -_LOG_HORIZON, _LOG_HORIZON
    if target_f >= _tnorm_generic(math.exp(lo), floats):
        return FrankParameter.min(), True
    if target_f <= _tnorm_generic(math.exp(hi), floats):
        return FrankParameter.lukasiewicz(), True
    # T is decreasing in the parameter: value(lo) > target > value(hi)
    while hi - lo > 1e-13:
        mid = (lo + hi) / 2
        if _tnorm_generic(math.exp(mid), floats) > target_f:
            lo = mid
        else:
            hi = mid
    t = (lo + hi) / 2
    if abs(t) <= _PRODUCT_WINDOW:
        return FrankParameter.product(), True
    return FrankParameter.generic(math.exp(t)), True
