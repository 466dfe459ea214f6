"""Closed-form solutions: boundary mass vectors and three-event rules.

The two constructors build, for any member previsions, an explicit
non-negative normalized mass vector over the 2^n fully-active blocks that
hits the lower (Lukasiewicz) or upper (min) envelope value for the overall
conjunction.  Their existence is what makes the envelope sharp.  The rest of
the module carries the worked three-event material: the seven-value
coherence characterization, its triple-value bounds, the shared-consequent
special case, and the sufficient conditions for the all-Lukasiewicz
assessment.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from types import MappingProxyType

from .errors import OutOfRange
from .frank import FrankParameter, tnorm
from .geometry import conjunction_signatures, signature_label
from .record import Record, to_fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _unit_fractions(values) -> list[Fraction]:
    out = []
    for v in values:
        f = to_fraction(v)
        if not ZERO <= f <= ONE:
            raise OutOfRange(f"value {f} outside [0,1]")
        out.append(f)
    return out


class LambdaVector(Record):
    """Mass per member subset S (S = the unbarred members), summing to one;
    `components` is a read-only view, in `conjunction_signatures` order."""

    _compared = _shown = ("n", "components", "case", "permutation")

    def __init__(self, n: int, components: dict, case: str | None = None, permutation=None):
        sigs = conjunction_signatures(n)
        if set(components) - set(sigs):
            raise ValueError("component key is not a member subset")
        components = {s: components.get(s, ZERO) for s in sigs}
        if any(v < 0 for v in components.values()):
            raise ValueError("negative mass")
        if sum(components.values()) != 1:
            raise ValueError("mass does not sum to one")
        components = MappingProxyType(components)
        vars(self).update(n=n, components=components, case=case, permutation=permutation)

    def _key(self) -> tuple:
        return self.n, tuple(self.components.items()), self.case, self.permutation

    def __getitem__(self, subset) -> Fraction:
        return self.components[frozenset(subset)]

    def as_tuple(self) -> tuple:
        return tuple(self.components[s] for s in conjunction_signatures(self.n))

    def labels(self) -> tuple:
        return tuple(signature_label(s, self.n) for s in conjunction_signatures(self.n))


def _tail_products(tail, xs):
    """(subset, weight) over the product measure on the tail members."""
    blocks = [(frozenset(), ONE)]
    for t in tail:
        x = xs[t - 1]
        blocks = [
            (s | extra, w * f)
            for s, w in blocks
            for extra, f in ((frozenset([t]), x), (frozenset(), 1 - x))
        ]
    return blocks


def lambda_solution_TL(xs) -> LambdaVector:
    """Mass vector realizing the lower envelope value for the conjunction.

    Dispatches on the largest prefix whose running lower bound is positive;
    the chosen branch is recorded on the result as `case`.
    """
    xs = _unit_fractions(xs)
    m = len(xs)
    if m == 0:
        raise OutOfRange("need at least one member")
    full = frozenset(range(1, m + 1))
    if m == 1:
        return LambdaVector(
            1, {full: xs[0], frozenset(): 1 - xs[0]}, case="single"
        )
    running = [tnorm(FrankParameter.lukasiewicz(), xs[:h]) for h in range(1, m + 1)]
    if running[m - 1] > 0:
        entries = {full: running[m - 1]}
        for r in range(1, m + 1):
            entries[full - {r}] = 1 - xs[r - 1]
        return LambdaVector(m, entries, case="c")
    if xs[0] == 0:
        entries = {s: w for s, w in _tail_products(range(1, m + 1), xs)}
        return LambdaVector(m, entries, case="d")
    h_star = max(h for h in range(1, m + 1) if running[h - 1] > 0)
    prefix = frozenset(range(1, h_star + 1))
    pivot = h_star + 1
    tail = range(h_star + 2, m + 1)
    blocks = _tail_products(tail, xs)
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


def lambda_solution_TM(xs) -> LambdaVector:
    """Mass vector realizing the upper envelope value for the conjunction.

    Works on the ascending rearrangement; the permutation used (original
    1-based member index per sorted slot) is recorded on the result.
    """
    xs = _unit_fractions(xs)
    n = len(xs)
    if n == 0:
        raise OutOfRange("need at least one member")
    order = sorted(range(n), key=lambda i: (xs[i], i))
    permutation = tuple(i + 1 for i in order)
    entries = {}
    previous = ZERO
    for r in range(n):
        value = xs[order[r]]
        entries[frozenset(permutation[r:])] = value - previous
        previous = value
    entries[frozenset()] = 1 - previous
    return LambdaVector(n, entries, case="sorted-steps", permutation=permutation)


class Family7Assessment(Record):
    """Previsions on three conditionals, their three pairings, and the triple."""

    _compared = _shown = ("x_1", "x_2", "x_3", "x_12", "x_13", "x_23", "x_123")

    def __init__(self, x_1, x_2, x_3, x_12, x_13, x_23, x_123):
        xs = _unit_fractions((x_1, x_2, x_3, x_12, x_13, x_23, x_123))
        vars(self).update(zip(self._compared, xs))

    @classmethod
    def _all_tnorm(cls, parameter, x_1, x_2, x_3) -> "Family7Assessment":
        xs = _unit_fractions((x_1, x_2, x_3))
        pairs = [tnorm(parameter, (xs[i], xs[j])) for i, j in ((0, 1), (0, 2), (1, 2))]
        return cls(*xs, *pairs, tnorm(parameter, xs))

    @classmethod
    def all_min(cls, x_1, x_2, x_3) -> "Family7Assessment":
        return cls._all_tnorm(FrankParameter.min(), x_1, x_2, x_3)

    @classmethod
    def all_product(cls, x_1, x_2, x_3) -> "Family7Assessment":
        return cls._all_tnorm(FrankParameter.product(), x_1, x_2, x_3)

    @classmethod
    def all_lukasiewicz(cls, x_1, x_2, x_3) -> "Family7Assessment":
        return cls._all_tnorm(FrankParameter.lukasiewicz(), x_1, x_2, x_3)

    def values(self) -> tuple:
        return (self.x_1, self.x_2, self.x_3,
                self.x_12, self.x_13, self.x_23, self.x_123)


def family7_bounds(x_1, x_2, x_3, x_12, x_13, x_23) -> tuple[Fraction, Fraction]:
    """Admissible range for the triple value given the six others.

    The range is the coherent extension interval of the six values; it comes
    back empty, lower > upper, exactly when the six are incoherent.
    """
    x_1, x_2, x_3, x_12, x_13, x_23 = _unit_fractions(
        (x_1, x_2, x_3, x_12, x_13, x_23)
    )
    lower = max(ZERO, x_12 + x_13 - x_1, x_12 + x_23 - x_2, x_13 + x_23 - x_3)
    upper = min(x_12, x_13, x_23, 1 - x_1 - x_2 - x_3 + x_12 + x_13 + x_23)
    return lower, upper


class Family7Verdict(Record):
    _compared = _shown = ("coherent", "lower", "upper", "failure")

    def __init__(self, coherent: bool, lower: Fraction, upper: Fraction, failure=None):
        vars(self).update(coherent=coherent, lower=lower, upper=upper, failure=failure)


def check_family7(assessment: Family7Assessment) -> Family7Verdict:
    """Coherence of the seven values via the two reduced inequalities.

    The pair of bounds on the triple value implies every other constraint of
    the full system, so nothing else needs checking; tests retain the full
    system as a redundancy check.
    """
    lower, upper = family7_bounds(
        assessment.x_1, assessment.x_2, assessment.x_3,
        assessment.x_12, assessment.x_13, assessment.x_23,
    )
    if lower > upper:
        failure = f"pairwise values admit no triple value: bounds [{lower}, {upper}]"
    elif assessment.x_123 < lower:
        failure = f"triple value {assessment.x_123} below lower bound {lower}"
    elif assessment.x_123 > upper:
        failure = f"triple value {assessment.x_123} above upper bound {upper}"
    else:
        failure = None
    return Family7Verdict(failure is None, lower, upper, failure)


def special_case_same_consequent(
    x, y, disjoint_antecedents: bool = False
) -> tuple[Fraction, Fraction]:
    """Conjunction interval for two conditionals sharing their consequent.

    With freely overlapping antecedents the interval is [xy, min(x,y)];
    antecedents that cannot happen together pin it to the product.
    """
    xs = _unit_fractions((x, y))
    product = tnorm(FrankParameter.product(), xs)
    if disjoint_antecedents:
        return product, product
    return product, tnorm(FrankParameter.min(), xs)


class SufficiencyVerdict(Enum):
    COHERENT = "coherent"
    INCOHERENT = "incoherent"
    UNDETERMINED = "undetermined"


def lukasiewicz_sufficient(x_1, x_2, x_3) -> SufficiencyVerdict:
    """Quick verdict for the all-lower-envelope assessment on three members.

    Sum at least 2 is sufficient for coherence; all pairwise sums above 1
    with the total below 2 is sufficient for incoherence; anything else is
    left undetermined for the full check.
    """
    x_1, x_2, x_3 = _unit_fractions((x_1, x_2, x_3))
    total = x_1 + x_2 + x_3
    if total - 2 >= 0:
        return SufficiencyVerdict.COHERENT
    if x_1 + x_2 > 1 and x_1 + x_3 > 1 and x_2 + x_3 > 1:
        return SufficiencyVerdict.INCOHERENT
    return SufficiencyVerdict.UNDETERMINED
