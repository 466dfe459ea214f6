"""The four benchmark workloads: inputs from a seed, the timed operation, and
an untimed out-of-band check of every answer.

Each workload yields rounds of cases.  A round holds the mix the metrics
depend on (half the grid for grid7, every family size for conj-scale), so a
run measures whole rounds only.  `tail_percentile` is fixed per
workload, so that runs with different sample counts report the same
percentile; a 20 s run leaves ten samples beyond it.  `trace_size` is the
number of rounds in a traced run.  `known_defects`, where a workload has it,
lists cases the program is known to fail; they run once, untimed, outside
the rounds.  Operations go through the public API of `prevision`, looked up
at call time so that the traced run sees them.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import prevision as P
from tracing import merge

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

STEP = F(1, 10**6)  # one step outside a returned extension interval


def _book_ok(assessment, book) -> bool:
    gains = P.dutch_book_gains(assessment, book)
    return bool(gains) and all(g > 0 for _, g in gains)


def _verdict_ok(assessment, verdict, expected_coherent) -> bool:
    if verdict.coherent != expected_coherent:
        return False
    return verdict.coherent or _book_ok(assessment, verdict.dutch_book)


def _independent_events(n):
    """E_i|H_i, i = 1..n, over 2n unconstrained atoms: 4^n worlds."""
    atoms = [f"E{i}" for i in range(1, n + 1)] + [f"H{i}" for i in range(1, n + 1)]
    space = P.build_world_space(atoms)
    return [P.ConditionalEvent(space.event(f"E{i}"), space.event(f"H{i}")) for i in range(1, n + 1)]


def _product_conjunction(events, xs):
    """Indicators plus their full conjunction with product sub-previsions."""
    n = len(events)
    previsions = {}
    for r in range(1, n):
        for subset in itertools.combinations(range(1, n + 1), r):
            value = F(1)
            for i in subset:
                value *= xs[i - 1]
            previsions[subset] = value
    members = tuple(P.indicator(e, f"X{i}") for i, e in enumerate(events, 1))
    return members, P.make_conjunction(events, previsions, f"and({n})")


# --- grid7 -----------------------------------------------------------------


def quarter_grid():
    """The criterion-5 grid: (x1, x2, x3, x12, x13, x23, x123) on quarters with
    each pair value at most its members' minimum and the triple at most the
    pairs' minimum; 2,603 assessments."""
    grid = [F(k, 4) for k in range(5)]
    out = []
    for xs in itertools.product(grid, repeat=3):
        caps = [min(xs[i], xs[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
        for pairs in itertools.product(*([g for g in grid if g <= c] for c in caps)):
            for x123 in (g for g in grid if g <= min(pairs)):
                out.append(xs + pairs + (x123,))
    return out


def family7_members(events, values, x123=None):
    """Three indicators, their three pair conjunctions and the triple, for
    the six previsions (x1, x2, x3, x12, x13, x23); x123, when given, is the
    triple's built-in prevision."""
    x1, x2, x3, x12, x13, x23 = values
    singles = {1: x1, 2: x2, 3: x3}
    pairs = {(1, 2): x12, (1, 3): x13, (2, 3): x23}
    compounds = [
        P.make_conjunction(
            [events[i - 1], events[j - 1]],
            {(1,): singles[i], (2,): singles[j], (1, 2): xij},
            f"C{i}{j}",
        )
        for (i, j), xij in pairs.items()
    ]
    triple_prev = {(1,): x1, (2,): x2, (3,): x3, **pairs}
    if x123 is not None:
        triple_prev[(1, 2, 3)] = x123
    triple = P.make_conjunction(events, triple_prev, "C123")
    family = tuple(P.indicator(e, f"X{i}") for i, e in enumerate(events, 1))
    return family + tuple(compounds) + (triple,)


class Grid7:
    """Seven-member assessments of half the quarter grid in seeded order;
    mostly incoherent, so mostly LP phase 1 ending infeasible plus the book
    check."""

    name = "grid7"
    trace_size = 1
    tail_percentile = 95
    STRIDE = 2

    def setup(self):
        self.events = _independent_events(3)

    def rounds(self, rng):
        # A run of 20 s covers about 1,500 assessments.  As a prefix of a
        # shuffled grid their mix moved the tail by 20% between seeds, so a
        # round is every STRIDE-th assessment, which a run covers whole.
        cases = quarter_grid()[::self.STRIDE]
        while True:
            rng.shuffle(cases)
            yield list(cases)

    def run(self, values, tracer):
        with tracer.span("geometry.build"):
            assessment = P.Assessment(family7_members(self.events, values[:6], values[6]), values)
        return assessment, P.check_coherence(assessment)

    def check(self, values, answer):
        assessment, verdict = answer
        oracle = P.check_family7(P.Family7Assessment(*values)).coherent
        return _verdict_ok(assessment, verdict, oracle)

    def exact(self, answer):
        return True


# --- conj-scale --------------------------------------------------------------


class ConjScale:
    """n-member conjunction families, n = 3..7, probed at and just outside
    their Frechet bounds: wide LPs (3^n - 1 unknowns, n + 2 rows) over 4^n
    worlds."""

    name = "conj-scale"
    trace_size = 1
    tail_percentile = 75
    # Families per size.  These counts put p50 amid the n = 4 verdicts and
    # p75 amid the n = 5 ones, away from the jumps between sizes.
    FAMILIES = {3: 3, 4: 6, 5: 4, 6: 2, 7: 1}
    # Family f of size n takes the first n of these rotated by f; the seed
    # orders the verdicts of a round.  Over random fifths the work of one
    # family varied 2.4x at n = 6, and over orderings of one set 8%, which
    # would swamp the change being measured.
    VALUES = tuple(F(k, 5) for k in (1, 2, 3, 4, 1, 2, 3))
    OFFSET = F(1, 1000)

    def setup(self):
        self.events = {}
        for n in self.FAMILIES:
            self.events[n] = _independent_events(n)

    def rounds(self, rng):
        cases = []
        for n, families in self.FAMILIES.items():
            for f in range(families):
                xs = (self.VALUES[f:] + self.VALUES[:f])[:n]
                lo, hi = P.frechet_bounds_conjunction(xs)
                for z in (lo, hi, lo - self.OFFSET, hi + self.OFFSET):
                    cases.append((n, xs, z, lo <= z <= hi))
        while True:
            rng.shuffle(cases)
            yield list(cases)

    def run(self, case, tracer):
        n, xs, z, _ = case
        with tracer.span("geometry.build"):
            members, conj = _product_conjunction(self.events[n], xs)
            assessment = P.Assessment(members + (conj,), xs + (z,))
        return assessment, P.check_coherence(assessment)

    def check(self, case, answer):
        assessment, verdict = answer
        return _verdict_ok(assessment, verdict, case[3])

    def exact(self, answer):
        return True


# --- extend ------------------------------------------------------------------

_LITERALS = ("A", "B", "C", "!A", "!B", "!C")
_EVENT_POOL = _LITERALS + tuple(
    f"{a} & {b}"
    for a, b in itertools.combinations(_LITERALS, 2)
    if a.lstrip("!") != b.lstrip("!")
)


class Extend:
    """extension_interval with default settings.  Each round mixes cases for
    each closed-form dispatch with random generic cases on coherent 1-3
    member bases over {A, B, C}; the pinned problem is a known defect, run
    apart from the rounds."""

    name = "extend"
    trace_size = 1
    tail_percentile = 95
    # The generic cases are one fixed pool, drawn with the seed of the
    # ROADMAP's fifth-valued sweep; --seed orders it and draws the closed-form
    # cases.  About 1% of generic intervals take the bisection path at 50-100x
    # the median cost, so seeded pools of this size moved ops_per_s by ~25%.
    POOL_SEED = 5
    POOL_SIZE = 200
    CLOSED_FORM_PER_ROUND = 10

    def setup(self):
        self.abc = P.build_world_space(["A", "B", "C"])
        self.events6 = _independent_events(3)
        self.ahk = {
            disjoint: P.build_world_space(["A", "H", "K"], ["!(H & K)"] if disjoint else [])
            for disjoint in (False, True)
        }

    def _ce(self, consequent, antecedent):
        return P.ConditionalEvent(self.abc.event(consequent), self.abc.event(antecedent))

    def known_defects(self):
        """X = B|!A = 3/5, Y = !B|(A & !C) = 3/5, target B|(A & !C): the only
        coherent value is 2/5, and extension_interval raises after about
        12 s.  Timed, a fix that kept that cost would read as a slow-down."""
        x = P.indicator(self._ce("B", "!A"), "X")
        y = P.indicator(self._ce("!B", "A & !C"), "Y")
        target = P.indicator(self._ce("B", "A & !C"), "T")
        return [("pinned", P.Assessment((x, y), (F(3, 5), F(3, 5))), target, None)]

    def _random_case(self, rng):
        while True:
            size = rng.randint(1, 3)
            members = tuple(
                P.indicator(self._ce(rng.choice(_EVENT_POOL), rng.choice(_EVENT_POOL)), f"X{i}")
                for i in range(1, size + 1)
            )
            values = tuple(F(rng.randint(0, 5), 5) for _ in range(size))
            target = P.indicator(self._ce(rng.choice(_EVENT_POOL), rng.choice(_EVENT_POOL)), "T")
            base = P.Assessment(members, values)
            # only coherent bases have an interval to compute
            if P.check_coherence(base).coherent:
                return ("random", base, target, None)

    def _compound_case(self, rng):
        n = rng.randint(2, 3)
        xs = tuple(F(rng.randint(0, 5), 5) for _ in range(n))
        members, conj = _product_conjunction(self.events6[:n], xs)
        return ("compound", P.Assessment(members, xs), conj, P.frechet_bounds_conjunction(xs))

    def _family7_case(self, rng):
        while True:
            xs = [F(rng.randint(0, 5), 5) for _ in range(3)]
            pairs = [
                F(rng.randint(int(5 * max(0, xs[i] + xs[j] - 1)), int(5 * min(xs[i], xs[j]))), 5)
                for i, j in ((0, 1), (0, 2), (1, 2))
            ]
            lo, hi = P.family7_bounds(*xs, *pairs)
            if lo <= hi:
                break
        values = tuple(xs) + tuple(pairs)
        family = family7_members(self.events6, values)
        base, target = P.Assessment(family[:6], values), family[6]
        return ("family7", base, target, (lo, hi))

    def _same_consequent_case(self, rng):
        disjoint = rng.random() < 0.5
        space = self.ahk[disjoint]
        first = P.ConditionalEvent(space.event("A"), space.event("H"))
        second = P.ConditionalEvent(space.event("A"), space.event("K"))
        x, y = F(rng.randint(0, 5), 5), F(rng.randint(0, 5), 5)
        base = P.Assessment((P.indicator(first, "X"), P.indicator(second, "Y")), (x, y))
        target = P.make_conjunction([first, second], {(1,): x, (2,): y}, "C")
        return ("same", base, target, P.special_case_same_consequent(x, y, disjoint))

    def rounds(self, rng):
        pool_rng = random.Random(self.POOL_SEED)
        pool = [self._random_case(pool_rng) for _ in range(self.POOL_SIZE)]
        while True:
            cases = list(pool)
            for _ in range(self.CLOSED_FORM_PER_ROUND):
                cases += [
                    self._compound_case(rng), self._family7_case(rng), self._same_consequent_case(rng)
                ]
            rng.shuffle(cases)
            yield cases

    def run(self, case, tracer):
        _, base, target, _ = case
        return P.extension_interval(base, target)

    def check(self, case, interval):
        kind, base, target, expected = case
        if expected is not None:
            return interval.exact and (interval.lower, interval.upper) == tuple(expected)
        if interval.lower > interval.upper:
            return False
        for inside, outside in (
            (interval.lower, interval.lower - STEP),
            (interval.upper, interval.upper + STEP),
        ):
            if not P.check_coherence(base.extend(target, inside)).coherent:
                return False
            beyond = base.extend(target, outside)
            if not _verdict_ok(beyond, P.check_coherence(beyond), False):
                return False
        return True

    def exact(self, interval):
        return interval.exact


# --- cli ---------------------------------------------------------------------

README_PROBLEM = """{
  "atoms": ["A", "H", "K"],
  "constraints": [],
  "conditionals": [
    {"name": "X", "consequent": "A", "antecedent": "H"},
    {"name": "Y", "consequent": "A", "antecedent": "K"}
  ],
  "compounds": [
    {"name": "C", "kind": "conjunction", "members": ["X", "Y"],
     "previsions": {"1": "7/20", "2": "9/20"}}
  ],
  "assessment": {"X": "0.35", "Y": "0.45"},
  "query": {"target": "C"}
}
"""


def _lines(text):
    return [line.strip() for line in text.splitlines() if line.strip()]


class Cli:
    """`python -m prevision.cli`, one process at a time, start to exit; the
    only workload that pays interpreter start-up and import."""

    name = "cli"
    trace_size = 4
    tail_percentile = 90
    COMMANDS = ("check", "extend", "table", "bounds", "tnorm", "solve-lambda")

    def __init__(self, workdir=None):
        self.workdir = workdir
        self.child_summary = {"layers": {}, "counters": {}, "maxima": {}}

    def setup(self):
        import prevision.cli as cli

        self.problem = cli.build_problem(json.loads(README_PROBLEM))
        if self.workdir is not None:
            self.problem_path = os.path.join(self.workdir, "readme_problem.json")
            with open(self.problem_path, "w", encoding="utf-8") as fh:
                fh.write(README_PROBLEM)

    def _case(self, command, rng):
        if command in ("check", "extend", "table"):
            return (command, "--problem", self.problem_path)
        values = [F(rng.randint(1, 9), 10) for _ in range(rng.randint(2, 3))]
        if command == "bounds":
            return ("bounds", rng.choice(("conjunction", "disjunction")), *map(str, values))
        if command == "tnorm":
            lam = rng.choice(("min", "product", "lukasiewicz", str(F(rng.randint(1, 40), 4))))
            return ("tnorm", "--lambda", lam, *map(str, values))
        lo, hi = P.frechet_bounds_conjunction(values)
        target = lo + (hi - lo) * F(rng.randint(0, 10), 10)
        return ("solve-lambda", *map(str, values), "--target", str(target))

    def rounds(self, rng):
        while True:
            commands = list(self.COMMANDS)
            rng.shuffle(commands)
            yield [self._case(c, rng) for c in commands]

    def run(self, args, tracer):
        """One process; with tracing on, the child records its own layers."""
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        if tracer.enabled:
            out = os.path.join(self.workdir, "child-trace.json")
            argv = [sys.executable, CHILD, out]
        else:
            argv = [sys.executable, "-m", "prevision.cli"]
        done = subprocess.run(argv + list(args), capture_output=True, text=True, env=env, timeout=120)
        if tracer.enabled:
            with open(out, encoding="utf-8") as fh:
                merge(self.child_summary, json.load(fh))
        return done.returncode, _lines(done.stdout)

    def check(self, args, answer):
        code, lines = answer
        if code != 0:
            return False
        return self._expected(args, lines)

    def _expected(self, args, lines):
        command = args[0]
        if command == "check":
            return lines[:2] == ["verdict: coherent", "level 1: members 1,2; solvable; zero-mass members: none"]
        if command == "extend":
            return lines == ["interval: [63/400, 7/20]", "exact: yes"]
        if command == "table":
            rows = P.value_table(self.problem.quantities["C"])
            return lines == [f"{c.label()}: {v if v is not None else 'free'}" for c, v in rows]
        if command == "bounds":
            fn = P.frechet_bounds_conjunction if args[1] == "conjunction" else P.frechet_bounds_disjunction
            lo, hi = fn([F(v) for v in args[2:]])
            return lines == [f"lower: {lo}", f"upper: {hi}"]
        if command == "tnorm":
            lam = args[2]
            named = {"min": P.FrankParameter.min(), "product": P.FrankParameter.product(),
                     "lukasiewicz": P.FrankParameter.lukasiewicz()}
            parameter = named.get(lam) or P.FrankParameter.from_value(float(F(lam)))
            want = P.tnorm(parameter, [F(v) for v in args[3:]])
            if len(lines) != 1 or not lines[0].startswith("value: "):
                return False
            got = lines[0][len("value: "):]
            if isinstance(want, F):
                return F(got) == want
            return abs(float(got) - want) <= 1e-9
        values = [F(v) for v in args[1:-2]]
        parameter, unique = P.solve_lambda(values, F(args[-1]))
        return (
            len(lines) == 3
            and lines[0] == f"kind: {parameter.kind.value}"
            and lines[2] == f"unique: {'yes' if unique else 'no'}"
        )

    def exact(self, answer):
        return "exact: no" not in answer[1]


WORKLOADS = {w.name: w for w in (Grid7, ConjScale, Extend, Cli)}
