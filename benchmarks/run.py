"""Benchmark for `prevision`: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 benchmarks/run.py --workload grid7 --seed 1 --seconds 20 --trace 0

Workloads: grid7, conj-scale, extend, cli (see benchmarks/README.md).  Each
run is one process, one thread, closed loop: the next operation starts when
the previous one returned.  Every answer is checked out of band, untimed.
Human-readable lines come first; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 times whole rounds of operations for --seconds and reports the
end-to-end metrics.  --trace 1 runs a fixed number of rounds per workload
with layer wrappers installed, repeats each completed operation untraced
right after, and reports per-layer totals plus the difference as tracing
overhead; for a fixed seed its counts repeat exactly.  In both modes a
workload's known-defect cases run once more, untimed and untraced, after
the rounds.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction

from tracing import Tracer, merge, patched

SETUP_SAMPLES = 9
SETUP_SLICES = 40  # calibration slices run in each setup child
TAIL_BEYOND = 10
# A timed run goes on past --seconds until TAIL_BEYOND samples lie beyond
# the tail percentile, but stops at OVERTIME times --seconds.
OVERTIME = 3
# A calibration slice runs every CALIBRATION_PERIOD seconds while operations
# run, and an operation is scaled by the slices within CALIBRATION_WINDOW
# seconds of it.
CALIBRATION_PERIOD = 0.05
CALIBRATION_WINDOW = 1.0
# Mean slice time on the machine the README baseline was recorded on; times
# are reported at that machine speed.
REFERENCE_SLICE_MS = 0.40


def calibration_slice():
    """A fixed piece of pure-Fraction arithmetic.  It shares no code with the
    program, so its time moves only when the machine's speed does."""
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(k, k + 7) * Fraction(3, k + 1)
    return total


class Calibration:
    """Calibration slices sampled while operations run.

    On a shared machine the same operations ran up to 2x slower minutes
    apart, and the slices slowed down with them.  A SIGALRM timer runs a
    slice every CALIBRATION_PERIOD seconds, also in the middle of a long
    operation.  An operation's own time excludes the slices run inside it,
    and is divided by the slow-down of the slices within CALIBRATION_WINDOW
    of it, which compares operations timed at different moments.
    """

    def __init__(self):
        self.ends = []  # end time of each slice
        self.cumulative = []  # slice time spent up to and including each

    def slice(self, *_signal_args):
        # A collection of the program's heap must not land in a slice.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        calibration_slice()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(end)
        self.cumulative.append((self.cumulative[-1] if self.cumulative else 0.0) + end - start)

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.slice)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD, CALIBRATION_PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def _range(self, start, end):
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        spent = (self.cumulative[hi - 1] if hi else 0.0) - (self.cumulative[lo - 1] if lo else 0.0)
        return hi - lo, spent

    def own(self, start, end):
        """Seconds in [start, end] not spent in slices."""
        return end - start - self._range(start, end)[1]

    @property
    def slice_ms(self):
        return 1000 * self.cumulative[-1] / len(self.ends) if self.ends else REFERENCE_SLICE_MS

    @property
    def scale(self):
        """Factor from measured time to time at the reference speed."""
        return REFERENCE_SLICE_MS / self.slice_ms

    def scale_at(self, start, end):
        """The same factor, from the slices near the interval [start, end]."""
        count, spent = self._range(start - CALIBRATION_WINDOW, end + CALIBRATION_WINDOW)
        return REFERENCE_SLICE_MS / (1000 * spent / count) if count else self.scale


def _rank(n, percentile):
    return max(1, math.ceil(percentile * n / 100))


def tail_has_samples(n, percentile):
    """Whether n samples leave TAIL_BEYOND beyond the nearest-rank percentile."""
    return n - _rank(n, percentile) >= TAIL_BEYOND


def tail(latencies, percentile):
    """The nearest-rank `percentile` of `latencies`."""
    if not tail_has_samples(len(latencies), percentile):
        raise ValueError(
            f"{len(latencies)} samples leave fewer than {TAIL_BEYOND} beyond p{percentile}"
        )
    return sorted(latencies)[_rank(len(latencies), percentile) - 1]


class Result:
    def __init__(self):
        self.latencies = []  # own time of each completed operation
        self.starts = []
        self.timed = []  # (start, own time) of every timed operation, failed ones too
        self.untraced = []  # own time of each untraced repeat
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # answers that failed their check
        self.raised = 0  # operations that raised, known defects aside
        self.exact = 0
        self.notes = {}

    @property
    def correct(self):
        """Every answer passed its check and nothing raised but a known defect."""
        return self.wrong == 0 and self.raised == 0

    def note(self, text):
        self.notes[text] = self.notes.get(text, 0) + 1

    def checked(self, workload, case, answer):
        """The untimed out-of-band check; a wrong answer is counted here."""
        try:
            ok = workload.check(case, answer)
        except Exception as exc:  # the check itself broke: a wrong answer
            ok = False
            self.note(f"check raised {type(exc).__name__}: {exc}")
        if not ok:
            self.failed += 1
            self.wrong += 1
            self.note(f"wrong answer on {workload.name} case {case!r:.200}")
        return ok


def measure(workload, rounds, tracer, calibration, seconds=None, max_rounds=None,
            repeat_untraced=False):
    """Run whole rounds until the next round would end past `seconds` and
    the tail has its samples, or for `max_rounds` rounds, with `calibration`
    sampling.  Only `workload.run` is timed.  With `repeat_untraced`, each
    completed operation runs once more right after with the tracer off, so
    that the tracing overhead is measured free of drift."""
    result = Result()
    start = time.perf_counter()
    done = 0
    with calibration.sampling():
        while max_rounds is None or done < max_rounds:
            round_start = time.perf_counter()
            tracer.enabled, traced = False, tracer.enabled
            cases = next(rounds)
            tracer.enabled = traced
            for case in cases:
                result.attempted += 1
                tracer.op = result.attempted
                t0 = time.perf_counter()
                try:
                    with tracer.span("op"):
                        answer = workload.run(case, tracer)
                except Exception as exc:  # a failed operation is counted, not fatal
                    result.timed.append((t0, calibration.own(t0, time.perf_counter())))
                    result.failed += 1
                    result.raised += 1
                    result.note(f"{type(exc).__name__}: {exc}")
                    continue
                elapsed = calibration.own(t0, time.perf_counter())
                result.timed.append((t0, elapsed))
                tracer.enabled = False
                ok = result.checked(workload, case, answer)
                if ok and repeat_untraced:
                    again = time.perf_counter()
                    workload.run(case, tracer)
                    result.untraced.append(calibration.own(again, time.perf_counter()))
                tracer.enabled = traced
                if not ok:
                    continue
                result.latencies.append(elapsed)
                result.starts.append(t0)
                result.exact += bool(workload.exact(answer))
            done += 1
            if seconds is None:
                continue
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds and (
                tail_has_samples(len(result.latencies), workload.tail_percentile)
                or now - start > OVERTIME * seconds
            ):
                break
    return result


def probe_known_defects(workload, result, tracer):
    """Run each of the workload's known-defect cases once, untimed and
    untraced, so that their cost does not enter the timed mix whether or not
    the defect is fixed.  The defect's RuntimeError counts in `failed` and
    keeps the run correct; any other exception or a wrong answer does not."""
    lines = []
    tracer.enabled, traced = False, tracer.enabled
    for case in getattr(workload, "known_defects", list)():
        result.attempted += 1
        start = time.perf_counter()
        try:
            answer = workload.run(case, tracer)
        except RuntimeError as exc:
            result.failed += 1
            outcome = f"raised {type(exc).__name__}: {exc}"
        except Exception as exc:
            result.failed += 1
            result.raised += 1
            outcome = f"raised {type(exc).__name__}, not the known RuntimeError: {exc}"
        else:
            ok = result.checked(workload, case, answer)
            outcome = "answer passed its check" if ok else "wrong answer"
        lines.append(
            f"known-defect case {case[0]} (untimed, {time.perf_counter() - start:.1f} s): {outcome}"
        )
    tracer.enabled = traced
    return lines


def setup_seconds(name):
    """Median over fresh interpreters of import plus the workload's shared
    world spaces and events, timed inside each child and scaled by the
    child's own calibration slices."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(name, args, workload):
    tracer = Tracer()
    tracer.enabled = False
    workload.setup()
    cal = Calibration()
    rounds = workload.rounds(random.Random(args.seed))
    result = measure(workload, rounds, tracer, cal, seconds=args.seconds)
    if not result.latencies:
        raise SystemExit("no operation completed")
    # Before the known-defect cases and before the setup children: for cli
    # the children's peak must cover the CLI processes only.
    peak_mb = peak_rss_mb(name)
    lines = probe_known_defects(workload, result, tracer)
    setup_s = setup_seconds(name)

    def scaled(start, t):
        return t * cal.scale_at(start, start + t)

    latencies = [scaled(start, t) for start, t in zip(result.starts, result.latencies)]
    completed = len(latencies)
    percentile = workload.tail_percentile
    lines += [
        f"op_ms.tail is p{percentile} over {completed} completed operations",
        f"failed {result.failed} of {result.attempted}"
        f" (failed_ratio {result.failed / result.attempted:.6f})",
        f"calibration slice {cal.slice_ms:.4f} ms against {REFERENCE_SLICE_MS} ms:"
        f" measured times scaled by {cal.scale:.4f} on average",
        f"unscaled: ops_per_s {completed / sum(t for _, t in result.timed):.4f},"
        f" op_ms.p50 {statistics.median(result.latencies) * 1000:.4f},"
        f" op_ms.tail {tail(result.latencies, percentile) * 1000:.4f}",
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        # The time of operations that raised or answered wrong stays in.
        "ops_per_s": (completed / sum(scaled(start, t) for start, t in result.timed), "1/s"),
        "op_ms.p50": (statistics.median(latencies) * 1000, "ms"),
        "op_ms.tail": (tail(latencies, percentile) * 1000, "ms"),
        "exact_ratio": (result.exact / completed, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return result, metrics, lines


def per_layer(name, args, workload):
    tracer = Tracer()
    cal = Calibration()
    with patched(tracer):
        workload.setup()
        traced = measure(
            workload, workload.rounds(random.Random(args.seed)), tracer, cal,
            max_rounds=workload.trace_size, repeat_untraced=True,
        )
    if not traced.latencies:
        raise SystemExit("no operation completed")
    lines = probe_known_defects(workload, traced, tracer)
    summary = tracer.summary()
    if hasattr(workload, "child_summary"):
        merge(summary, workload.child_summary)
    layers, counters, maxima = summary["layers"], summary["counters"], summary["maxima"]

    def calls(layer):
        return layers.get(layer, (0, 0.0, 0.0))[0]

    def self_s(layer):
        return layers.get(layer, (0, 0.0, 0.0))[2] * cal.scale

    def ratio(a, b):
        return a / b if b else 0.0

    ops = len(traced.latencies)
    traced_s = sum(traced.latencies)
    untraced = sum(traced.untraced)
    levels = counters.get("coherence.levels", 0)
    metrics = {
        "events.build_world_space.s": (self_s("events.build_world_space"), "s"),
        "events.worlds": (counters.get("events.worlds", 0), "count"),
        "geometry.build.s": (self_s("geometry.build"), "s"),
        "geometry.partition.calls": (calls("geometry.partition"), "count"),
        "geometry.partition.s": (self_s("geometry.partition"), "s"),
        "geometry.partition.per_level": (ratio(calls("geometry.partition"), levels), "ratio"),
        "geometry.build_sigma.calls": (calls("geometry.build_sigma"), "count"),
        "geometry.build_sigma.s": (self_s("geometry.build_sigma"), "s"),
        "geometry.unknowns.max": (maxima.get("geometry.unknowns.max", 0), "count"),
        "geometry.unknowns.mean": (
            ratio(counters.get("geometry.unknowns.sum", 0), calls("geometry.build_sigma")), "count"),
        "lp.feasibility.calls": (calls("lp.feasibility"), "count"),
        "lp.feasibility.s": (self_s("lp.feasibility"), "s"),
        "lp.feasibility.infeasible_ratio": (
            ratio(counters.get("lp.feasibility.infeasible", 0), calls("lp.feasibility")), "ratio"),
        "lp.maximize.calls": (calls("lp.maximize"), "count"),
        "lp.maximize.s": (self_s("lp.maximize"), "s"),
        "lp.entry_bits.max": (maxima.get("lp.entry_bits.max", 0), "bits"),
        "coherence.check.calls": (calls("coherence.check"), "count"),
        "coherence.check.self_s": (self_s("coherence.check"), "s"),
        "coherence.levels.mean": (ratio(levels, calls("coherence.check")), "count"),
        "coherence.book_verify.s": (self_s("coherence.book_verify"), "s"),
        "coherence.extension.s": (self_s("coherence.extension"), "s"),
        "coherence.extension.probes": (
            ratio(counters.get("coherence.extension.probes", 0), calls("coherence.extension")),
            "count"),
        "closed_form.calls": (calls("closed_form"), "count"),
        "closed_form.s": (self_s("closed_form"), "s"),
        "frank.calls": (calls("frank"), "count"),
        "frank.s": (self_s("frank"), "s"),
        "cli.import_s": (counters.get("cli.import_s", 0.0) * cal.scale, "s"),
        "cli.parse.s": (self_s("cli.parse"), "s"),
        "cli.main.s": (self_s("cli.main"), "s"),
        "trace.ops": (ops, "count"),
        "trace.overhead_ms": (ratio(traced_s - untraced, ops) * 1000 * cal.scale, "ms"),
        "trace.overhead_pct": (ratio(traced_s - untraced, untraced) * 100, "%"),
        "calib.slice_ms": (cal.slice_ms, "ms"),
        "calib.scale": (cal.scale, "ratio"),
        # Unscaled figures of the untraced repeats, to set beside the scaled
        # end-to-end ones.
        "raw.ops_per_s": (ratio(ops, untraced), "1/s"),
        "raw.op_ms.p50": (statistics.median(traced.untraced) * 1000, "ms"),
    }
    lines += [
        f"traced {ops} completed operations: {traced_s:.3f} s traced, {untraced:.3f} s untraced",
        f"calibration slice {cal.slice_ms:.4f} ms against {REFERENCE_SLICE_MS} ms:"
        f" measured times scaled by {cal.scale:.4f}",
    ]
    return traced, metrics, lines


def setup_probe(name):
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name]().setup()
    elapsed = time.perf_counter() - start
    cal = Calibration()
    for _ in range(SETUP_SLICES):
        cal.slice()
    print(elapsed * cal.scale)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid7", "conj-scale", "extend", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "prevision", "__init__.py")):
        print("error: src/prevision not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.setup_probe:
        return setup_probe(args.workload)

    import workloads

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=os.getcwd()) as workdir:
        cls = workloads.WORKLOADS[args.workload]
        workload = cls(workdir) if cls is workloads.Cli else cls()
        run = per_layer if args.trace else end_to_end
        result, metrics, lines = run(args.workload, args, workload)
    for text, count in sorted(result.notes.items()):
        lines.append(f"failure x{count}: {text}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{args.workload} {name} = {value:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
