"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest benchmarks -q
"""

import json
import os
import random
import sys
from argparse import Namespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, patched  # noqa: E402


with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


class TinyGrid7(workloads.Grid7):
    STRIDE = 300


class TinyConjScale(workloads.ConjScale):
    FAMILIES = {3: 1, 4: 2}


class TinyExtend(workloads.Extend):
    POOL_SIZE = 3
    CLOSED_FORM_PER_ROUND = 1

    def known_defects(self):  # the pinned case alone takes seconds; the full run keeps it
        return [self._random_case(random.Random(0))]


@pytest.mark.parametrize(
    "workload",
    [TinyGrid7(), TinyConjScale(), TinyExtend(), None],
    ids=["grid7", "conj-scale", "extend", "cli"],
)
def test_each_workload_runs_at_a_tiny_size(workload, tmp_path, monkeypatch):
    if workload is None:
        workload = workloads.Cli(str(tmp_path))
    # A tiny round has too few samples to keep any beyond the tail.
    monkeypatch.setattr(run, "TAIL_BEYOND", 0)
    args = Namespace(seed=3, seconds=0.0)
    result, metrics, _ = run.end_to_end(workload.name, args, workload)
    assert result.attempted >= 1
    assert result.failed == 0 and result.correct
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_run_reports_every_declared_layer_metric():
    args = Namespace(seed=3, seconds=0.0)
    result, metrics, _ = run.per_layer("grid7", args, TinyGrid7())
    assert result.attempted == 9
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("per_layer")
    assert metrics["coherence.check.calls"][0] == 9


def test_wrong_oracle_answer_is_counted_as_failed(monkeypatch):
    workload = TinyGrid7()
    workload.setup()
    real = workloads.P.check_family7

    def lying_oracle(assessment):
        verdict = real(assessment)
        return verdict.__class__(not verdict.coherent, verdict.lower, verdict.upper)

    monkeypatch.setattr(workloads.P, "check_family7", lying_oracle)
    tracer = Tracer()
    tracer.enabled = False
    result = run.measure(
        workload, workload.rounds(random.Random(1)), tracer, run.Calibration(), max_rounds=1
    )
    assert result.attempted == 9
    assert result.failed == 9 and result.wrong == 9
    assert result.latencies == [] and not result.correct


def timed_round(workload):
    workload.setup()
    tracer = Tracer()
    tracer.enabled = False
    result = run.measure(
        workload, workload.rounds(random.Random(1)), tracer, run.Calibration(), max_rounds=1
    )
    return result, tracer


def test_a_raising_operation_makes_the_run_incorrect(monkeypatch):
    def broken(assessment):
        raise RuntimeError("betting certificate failed")

    monkeypatch.setattr(workloads.P, "check_coherence", broken)
    result, _ = timed_round(TinyGrid7())
    assert result.failed == result.raised == 9 and result.wrong == 0
    assert not result.correct
    # the raising operations' time stays in the ops_per_s denominator
    assert len(result.timed) == 9


def test_known_defect_is_counted_apart_from_the_timed_mix(monkeypatch):
    workload = TinyExtend()
    result, tracer = timed_round(workload)
    assert result.correct and result.failed == 0
    attempted = result.attempted

    def defect(base, target):
        raise RuntimeError("no interval")

    monkeypatch.setattr(workloads.P, "extension_interval", defect)
    lines = run.probe_known_defects(workload, result, tracer)
    assert result.attempted == attempted + 1 and result.failed == 1
    assert result.correct
    assert len(lines) == 1 and "RuntimeError: no interval" in lines[0]
    assert len(result.timed) == attempted

    def other(base, target):
        raise ValueError("bad base")

    monkeypatch.setattr(workloads.P, "extension_interval", other)
    run.probe_known_defects(workload, result, tracer)
    assert result.failed == 2 and not result.correct


def test_span_self_time_is_duration_minus_child_coverage():
    ticks = iter([0.0, 2.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    totals = tracer.layer_totals()
    assert totals["outer"] == [1, 10.0, 10.0 - (3.0 + 1.0)]
    assert totals["inner"] == [2, 4.0, 4.0]
    assert [s[2] for s in tracer.spans] == [None, 0, 0]


def test_traced_counts_repeat_for_a_fixed_seed():
    def counts():
        workload = TinyGrid7()
        tracer = Tracer()
        with patched(tracer):
            workload.setup()
            run.measure(
                workload, workload.rounds(random.Random(7)), tracer, run.Calibration(), max_rounds=2
            )
        summary = tracer.summary()
        return (
            {name: calls for name, (calls, _, _) in summary["layers"].items()},
            summary["counters"],
            summary["maxima"],
        )

    first = counts()
    assert first == counts()
    assert first[0]["coherence.check"] == 18
    assert first[0]["lp.feasibility"] >= 18


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(1, 1001)), 95) == 950
    assert run.tail(list(range(100, 0, -1)), 75) == 75
    assert run.tail(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        run.tail(list(range(1, 101)), 95)
    assert not run.tail_has_samples(99, 90) and run.tail_has_samples(100, 90)


def test_runs_nowhere_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "grid7", "--seed", "1", "--seconds", "1"]) == 2
