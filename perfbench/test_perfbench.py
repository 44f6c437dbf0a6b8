"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import daemon  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTracer  # noqa: E402
from oneshot import OneShot  # noqa: E402
from repro.mixy.corpus_vsftpd import parallel_vsftpd  # noqa: E402
from run import END_TO_END, PER_LAYER, quartiles, tail, work_mismatch  # noqa: E402

SMALL_WIDE = 5


def _payloads(seed: int, client: int, count: int) -> list[dict]:
    plan = daemon.Inputs(seed, HERE.parent).schedule(client)
    return [request.payload for request in itertools.islice(plan, count)]


def test_generators_are_deterministic_per_seed():
    assert workloads.staircase(7) == workloads.staircase(7)
    assert workloads.wide(7).source == workloads.wide(7).source
    assert _payloads(7, 1, 60) == _payloads(7, 1, 60)
    assert workloads.staircase(7) != workloads.staircase(8)
    assert workloads.wide(7).subsets != workloads.wide(8).subsets
    assert _payloads(7, 0, 60) != _payloads(7, 1, 60)


@pytest.mark.parametrize("depth", [2, 3])
def test_staircase_seed_zero_is_the_e16_corpus(depth):
    assert workloads.staircase(0, depth) == parallel_vsftpd(depth)


def test_staircase_seeds_keep_the_guards():
    guards = lambda source: sorted(  # noqa: E731
        line.strip() for line in source.splitlines() if line.strip().startswith("if (")
    )
    assert guards(workloads.staircase(3)) == guards(workloads.staircase(0))


def test_daemon_schedule_mix_is_fixed_per_block():
    plan = daemon.Inputs(4, HERE.parent).schedule(0)
    kinds = [request.kind for request in itertools.islice(plan, 3 * len(daemon.BLOCK))]
    for start in range(0, len(kinds), len(daemon.BLOCK)):
        assert sorted(kinds[start:start + len(daemon.BLOCK)]) == sorted(daemon.BLOCK)


def test_daemon_edits_never_repeat_a_source():
    plan = daemon.Inputs(4, HERE.parent).schedule(1)
    edits = [r.payload["source"] for r in itertools.islice(plan, 200)
             if r.kind == "edit-staircase"]
    assert len(edits) == len(set(edits)) > 10


@pytest.mark.parametrize("seed", [1, 2])
def test_wide_answers_add_up(seed):
    program = workloads.wide(seed, copies=SMALL_WIDE)
    assert program.expected_warnings == sum(
        workloads.E2PRIME_WARNINGS[s] for s in program.subsets
    )
    shot = OneShot(program.source, lambda lines: workloads.check_wide(program, lines))
    result = shot.checked_op()
    assert result.error is None
    assert len(result.lines) == program.expected_warnings + 1


def test_checker_flags_a_wrong_expected_answer():
    program = workloads.wide(1, copies=SMALL_WIDE)
    lines = OneShot(program.source, lambda lines: None).op().lines
    assert workloads.check_wide(program, lines) is None
    # Claim a warning-free subset for a copy that has warnings.
    noisy = next(c for c, s in enumerate(program.subsets) if workloads.E2PRIME_WARNINGS[s])
    wrong = list(program.subsets)
    wrong[noisy] = len(workloads.E2PRIME_WARNINGS) - 1
    assert workloads.check_wide(workloads.WideProgram(program.source, tuple(wrong)), lines)
    assert workloads.check_staircase(lines) is not None
    assert workloads.check_staircase(["1 warning(s)"]) is not None
    check = daemon._check_verdict("PROVED")
    assert check({"status": "ok", "result": {"verdict": "COUNTEREXAMPLE"}})
    assert check({"status": "error", "error": "boom"})
    assert check({"status": "ok", "result": {"verdict": "PROVED"}}) is None


def test_copy_tags_do_not_leak_across_copies():
    program = workloads.wide(3, copies=SMALL_WIDE)
    lines = OneShot(program.source, lambda lines: None).op().lines
    for line in lines[:-1]:
        assert len(workloads.copies_named(line)) == 1


def test_traced_op_matches_untraced_and_restores_originals():
    from repro.mixy import driver
    from repro.smt import intsolve, solver

    originals = (driver.parse_program, solver.check_integer, intsolve.check_rational,
                 driver.Mixy.run)
    program = workloads.wide(2, copies=SMALL_WIDE)
    shot = OneShot(program.source, lambda lines: workloads.check_wide(program, lines))
    untraced = shot.checked_op()
    tracer = LayerTracer().install()
    try:
        traced = shot.checked_op()
    finally:
        tracer.restore()
    assert (driver.parse_program, solver.check_integer, intsolve.check_rational,
            driver.Mixy.run) == originals
    assert traced.lines == untraced.lines
    assert traced.work == untraced.work
    attributed = sum(tracer.self_s.values())
    assert attributed == pytest.approx(traced.seconds, rel=0.01, abs=0.002)
    assert tracer.counts["mixy.qual.may_null_calls"] > 0
    assert tracer.counts["smt.simplex.calls"] >= tracer.counts["smt.intsolve.calls"] > 0
    assert tracer.self_s["mixy.c.parse"] > 0


def test_generator_spans_cover_consumption_not_the_call():
    class Source:
        def items(self):
            for i in range(3):
                time.sleep(0.01)
                yield i

    tracer = LayerTracer()
    tracer.timed_generator(Source, "items", "gen", "gen.items")
    try:
        items = Source().items()
        assert tracer.self_s["gen"] == 0
        assert list(items) == [0, 1, 2]
    finally:
        tracer.restore()
    assert tracer.counts["gen.items"] == 3
    assert tracer.self_s["gen"] >= 0.03
    assert not tracer._stack


def test_reported_metrics_are_the_declared_ones():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(END_TO_END) == [m["name"] for m in declared["end_to_end"]]
    assert list(PER_LAYER) == [m["name"] for m in declared["per_layer"]]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail([1.0] * 19) is None
    percentile, value = tail([float(i) for i in range(40)])
    assert value == 29.0 and percentile == 75.0
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [1.5, 3.0, 4.5]


def test_work_mismatch_within_a_run_is_an_error():
    same = [{"full_solves": 3, "queries": 7}] * 3
    assert work_mismatch(same) == set()
    drifted = [*same, {"full_solves": 4, "queries": 7}]
    (error,) = work_mismatch(drifted)
    assert "full_solves" in error and "queries" not in error


def test_host_clock_scales_by_the_references_around_an_item(monkeypatch):
    import refclock

    samples = iter([0.5, 0.25, 1.0])
    monkeypatch.setattr(refclock, "reference", lambda: next(samples))
    clock = refclock.HostClock()
    nominal = refclock.REFERENCE_S
    assert clock.scale(3.0) == pytest.approx(3.0 * nominal / 0.375)
    assert clock.scale(3.0) == pytest.approx(3.0 * nominal / 0.625)
    assert clock.samples == [0.5, 0.25, 1.0]


def test_reference_leaves_the_collector_as_it_found_it():
    import gc

    import refclock

    assert gc.isenabled()
    assert refclock.reference() > 0
    assert gc.isenabled()
