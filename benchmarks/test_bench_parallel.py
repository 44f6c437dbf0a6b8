"""E16 — the parallel engine on the staircase vsftpd corpus.

``parallel_vsftpd`` couples six solver-heavy symbolic blocks against the
MIXY fixpoint's sorted frontier order: one session global falls per
round, the calling context of every block changes every round, and the
whole frontier is re-analyzed round after round.  Naming is
block-deterministic at every ``--jobs``, so a serial run already finds
each block's unchanged queries answered by its own earlier rounds;
``--jobs N`` workers speculate each round's blocks and ship query-cache
deltas home, so what fan-out can add is solving a round's new queries
on several cores at once.

Rows reproduced: wall-clock seconds, full DPLL(T) solves, and cache hit
rates at ``--jobs 1`` vs ``--jobs 4``, at bitwise-identical warning
output.  Acceptance bar: >=1.8x wall-clock speedup.  The ~3x observed
before serial runs reused their own rounds' verdicts was that naming
gap, not multicore; EXPERIMENTS.md E16 records what remains.
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro import smt
from repro.mixy import Mixy
from repro.mixy.c import parse_program
from repro.mixy.corpus_vsftpd import PARALLEL_BLOCKS, parallel_vsftpd
from repro.mixy.driver import MixyConfig
from repro.mixy.qual import QVar

from conftest import bench_json, print_table

DEPTH = 4
JOBS = 4
SPEEDUP_BAR = 1.8


def _run(jobs: int):
    """One full analysis run in a reproducible process state: the solver
    service and the process-global qualifier-variable counter are reset
    so both modes see identical initial conditions (warning texts embed
    ``#N`` qualifier ids)."""
    smt.reset_service()
    QVar._ids = itertools.count(1)
    program = parse_program(parallel_vsftpd(depth=DEPTH))
    mixy = Mixy(program, config=MixyConfig(jobs=jobs))
    start = time.monotonic()
    warnings = mixy.run()
    elapsed = time.monotonic() - start
    stats = smt.get_service().stats
    return {
        "jobs": jobs,
        "seconds": elapsed,
        "warnings": [str(w) for w in warnings],
        "iterations": mixy.stats["fixpoint_iterations"],
        "blocks_run": mixy.stats["symbolic_blocks_run"],
        "frontier": len(PARALLEL_BLOCKS),
        "queries": stats.queries,
        "cache_hits": stats.cache_hits,
        "hit_rate": stats.hit_rate,
        "full_solves": stats.full_solves,
        "speculative_blocks": stats.speculative_blocks,
        # Worker-side full solves: work the fan-out spends on top of the
        # authoritative pass's own (merged stats count them separately).
        "worker_solves": (
            stats.speculative.full_solves if stats.speculative is not None else 0
        ),
        "speculation_failures": stats.speculation_failures,
        "imported": stats.cache_entries_imported,
        "timeouts": stats.query_timeouts,
    }


@pytest.fixture(scope="module")
def measurements():
    return {jobs: _run(jobs) for jobs in (1, JOBS)}


def test_corpus_has_enough_symbolic_blocks(measurements):
    serial = measurements[1]
    assert serial["frontier"] >= 4
    # Every frontier block is re-analyzed across the staircase's rounds.
    assert serial["iterations"] >= 4
    assert serial["blocks_run"] > serial["frontier"]


def test_warning_output_is_bitwise_identical(measurements):
    serial, parallel = measurements[1], measurements[JOBS]
    assert serial["warnings"] == parallel["warnings"]
    assert len(serial["warnings"]) == 1  # the staircase's single finding
    assert "nonnull parameter p_ptr of sysutil_free" in serial["warnings"][0]
    assert serial["iterations"] == parallel["iterations"]


def test_runs_are_deterministic_solver_work(measurements):
    # UNKNOWNs are never cached, so any timeout would poison the
    # comparison; the corpus is tuned to produce none in either mode.
    assert measurements[1]["timeouts"] == 0
    assert measurements[JOBS]["timeouts"] == 0
    assert measurements[JOBS]["speculation_failures"] == 0


def test_parallel_mode_actually_speculated(measurements):
    parallel = measurements[JOBS]
    assert parallel["speculative_blocks"] > 0
    assert parallel["imported"] > 0
    # The authoritative pass rides the warmed cache: far fewer full
    # DPLL(T) runs than the serial mode's round-after-round re-solving.
    assert parallel["full_solves"] < 0.7 * measurements[1]["full_solves"]


def test_e16_speedup_bar(measurements):
    serial, parallel = measurements[1], measurements[JOBS]
    speedup = serial["seconds"] / parallel["seconds"]
    assert speedup >= SPEEDUP_BAR, (
        f"--jobs {JOBS} gave {speedup:.2f}x over --jobs 1 "
        f"({serial['seconds']:.1f}s -> {parallel['seconds']:.1f}s); "
        f"bar is {SPEEDUP_BAR}x"
    )


def test_report_parallel_table(measurements, capsys):
    serial, parallel = measurements[1], measurements[JOBS]
    speedup = serial["seconds"] / parallel["seconds"]
    rows = []
    for m in (serial, parallel):
        rows.append(
            [
                f"--jobs {m['jobs']}",
                f"{m['seconds']:.2f}",
                m["iterations"],
                m["blocks_run"],
                m["queries"],
                f"{m['hit_rate']:.0%}",
                m["full_solves"],
                m["worker_solves"],
                m["speculative_blocks"],
                m["imported"],
                len(m["warnings"]),
            ]
        )
    title = (
        f"E16: parallel engine on the staircase corpus (depth {DEPTH}, "
        f"{len(PARALLEL_BLOCKS)} symbolic blocks; speedup {speedup:.2f}x)"
    )
    headers = [
        "mode",
        "seconds",
        "rounds",
        "blocks run",
        "queries",
        "hit rate",
        "full solves",
        "worker solves",
        "speculated",
        "imported",
        "warnings",
    ]
    with capsys.disabled():
        print_table(title, headers, rows)
    bench_json(
        "E16",
        {
            "title": title,
            "headers": headers,
            "rows": rows,
            "speedup": round(speedup, 2),
            "identical_warnings": serial["warnings"] == parallel["warnings"],
        },
    )
    assert speedup >= SPEEDUP_BAR
