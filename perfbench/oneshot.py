"""One-shot workloads: each op is one cold analysis in a fresh solver
service, the way a `repro mixy` CLI run pays for it."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from layers import LayerTracer
from refclock import HostClock

import workloads

# Small programs analyzed once during set-up, so the first timed op
# does not pay for the analyzer's lazy imports.
_WARMUP_PROGRAMS = (
    "void f(int *nonnull p);\n"
    "int main(void) { int *x = NULL; f(x); return 0; }\n",
    "int g(int a) MIX(symbolic) { if (a < 1) { return 0; } return a; }\n"
    "int main(void) { return g(3); }\n",
)


@dataclass
class OpResult:
    seconds: float
    lines: list[str]
    #: Exact work counters of the op (solver service and driver).  The
    #: simplex, integer-solver and ``may_null`` call counts need wrappers,
    #: so only the traced run carries them.
    work: dict[str, int]
    error: Optional[str] = None
    #: ``seconds`` scaled to the nominal host speed (refclock).
    scaled: float = 0.0


@dataclass
class OneShot:
    """A generated program plus its known-answer check."""

    source: str
    check: Callable[[list[str]], Optional[str]]
    params: dict = field(default_factory=dict)

    @classmethod
    def for_workload(cls, name: str, seed: int) -> "OneShot":
        if name == "staircase":
            return cls(
                workloads.staircase(seed),
                workloads.check_staircase,
                {"depth": workloads.STAIRCASE_DEPTH},
            )
        program = workloads.wide(seed)
        return cls(
            program.source,
            lambda lines: workloads.check_wide(program, lines),
            {"copies": len(program.subsets), "subsets": list(program.subsets),
             "expected_warnings": program.expected_warnings},
        )

    def op(self, source: Optional[str] = None) -> OpResult:
        """One cold analysis: reset the solver service and the qualifier
        counters, then parse and analyze at ``--jobs 1``."""
        from repro import smt
        from repro.mixy import Mixy, MixyConfig
        from repro.mixy.qual import QVar
        from repro.serve import fresh_equivalence_state

        smt.reset_service()
        QVar._ids = itertools.count(1)
        fresh_equivalence_state()
        config = MixyConfig()
        config.jobs = 1
        started = time.perf_counter()
        mixy = Mixy(self.source if source is None else source, config)
        warnings = mixy.run()
        seconds = time.perf_counter() - started
        lines = [str(w) for w in warnings]
        lines.append(f"{len(warnings)} warning(s)")
        stats = smt.get_service().stats
        work = {
            "queries": stats.queries,
            "full_solves": stats.full_solves,
            "hits.syntactic": stats.syntactic_hits,
            "hits.exact": stats.exact_hits,
            "hits.subset": stats.subset_hits,
            "hits.superset": stats.superset_hits,
            "hits.model_eval": stats.model_eval_hits,
            "theory_rounds": stats.theory_rounds,
            "sat_conflicts": stats.sat_conflicts,
            "rounds": mixy.stats["fixpoint_iterations"],
            "blocks_run": mixy.stats["symbolic_blocks_run"],
            "block_cache_hits": mixy.stats["cache_hits"],
        }
        return OpResult(seconds, lines, work)

    def warm_up(self) -> None:
        for program in _WARMUP_PROGRAMS:
            self.op(program)

    def checked_op(self) -> OpResult:
        result = self.op()
        result.error = self.check(result.lines)
        return result


def _time_left(started: float, seconds: float, last: float) -> bool:
    """Whether at least half of another op, as long as the last one,
    fits in ``seconds`` from ``started``: a run rounds its length to
    whole ops instead of overshooting by one."""
    return time.perf_counter() - started + last / 2 <= seconds


def run_untraced(shot: OneShot, seconds: float, clock: HostClock) -> list[OpResult]:
    """Ops for about ``seconds`` of wall, each followed by a reference
    sample that scales it, and at least two ops, so one op caught in a
    slow spell of the host is not the run's median on its own."""
    started = time.perf_counter()
    results: list[OpResult] = []
    last = 0.0
    while len(results) < 2 or _time_left(started, seconds, last):
        op_started = time.perf_counter()
        result = shot.checked_op()
        result.scaled = clock.scale(result.seconds)
        results.append(result)
        last = time.perf_counter() - op_started
    return results


@dataclass
class TracedPair:
    untraced: OpResult
    traced: OpResult
    layers: dict
    #: |sum of layer self times - traced analysis wall|.
    attribution_gap_s: float


def run_traced(shot: OneShot, seconds: float) -> list[TracedPair]:
    """Pairs of (untraced op, traced op) on the same program for about
    ``seconds`` (at least one pair).  The wrappers are installed only around the
    traced op, so the untraced op of each pair is the reference for
    ``trace.overhead`` and for output equality."""
    pairs: list[TracedPair] = []
    started = time.perf_counter()
    last = 0.0
    while not pairs or _time_left(started, seconds, last):
        pair_started = time.perf_counter()
        untraced = shot.checked_op()
        tracer = LayerTracer().install()
        try:
            traced = shot.checked_op()
        finally:
            tracer.restore()
        if traced.lines != untraced.lines:
            traced.error = traced.error or "traced output differs from untraced output"
        snapshot = tracer.snapshot()
        gap = abs(sum(snapshot["self_s"].values()) - traced.seconds)
        pairs.append(TracedPair(untraced, traced, snapshot, gap))
        last = time.perf_counter() - pair_started
    return pairs
