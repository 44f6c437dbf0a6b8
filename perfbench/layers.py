"""Per-layer attribution for the traced run.

The benchmark wraps the public calls into each layer of the analyzer —
from outside, by patching the name each caller looks up — and keeps a
span stack so every layer gets its *self* time: a span's duration minus
the part covered by nested spans of other layers.  A layer re-entered
while it is already on top of the stack (recursive ``encode``, nested
``execute_function`` generators) extends the open span instead of
opening a new one.  Nothing under ``src/`` changes; :meth:`restore`
puts every original back.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

_clock = time.perf_counter

#: SolverStats field -> counter, read around each ``SolverService.check_sat``.
_SERVICE_COUNTERS = {
    "queries": "smt.service.queries",
    "full_solves": "smt.service.full_solves",
    "syntactic_hits": "smt.service.hits.syntactic",
    "exact_hits": "smt.service.hits.exact",
    "subset_hits": "smt.service.hits.subset",
    "superset_hits": "smt.service.hits.superset",
    "model_eval_hits": "smt.service.hits.model_eval",
}


def merge(into: dict, totals: dict) -> None:
    for name, value in totals.items():
        into[name] = into.get(name, 0) + value


class LayerTracer:
    """Self time per layer plus exact work counters, in this process."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # Open spans: [layer, start, time covered by child spans].
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Daemon runs: worker layer totals per request class, as shipped.
        self.by_class: dict[str, dict] = {}

    # -- spans ------------------------------------------------------------

    def enter(self, layer: str) -> bool:
        """Open a span unless ``layer`` is already the innermost one;
        returns whether a span was opened (pass it to :meth:`leave`)."""
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return False
        stack.append([layer, _clock(), 0.0])
        return True

    def leave(self, opened: bool) -> None:
        if not opened:
            return
        layer, start, covered = self._stack.pop()
        elapsed = _clock() - start
        self.self_s[layer] += elapsed - covered
        if self._stack:
            self._stack[-1][2] += elapsed

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}

    def add(self, snapshot: dict) -> None:
        merge(self.self_s, snapshot["self_s"])
        merge(self.counts, snapshot["counts"])

    def clear(self) -> None:
        self.self_s.clear()
        self.counts.clear()
        self.by_class.clear()

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner: object, name: str, wrapper) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(wrapper(original)))

    def timed(self, owner: object, name: str, layer: str, count: str = "") -> None:
        """Time every call of ``owner.name`` as ``layer``; ``count``
        names a counter bumped once per call."""

        def wrap(original):
            def wrapper(*args, **kwargs):
                if count:
                    self.counts[count] += 1
                opened = self.enter(layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.leave(opened)

            return wrapper

        self._patch(owner, name, wrap)

    def timed_generator(self, owner: object, name: str, layer: str, count: str) -> None:
        """Time the *consumption* of the generator ``owner.name`` returns:
        each resume is a span, and ``count`` counts the items yielded."""

        def wrap(original):
            def wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)
                try:
                    while True:
                        opened = self.enter(layer)
                        try:
                            item = next(inner)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            self.leave(opened)
                        self.counts[count] += 1
                        yield item
                finally:
                    inner.close()

            return wrapper

        self._patch(owner, name, wrap)

    def observed(self, owner: object, name: str, layer: str, before, after) -> None:
        """Like :meth:`timed`, plus ``after(self_obj, before(self_obj))``
        to turn the instance's own counters into deltas per call."""

        def wrap(original):
            def wrapper(obj, *args, **kwargs):
                mark = before(obj)
                opened = self.enter(layer)
                try:
                    return original(obj, *args, **kwargs)
                finally:
                    self.leave(opened)
                    after(obj, mark)

            return wrapper

        self._patch(owner, name, wrap)

    def restore(self) -> None:
        """Put every patched original back, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- the layer map -------------------------------------------------------

    def install(self) -> "LayerTracer":
        """Wrap every layer entry point the benchmark attributes time to."""
        import repro.core
        import repro.lang.parser
        import repro.mixy.driver
        import repro.prove
        import repro.serve
        import repro.smt.intsolve
        import repro.smt.solver
        import repro.witness
        from repro.mixy.driver import Mixy
        from repro.mixy.pointers import PointsTo
        from repro.mixy.qual import QualGraph, QualInference
        from repro.mixy.symexec import CSymExecutor
        from repro.smt.cnf import CnfBuilder
        from repro.smt.preprocess import Preprocessor
        from repro.smt.sat import SatSolver
        from repro.smt.service import SolverService
        from repro.smt.solver import Solver

        counts = self.counts

        # smt: each caller's own binding of the solver entry points.
        self.timed(repro.smt.intsolve, "check_rational", "smt.simplex", "smt.simplex.calls")
        self.timed(repro.smt.solver, "check_integer", "smt.intsolve", "smt.intsolve.calls")
        self.timed(Preprocessor, "process", "smt.preprocess")
        self.timed(CnfBuilder, "encode", "smt.cnf")

        def conflicts_after(sat, mark):
            counts["smt.sat.conflicts"] += sat.num_conflicts - mark

        self.observed(
            SatSolver, "solve", "smt.sat", lambda sat: sat.num_conflicts, conflicts_after
        )

        def rounds_after(solver, mark):
            counts["smt.solver.theory_rounds"] += solver.stats["theory_rounds"] - mark

        self.observed(
            Solver, "check", "smt.solver",
            lambda solver: solver.stats["theory_rounds"], rounds_after,
        )

        def service_before(service):
            stats = service.stats
            return [getattr(stats, field) for field in _SERVICE_COUNTERS]

        def service_after(service, mark):
            stats = service.stats
            for (field, counter), old in zip(_SERVICE_COUNTERS.items(), mark):
                counts[counter] += getattr(stats, field) - old

        self.observed(SolverService, "check_sat", "smt.service", service_before, service_after)

        # mixy
        self.timed(QualGraph, "may_null", "mixy.qual.may_null", "mixy.qual.may_null_calls")
        self.timed(QualInference, "constrain_function", "mixy.qual.constrain")
        self.timed(QualInference, "constrain_globals", "mixy.qual.constrain")
        self.timed(QualGraph, "warnings", "mixy.qual.warnings")
        self.timed(repro.mixy.driver, "parse_program", "mixy.c.parse")
        self.timed(PointsTo, "__init__", "mixy.pointers")
        self.timed(Mixy, "__init__", "mixy.driver")

        def driver_after(mixy, mark):
            stats = mixy.stats
            counts["mixy.driver.rounds"] += stats["fixpoint_iterations"] - mark[0]
            counts["mixy.driver.blocks_run"] += stats["symbolic_blocks_run"] - mark[1]
            counts["mixy.driver.block_cache_hits"] += stats["cache_hits"] - mark[2]

        self.observed(
            Mixy, "run", "mixy.driver",
            lambda mixy: (
                mixy.stats["fixpoint_iterations"],
                mixy.stats["symbolic_blocks_run"],
                mixy.stats["cache_hits"],
            ),
            driver_after,
        )
        self.timed_generator(
            CSymExecutor, "execute_function", "mixy.symexec", "mixy.symexec.paths"
        )

        # the mini-ML frontend, proving and witness replay
        self.timed(repro.lang.parser, "parse", "lang.parse")
        self.timed(repro.core, "analyze", "core.mix")
        self.timed(repro.prove, "prove_source", "prove")
        for validator in ("validate_mix_outcome", "validate_c_null_deref", "validate_c_check"):
            self.timed(repro.witness, validator, "witness", "witness.replays")

        # serve: the worker-side analysis of one request
        self.timed(repro.serve, "analyze_source", "serve.analyze")
        return self

    def install_worker_shipping(self) -> None:
        """In a traced daemon: pool workers ship their per-request layer
        totals home inside the reply frame, and the daemon folds them in
        as it merges the request, so this process sees every worker's
        layers.  Workers are forked after this runs and inherit it."""
        import repro.serve
        from repro.serve import ReproDaemon

        def ship(original):
            def wrapper(lang, source, options, *args, **kwargs):
                self.clear()
                payload = original(lang, source, options, *args, **kwargs)
                shipped = self.snapshot()
                shipped["class"] = "prove" if options.get("prove") else "analyze"
                payload["perfbench_layers"] = shipped
                return payload

            return wrapper

        def fold(original):
            def wrapper(daemon, service, payload, worker):
                shipped = payload.pop("perfbench_layers", None)
                if shipped is not None:
                    self.add(shipped)
                    totals = self.by_class.setdefault(
                        shipped["class"], {"self_s": {}, "counts": {}}
                    )
                    merge(totals["self_s"], shipped["self_s"])
                    merge(totals["counts"], shipped["counts"])
                return original(daemon, service, payload, worker)

            return wrapper

        self._patch(repro.serve, "_worker_payload", ship)
        self._patch(ReproDaemon, "_merge_pooled", fold)
