"""The repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload staircase --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

- ``staircase``: cold one-shot MIXY analyses of a seeded depth-2
  staircase corpus (solver-bound);
- ``vsftpd-wide``: cold one-shot analyses of identifier-renamed
  mini-vsftpd copies (qualifier inference and parsing);
- ``daemon-edit``: a fresh ``repro serve --pool 2`` answering reads,
  edits and proves from two closed-loop connections (serve and store).

Every op's answer is checked against a known answer.  With ``--trace 0``
the run reports the end-to-end metrics, with one-shot op times scaled
to a nominal host speed (refclock.py); with ``--trace 1`` it wraps the
public entry points of each layer and reports per-layer self times and
work counters.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it are a
readable report and a ``stamp`` line with the host, the inputs, the
work counters and each metric's quartiles.

``--jobs`` stays at 1 throughout.
"""

from __future__ import annotations

import time

# Set-up is timed from here, before the imports it includes.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("staircase", "vsftpd-wide", "daemon-edit")

#: Set-up is repeated this many times per one-shot run (the run's own
#: set-up plus fresh-process probes) and reported as the median.
ONE_SHOT_SETUPS = 3
#: A daemon-edit run starts this many fresh daemons one after another and
#: splits its traffic time evenly between them; set-up is the median of
#: theirs.
DAEMON_LIVES = 2

#: Predicted largest self-time layer per workload (the daemon's is taken
#: over prove requests only).  The traced report says whether each held;
#: on the depth-2 staircase preprocessing and service self time lead the
#: simplex, so the staircase prediction does not hold there (README.md).
PREDICTED = {
    "staircase": "smt.simplex.s",
    "vsftpd-wide": "mixy.qual.may_null_s",
    "daemon-edit": "serve.overhead_s",
}

# Per-layer metrics, every value per op: self time of each tracer layer
# (metric -> layer), then the work counters the tracer keeps.
LAYER_TIMES = {
    "smt.simplex.s": "smt.simplex",
    "smt.intsolve.s": "smt.intsolve",
    "smt.solver.self_s": "smt.solver",
    "smt.preprocess.s": "smt.preprocess",
    "smt.cnf.s": "smt.cnf",
    "smt.sat.s": "smt.sat",
    "smt.service.self_s": "smt.service",
    "mixy.qual.may_null_s": "mixy.qual.may_null",
    "mixy.qual.constrain_s": "mixy.qual.constrain",
    "mixy.qual.warnings_s": "mixy.qual.warnings",
    "mixy.c.parse_s": "mixy.c.parse",
    "mixy.pointers.s": "mixy.pointers",
    "mixy.driver.self_s": "mixy.driver",
    "mixy.symexec.s": "mixy.symexec",
    "lang.parse_s": "lang.parse",
    "core.mix.s": "core.mix",
    "prove.s": "prove",
    "witness.s": "witness",
    "serve.analyze_s": "serve.analyze",
}
LAYER_COUNTS = (
    "smt.simplex.calls",
    "smt.intsolve.calls",
    "smt.solver.theory_rounds",
    "smt.sat.conflicts",
    "smt.service.queries",
    "smt.service.full_solves",
    "smt.service.hits.syntactic",
    "smt.service.hits.exact",
    "smt.service.hits.subset",
    "smt.service.hits.superset",
    "smt.service.hits.model_eval",
    "mixy.qual.may_null_calls",
    "mixy.driver.rounds",
    "mixy.driver.blocks_run",
    "mixy.driver.block_cache_hits",
    "mixy.symexec.paths",
    "witness.replays",
)
SERVE_COUNTS = ("serve.forks", "serve.recycles", "serve.epoch_bumps", "serve.shed")
STORE_COUNTS = ("store.hits", "store.misses", "store.records")

#: What the last line reports, in BENCHMARK.json's order.
END_TO_END = ("setup_s", "latency_s.p50", "throughput_ops", "peak_rss_mb")
PER_LAYER = (*LAYER_TIMES, *LAYER_COUNTS, "smt.service.hit_rate", "serve.overhead_s",
             *SERVE_COUNTS, *STORE_COUNTS, "trace.overhead")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set the workload up, print the set-up seconds and exit",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- statistics -----------------------------------------------------------------


def quartiles(values: list[float]) -> list[float]:
    """Quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def tail(values: list[float]):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None below twenty samples."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def timings(latencies, busy_s, prefix=""):
    """Median and tail latency and throughput, with the latency quartiles
    and the tail's percentile and sample count."""
    metrics = {
        f"{prefix}latency_s.p50": (statistics.median(latencies), "s"),
        f"{prefix}throughput_ops": (len(latencies) / busy_s, "ops/s"),
    }
    extra = {}
    found = tail(latencies)
    if found is not None:
        percentile, value = found
        metrics[f"{prefix}latency_s.tail"] = (value, "s")
        extra[f"{prefix}latency_s.tail"] = {"percentile": percentile,
                                           "samples": len(latencies)}
    return metrics, extra, {f"{prefix}latency_s.p50": quartiles(latencies)}


def end_to_end(reported, wall, setups, attempted, failed, peak_rss_kb):
    """Every end-to-end metric.  ``reported`` and ``wall`` are (latencies,
    busy seconds): the first as the workload reports them (one-shot ops
    scaled to the nominal host speed, refclock.py) under the metrics' own
    names, the second from wall time under ``wall.``."""
    metrics = {"setup_s": (statistics.median(setups), "s")}
    spreads = {"setup_s": quartiles(setups)}
    extra = {}
    for times, prefix in ((reported, ""), (wall, "wall.")):
        found, found_extra, found_spreads = timings(*times, prefix=prefix)
        metrics.update(found)
        extra.update(found_extra)
        spreads.update(found_spreads)
    metrics["failed_share"] = (failed / attempted, "ratio")
    metrics["peak_rss_mb"] = (peak_rss_kb / 1024.0, "MiB")
    return metrics, extra, spreads


# -- set-up ------------------------------------------------------------------------


def setup_probes(args, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh processes."""
    out = []
    for _ in range(count):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(probe.stdout.strip().splitlines()[-1]))
    return out


def one_shot_setup(args):
    """Imports, input generation and a warm-up that pays lazy imports."""
    from oneshot import OneShot

    shot = OneShot.for_workload(args.workload, args.seed)
    shot.warm_up()
    return shot, time.perf_counter() - _STARTED


# -- one-shot workloads ------------------------------------------------------------


def run_one_shot(args) -> dict:
    import oneshot
    from refclock import HostClock

    shot, setup_s = one_shot_setup(args)
    if args.trace:
        return trace_one_shot(args, shot)
    setups = [setup_s, *setup_probes(args, ONE_SHOT_SETUPS - 1)]
    clock = HostClock()
    results = oneshot.run_untraced(shot, args.seconds, clock)
    failed = sum(1 for r in results if r.error)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = [r.scaled for r in results]
    wall = [r.seconds for r in results]
    metrics, extra, spreads = end_to_end(
        (scaled, sum(scaled)), (wall, sum(wall)), setups, len(results), failed, peak_kb,
    )
    work = [r.work for r in results]
    return {
        "metrics": metrics,
        "attempted": len(results),
        "failed": failed,
        "errors": sorted({r.error for r in results if r.error} | work_mismatch(work)),
        "stamp": {
            "inputs": shot.params,
            "op_seconds": wall,
            "op_scaled_s": scaled,
            "setups_s": setups,
            "reference_s": clock.samples,
            "tail": extra,
            "quartiles": spreads,
            "work_per_op": work[0],
        },
    }


def work_mismatch(per_op: list[dict]) -> set[str]:
    """An error when any op's work counters differ from the first op's:
    at a fixed seed every cold op must do exactly the same work."""
    differing = sorted({name for work in per_op for name in work
                        if work.get(name) != per_op[0].get(name)})
    if not differing:
        return set()
    return {f"work counters differ between ops of one run: {', '.join(differing)}"}


def trace_one_shot(args, shot) -> dict:
    import oneshot

    pairs = oneshot.run_traced(shot, args.seconds)
    n = len(pairs)
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    for pair in pairs:
        for layer, seconds in pair.layers["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        for name, count in pair.layers["counts"].items():
            counts[name] = counts.get(name, 0) + count
    traced_wall = sum(p.traced.seconds for p in pairs)
    untraced_wall = sum(p.untraced.seconds for p in pairs)
    metrics = layer_metrics(self_s, counts, n)
    metrics["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    gaps = [p.attribution_gap_s for p in pairs]
    errors = sorted({e for p in pairs for e in (p.untraced.error, p.traced.error) if e})
    worst_gap = max(g / p.traced.seconds for g, p in zip(gaps, pairs))
    if worst_gap > 0.01:
        errors.append(f"layer self times miss the traced wall by {worst_gap:.1%}")
    per_op = [p.layers["counts"] for p in pairs]
    errors = sorted(set(errors) | work_mismatch(per_op)
                    | work_mismatch([p.untraced.work for p in pairs]))
    return {
        "metrics": metrics,
        "attempted": 2 * n,
        "failed": sum(1 for p in pairs for r in (p.untraced, p.traced) if r.error),
        "errors": errors,
        "largest": largest_layer(metrics, PREDICTED[args.workload]),
        "stamp": {
            "inputs": shot.params,
            "traced_ops": n,
            "attribution_gap_s": gaps,
            "work_per_op": per_op[0],
        },
    }


def layer_metrics(self_s: dict, counts: dict, ops: int, serve=None, store=None,
                  latency_total=None) -> dict:
    """Every per-layer metric, per op."""
    metrics = {}
    for name, layer in LAYER_TIMES.items():
        metrics[name] = (self_s.get(layer, 0.0) / ops, "s")
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0) / ops, "count")
    queries = counts.get("smt.service.queries", 0)
    hits = sum(count for name, count in counts.items()
               if name.startswith("smt.service.hits."))
    metrics["smt.service.hit_rate"] = (hits / queries if queries else 0.0, "ratio")
    worker_s = sum(self_s.values())
    metrics["serve.overhead_s"] = (
        (latency_total - worker_s) / ops if latency_total is not None else 0.0, "s"
    )
    for name in SERVE_COUNTS:
        metrics[name] = ((serve or {}).get(name.split(".", 1)[1], 0) / ops, "count")
    for name in STORE_COUNTS:
        metrics[name] = ((store or {}).get(name.split(".", 1)[1], 0) / ops, "count")
    return metrics


def largest_layer(metrics: dict, predicted: str) -> dict:
    times = {name: metrics[name][0] for name in (*LAYER_TIMES, "serve.overhead_s")}
    largest = max(times, key=times.get)
    return {"layer": largest, "predicted": predicted, "held": largest == predicted}


# -- daemon-edit -----------------------------------------------------------------------


def run_daemon(args) -> dict:
    import daemon
    import workloads

    inputs = daemon.Inputs(args.seed, ROOT)
    imported_s = time.perf_counter() - _STARTED
    workdir = ROOT / ".perfbench-run" / str(os.getpid())
    try:
        if args.trace:
            return trace_daemon(args, inputs, workdir)
        plans = [inputs.schedule(c) for c in range(daemon.CLIENTS)]
        consistency = daemon.Consistency()
        lives = [daemon.run_phase(ROOT, workdir / f"life{i}", inputs, plans,
                                  args.seconds / DAEMON_LIVES, consistency)
                 for i in range(DAEMON_LIVES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        remove_if_empty(workdir.parent)
    setups = [imported_s + life.setup_s for life in lives]
    priming_errors = [e for life in lives for e in life.priming_errors]
    replies = [reply for life in lives for reply in life.flat]
    errors = [r.error for r in replies if r.error] + priming_errors
    failed = sum(1 for r in replies if r.error)
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Traffic is wall time: it keeps both cores busy, and a one-core
    # reference sample does not track it (README.md).
    traffic = ([r.seconds for r in replies], sum(life.wall_s for life in lives))
    metrics, extra, spreads = end_to_end(
        traffic, traffic, setups, len(replies), failed,
        own_kb + max(life.peak_rss_kb for life in lives),
    )
    by_kind: dict[str, list[float]] = {}
    for reply in replies:
        by_kind.setdefault(reply.request.kind, []).append(reply.seconds)
    return {
        "metrics": metrics,
        "attempted": len(replies),
        "failed": failed + len(priming_errors),
        "errors": sorted(set(errors)),
        "stamp": {
            "inputs": {"staircase_depth": workloads.STAIRCASE_DEPTH,
                       "wide_copies": daemon.WIDE_COPIES, "pool": daemon.POOL,
                       "clients": daemon.CLIENTS},
            "setups_s": setups,
            "tail": extra,
            "quartiles": spreads,
            "requests_by_class": {k: len(v) for k, v in sorted(by_kind.items())},
            "latency_s.p50_by_class": {k: statistics.median(v)
                                       for k, v in sorted(by_kind.items())},
            "work": {**{f"serve.{k}": sum(life.serve[k] for life in lives)
                        for k in lives[0].serve},
                     **{f"store.{k}": v for k, v in
                        daemon.store_counters(replies).items()}},
        },
    }


def trace_daemon(args, inputs, workdir) -> dict:
    """Half the time untraced against a child-process daemon, then the
    same per-client request lists against a traced daemon hosted here."""
    import daemon
    from layers import LayerTracer

    plans = [inputs.schedule(c) for c in range(daemon.CLIENTS)]
    consistency = daemon.Consistency()
    untraced = daemon.run_phase(ROOT, workdir / "untraced", inputs, plans,
                                args.seconds / 2, consistency)
    lists = [[r.request for r in client] for client in untraced.replies]
    tracer = LayerTracer().install()
    tracer.install_worker_shipping()
    try:
        traced = daemon.run_phase(ROOT, workdir / "traced", inputs,
                                  [iter(x) for x in lists], None, consistency, tracer)
    finally:
        tracer.restore()
    replies = traced.flat
    errors = [r.error for r in untraced.flat + replies if r.error]
    errors += untraced.priming_errors + traced.priming_errors
    for a, b in zip(untraced.flat, replies):
        if a.lines != b.lines:
            errors.append("traced output differs from untraced output")
    n = len(replies)
    latency_total = sum(r.seconds for r in replies)
    metrics = layer_metrics(
        tracer.self_s, tracer.counts, n, traced.serve,
        daemon.store_counters(replies), latency_total,
    )
    metrics["trace.overhead"] = (traced.wall_s / untraced.wall_s, "ratio")
    proves = [r for r in replies if r.request.kind == "prove"]
    prove_layers = tracer.by_class.get("prove", {"self_s": {}, "counts": {}})
    prove_metrics = layer_metrics(
        prove_layers["self_s"], prove_layers["counts"], max(1, len(proves)),
        latency_total=sum(r.seconds for r in proves),
    )
    return {
        "metrics": metrics,
        "attempted": len(untraced.flat) + n,
        "failed": sum(1 for r in untraced.flat + replies if r.error),
        "errors": sorted(set(errors)),
        "largest": largest_layer(prove_metrics, PREDICTED["daemon-edit"]),
        "stamp": {
            "traced_requests": n,
            "prove_requests": len(proves),
            "prove_layers_s": {k: v for k, (v, u) in prove_metrics.items() if u == "s"},
            "work_per_request": {k: v for k, (v, u) in metrics.items() if u == "count"},
        },
    }


def remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


# -- the report ------------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no analyzer sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        if args.workload == "daemon-edit":
            print("error: daemon-edit set-up is measured in-run", file=sys.stderr)
            return 2
        _, setup_s = one_shot_setup(args)
        print(repr(setup_s))
        return 0
    load_start = os.getloadavg()
    if args.workload == "daemon-edit":
        outcome = run_daemon(args)
    else:
        outcome = run_one_shot(args)
    load_end = os.getloadavg()
    metrics = outcome["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    if "largest" in outcome:
        largest = outcome["largest"]
        print(f"largest self-time layer: {largest['layer']} "
              f"(predicted {largest['predicted']}: "
              f"{'held' if largest['held'] else 'did not hold'})")
    for error in outcome["errors"]:
        print(f"FAILED: {error}")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        **outcome["stamp"],
    }
    if "largest" in outcome:
        stamp["largest"] = outcome["largest"]
    print("stamp " + json.dumps(stamp, sort_keys=True))
    wanted = PER_LAYER if args.trace else END_TO_END
    correct = not outcome["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
