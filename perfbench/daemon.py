"""The daemon-edit workload: `repro serve --pool 2` driven by two
closed-loop connections, each an editor or CI caller that blocks on its
own reply before sending the next request."""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

import workloads
from layers import LayerTracer

POOL = 2
CLIENTS = 2
#: The daemon's wide program is small: its cold priming is set-up, and
#: reads and edits replay the store either way.
WIDE_COPIES = 5

#: One schedule block per client, shuffled per block so every block has
#: the same mix.  No recorded editor or CI traffic exists to copy, so the
#: mix follows a stated rule: the three request classes (reads, edits,
#: proves) are equally frequent, and reads and edits are split evenly
#: between the staircase and the wide program.
BLOCK = (
    "read-staircase", "read-wide",
    "edit-staircase", "edit-wide",
    "prove", "prove",
)

_REPLY_TIMEOUT = 120.0
_BUSY_RETRIES = 8


@dataclass
class Request:
    kind: str
    payload: dict
    check: Callable[[dict], Optional[str]]

    @property
    def key(self) -> str:
        blob = json.dumps(self.payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class Reply:
    request: Request
    seconds: float
    response: Optional[dict]
    error: Optional[str] = None

    @property
    def lines(self) -> Optional[list[str]]:
        if self.response is None:
            return None
        return (self.response.get("result") or {}).get("lines")


def _analyze(source: str) -> dict:
    return {"cmd": "analyze", "lang": "mixy", "source": source, "options": {}}


def _check_reply(check_lines: Callable[[list[str]], Optional[str]]):
    def check(response: dict) -> Optional[str]:
        if response.get("status") != "ok":
            return f"status {response.get('status')}: {response.get('error')}"
        return check_lines((response.get("result") or {}).get("lines") or [])

    return check


def _check_verdict(expected: str):
    def check(response: dict) -> Optional[str]:
        if response.get("status") != "ok":
            return f"status {response.get('status')}: {response.get('error')}"
        verdict = (response.get("result") or {}).get("verdict")
        if verdict != expected:
            return f"verdict {verdict}, expected {expected}"
        return None

    return check


class Inputs:
    """The seeded programs of one daemon-edit run."""

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.staircase = workloads.staircase(seed)
        self.wide = workloads.wide(seed, copies=WIDE_COPIES)
        self.properties = []
        for name, verdict in sorted(workloads.PROPERTY_VERDICTS.items()):
            source = (root / "examples" / "properties" / name).read_text()
            lang = "mixy" if name.endswith(".c") else "mix"
            payload = {"cmd": "prove", "lang": lang, "source": source,
                       "options": {"name": name}}
            self.properties.append(Request("prove", payload, _check_verdict(verdict)))

    def read_staircase(self) -> Request:
        return Request(
            "read-staircase", _analyze(self.staircase),
            _check_reply(workloads.check_staircase),
        )

    def read_wide(self) -> Request:
        program = self.wide
        return Request(
            "read-wide", _analyze(program.source),
            _check_reply(lambda lines: workloads.check_wide(program, lines)),
        )

    def priming(self) -> list[list[Request]]:
        """What set-up sends, per connection, to fill the store."""
        return [[self.read_staircase()], [self.read_wide(), *self.properties]]

    def schedule(self, client: int) -> Iterator[Request]:
        """Client ``client``'s endless request sequence, a fixed function
        of the seed.  Edits are cumulative per client and never repeat a
        source: staircase edits set a leaf to a value unique to the
        client and the edit, wide edits move one copy to another
        annotation subset."""
        rng = random.Random(f"daemon:{self.seed}:{client}")
        subsets = list(self.wide.subsets)
        schedule = len(workloads.E2PRIME_WARNINGS)
        edits = 0
        proves = 0
        order = list(range(len(self.properties)))
        rng.shuffle(order)
        while True:
            block = list(BLOCK)
            rng.shuffle(block)
            for kind in block:
                if kind == "read-staircase":
                    yield self.read_staircase()
                elif kind == "read-wide":
                    yield self.read_wide()
                elif kind == "edit-staircase":
                    edits += 1
                    source = workloads.staircase_leaf_edit(
                        self.staircase,
                        rng.randrange(len(workloads.PARALLEL_BLOCKS)),
                        1000 + CLIENTS * edits + client,
                    )
                    yield Request(
                        kind, _analyze(source), _check_reply(workloads.check_staircase)
                    )
                elif kind == "edit-wide":
                    copy = rng.randrange(len(subsets))
                    subsets[copy] = (
                        subsets[copy] + rng.randrange(1, schedule)
                    ) % schedule
                    program = workloads.wide_from_subsets(tuple(subsets))
                    yield Request(
                        kind, _analyze(program.source),
                        _check_reply(
                            lambda lines, p=program: workloads.check_wide(p, lines)
                        ),
                    )
                else:
                    yield self.properties[order[proves % len(order)]]
                    proves += 1


class Connection:
    """One persistent client connection: a request line out, a reply
    line back."""

    def __init__(self, address: str) -> None:
        from repro.serve import connect

        self._sock = connect(address, timeout=_REPLY_TIMEOUT)
        self._reader = self._sock.makefile("rb")

    def call(self, payload: dict) -> dict:
        line = (json.dumps(payload) + "\n").encode()
        for _ in range(_BUSY_RETRIES + 1):
            self._sock.sendall(line)
            raw = self._reader.readline()
            if not raw.endswith(b"\n"):
                raise ConnectionError("daemon closed the connection mid-reply")
            response = json.loads(raw)
            if response.get("status") != "busy":
                return response
            time.sleep(float(response.get("retry_after_ms", 100)) / 1000.0)
        return response

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


def send(conn: Connection, request: Request) -> Reply:
    started = time.perf_counter()
    try:
        response = conn.call(request.payload)
    except (OSError, ValueError) as error:
        return Reply(request, time.perf_counter() - started, None,
                     f"{type(error).__name__}: {error}")
    seconds = time.perf_counter() - started
    return Reply(request, seconds, response, request.check(response))


class Consistency:
    """Identical sources must get identical result lines all run long."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lines: dict[str, list[str]] = {}

    def check(self, reply: Reply) -> None:
        if reply.error is not None or reply.lines is None:
            return
        with self._lock:
            first = self._lines.setdefault(reply.request.key, reply.lines)
        if first != reply.lines:
            reply.error = "result lines differ from an earlier reply to the same source"


def drive(
    address: str,
    plans: list[Iterator[Request]],
    stop: Callable[[], bool],
    consistency: Consistency,
) -> list[list[Reply]]:
    """One closed-loop client thread per plan; each sends its next
    request only after the previous reply, until ``stop()`` or its plan
    runs out.  Returns each client's replies in order."""
    replies: list[list[Reply]] = [[] for _ in plans]
    failures: list[BaseException] = []

    def client(index: int) -> None:
        try:
            conn = Connection(address)
        except OSError as error:
            failures.append(error)
            return
        try:
            while not stop():
                request = next(plans[index], None)
                if request is None:
                    break
                reply = send(conn, request)
                consistency.check(reply)
                replies[index].append(reply)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(plans))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return replies


# -- hosting the daemon ---------------------------------------------------------


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return out


class RssSampler:
    """The daemon's RSS high-water mark plus ``POOL`` times the largest
    high-water mark any of its pool workers reached, sampled every
    quarter second: the footprint with every pool slot holding its
    largest worker.  Pages a forked worker shares with the daemon count
    once per process.  Taking the largest worker, not the largest sum
    of live ones, keeps the figure independent of which workers happen
    to be alive together between epoch bumps."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.daemon_kb = 0
        self.worker_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    @property
    def peak_kb(self) -> int:
        return self.daemon_kb + POOL * self.worker_kb

    def sample(self) -> None:
        self.daemon_kb = max(self.daemon_kb, _vm_hwm_kb(self.pid))
        for child in _children(self.pid):
            self.worker_kb = max(self.worker_kb, _vm_hwm_kb(child))

    def _loop(self) -> None:
        while not self._stop.wait(0.25):
            self.sample()

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


class Daemon:
    """`repro serve --pool 2 --store DIR` on a free localhost port:
    a child process, or — for the traced run — hosted in this process
    so its pool workers fork with the layer wrappers in place."""

    def __init__(self, root: Path, workdir: Path, in_process: bool) -> None:
        self.workdir = workdir
        store = workdir / "store"
        self._proc: Optional[subprocess.Popen] = None
        self._thread: Optional[threading.Thread] = None
        self.rss: Optional[RssSampler] = None
        if in_process:
            from repro.serve import ReproDaemon

            self._daemon = ReproDaemon(
                listen="127.0.0.1:0", store_dir=str(store), pool_size=POOL,
                crash_dir=str(workdir / "crashes"),
            )
            self.address = self._daemon.bind()
            self._thread = threading.Thread(target=self._daemon.serve_forever)
            self._thread.start()
            return
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(workdir / "serve.log", "wb")
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--listen", "127.0.0.1:0",
             "--pool", str(POOL), "--store", str(store)],
            cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        announce = self._proc.stdout.readline().decode().strip()
        prefix = "repro-serve: listening on "
        if not announce.startswith(prefix):
            self.close()
            raise RuntimeError(f"daemon did not start: {announce!r}")
        self.address = announce[len(prefix):]
        self.rss = RssSampler(self._proc.pid)

    def stats(self) -> dict:
        conn = Connection(self.address)
        try:
            return conn.call({"cmd": "stats"})["stats"]
        finally:
            conn.close()

    def close(self) -> None:
        """Shut the daemon down and wait until it and its workers end."""
        if self.rss is not None:
            self.rss.close()
        try:
            conn = Connection(self.address)
            try:
                conn.call({"cmd": "shutdown"})
            finally:
                conn.close()
        except (OSError, ValueError, AttributeError):
            pass
        if self._thread is not None:
            self._thread.join()
        if self._proc is not None:
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()
            self._log.close()


def serve_counters(before: dict, after: dict) -> dict[str, int]:
    """Daemon-side deltas of the `stats` reply between two points."""
    pool_before = before.get("pool") or {}
    pool_after = after.get("pool") or {}
    return {
        "forks": pool_after.get("forks", 0) - pool_before.get("forks", 0),
        "recycles": pool_after.get("recycles", 0) - pool_before.get("recycles", 0),
        "epoch_bumps": after.get("epoch", 0) - before.get("epoch", 0),
        "shed": after.get("shed", 0) - before.get("shed", 0),
    }


def store_counters(replies: list[Reply]) -> dict[str, int]:
    out = {"hits": 0, "misses": 0, "records": 0}
    for reply in replies:
        store = ((reply.response or {}).get("served") or {}).get("store") or {}
        for key, value in store.items():
            kind = key.split("_", 1)[-1]
            if kind in out:
                out[kind] += value
    return out


@dataclass
class Phase:
    """One daemon life: set-up (start, pool fork, priming) then the
    timed requests."""

    setup_s: float
    wall_s: float
    replies: list[list[Reply]]
    serve: dict[str, int]
    peak_rss_kb: int = 0
    priming_errors: list[str] = field(default_factory=list)

    @property
    def flat(self) -> list[Reply]:
        return [reply for client in self.replies for reply in client]


def run_phase(
    root: Path,
    workdir: Path,
    inputs: Inputs,
    plans: list[Iterator[Request]],
    stop_after: Optional[float],
    consistency: Consistency,
    tracer: Optional[LayerTracer] = None,
) -> Phase:
    """Start a fresh daemon, prime it, and drive ``plans`` until
    ``stop_after`` seconds pass (or the plans run out)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    daemon = Daemon(root, workdir, in_process=tracer is not None)
    try:
        primed = drive(daemon.address, [iter(p) for p in inputs.priming()],
                       lambda: False, consistency)
        priming_errors = [r.error for c in primed for r in c if r.error]
        before = daemon.stats()
        setup_s = time.perf_counter() - started
        if tracer is not None:
            tracer.clear()
        timed_from = time.perf_counter()
        stop = (lambda: False) if stop_after is None else (
            lambda: time.perf_counter() - timed_from >= stop_after
        )
        replies = drive(daemon.address, plans, stop, consistency)
        wall_s = time.perf_counter() - timed_from
        after = daemon.stats()
    finally:
        daemon.close()
    peak = daemon.rss.peak_kb if daemon.rss is not None else 0
    return Phase(setup_s, wall_s, replies, serve_counters(before, after), peak,
                 priming_errors)
