"""The load generator: spawns server children and drives them over TCP.

Two kinds of run per workload:

* :func:`run_end_to_end` — untraced. Two closed-loop ``DelayClient``
  threads, a warm-up and one measured window, then (durable workloads)
  SIGKILL, recovery in a fresh child and the durability gate.
* :func:`run_traced` — one client replays a fixed statement count
  against an untraced and then a traced child; the spans, registry
  deltas and an in-process oracle replay give the per-layer metrics and
  the correctness gate (see :mod:`benchmarks.spine.layers`).

A :class:`Session` owns every child process and scratch directory, so
nothing survives a run — also when the harness raises half-way.
"""

from __future__ import annotations

import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core import AccountPolicy, GuardConfig
from repro.server import DelayClient, ServerError
from repro.service import DataProviderService

from . import layers, tracing
from .workloads import (
    CATEGORIES,
    IDENTITIES,
    LANES,
    RANGE_ROWS,
    RUN_SECONDS,
    WRITE_KINDS,
    Op,
    Workload,
    category_row,
    item_row,
    load_tables,
    ops,
    take,
    user_bytes,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space, inside the checkout and git-ignored.
WORK_ROOT = ROOT / ".spine_work"

#: Exactly two client threads and connections: the sandbox has two
#: cores, and the load must not scale with ``nproc``.
CLIENTS = LANES
#: Warm-up length as a share of the measured window (3 s : 30 s).
WARMUP_SHARE = 0.1
#: The order-statistic bands the end-to-end latency figures average
#: over (see :func:`layers.band_mean`).
P50_BAND = (0.10, 0.90)
P95_BAND = (0.92, 0.98)
READY_TIMEOUT = 150.0

SMOKE_ROWS = 2_000
SMOKE_SECONDS = 2


class Session:
    """Tracks the children and directories of one run for clean-up."""

    def __init__(self) -> None:
        self.pids: List[int] = []
        self.dirs: List[Path] = []

    @contextmanager
    def work_dir(self, label: str) -> Iterator[Path]:
        path = WORK_ROOT / f"{label}-{os.getpid()}-{len(self.dirs)}"
        path.mkdir(parents=True)
        self.dirs.append(path)
        try:
            yield path
        finally:
            shutil.rmtree(path, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:  # another run still has a directory there
                pass


class ServerChild:
    """One ``serve.py`` process; a context manager that never leaks it.

    Construction blocks until the child answers its first ping;
    :attr:`setup_seconds` is the time that took from the spawn.
    """

    def __init__(
        self,
        session: Session,
        spec: Workload,
        rows: int,
        data_dir: Path,
        recover: bool = False,
        spans: Optional[Path] = None,
    ):
        command = [
            sys.executable,
            str(HERE / "serve.py"),
            "--workload", spec.name,
            "--rows", str(rows),
            "--data-dir", str(data_dir),
        ]
        if recover:
            command.append("--recover")
        if spans is not None:
            command += ["--spans", str(spans)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log_path = data_dir / f"serve-{len(session.pids)}.log"
        started = perf_counter()
        with open(self._log_path, "wb") as log:
            self.process = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
            )
        session.pids.append(self.process.pid)
        try:
            self.ready = self._await_ready()
            self.port = self.ready["port"]
            with self.client() as client:
                client.ping()
        except BaseException:
            self.kill()
            raise
        self.setup_seconds = perf_counter() - started

    def _await_ready(self) -> Dict:
        deadline = time.monotonic() + READY_TIMEOUT
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"server child printed no READY line in {READY_TIMEOUT:.0f}s"
                    + self._log_tail()
                )
            if select.select([stdout], [], [], min(remaining, 0.5))[0]:
                line = stdout.readline().decode("utf-8", errors="replace")
                if line.startswith("READY "):
                    return json.loads(line[len("READY "):])
                if not line:
                    raise RuntimeError(
                        "server child exited before serving" + self._log_tail()
                    )

    def _log_tail(self) -> str:
        try:
            text = self._log_path.read_text(errors="replace").strip()
        except OSError:
            return ""
        return f"; stderr:\n{text[-2000:]}" if text else ""

    def client(self) -> DelayClient:
        return DelayClient("127.0.0.1", self.port)

    def cpu_seconds(self) -> float:
        """utime + stime of the child so far, from ``/proc/<pid>/stat``."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Close stdin (the child then shuts down cleanly) and reap it."""
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
            except OSError:  # the child is already gone
                pass
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self._reap()

    def kill(self) -> None:
        """SIGKILL: no shutdown code runs in the child."""
        if self.process.poll() is None:
            self.process.kill()
        self._reap()

    def _reap(self) -> None:
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:
                pass

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()


# -- checking answers -----------------------------------------------------------


def answer_ok(op: Op, response: Dict) -> bool:
    """Cheap per-response check the end-to-end run can afford."""
    rows = response["rows"]
    if op.kind == "point":
        return [row[0] for row in rows] == [op.key]
    if op.kind == "range":
        return sorted(row[0] for row in rows) == list(
            range(op.key, op.key + RANGE_ROWS)
        )
    if op.is_write:
        return response["rowcount"] == 1
    if op.kind == "topk":
        return len(rows) == 10
    return response["rowcount"] == len(rows) and response["delay"] >= 0


def durability_gate(client: DelayClient, acked: Sequence[tuple]) -> List[str]:
    """Every acked DML must be readable by a pk SELECT after recovery.

    ``acked`` holds ``(op, sent_at, acked_at)``. Two clients may have
    updated one id; the survivor is the last update of either client
    unless one was acked before the other was even sent. Returns a
    description of every lost write.
    """
    inserted: Dict[int, tuple] = {}
    deleted = set()
    updates: Dict[int, list] = {}
    for op, sent_at, acked_at in acked:
        if op.kind == "insert":
            inserted[op.key] = op.value
        elif op.kind == "delete":
            deleted.add(op.key)
        else:
            updates.setdefault(op.key, []).append((sent_at, acked_at, op.value))
    lost = []

    def read(key: int) -> List[list]:
        return client.query(
            f"SELECT * FROM items WHERE id = {key}", identity=IDENTITIES[0]
        )["rows"]

    for key, row in inserted.items():
        rows = read(key)
        if key in deleted:
            if rows:
                lost.append(f"DELETE of id {key} lost")
        elif rows != [list(row)]:
            lost.append(f"INSERT of id {key} lost: read {rows}")
    for key, history in updates.items():
        last_sent = max(sent_at for sent_at, _acked, _value in history)
        survivors = {
            value
            for _sent, acked_at, value in history
            if acked_at >= last_sent
        }
        rows = read(key)
        if not rows or rows[0][2] not in survivors:
            lost.append(f"UPDATE of id {key} lost: read {rows}")
    return lost


# -- the end-to-end run -----------------------------------------------------------


class _LoadClient(threading.Thread):
    """One closed-loop client: next statement only after the reply."""

    def __init__(self, spec, seed, lane, rows, port, stop_at):
        super().__init__(name=f"spine-client-{lane}", daemon=True)
        self.stream = ops(spec, seed, lane, rows)
        self.port = port
        self.stop_at = stop_at
        #: (kind, sent_at, answered_at, ok) per statement.
        self.records: List[tuple] = []
        #: (op, sent_at, acked_at) per successful DML.
        self.acked: List[tuple] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            with DelayClient("127.0.0.1", self.port) as client:
                while True:
                    op = next(self.stream)
                    sent_at = perf_counter()
                    if sent_at >= self.stop_at:
                        return
                    try:
                        response = client.query(op.sql, identity=op.identity)
                        ok = answer_ok(op, response)
                    except ServerError:
                        ok = False
                    answered_at = perf_counter()
                    self.records.append((op.kind, sent_at, answered_at, ok))
                    if ok and op.is_write:
                        self.acked.append((op, sent_at, answered_at))
        except BaseException as error:  # surfaced by the main thread
            self.error = error


def _sleep_until(moment: float) -> None:
    delay = moment - perf_counter()
    if delay > 0:
        time.sleep(delay)


def run_end_to_end(
    session: Session,
    spec: Workload,
    seed: int,
    seconds: float,
    rows: int,
    setup_repeats: Optional[int] = None,
) -> Dict:
    """One untraced run; returns the end-to-end metrics and verdict."""
    if setup_repeats is None:
        setup_repeats = spec.setups
    setups = []
    for _ in range(setup_repeats - 1):
        with session.work_dir(spec.name) as scratch:
            with ServerChild(session, spec, rows, scratch) as child:
                setups.append(child.setup_seconds)
                child.stop()
    problems: List[str] = []
    metrics: Dict[str, float] = {}
    with session.work_dir(spec.name) as data_dir:
        with ServerChild(session, spec, rows, data_dir) as child:
            setups.append(child.setup_seconds)
            clients, window = _drive(child, spec, seed, seconds, rows)
            if spec.durable:
                killed_at = perf_counter()
                child.kill()
            else:
                child.stop()
        if spec.durable:
            with ServerChild(session, spec, rows, data_dir, recover=True) as recovered:
                with recovered.client() as client:
                    client.query(
                        "SELECT * FROM items WHERE id = 1",
                        identity=IDENTITIES[0],
                    )
                    metrics["recover_s"] = perf_counter() - killed_at
                    acked = [entry for c in clients for entry in c.acked]
                    problems += durability_gate(client, acked)
                recovered.stop()
    metrics["setup_s"] = statistics.median(setups)
    records = [
        record
        for client in clients
        for record in client.records
        if record[1] >= window["from"] and record[2] <= window["to"]
    ]
    good = [record for record in records if record[3]]
    attempted, failed = len(records), len(records) - len(good)
    if not good:
        raise RuntimeError(f"{spec.name}: no statement succeeded in the window")
    elapsed = window["to"] - window["from"]
    metrics["goodput_qps"] = len(good) / elapsed
    metrics["server_cpu_ms_per_op"] = 1000.0 * window["cpu_seconds"] / len(good)
    metrics["peak_rss_mb"] = window["peak_rss_mb"]
    metrics["failed_share"] = failed / attempted
    samples = {}
    for side, wanted in (("read", False), ("write", True)):
        latencies = [
            (answered_at - sent_at) * 1000.0
            for kind, sent_at, answered_at, _ok in good
            if (kind in WRITE_KINDS) == wanted
        ]
        samples[side] = len(latencies)
        if latencies:
            metrics[f"{side}_p50_ms"] = layers.band_mean(latencies, *P50_BAND)
            metrics[f"{side}_p95_ms"] = layers.band_mean(latencies, *P95_BAND)
    if failed:
        problems.append(f"{failed} of {attempted} statements failed")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": samples,
    }


def _drive(child: ServerChild, spec, seed, seconds, rows):
    """Warm up, then measure one window; returns (clients, window)."""
    begin = perf_counter() + 0.05
    measure_from = begin + seconds * WARMUP_SHARE
    measure_to = measure_from + seconds
    clients = [
        _LoadClient(spec, seed, lane, rows, child.port, measure_to)
        for lane in range(CLIENTS)
    ]
    with child.client() as control:
        for client in clients:
            client.start()
        _sleep_until(measure_from)
        cpu_before, started = child.cpu_seconds(), perf_counter()
        if spec.checkpoint:
            _sleep_until(measure_from + seconds / 2)
            control.checkpoint()
        _sleep_until(measure_to)
        cpu_after, ended = child.cpu_seconds(), perf_counter()
        peak_rss_mb = child.peak_rss_mb()
    for client in clients:
        client.join(timeout=120)
        if client.is_alive():
            raise RuntimeError(f"{client.name} did not finish")
        if client.error is not None:
            raise client.error
    return clients, {
        "from": started,
        "to": ended,
        "cpu_seconds": cpu_after - cpu_before,
        "peak_rss_mb": peak_rss_mb,
    }


# -- the traced run -----------------------------------------------------------------


def _replay(child: ServerChild, spec: Workload, statements, warm: int) -> Dict:
    """Send ``statements`` on one connection; time those after ``warm``.

    The registry (and, on a cluster, the health view) is read through
    the front door just before and just after the timed part. A
    checkpointing workload issues its checkpoint from a second
    connection half-way through the timed part, so that statements
    queue behind it as they would in the end-to-end run.
    """
    calls: List[tuple] = []
    responses: List[Optional[Dict]] = []
    checkpoint_at = warm + (len(statements) - warm) // 2
    checkpointer = None
    checkpoint_errors: List[BaseException] = []

    def checkpoint() -> None:
        try:
            control.checkpoint()
        except BaseException as error:  # re-raised on the main thread
            checkpoint_errors.append(error)

    with child.client() as control, child.client() as client:

        def snapshot() -> Dict:
            view = {"metrics": control.metrics()["metrics"]}
            if spec.cluster:
                view["health"] = control.health()
            return view

        first_at = perf_counter()
        before = mark_at = None
        for index, op in enumerate(statements):
            if index == warm:
                before = snapshot()
                mark_at = perf_counter()
            if spec.checkpoint and index == checkpoint_at:
                checkpointer = threading.Thread(target=checkpoint, daemon=True)
                checkpointer.start()
            sent_at = perf_counter()
            try:
                response = client.query(op.sql, identity=op.identity)
            except ServerError:
                response = None
            calls.append((sent_at, perf_counter()))
            responses.append(response)
        end_at = perf_counter()
        if checkpointer is not None:
            checkpointer.join(timeout=120)
            if checkpoint_errors or checkpointer.is_alive():
                raise RuntimeError(f"checkpoint failed: {checkpoint_errors}")
        after = snapshot()
    return {
        "first_at": first_at,
        "mark_at": mark_at,
        "end_at": end_at,
        "calls": calls,
        "responses": responses,
        "before": before,
        "after": after,
    }


def oracle_replay(spec: Workload, rows: int, statements: Sequence[Op]) -> List[tuple]:
    """(rows, delay, touched) per statement from the reference service:
    single node, classic row tier, no result cache, virtual clock."""
    service = DataProviderService(
        guard_config=GuardConfig(
            vectorized_execution=False, result_cache_size=None
        ),
        account_policy=AccountPolicy(),
    )
    load_tables(service.database, rows)
    for identity in IDENTITIES:
        service.register(identity)
    answers = []
    for op in statements:
        result = service.query(op.identity, op.sql)
        answers.append(
            (result.rows, result.delay, len(result.per_tuple_delays))
        )
    service.close()
    return answers


def _same_value(got, want, exact: bool) -> bool:
    if exact or not isinstance(want, float) or not isinstance(got, float):
        return got == want
    return math.isclose(got, want, rel_tol=1e-9)


def oracle_gate(
    spec: Workload, statements, responses, touched: Sequence[int], answers
):
    """Compare the server's answers with the oracle's, statement by
    statement; returns (problems, delay ratios).

    Rows and touched counts must be equal everywhere. Single-node
    delays must agree to 1e-9 relative. A cluster shard prices from
    its gossip-merged view, whose request total lags the global one
    between rounds, so as shipped it can charge *less* than a single
    node would: there the delay is only required to be positive and
    within the cap, and its ratio to the oracle's is reported
    (``core.pricing.delay_vs_oracle_*``) instead of asserted.
    """
    problems, ratios = [], []
    if len(touched) != len(statements):
        return (
            [
                f"{len(touched)} service entry spans for "
                f"{len(statements)} statements"
            ],
            ratios,
        )
    cap = GuardConfig().cap
    for index, (op, response, answer) in enumerate(
        zip(statements, responses, answers)
    ):
        want_rows, want_delay, want_touched = answer
        if response is None:
            problems.append(f"#{index} {op.kind}: refused")
            continue
        got = [list(row) for row in response["rows"]]
        want = [list(row) for row in want_rows]
        if "ORDER BY" not in op.sql:
            got.sort(key=repr)
            want.sort(key=repr)
        # A cluster scatter sums floats in shard order, not insertion
        # order, so its aggregates may differ in the last digits.
        exact = not spec.cluster
        if len(got) != len(want) or not all(
            len(a) == len(b)
            and all(_same_value(x, y, exact) for x, y in zip(a, b))
            for a, b in zip(got, want)
        ):
            problems.append(f"#{index} {op.kind}: rows differ from oracle")
        if touched[index] != want_touched:
            problems.append(
                f"#{index} {op.kind}: touched {touched[index]} != "
                f"oracle {want_touched}"
            )
        delay = response["delay"]
        if want_delay > 0:
            ratios.append(delay / want_delay)
        if spec.cluster:
            priced_right = (want_delay > 0) == (delay > 0) and (
                delay <= cap * want_touched * (1 + 1e-9)
            )
        else:
            priced_right = math.isclose(
                delay, want_delay, rel_tol=1e-9, abs_tol=0.0
            )
        if not priced_right:
            problems.append(
                f"#{index} {op.kind}: delay {delay!r} vs oracle {want_delay!r}"
            )
    return problems, ratios


def run_traced(
    session: Session, spec: Workload, seed: int, seconds: float, rows: int
) -> Dict:
    """The traced run: per-layer metrics plus the oracle gate."""
    count = max(int(spec.traced_statements * seconds / RUN_SECONDS), 10)
    warm = max(count // 10, 1)
    statements = take(spec, seed, 0, warm + count, rows)
    with session.work_dir(spec.name) as scratch:
        with ServerChild(session, spec, rows, scratch) as child:
            untraced = _replay(child, spec, statements, warm)
            child.stop()
    recovery: Dict = {}
    with session.work_dir(spec.name) as data_dir:
        spans_path = data_dir / "spans.json"
        with ServerChild(session, spec, rows, data_dir, spans=spans_path) as child:
            traced = _replay(child, spec, statements, warm)
            child.stop()
        recorded = tracing.load(spans_path)
        snapshot = data_dir / "snapshot.json"
        snapshot_bytes = snapshot.stat().st_size if snapshot.exists() else 0
        if spec.durable:
            with ServerChild(
                session, spec, rows, data_dir, recover=True,
                spans=data_dir / "recover-spans.json",
            ) as recovered:
                recovery = recovered.ready
                recovered.stop()
    entries = layers.entry_spans(recorded["spans"], traced["first_at"])
    touched = [span[5]["tuples"] for span in entries]
    problems, delay_ratios = oracle_gate(
        spec,
        statements,
        traced["responses"],
        touched,
        oracle_replay(spec, rows, statements),
    )
    metrics = layers.layer_metrics(
        spec=spec,
        statements=statements,
        warm=warm,
        traced=traced,
        untraced=untraced,
        recorded=recorded,
        recovery=recovery,
        snapshot_bytes=snapshot_bytes,
        loaded_user_bytes=user_bytes(
            [item_row(i) for i in range(1, rows + 1)]
            + [category_row(c) for c in range(CATEGORIES)]
        ),
    )
    metrics["core.pricing.delay_vs_oracle_min"] = min(delay_ratios, default=0.0)
    metrics["core.pricing.delay_vs_oracle_p50"] = layers.percentile(
        delay_ratios, 0.50
    )
    failed = sum(1 for response in traced["responses"] if response is None)
    return {
        "metrics": metrics,
        "attempted": len(statements),
        "failed": failed,
        "problems": problems[:20],
    }
