"""``serve``: wire reads against ``repro serve`` in a child process.

Set-up builds a durable database whose table (``ROWS`` rows of ~290
bytes, about 3 MiB of heap) is several times larger than the 128-page
(512 KiB) buffer pool, starts ``repro serve --executor-threads 2`` on it
and opens two ``repro.client`` connections, one per tenant.  Each
connection runs a closed loop on its own thread (``repro.client`` callers
block on each reply), so the server sees at most two requests at once.
The mix is read-only: seeded point lookups by primary key (3 in 4) and
short range scans over the indexed ``score`` column (1 in 4, ``RANGE_WIDTH``
rows each).  No WAL record is written and no crowd is asked.

Output checks, inline: every lookup returns exactly the generated row and
every range scan returns exactly ``RANGE_WIDTH`` rows with scores in range.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import repro
import repro.client
from repro.utils.rng import spawn_rng

from common import CheckFailed, Measurement, closed_loop, peak_rss_mb
from dblayers import pager_metrics, sql_layer_metrics
from tracing import Tracer, per_op

ROWS = 10_000
RANGE_WIDTH = 8
POINT_SHARE = 0.75
EXECUTOR_THREADS = 2
TENANTS = ("tenant-a", "tenant-b")
POINT = "SELECT id, grp, score, name, body FROM items WHERE id = ?"
RANGE = "SELECT id, score FROM items WHERE score BETWEEN ? AND ?"
_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


class ServeWorkload:
    name = "serve"

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.setups = 0
        self.server: subprocess.Popen | None = None
        self.phase = -1
        self.clients: list[Any] = []
        self.summary_path: Path | None = None

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        self.path = self.workdir / f"serve-{self.setups}"
        self.setups += 1
        rng = spawn_rng(self.seed, "serve-data")
        scores = rng.permutation(ROWS)
        self.rows = {}
        for key in range(1, ROWS + 1):
            word = int(rng.integers(0, 1 << 30))
            self.rows[key] = (
                key,
                int(rng.integers(0, 100)),
                int(scores[key - 1]),
                f"item-{word:09d}",
                f"{word:08x}" * 30,
            )
        conn = repro.connect(path=self.path, synchronous="normal")
        try:
            conn.execute(
                "CREATE TABLE items (id INTEGER PRIMARY KEY, grp INTEGER, score INTEGER,"
                " name TEXT, body TEXT)"
            )
            conn.executemany(
                "INSERT INTO items (id, grp, score, name, body) VALUES (?, ?, ?, ?, ?)",
                list(self.rows.values()),
            )
            conn.execute("CREATE INDEX ON items (score)")
            conn.checkpoint()
        finally:
            conn.close()
        self._start_server(traced=False)

    def _start_server(self, traced: bool) -> None:
        log = self.path.with_suffix(".log")
        args = [
            "--db-path", str(self.path), "--port", "0",
            "--executor-threads", str(EXECUTOR_THREADS),
        ]
        if traced:
            self.summary_path = self.path.with_suffix(".summary.json")
            spans = Path.cwd() / ".perfbench" / "traces" / f"serve-server-seed{self.seed}.jsonl.gz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            command = [
                sys.executable, str(Path(__file__).resolve().parent / "serve_child.py"),
                str(self.summary_path), str(spans), "--", *args,
            ]
        else:
            command = [sys.executable, "-m", "repro", "serve", *args]
        with open(log, "wb") as handle:
            self.server = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=handle, env=dict(os.environ)
            )
        deadline = time.monotonic() + 120.0
        while True:
            match = _LISTENING.search(log.read_text(encoding="utf-8", errors="replace"))
            if match:
                break
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: {log.read_text(errors='replace')}")
            time.sleep(0.01)
        host, port = match.group(1), int(match.group(2))
        self.clients = [repro.client.connect(host, port, tenant=name) for name in TENANTS]
        self.address = (host, port)

    def _stop_server(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        server, self.server = self.server, None
        if server is not None and server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                code = server.wait(timeout=120)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
                raise RuntimeError("server did not drain within 120 s") from None
            if code != 0:
                raise RuntimeError(f"server exited with code {code}")

    def close(self) -> None:
        self._stop_server()

    # -- timed loop ----------------------------------------------------------

    def measure(self, seconds: float, tracer: Tracer | None = None) -> Measurement:
        results: list[Measurement | BaseException] = [Measurement()] * len(self.clients)
        self.rows_returned = [0] * len(self.clients)

        def drive(index: int) -> None:
            client = self.clients[index]
            rng = spawn_rng(self.seed, "serve-ops", index, self.phase)
            rows = self.rows

            def step(i: int) -> None:
                if rng.random() < POINT_SHARE:
                    key = int(rng.integers(1, ROWS + 1))
                    got = client.execute(POINT, (key,)).fetchall()
                    if len(got) != 1 or tuple(got[0]) != rows[key]:
                        raise CheckFailed(f"lookup of id {key} returned {got!r}")
                    self.rows_returned[index] += 1
                else:
                    low = int(rng.integers(0, ROWS - RANGE_WIDTH + 1))
                    high = low + RANGE_WIDTH - 1
                    got = client.execute(RANGE, (low, high)).fetchall()
                    if len(got) != RANGE_WIDTH or any(
                        not low <= score <= high or rows[key][2] != score for key, score in got
                    ):
                        raise CheckFailed(
                            f"range [{low}, {high}] returned {len(got)} rows, "
                            f"expected {RANGE_WIDTH}"
                        )
                    self.rows_returned[index] += len(got)

            try:
                results[index] = closed_loop(seconds, step)
            except BaseException as exc:  # re-raised on the main thread
                results[index] = exc

        self.phase += 1
        # One client thread per connection: the benchmark's load generator,
        # joined before this method returns.
        threads = [
            threading.Thread(target=drive, args=(i,))  # reprolint: disable=thread-chokepoint
            for i in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = Measurement()
        for result in results:
            if isinstance(result, BaseException):
                raise result
            merged.latencies.extend(result.latencies)
            merged.ends.extend(result.ends)
            merged.attempted += result.attempted
            merged.failed += result.failed
            merged.elapsed = max(merged.elapsed, result.elapsed)
        return merged

    def verify(self) -> None:
        """Every response was checked as it arrived (see :meth:`measure`)."""

    def report(self) -> list[str]:
        return [
            f"{ROWS} rows (~{ROWS * 290 // 1024} KiB heap) behind a 128-page pool; "
            f"{len(TENANTS)} connections, closed loop; {EXECUTOR_THREADS} executor threads"
        ]

    def end_to_end(self) -> dict[str, float]:
        self._stop_server()
        return {"peak_rss_mb": peak_rss_mb(children=True)}

    # -- tracing -------------------------------------------------------------

    def instrument(self, tracer: Tracer) -> None:
        """Restart the server with its server-side wrappers; wrap the client's.

        The traced half runs against a fresh server child that records spans
        (``serve_child.py``); the client-side protocol calls are wrapped here.
        """
        import repro.server.protocol as protocol

        self._stop_server()
        self._start_server(traced=True)
        self.pool_before = dict(self.clients[0].pragma("buffer_pool_stats"))

        def request_bytes(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
            tracer.count("wire.bytes", len(result))

        def response_bytes(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
            tracer.count("wire.bytes", len(args[0]) + protocol.HEADER_SIZE)

        tracer.patch_function(protocol, "encode_message", "server.protocol.encode", request_bytes)
        tracer.patch_function(protocol, "decode_payload", "server.protocol.decode", response_bytes)

    def collect(self) -> None:
        pool = dict(self.clients[0].pragma("buffer_pool_stats"))
        for client in self.clients:
            client.close()
        host, port = self.address
        admin = repro.client.connect(host, port, tenant="admin")
        deadline = time.monotonic() + 30.0
        while True:
            stats = admin.server_stats()
            if stats["connections"] <= 1 or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        admin.close()
        self.clients = []
        self._stop_server()
        self.server_stats = stats
        self.pool_after = pool
        self.server_summary = json.loads(self.summary_path.read_text(encoding="utf-8"))

    def layer_metrics(self, tracer: Tracer, traced: Measurement) -> dict[str, float]:
        client = tracer.summary()
        server = self.server_summary
        ops = len(traced.latencies)
        rows = sum(self.rows_returned)
        metrics = sql_layer_metrics(server, ops, rows)
        metrics.update(
            pager_metrics(self.pool_before, self.pool_after, ops, live_bytes=self.live_bytes())
        )

        def both(name: str) -> float:
            return client["inclusive_s"].get(name, 0.0) + server["inclusive_s"].get(name, 0.0)

        engine = server["inclusive_s"].get("db.connection", 0.0)
        tenants = [t for t in self.server_stats["tenants"] if t["tenant"] in TENANTS]
        hits = sum(t["statement_cache_hits"] for t in tenants)
        lookups = hits + sum(t["statement_cache_misses"] for t in tenants)
        metrics.update(
            {
                "server.protocol.encode_us": per_op(both("server.protocol.encode"), ops, 1e6),
                "server.protocol.decode_us": per_op(both("server.protocol.decode"), ops, 1e6),
                "server.protocol.bytes_per_op": per_op(client["counts"].get("wire.bytes", 0), ops),
                "server.server.hop_us": per_op(sum(traced.latencies) - engine, ops, 1e6),
                "server.server.rejected": float(self.server_stats["rejected"]),
                "server.tenancy.rate_limited": float(sum(t["rate_limited"] for t in tenants)),
                "db.connection.stmt_cache_hit_rate": per_op(hits, lookups),
            }
        )
        return metrics

    def live_bytes(self) -> int:
        return sum(len(json.dumps(row, separators=(",", ":"))) for row in self.rows.values())

