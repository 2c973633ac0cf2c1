"""``write``: durable writes through one embedded connection.

A closed loop on ``repro.connect(path=..., synchronous="normal")`` with the
default checkpoint interval (1,000 WAL records).  The table (``ROWS`` rows
of about 120 bytes, ~100 KiB of heap) fits in the default 128-page
(512 KiB) buffer pool.  Operations are seeded ``INSERT``,
``UPDATE ... WHERE id = ?`` and ``DELETE ... WHERE id = ?`` statements in
blocks of two of each, shuffled, so inserts and deletes balance and the
live row count stays level.  Every statement appends one WAL record, so
a run of a few thousand operations spans several checkpoint cycles.

Output check: after the loop the directory is closed and reopened; every
acknowledged insert or update must be present and every deleted key
absent.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

import repro
from repro.utils.rng import spawn_rng

from common import CheckFailed, Measurement, closed_loop, peak_rss_mb
from dblayers import instrument_db, pager_metrics, pragma_dict, sql_layer_metrics, wal_metrics
from tracing import Tracer, per_op

ROWS = 600
BLOCK = ("insert", "insert", "update", "update", "delete", "delete")
INSERT = "INSERT INTO kv (id, name, v, note) VALUES (?, ?, ?, ?)"
UPDATE = "UPDATE kv SET v = ?, name = ? WHERE id = ?"
DELETE = "DELETE FROM kv WHERE id = ?"


def _user_bytes(values: Any) -> int:
    """Bytes of user data in a statement's values (their JSON encoding)."""
    return len(json.dumps(values, separators=(",", ":")))


class WriteWorkload:
    name = "write"

    def __init__(self, seed: int, seconds: float, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.setups = 0
        self.conn: Any = None

    # -- set-up --------------------------------------------------------------

    def _row(self, rng: Any, key: int) -> tuple[int, str, int, str]:
        word = int(rng.integers(0, 1 << 30))
        return (key, f"name-{word:09d}", int(rng.integers(0, 1_000_000)), f"note-{word:x}" * 6)

    def setup(self) -> None:
        self.path = self.workdir / f"write-{self.setups}"
        self.setups += 1
        self.rng = spawn_rng(self.seed, "write")
        self.conn = repro.connect(path=self.path, synchronous="normal")
        self.conn.execute(
            "CREATE TABLE kv (id INTEGER PRIMARY KEY, name TEXT, v INTEGER, note TEXT)"
        )
        rows = [self._row(self.rng, key) for key in range(1, ROWS + 1)]
        self.conn.executemany(INSERT, rows)
        self.conn.commit()
        #: The expected table: key -> row, updated as statements are acknowledged.
        self.model = {row[0]: row for row in rows}
        self.live = list(self.model)
        self.slot = {key: index for index, key in enumerate(self.live)}
        self.next_key = ROWS + 1
        self.user_bytes = 0
        self.op_index = 0

    def close(self) -> None:
        if self.conn is not None and not self.conn.closed:
            self.conn.close()

    # -- inputs --------------------------------------------------------------

    def _take(self, key: int) -> None:
        index = self.slot.pop(key)
        last = self.live.pop()
        if last != key:
            self.live[index] = last
            self.slot[last] = index

    def _next_statement(self) -> tuple[str, tuple, str]:
        position = self.op_index % len(BLOCK)
        if position == 0:
            order = spawn_rng(self.seed, "write-block", self.op_index).permutation(len(BLOCK))
            self.block = [BLOCK[int(i)] for i in order]
        kind = self.block[position]
        self.op_index += 1
        rng = self.rng
        if kind == "insert":
            row = self._row(rng, self.next_key)
            self.next_key += 1
            return INSERT, row, kind
        key = self.live[int(rng.integers(0, len(self.live)))]
        if kind == "update":
            word = int(rng.integers(0, 1 << 30))
            return UPDATE, (int(rng.integers(0, 1_000_000)), f"upd-{word:09d}", key), kind
        return DELETE, (key,), kind

    def _apply(self, params: tuple, kind: str) -> None:
        if kind == "insert":
            self.model[params[0]] = params
            self.slot[params[0]] = len(self.live)
            self.live.append(params[0])
        elif kind == "update":
            v, name, key = params
            _, _, _, note = self.model[key]
            self.model[key] = (key, name, v, note)
        else:
            del self.model[params[0]]
            self._take(params[0])

    # -- timed loop ----------------------------------------------------------

    def measure(self, seconds: float, tracer: Tracer | None = None) -> Measurement:
        conn = self.conn
        first = self.op_index

        def step(i: int) -> None:
            sql, params, kind = self._next_statement()
            if tracer is not None:
                tracer.op_id = first + i
            cursor = conn.execute(sql, params)
            if cursor.rowcount != 1:
                raise CheckFailed(f"{kind} {params[-1] if kind == 'update' else params[0]} "
                                  f"affected {cursor.rowcount} rows")
            self._apply(params, kind)
            self.user_bytes += _user_bytes(params)

        self.phase_first = first
        return closed_loop(seconds, step)

    # -- checks --------------------------------------------------------------

    def verify(self) -> None:
        """Reopen the directory: the table must equal the acknowledged state."""
        self.conn.close()
        reopened = repro.connect(path=self.path)
        try:
            rows = reopened.execute("SELECT id, name, v, note FROM kv").fetchall()
        finally:
            reopened.close()
        found = {row[0]: tuple(row) for row in rows}
        if len(found) != len(rows):
            raise CheckFailed("duplicate keys after reopening")
        missing = self.model.keys() - found.keys()
        if missing:
            raise CheckFailed(f"{len(missing)} acknowledged rows lost, e.g. id {min(missing)}")
        resurrected = found.keys() - self.model.keys()
        if resurrected:
            raise CheckFailed(
                f"{len(resurrected)} deleted rows came back, e.g. id {min(resurrected)}"
            )
        for key, row in self.model.items():
            if found[key] != row:
                raise CheckFailed(f"row {key} is {found[key]}, expected {row}")

    def report(self) -> list[str]:
        return [
            f"table rows at start {ROWS}, live at end {len(self.model)}; "
            "synchronous=normal, checkpoint interval 1000 WAL records, 128-page pool"
        ]

    def end_to_end(self) -> dict[str, float]:
        return {"peak_rss_mb": peak_rss_mb()}

    # -- tracing -------------------------------------------------------------

    def _pragma(self, name: str) -> dict[str, Any]:
        return pragma_dict(self.conn.execute(f"PRAGMA {name}").fetchall())

    def instrument(self, tracer: Tracer) -> None:
        self.pool_before = self._pragma("buffer_pool_stats")
        self.durability_before = self._pragma("durability_stats")
        self.cache_before = self.conn.cache_stats()
        self.user_bytes = 0
        instrument_db(tracer)

    def layer_metrics(self, tracer: Tracer, traced: Measurement) -> dict[str, float]:
        ops = len(traced.latencies)
        summary = tracer.summary()
        metrics = sql_layer_metrics(summary, ops, rows=ops)
        pool_after, durability_after, cache_after = self.final_stats
        live_bytes = sum(_user_bytes(row) for row in self.model.values())
        metrics.update(pager_metrics(self.pool_before, pool_after, ops, live_bytes))
        metrics.update(
            wal_metrics(summary, self.durability_before, durability_after, ops, self.user_bytes)
        )
        lookups = (cache_after.hits + cache_after.misses) - (
            self.cache_before.hits + self.cache_before.misses
        )
        metrics["db.connection.stmt_cache_hit_rate"] = per_op(
            cache_after.hits - self.cache_before.hits, lookups
        )
        checkpoint_ops = tracer.op_durations("db.durability.checkpoint")
        stalls = [
            traced.by_step[op - self.phase_first]
            for op in checkpoint_ops
            if op - self.phase_first in traced.by_step
        ]
        metrics["db.durability.checkpoints"] = per_op(
            durability_after["checkpoints"] - self.durability_before["checkpoints"], ops, 1000.0
        )
        metrics["db.durability.checkpoint_ms"] = (
            statistics.fmean(checkpoint_ops.values()) * 1e3 if checkpoint_ops else 0.0
        )
        metrics["db.durability.stall_ms"] = statistics.fmean(stalls) * 1e3 if stalls else 0.0
        snapshot = self.path / "snapshot.json"
        metrics["db.snapshot.bytes_per_user_byte"] = per_op(
            snapshot.stat().st_size if snapshot.exists() else 0, live_bytes
        )
        return metrics

    def collect(self) -> None:
        """Read the counters before :meth:`verify` closes the directory."""
        self.final_stats = (
            self._pragma("buffer_pool_stats"),
            self._pragma("durability_stats"),
            self.conn.cache_stats(),
        )
