"""Tracing of the connection, SQL, storage and WAL layers, shared by workloads.

``write`` and ``expand`` install these wrappers in the benchmark process;
``serve`` installs them inside the server process (see ``serve_child.py``),
so every workload attributes time to the layers it shares with the others
— ``db.sql``, ``db.storage`` and ``db.pager`` — the same way.
"""

from __future__ import annotations

from typing import Any, Mapping

from tracing import TimedModule, Tracer, per_op


def instrument_db(tracer: Tracer) -> None:
    """Wrap the entry points of the connection, SQL, storage and WAL layers."""
    import repro.db.sql.parameters as parameters
    import repro.db.sql.parser as parser
    import repro.db.wal as wal
    from repro.db.connection import Connection
    from repro.db.durability import DurabilityManager
    from repro.db.indexes import OrderedIndex
    from repro.db.sql.executor import Executor
    from repro.db.sql.operators import IndexRangeScan, IndexScan, SeqScan
    from repro.db.sql.planner import Planner
    from repro.db.storage import TableStorage

    tracer.patch_method(Connection, "run_statement", "db.connection")
    tracer.patch_function(parser, "parse_statement", "db.sql.parser")
    tracer.patch_function(parser, "parse_script", "db.sql.parser")
    tracer.patch_function(parameters, "bind_statement", "db.sql.parameters")
    tracer.patch_function(parameters, "bind_select_plan", "db.sql.parameters")
    tracer.patch_method(Planner, "plan_select", "db.sql.planner")
    for method in ("execute", "execute_select_plan", "open_select"):
        tracer.patch_method(Executor, method, "db.sql.executor")

    def examined(kind: str):
        def on_open(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
            tracer.count(f"scan.{kind}")
            tracer.count("rows.examined", len(args[0]._snapshot))

        return on_open

    tracer.patch_method(SeqScan, "open", "db.sql.operators", examined("seq"))
    tracer.patch_method(IndexScan, "open", "db.sql.operators", examined("index"))
    tracer.patch_method(IndexRangeScan, "open", "db.sql.operators", examined("index"))

    # UPDATE and DELETE read the table through TableStorage.scan(); count
    # every row it yields.
    scan = TableStorage.scan

    def counting_scan(self: TableStorage):
        for pair in scan(self):
            tracer.count("rows.examined")
            yield pair

    tracer.patch_object(TableStorage, "scan", counting_scan)
    for method in ("get", "insert", "update", "delete"):
        tracer.patch_method(TableStorage, method, f"db.storage.{method}")
    for method in ("lookup", "range_rowids", "range_pairs"):
        tracer.patch_method(OrderedIndex, method, "db.indexes")

    tracer.patch_method(wal.WriteAheadLog, "append", "db.wal.append")
    tracer.patch_object(wal, "os", TimedModule(wal.os, tracer, {"fsync": "db.wal.fsync"}))

    def wal_size_before_checkpoint(tracer: Tracer, args: tuple, kwargs: dict) -> None:
        tracer.count("wal.bytes_truncated", args[0].wal.size_bytes)

    tracer.patch_method(
        DurabilityManager,
        "checkpoint",
        "db.durability.checkpoint",
        on_call=wal_size_before_checkpoint,
    )


def pragma_dict(rows: Any) -> dict[str, Any]:
    """``PRAGMA durability_stats`` / ``buffer_pool_stats`` rows as a dict."""
    return {key: value for key, value in rows}


def sql_layer_metrics(summary: Mapping[str, Any], ops: int, rows: int) -> dict[str, float]:
    """Connection, SQL front end, executor, storage and index metrics."""
    inclusive, self_s = summary["inclusive_s"], summary["self_s"]
    calls, counts = summary["calls"], summary["counts"]
    scans = counts.get("scan.seq", 0) + counts.get("scan.index", 0)
    return {
        "db.sql.parse_calls_per_op": per_op(calls.get("db.sql.parser", 0), ops),
        "db.sql.parse_us": per_op(inclusive.get("db.sql.parser", 0.0), ops, 1e6),
        "db.sql.parameters.bind_us": per_op(inclusive.get("db.sql.parameters", 0.0), ops, 1e6),
        "db.sql.planner.plan_us": per_op(inclusive.get("db.sql.planner", 0.0), ops, 1e6),
        "db.sql.planner.index_path_ratio": per_op(counts.get("scan.index", 0), scans),
        "db.sql.executor.self_us": per_op(
            self_s.get("db.sql.executor", 0.0) + self_s.get("db.sql.operators", 0.0), ops, 1e6
        ),
        "db.sql.executor.rows_examined_per_row": per_op(counts.get("rows.examined", 0), rows),
        "db.storage.get_us": per_op(inclusive.get("db.storage.get", 0.0), ops, 1e6),
        "db.storage.insert_us": per_op(inclusive.get("db.storage.insert", 0.0), ops, 1e6),
        "db.storage.update_us": per_op(inclusive.get("db.storage.update", 0.0), ops, 1e6),
        "db.indexes.range_us": per_op(inclusive.get("db.indexes", 0.0), ops, 1e6),
    }


def pager_metrics(
    before: Mapping[str, Any], after: Mapping[str, Any], ops: int, live_bytes: int
) -> dict[str, float]:
    """Buffer-pool deltas over the traced phase (``PRAGMA buffer_pool_stats``)."""
    hits = after.get("hits", 0) - before.get("hits", 0)
    misses = after.get("misses", 0) - before.get("misses", 0)
    return {
        "db.pager.hit_rate": per_op(hits, hits + misses),
        "db.pager.misses_per_op": per_op(misses, ops),
        "db.pager.evictions_per_op": per_op(
            after.get("evictions", 0) - before.get("evictions", 0), ops
        ),
        "db.pager.heap_bytes_per_live_byte": per_op(after.get("heap_bytes", 0), live_bytes),
    }


def wal_metrics(
    summary: Mapping[str, Any],
    before: Mapping[str, Any],
    after: Mapping[str, Any],
    ops: int,
    user_bytes: int,
) -> dict[str, float]:
    """WAL append/fsync cost and write amplification over the traced phase."""
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]
    wal_bytes = (
        counts.get("wal.bytes_truncated", 0)
        + after.get("wal_size_bytes", 0)
        - before.get("wal_size_bytes", 0)
    )
    return {
        "db.wal.append_us": per_op(
            self_s.get("db.wal.append", 0.0), calls.get("db.wal.append", 0), 1e6
        ),
        "db.wal.fsync_us": per_op(
            self_s.get("db.wal.fsync", 0.0), calls.get("db.wal.fsync", 0), 1e6
        ),
        "db.wal.fsyncs_per_kop": per_op(
            after.get("fsyncs", 0) - before.get("fsyncs", 0), ops, 1000.0
        ),
        "db.wal.bytes_per_user_byte": per_op(wal_bytes, user_bytes),
    }
