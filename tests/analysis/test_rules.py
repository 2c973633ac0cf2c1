"""Per-rule coverage: one violating fixture and one clean fixture per rule.

Fixtures are fed through :func:`repro.analysis.analyze_project` as
in-memory ``{path: source}`` mappings, so violation examples never exist
as real files that the CI gate (``python -m repro.analysis src tests
benchmarks``) would then flag.  Each test selects only the rule under
test, keeping fixtures minimal.
"""

from __future__ import annotations

import textwrap

from repro.analysis import analyze_project


def findings_of(sources: dict[str, str], rule: str) -> list:
    report = analyze_project(
        {path: textwrap.dedent(code) for path, code in sources.items()},
        select=[rule],
    )
    return report.unsuppressed


class TestLockOrder:
    def test_flags_abba_cycle(self):
        findings = findings_of(
            {
                "src/repro/db/catalog.py": """
                class Catalog:
                    def forward(self):
                        with self.lock:
                            with self.cache._lock:
                                pass

                    def backward(self):
                        with self.cache._lock:
                            with self.lock:
                                pass
                """
            },
            "lock-order",
        )
        assert len(findings) == 1
        assert "cycle" in findings[0].message
        assert "Catalog.lock" in findings[0].message
        assert "AnswerCache._lock" in findings[0].message

    def test_flags_interprocedural_cycle(self):
        # Neither function nests both locks lexically; the cycle only
        # exists through the call graph.
        findings = findings_of(
            {
                "src/repro/db/catalog.py": """
                class Catalog:
                    def forward(self):
                        with self.lock:
                            self._touch_cache()

                    def _touch_cache(self):
                        with self.cache._lock:
                            pass

                    def backward(self):
                        with self.cache._lock:
                            self._touch_lock()

                    def _touch_lock(self):
                        with self.lock:
                            pass
                """
            },
            "lock-order",
        )
        assert len(findings) == 1

    def test_consistent_order_is_clean(self):
        findings = findings_of(
            {
                "src/repro/db/catalog.py": """
                class Catalog:
                    def forward(self):
                        with self.lock:
                            with self.cache._lock:
                                pass

                    def also_forward(self):
                        with self.lock:
                            with self.cache._lock:
                                pass
                """
            },
            "lock-order",
        )
        assert findings == []

    def test_reentrant_same_lock_is_not_a_cycle(self):
        findings = findings_of(
            {
                "src/repro/db/catalog.py": """
                class Catalog:
                    def outer(self):
                        with self.lock:
                            self.inner()

                    def inner(self):
                        with self.lock:
                            pass
                """
            },
            "lock-order",
        )
        assert findings == []


class TestLockBlocking:
    def test_flags_sleep_under_catalog_lock(self):
        findings = findings_of(
            {
                "src/repro/db/catalog.py": """
                import time

                class Catalog:
                    def slow(self):
                        with self.lock:
                            time.sleep(1.0)
                """
            },
            "lock-blocking",
        )
        assert len(findings) == 1
        assert "sleep" in findings[0].message

    def test_flags_dispatch_under_catalog_lock(self):
        findings = findings_of(
            {
                "src/repro/db/sql/operators.py": """
                class CrowdFill:
                    def run(self, source, attribute, items):
                        with self._lock:  # injected catalog lock
                            return source.request_values(attribute, items)
                """
            },
            "lock-blocking",
        )
        assert len(findings) == 1
        assert "request_values" in findings[0].message

    def test_blocking_outside_lock_is_clean(self):
        findings = findings_of(
            {
                "src/repro/db/catalog.py": """
                import time

                class Catalog:
                    def fine(self):
                        with self.lock:
                            x = 1
                        time.sleep(1.0)
                        return x
                """
            },
            "lock-blocking",
        )
        assert findings == []

    def test_other_locks_may_wrap_fsync(self):
        # The WAL fsyncs under its own lock by design.
        findings = findings_of(
            {
                "src/repro/db/wal.py": """
                import os

                class WriteAheadLog:
                    def _sync(self):
                        with self._lock:
                            os.fsync(self._file.fileno())
                """
            },
            "lock-blocking",
        )
        assert findings == []

    def test_flags_sync_sleep_inside_coroutine(self):
        # time.sleep inside an async def blocks the whole event loop.
        findings = findings_of(
            {
                "src/repro/server/server.py": """
                import time

                class Handler:
                    async def run(self):
                        time.sleep(0.1)
                """
            },
            "lock-blocking",
        )
        assert len(findings) == 1
        assert "event loop" in findings[0].message
        assert "sleep" in findings[0].message

    def test_flags_future_result_inside_coroutine(self):
        findings = findings_of(
            {
                "src/repro/server/server.py": """
                class Handler:
                    async def run(self, future):
                        return future.result()
                """
            },
            "lock-blocking",
        )
        assert len(findings) == 1
        assert "result" in findings[0].message

    def test_awaited_sleep_and_wait_are_clean(self):
        # Awaited calls yield to the loop instead of blocking it, and
        # run_in_executor is the sanctioned home for blocking work.
        findings = findings_of(
            {
                "src/repro/server/server.py": """
                import asyncio

                class Server:
                    async def drain(self):
                        await asyncio.sleep(0.02)
                        await self._stop_event.wait()

                    async def dispatch(self, loop, fn):
                        return await loop.run_in_executor(None, fn)
                """
            },
            "lock-blocking",
        )
        assert findings == []

    def test_sync_helper_in_server_module_not_event_loop_checked(self):
        # Only coroutine bodies are event-loop territory; a sync helper
        # may block (it runs on a worker or the caller's thread).
        findings = findings_of(
            {
                "src/repro/server/server.py": """
                class Server:
                    def stop(self, thread):
                        thread.join(timeout=5.0)
                        self._started.wait(timeout=5.0)
                """
            },
            "lock-blocking",
        )
        assert findings == []


class TestChargeOnce:
    def test_flags_dispatch_outside_runtime_layer(self):
        findings = findings_of(
            {
                "src/repro/core/quality.py": """
                def resample(source, attribute, items):
                    return source.request_values(attribute, items)
                """
            },
            "charge-once",
        )
        assert len(findings) == 1
        assert "outside the runtime/operator layer" in findings[0].message

    def test_flags_discarded_cost(self):
        findings = findings_of(
            {
                "src/repro/crowd/sources.py": """
                class Source:
                    def warm(self, attribute, items):
                        self.request_values_with_cost(attribute, items)
                """
            },
            "charge-once",
        )
        assert len(findings) == 1
        assert "discarded" in findings[0].message

    def test_flags_per_iteration_charge_without_dispatch(self):
        findings = findings_of(
            {
                "src/repro/crowd/runtime.py": """
                def settle(session, groups, cost):
                    for _group in groups:
                        session.record_cost(cost)
                """
            },
            "charge-once",
        )
        assert len(findings) == 1
        assert "per loop iteration" in findings[0].message

    def test_flags_double_charge_on_one_path(self):
        findings = findings_of(
            {
                "src/repro/crowd/runtime.py": """
                def charge(session, cost):
                    session.record_cost(cost)
                    session.record_cost(cost)
                """
            },
            "charge-once",
        )
        assert len(findings) == 1
        assert "2 times" in findings[0].message

    def test_loop_with_dispatch_charges_clean(self):
        # One dispatch, one charge, per batch.
        findings = findings_of(
            {
                "src/repro/crowd/runtime.py": """
                def flush(session, source, attribute, batches):
                    for batch in batches:
                        dispatch = source.request_values_with_cost(attribute, batch)
                        session.record_cost(dispatch.cost)
                    return dispatch.values
                """
            },
            "charge-once",
        )
        assert findings == []

    def test_flags_dispatch_from_the_operator_layer(self):
        # Physical operators reach value sources only through the runtime.
        findings = findings_of(
            {
                "src/repro/db/sql/operators.py": """
                class CrowdFill:
                    def flush(self, attribute, items):
                        return self.spec.source.request_values_with_cost(attribute, items)
                """
            },
            "charge-once",
        )
        assert len(findings) == 1
        assert "request_values_with_cost" in findings[0].message

    def test_conditional_branches_may_each_charge(self):
        findings = findings_of(
            {
                "src/repro/crowd/runtime.py": """
                def charge(session, cost, detailed):
                    if detailed:
                        session.record_cost(cost)
                    else:
                        session.record_cost(cost * 2)
                """
            },
            "charge-once",
        )
        assert findings == []


class TestFillProvenance:
    def test_flags_fill_values_without_provenance(self):
        findings = findings_of(
            {
                "src/repro/core/expansion.py": """
                def write_back(storage, attribute, updates):
                    return storage.fill_values(attribute, updates)
                """
            },
            "fill-provenance",
        )
        assert len(findings) == 1
        assert "provenance" in findings[0].message

    def test_fill_values_with_provenance_is_clean(self):
        findings = findings_of(
            {
                "src/repro/core/expansion.py": """
                def write_back(storage, attribute, updates):
                    return storage.fill_values(attribute, updates, provenance="crowd")
                """
            },
            "fill-provenance",
        )
        assert findings == []

    def test_flags_storage_internal_poke(self):
        findings = findings_of(
            {
                "src/repro/db/executor.py": """
                def shortcut(storage, rowid, row):
                    storage._rows[rowid] = row
                """
            },
            "fill-provenance",
        )
        assert len(findings) == 1
        assert "_rows" in findings[0].message

    def test_own_self_attributes_elsewhere_are_clean(self):
        # executor.py has its own unrelated self._rows buffer.
        findings = findings_of(
            {
                "src/repro/db/executor.py": """
                class Cursor:
                    def __init__(self):
                        self._rows = []

                    def push(self, row):
                        self._rows.append(row)
                """
            },
            "fill-provenance",
        )
        assert findings == []

    def test_storage_module_itself_is_exempt(self):
        findings = findings_of(
            {
                "src/repro/db/storage.py": """
                class TableStorage:
                    def get(self, rowid):
                        return self._rows[rowid]
                """
            },
            "fill-provenance",
        )
        assert findings == []


class TestMissingIdentity:
    def test_flags_equality_comparison(self):
        findings = findings_of(
            {
                "src/repro/db/executor.py": """
                from repro.db.types import MISSING

                def is_empty(value):
                    return value == MISSING
                """
            },
            "missing-identity",
        )
        assert len(findings) == 1
        assert "==" in findings[0].message

    def test_flags_truthiness(self):
        findings = findings_of(
            {
                "tests/db/test_cells.py": """
                from repro.db.types import MISSING

                def check(cell):
                    if not MISSING:
                        return cell
                """
            },
            "missing-identity",
        )
        assert len(findings) == 1
        assert "boolean context" in findings[0].message

    def test_identity_comparison_is_clean(self):
        findings = findings_of(
            {
                "src/repro/db/executor.py": """
                from repro.db.types import MISSING

                def is_empty(value):
                    return value is MISSING

                def has_value(value):
                    return value is not MISSING
                """
            },
            "missing-identity",
        )
        assert findings == []


class TestSeededRng:
    def test_flags_unseeded_default_rng(self):
        findings = findings_of(
            {
                "src/repro/crowd/worker.py": """
                import numpy as np

                def roll():
                    return np.random.default_rng().random()
                """
            },
            "seeded-rng",
        )
        assert len(findings) == 1
        assert "without a seed" in findings[0].message

    def test_flags_legacy_global_api(self):
        findings = findings_of(
            {
                "src/repro/crowd/worker.py": """
                import numpy as np

                def roll():
                    return np.random.rand(3)
                """
            },
            "seeded-rng",
        )
        assert len(findings) == 1
        assert "np.random.rand" in findings[0].message

    def test_flags_stdlib_random_import(self):
        findings = findings_of(
            {
                "tests/crowd/test_jitter.py": """
                import random

                def jitter():
                    return random.random()
                """
            },
            "seeded-rng",
        )
        assert len(findings) == 1
        assert "stdlib" in findings[0].message

    def test_seeded_generator_is_clean(self):
        findings = findings_of(
            {
                "src/repro/crowd/worker.py": """
                import numpy as np

                def roll(seed):
                    return np.random.default_rng(seed).random()
                """
            },
            "seeded-rng",
        )
        assert findings == []

    def test_rng_module_is_exempt(self):
        findings = findings_of(
            {
                "src/repro/utils/rng.py": """
                import numpy as np

                def ensure_rng(seed=None):
                    if seed is None:
                        return np.random.default_rng(12345)
                    return np.random.default_rng(seed)
                """
            },
            "seeded-rng",
        )
        assert findings == []


WAL_OK = """
RECORD_TYPES = frozenset({"insert", "delete"})
"""

DURABILITY_OK = """
class TableJournal:
    def row_inserted(self, rowid, row):
        self._manager.append("insert", {"rowid": rowid, "row": row})

    def row_deleted(self, rowid):
        self._manager.append("delete", {"rowid": rowid})

class DurabilityManager:
    def _apply(self, record):
        op = record["op"]
        if op == "insert":
            return self.do_insert(record)
        elif op == "delete":
            return self.do_delete(record)
"""

STORAGE_OK = """
class TableStorage:
    def insert(self, values):
        rowid = self.next_rowid()
        if self.journal is not None:
            self.journal.row_inserted(rowid, values)
        return rowid

    def delete(self, rowid):
        if self.journal is not None:
            self.journal.row_deleted(rowid)
"""


class TestWalCoverage:
    def test_consistent_registry_is_clean(self):
        findings = findings_of(
            {
                "src/repro/db/wal.py": WAL_OK,
                "src/repro/db/durability.py": DURABILITY_OK,
                "src/repro/db/storage.py": STORAGE_OK,
            },
            "wal-coverage",
        )
        assert findings == []

    def test_flags_unregistered_append(self):
        findings = findings_of(
            {
                "src/repro/db/wal.py": """
                RECORD_TYPES = frozenset({"insert"})
                """,
                "src/repro/db/durability.py": DURABILITY_OK,
                "src/repro/db/storage.py": STORAGE_OK,
            },
            "wal-coverage",
        )
        messages = " | ".join(finding.message for finding in findings)
        assert "'delete' is appended but not registered" in messages

    def test_flags_missing_replay_handler(self):
        findings = findings_of(
            {
                "src/repro/db/wal.py": WAL_OK,
                "src/repro/db/durability.py": """
                class TableJournal:
                    def row_inserted(self, rowid, row):
                        self._manager.append("insert", {"rowid": rowid})

                    def row_deleted(self, rowid):
                        self._manager.append("delete", {"rowid": rowid})

                class DurabilityManager:
                    def _apply(self, record):
                        op = record["op"]
                        if op == "insert":
                            return self.do_insert(record)
                """,
                "src/repro/db/storage.py": STORAGE_OK,
            },
            "wal-coverage",
        )
        messages = " | ".join(finding.message for finding in findings)
        assert "'delete' has no replay handler" in messages

    def test_flags_missing_registry(self):
        findings = findings_of(
            {
                "src/repro/db/wal.py": """
                class WriteAheadLog:
                    pass
                """,
            },
            "wal-coverage",
        )
        assert len(findings) == 1
        assert "no RECORD_TYPES registry" in findings[0].message

    def test_flags_unjournalled_mutator(self):
        findings = findings_of(
            {
                "src/repro/db/wal.py": WAL_OK,
                "src/repro/db/durability.py": DURABILITY_OK,
                "src/repro/db/storage.py": """
                class TableStorage:
                    def insert(self, values):
                        rowid = self.next_rowid()
                        if self.journal is not None:
                            self.journal.row_inserted(rowid, values)
                        return rowid

                    def delete(self, rowid):
                        self._rows.pop(rowid)
                """,
            },
            "wal-coverage",
        )
        messages = " | ".join(finding.message for finding in findings)
        assert "TableStorage.delete() mutates durable state" in messages


class TestThreadChokepoint:
    def test_flags_thread_outside_runtime(self):
        findings = findings_of(
            {
                "src/repro/db/connection.py": """
                import threading

                def spawn(fn):
                    worker = threading.Thread(target=fn, daemon=True)
                    worker.start()
                    return worker
                """
            },
            "thread-chokepoint",
        )
        assert len(findings) == 1
        assert "Thread" in findings[0].message

    def test_flags_bare_executor(self):
        findings = findings_of(
            {
                "src/repro/core/pipeline.py": """
                from concurrent.futures import ThreadPoolExecutor

                def pool():
                    return ThreadPoolExecutor(max_workers=4)
                """
            },
            "thread-chokepoint",
        )
        assert len(findings) == 1

    def test_runtime_module_is_exempt(self):
        findings = findings_of(
            {
                "src/repro/crowd/runtime.py": """
                from concurrent.futures import ThreadPoolExecutor

                class AcquisitionRuntime:
                    def _ensure_pool(self):
                        return ThreadPoolExecutor(max_workers=self.max_workers)
                """
            },
            "thread-chokepoint",
        )
        assert findings == []

    def test_server_package_is_sanctioned(self):
        # The served-database front-end owns its event loop, worker pool
        # and background server thread (all drained on shutdown).
        findings = findings_of(
            {
                "src/repro/server/server.py": """
                import threading
                from concurrent.futures import ThreadPoolExecutor

                class ReproServer:
                    def _open(self):
                        self._executor = ThreadPoolExecutor(max_workers=8)

                    def start(self):
                        self._thread = threading.Thread(target=self._run, daemon=True)
                        self._thread.start()
                """
            },
            "thread-chokepoint",
        )
        assert findings == []

    def test_server_sibling_modules_still_flagged(self):
        # Sanctioning repro/server/ must not leak to e.g. the client
        # module's neighbours elsewhere in the tree.
        findings = findings_of(
            {
                "src/repro/db/durability.py": """
                import threading

                def watcher(fn):
                    return threading.Timer(1.0, fn)
                """
            },
            "thread-chokepoint",
        )
        assert len(findings) == 1
        assert "Timer" in findings[0].message

    def test_tests_are_out_of_scope(self):
        findings = findings_of(
            {
                "tests/db/test_races.py": """
                import threading

                def spawn(fn):
                    return threading.Thread(target=fn)
                """
            },
            "thread-chokepoint",
        )
        assert findings == []
