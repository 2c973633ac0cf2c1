"""Engine-level tests for concurrent crowd acquisition and answer caching.

Covers the contracts the acquisition runtime adds to the query engine:
cross-query cache behaviour (TTL-driven re-acquisition, direct-UPDATE
invalidation), in-flight coalescing across connections sharing a catalog,
determinism of crowd answers across concurrency levels, and the new
EXPLAIN ANALYZE counters.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Sequence

from repro.crowd.platform import CrowdPlatform
from repro.crowd.runtime import AcquisitionRuntime
from repro.crowd.sources import SimulatedCrowdValueSource
from repro.crowd.worker import WorkerPool
from repro.db import Catalog, Connection, Dispatch, SessionContext


class BlockingSource:
    """ValueSource answering a constant, optionally blocking mid-dispatch."""

    def __init__(self, value: Any = 0.9) -> None:
        self.value = value
        self.calls: list[tuple[str, tuple[int, ...]]] = []
        self._lock = threading.Lock()
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()

    def request_values_with_cost(
        self, attribute: str, items: Sequence[tuple[int, dict[str, Any]]], **_: Any
    ) -> Dispatch:
        with self._lock:
            self.calls.append((attribute, tuple(rowid for rowid, _row in items)))
        self.entered.set()
        assert self.release.wait(timeout=10.0), "test forgot to release the source"
        return Dispatch({rowid: self.value for rowid, _row in items}, 0.0)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_items_connection(
    n: int, catalog: Catalog | None = None, session: SessionContext | None = None
) -> Connection:
    conn = Connection(catalog if catalog is not None else Catalog(), session=session)
    if not conn.catalog.has_table("items"):
        conn.execute("CREATE TABLE items (item_id INTEGER PRIMARY KEY, name TEXT)")
        conn.executemany(
            "INSERT INTO items (item_id, name) VALUES (?, ?)",
            [(i, f"item-{i}") for i in range(1, n + 1)],
        )
        conn.add_perceptual_column("items", "appeal")
    return conn


class TestAnswerCacheThroughTheEngine:
    def test_ttl_expiry_triggers_reacquisition(self):
        clock = FakeClock()
        runtime = AcquisitionRuntime(cache_ttl_seconds=60.0, clock=clock)
        conn = make_items_connection(4)
        conn.set_acquisition_runtime(runtime)
        source = BlockingSource()
        conn.set_value_source(source, batch_size=10)
        conn.session.crowd_write_back = False

        conn.execute("SELECT count(appeal) FROM items").fetchone()
        assert len(source.calls) == 1
        # Within the TTL the repeat query is cache-served...
        clock.advance(59.0)
        conn.execute("SELECT count(appeal) FROM items").fetchone()
        assert len(source.calls) == 1
        # ... past it the entries expire and the crowd is asked again.
        clock.advance(2.0)
        conn.execute("SELECT count(appeal) FROM items").fetchone()
        assert len(source.calls) == 2
        assert runtime.cache.stats().expirations == 4

    def test_direct_update_invalidates_cached_cell(self):
        conn = make_items_connection(4)
        runtime = conn.acquisition_runtime()
        source = BlockingSource(value=0.9)
        conn.set_value_source(source, batch_size=10)
        conn.session.crowd_write_back = False

        conn.execute("SELECT count(appeal) FROM items").fetchone()
        assert len(runtime.cache) == 4
        conn.execute("UPDATE items SET appeal = ? WHERE item_id = ?", (0.1, 3))
        stats = runtime.cache.stats()
        assert stats.invalidations == 1
        assert len(runtime.cache) == 3
        # The updated cell holds a stored value now; the other three are
        # cache-served, so the repeat query needs no platform call at all.
        conn.execute("SELECT count(appeal) FROM items").fetchone()
        assert len(source.calls) == 1

    def test_update_invalidates_persisted_crowd_answer(self):
        # write_back=True: the crowd answer is both stored and cached; a
        # direct UPDATE must evict the cache entry (the stored value wins).
        conn = make_items_connection(3)
        runtime = conn.acquisition_runtime()
        conn.set_value_source(BlockingSource(value=0.9), batch_size=10)
        conn.execute("SELECT count(appeal) FROM items").fetchone()
        assert len(runtime.cache) == 3
        conn.execute("UPDATE items SET appeal = ? WHERE item_id = ?", (0.2, 1))
        assert len(runtime.cache) == 2
        assert runtime.cache.get("items", "appeal", 1) == (False, None)

    def test_acquisition_write_back_does_not_invalidate_its_own_entries(self):
        conn = make_items_connection(5)
        runtime = conn.acquisition_runtime()
        conn.set_value_source(BlockingSource(value=0.7), batch_size=10)
        conn.execute("SELECT count(appeal) FROM items").fetchone()
        # fill_values persisted 5 crowd answers; none of those writes may
        # evict the cache entries they correspond to.
        assert len(runtime.cache) == 5
        assert runtime.cache.stats().invalidations == 0

    def test_concurrent_update_beats_in_flight_write_back(self):
        # A direct UPDATE that lands while a crowd dispatch is in flight
        # makes the stored value authoritative: the late-arriving crowd
        # answer must neither overwrite it in storage nor shadow it from
        # the answer cache.
        conn = make_items_connection(4)
        runtime = conn.acquisition_runtime()
        source = BlockingSource(value=0.9)
        conn.set_value_source(source, batch_size=10)
        source.release.clear()

        results: list[list] = []

        def run() -> None:
            results.append(conn.execute("SELECT item_id, appeal FROM items").fetchall())

        worker = Connection(conn.catalog)
        thread = threading.Thread(target=run)
        thread.start()
        assert source.entered.wait(timeout=5.0)  # dispatch in flight
        worker.execute("UPDATE items SET appeal = ? WHERE item_id = ?", (0.5, 2))
        source.release.set()
        thread.join(timeout=10.0)

        table = conn.catalog.table("items")
        assert table.get(2)["appeal"] == 0.5  # the stored value survived
        assert table.provenance_of("appeal", 2).source == "stored"
        assert runtime.cache.get("items", "appeal", 2) == (False, None)
        # The other three cells were written back as crowd answers.
        assert conn.provenance_counts("items", "appeal")["crowd"] == 3

    def test_delete_evicts_cached_answers(self):
        conn = make_items_connection(4)
        runtime = conn.acquisition_runtime()
        conn.set_value_source(BlockingSource(), batch_size=10)
        conn.session.crowd_write_back = False
        conn.execute("SELECT count(appeal) FROM items").fetchone()
        assert len(runtime.cache) == 4
        conn.execute("DELETE FROM items WHERE item_id = ?", (2,))
        # Rowids are never reused, but dead entries must not squat in the
        # cache's LRU capacity.
        assert len(runtime.cache) == 3

    def test_drop_table_invalidates_cached_answers(self):
        conn = make_items_connection(3)
        runtime = conn.acquisition_runtime()
        conn.set_value_source(BlockingSource(), batch_size=10)
        conn.session.crowd_write_back = False
        conn.execute("SELECT count(appeal) FROM items").fetchone()
        assert len(runtime.cache) == 3
        conn.execute("DROP TABLE items")
        # A re-created table reuses rowids from 1; stale answers must not
        # leak into its cells.
        assert len(runtime.cache) == 0


class TestSharedRuntimeKnobs:
    def test_ignored_session_knobs_warn(self):
        import pytest

        catalog = Catalog()
        first = make_items_connection(2, catalog)
        first.acquisition_runtime()  # shared runtime created with defaults
        second = Connection(catalog, session=SessionContext(answer_cache_ttl=60.0))
        with pytest.warns(RuntimeWarning, match="first-caller-wins"):
            runtime = second.acquisition_runtime()
        # First-caller-wins: the TTL knob did not apply...
        assert runtime.cache.ttl_seconds is None
        # ... and the warning fires once per connection, not per statement.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            second.acquisition_runtime()

    def test_ignored_knobs_callback_replaces_warning(self):
        # The server installs on_runtime_knobs_ignored on tenant sessions
        # so mismatches aggregate into one log line instead of warning
        # once per tenant; with the hook set, no RuntimeWarning escapes.
        import warnings as warnings_module

        catalog = Catalog()
        first = make_items_connection(2, catalog)
        first.acquisition_runtime()  # shared runtime created with defaults
        calls: list[int] = []
        session = SessionContext(
            answer_cache_ttl=60.0, on_runtime_knobs_ignored=lambda: calls.append(1)
        )
        second = Connection(catalog, session=session)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            second.acquisition_runtime()
        assert calls == [1]
        # Still once per connection, exactly like the warning path.
        second.acquisition_runtime()
        assert calls == [1]

    def test_default_knob_sessions_never_warn(self):
        # A session that never expressed runtime knobs must not be warned
        # about a shared runtime configured by someone else.
        import warnings as warnings_module

        catalog = Catalog()
        pinned = Connection(
            catalog, session=SessionContext(answer_cache_ttl=60.0, answer_cache_size=8)
        )
        pinned.acquisition_runtime()  # creates the shared runtime, custom knobs
        plain = Connection(catalog)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            runtime = plain.acquisition_runtime()
        assert runtime.cache.ttl_seconds == 60.0


class TestCrossConnectionCoalescing:
    def test_concurrent_identical_queries_share_one_dispatch(self):
        catalog = Catalog()
        first = make_items_connection(4, catalog)
        second = Connection(catalog)
        source = BlockingSource(value=0.8)
        for conn in (first, second):
            conn.set_value_source(source, batch_size=10)
            conn.session.crowd_write_back = False

        source.release.clear()
        counts: list[int] = []

        def run(conn: Connection) -> None:
            (count,) = conn.execute("SELECT count(appeal) FROM items").fetchone()
            counts.append(count)

        owner = threading.Thread(target=run, args=(first,))
        owner.start()
        assert source.entered.wait(timeout=5.0)  # first dispatch in flight
        joiner = threading.Thread(target=run, args=(second,))
        joiner.start()
        time.sleep(0.05)
        source.release.set()
        owner.join(timeout=10.0)
        joiner.join(timeout=10.0)

        assert counts == [4, 4]
        # One platform dispatch served both connections: the second query's
        # cells were coalesced onto the in-flight batch (or cache-served if
        # the joiner lost the race to the dispatch finishing).
        assert len(source.calls) == 1
        runtime = catalog.acquisition_runtime()
        assert runtime.total_coalesced + runtime.total_cache_hits >= 4


class TestConcurrencyDeterminism:
    ATTRIBUTES = ("funny", "scary", "romantic")

    def run_workload(self, concurrency: int) -> dict[str, dict[int, Any]]:
        """One fresh catalog + seeded simulated crowd, queried once."""
        truth = {
            attribute: {i: (i + offset) % 3 == 0 for i in range(1, 25)}
            for offset, attribute in enumerate(self.ATTRIBUTES)
        }
        session = SessionContext(max_concurrent_batches=concurrency)
        conn = make_items_connection(24, session=session)
        for attribute in self.ATTRIBUTES:
            conn.add_perceptual_column("items", attribute)
        source = SimulatedCrowdValueSource(
            CrowdPlatform(seed=11),
            WorkerPool.build(n_honest=20, n_spammers=3, seed=5),
            truth=truth,
            judgments_per_item=3,
            items_per_hit=8,
            seed=42,
        )
        # Small batches force several dispatches per attribute, so at
        # concurrency 4 their completion order genuinely interleaves.
        conn.set_value_source(source, batch_size=8)
        conn.execute(
            "SELECT item_id, funny, scary, romantic FROM items"
        ).fetchall()
        return {
            attribute: conn.column_values("items", attribute)
            for attribute in self.ATTRIBUTES
        }

    def test_same_answers_at_concurrency_1_and_4(self):
        # Child seeds derive from request identity, so however the four
        # workers interleave the dispatches, every batch reproduces the
        # answers the sequential run obtained.
        assert self.run_workload(1) == self.run_workload(4)


class TestExplainAnalyzeCounters:
    def test_reports_wall_time_cache_hits_and_coalescing(self):
        conn = make_items_connection(4)
        conn.set_value_source(BlockingSource(), batch_size=10)
        conn.session.crowd_write_back = False
        conn.execute("SELECT count(appeal) FROM items").fetchone()
        text = conn.explain_analyze("SELECT count(appeal) FROM items")
        crowd_line = next(line for line in text.splitlines() if "CrowdFill" in line)
        # Second run: every cell comes from the cross-query answer cache.
        assert "cache_hits=4" in crowd_line
        assert "coalesced=0" in crowd_line
        assert "batches=0" in crowd_line
        # Every operator line carries its inclusive wall time.
        for line in text.splitlines():
            assert "time=" in line
