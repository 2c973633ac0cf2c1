"""Tests for the concurrent acquisition runtime and its answer cache."""

from __future__ import annotations

import threading
import time
from typing import Any, Sequence

import pytest

from repro.crowd.estimation import enumeration_attribute, enumeration_predicate
from repro.crowd.platform import CrowdPlatform
from repro.crowd.runtime import AcquisitionRuntime, AnswerCache
from repro.crowd.sources import SimulatedCrowdValueSource
from repro.crowd.worker import WorkerPool
from repro.db import Dispatch


class RecordingSource:
    """ValueSource that counts calls and can block mid-dispatch."""

    def __init__(self, value: Any = 1.0, latency: float = 0.0) -> None:
        self.value = value
        self.latency = latency
        self.calls: list[tuple[str, tuple[int, ...]]] = []
        self._lock = threading.Lock()
        self.release = threading.Event()
        self.release.set()  # blocks only when a test clears it
        self.entered = threading.Event()

    def request_values_with_cost(
        self, attribute: str, items: Sequence[tuple[int, dict[str, Any]]], **_: Any
    ) -> Dispatch:
        with self._lock:
            self.calls.append((attribute, tuple(rowid for rowid, _row in items)))
        self.entered.set()
        if self.latency:
            time.sleep(self.latency)
        assert self.release.wait(timeout=10.0), "test forgot to release the source"
        return Dispatch({rowid: self.value for rowid, _row in items}, 0.0)


class Session:
    """Minimal budget hook: records every charge."""

    def __init__(self, max_cost: float | None = None) -> None:
        self.max_cost = max_cost
        self.cost_spent = 0.0
        self.charges: list[float] = []

    @property
    def budget_exhausted(self) -> bool:
        return self.max_cost is not None and self.cost_spent >= self.max_cost

    def record_cost(self, cost: float) -> None:
        self.charges.append(cost)
        self.cost_spent += cost


def items_for(rowids: Sequence[int]) -> list[tuple[int, dict[str, Any]]]:
    return [(rowid, {"item_id": rowid}) for rowid in rowids]


class TestAnswerCache:
    def test_put_get_roundtrip_and_miss(self):
        cache = AnswerCache(capacity=4)
        assert cache.get("movies", "humor", 1) == (False, None)
        cache.put("movies", "humor", 1, 0.7)
        assert cache.get("Movies", "Humor", 1) == (True, 0.7)  # case-insensitive
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_missing_values_are_never_cached(self):
        from repro.db.types import MISSING

        cache = AnswerCache(capacity=4)
        cache.put("movies", "humor", 1, MISSING)
        assert len(cache) == 0

    def test_capacity_eviction_is_lru(self):
        cache = AnswerCache(capacity=2)
        cache.put("t", "a", 1, "one")
        cache.put("t", "a", 2, "two")
        cache.get("t", "a", 1)  # refresh 1 -> 2 becomes least recently used
        cache.put("t", "a", 3, "three")
        assert cache.get("t", "a", 2) == (False, None)  # evicted
        assert cache.get("t", "a", 1) == (True, "one")
        assert cache.get("t", "a", 3) == (True, "three")
        assert cache.stats().evictions == 1

    def test_ttl_expiry_looks_like_a_miss(self):
        clock = FakeClock()
        cache = AnswerCache(capacity=4, ttl_seconds=10.0, clock=clock)
        cache.put("t", "a", 1, "fresh")
        assert cache.get("t", "a", 1) == (True, "fresh")
        clock.advance(9.0)
        assert cache.get("t", "a", 1) == (True, "fresh")
        clock.advance(1.0)  # exactly at the TTL boundary: expired
        assert cache.get("t", "a", 1) == (False, None)
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.size == 0

    def test_invalidate_cell_and_table(self):
        cache = AnswerCache(capacity=8)
        cache.put("t", "a", 1, "x")
        cache.put("t", "a", 2, "y")
        cache.put("u", "a", 1, "z")
        assert cache.invalidate("t", "a", 1)
        assert not cache.invalidate("t", "a", 99)  # absent: no-op
        assert cache.invalidate_table("t") == 1
        assert len(cache) == 1
        assert cache.get("u", "a", 1) == (True, "z")

    def test_zero_capacity_disables_caching(self):
        cache = AnswerCache(capacity=0)
        cache.put("t", "a", 1, "x")
        assert cache.get("t", "a", 1) == (False, None)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AnswerCache(capacity=-1)
        with pytest.raises(ValueError):
            AnswerCache(ttl_seconds=0.0)


class FakeClock:
    """Deterministic monotonic clock for TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestAcquire:
    def test_dispatches_once_and_caches(self):
        runtime = AcquisitionRuntime(max_concurrent_batches=2)
        source = RecordingSource(value=0.5)
        outcome = runtime.acquire(source, "movies", [("humor", items_for([1, 2, 3]))])
        assert outcome.values == {"humor": {1: 0.5, 2: 0.5, 3: 0.5}}
        assert (outcome.dispatches, outcome.cache_hits, outcome.coalesced) == (1, 0, 0)
        repeat = runtime.acquire(source, "movies", [("humor", items_for([1, 2, 3]))])
        assert repeat.values == outcome.values
        assert (repeat.dispatches, repeat.cache_hits) == (0, 3)
        assert len(source.calls) == 1

    def test_partial_cache_hit_dispatches_only_the_remainder(self):
        runtime = AcquisitionRuntime()
        source = RecordingSource()
        runtime.acquire(source, "movies", [("humor", items_for([1, 2]))])
        outcome = runtime.acquire(source, "movies", [("humor", items_for([1, 2, 3, 4]))])
        assert outcome.cache_hits == 2
        assert outcome.dispatches == 1
        assert source.calls[-1] == ("humor", (3, 4))

    def test_attributes_dispatch_concurrently(self):
        runtime = AcquisitionRuntime(max_concurrent_batches=4)
        source = RecordingSource(latency=0.15)
        requests = [(attr, items_for([1, 2])) for attr in ("a", "b", "c", "d")]
        start = time.perf_counter()
        outcome = runtime.acquire(source, "t", requests)
        elapsed = time.perf_counter() - start
        assert outcome.dispatches == 4
        # Four 0.15 s dispatches overlapped on four workers: well under the
        # 0.6 s a sequential runtime would need.
        assert elapsed < 0.45

    def test_concurrent_identical_requests_coalesce_to_one_dispatch(self):
        runtime = AcquisitionRuntime(max_concurrent_batches=4)
        source = RecordingSource(value=0.9)
        source.release.clear()  # block the owning dispatch mid-flight
        results: list[Any] = []

        def acquire() -> None:
            results.append(
                runtime.acquire(source, "movies", [("humor", items_for([1, 2, 3]))])
            )

        owner = threading.Thread(target=acquire)
        owner.start()
        assert source.entered.wait(timeout=5.0)  # dispatch is in flight
        joiners = [threading.Thread(target=acquire) for _ in range(3)]
        for thread in joiners:
            thread.start()
        # Joiners registered against the in-flight cells; only now may the
        # platform answer.  N concurrent identical requests -> 1 dispatch.
        time.sleep(0.05)
        source.release.set()
        owner.join(timeout=10.0)
        for thread in joiners:
            thread.join(timeout=10.0)
        assert len(source.calls) == 1
        assert all(r.values == {"humor": {1: 0.9, 2: 0.9, 3: 0.9}} for r in results)
        total_coalesced = sum(r.coalesced for r in results)
        total_hits = sum(r.cache_hits for r in results)
        assert sum(r.dispatches for r in results) == 1
        # Every non-owner cell was either coalesced onto the in-flight
        # dispatch or (if a joiner arrived after completion) cache-served.
        assert total_coalesced + total_hits == 9

    def test_session_is_charged_for_own_dispatches_only(self):
        class CostedSource(RecordingSource):
            def request_values_with_cost(self, attribute, items, **kwargs):
                values = super().request_values_with_cost(attribute, items).values
                return Dispatch(values, 0.25)

        runtime = AcquisitionRuntime()
        source = CostedSource(value=1.0)
        session = Session()
        runtime.acquire(source, "t", [("a", items_for([1, 2]))], session=session)
        assert session.cost_spent == pytest.approx(0.25)
        # Cache-served repeat: no dispatch, no charge.
        runtime.acquire(source, "t", [("a", items_for([1, 2]))], session=session)
        assert session.cost_spent == pytest.approx(0.25)

    def test_source_with_cost_protocol_is_charged_exactly(self):
        class DetailedSource:
            def request_values_with_cost(self, attribute, items, *, policy=None, tracker=None):
                return Dispatch({rowid: 1.0 for rowid, _row in items}, 0.4)

        runtime = AcquisitionRuntime()
        session = Session()
        runtime.acquire(DetailedSource(), "t", [("a", items_for([1]))], session=session)
        assert session.charges == [pytest.approx(0.4)]

    def test_budget_exhaustion_mid_flush_skips_later_dispatches(self):
        # A dispatch that exhausts the budget must stop the flush's later
        # dispatches: each one re-checks the budget at execution time.
        class CostedSource(RecordingSource):
            def request_values_with_cost(self, attribute, items, **kwargs):
                values = super().request_values_with_cost(attribute, items).values
                return Dispatch(values, 1.0)

        # Budget-capped sessions dispatch serially *regardless* of the
        # concurrency knob, so the cap is enforced exactly: a worker pool
        # of 4 must not let 4 dispatches race past the check.
        runtime = AcquisitionRuntime(max_concurrent_batches=4)
        source = CostedSource(value=1.0)
        session = Session(max_cost=1.0)
        outcome = runtime.acquire(
            source,
            "t",
            [("a", items_for([1])), ("b", items_for([1])), ("c", items_for([1]))],
            session=session,
        )
        assert outcome.dispatches == 1  # a spent the whole budget; b, c skipped
        assert session.cost_spent == pytest.approx(1.0)
        assert outcome.values == {"a": {1: 1.0}, "b": {}, "c": {}}

    def test_joiner_with_budget_retries_budget_skipped_cells(self):
        # A joins cells onto B's in-flight batch, but B's session turns out
        # to be broke and skips the dispatch.  A can pay, so A must
        # re-acquire the cells itself instead of returning MISSING.
        class BrokeSession:
            def __init__(self) -> None:
                self.max_cost = 1.0
                self.reached_check = threading.Event()
                self.gate = threading.Event()

            @property
            def budget_exhausted(self) -> bool:
                self.reached_check.set()
                assert self.gate.wait(timeout=10.0)
                return True

            def record_cost(self, cost: float) -> None:  # pragma: no cover
                pass

        runtime = AcquisitionRuntime(max_concurrent_batches=2)
        source = RecordingSource(value=0.6)
        broke = BrokeSession()
        results: dict[str, Any] = {}

        def broke_acquire() -> None:
            results["broke"] = runtime.acquire(
                source, "t", [("a", items_for([1, 2]))], session=broke
            )

        def rich_acquire() -> None:
            results["rich"] = runtime.acquire(source, "t", [("a", items_for([1, 2]))])

        owner = threading.Thread(target=broke_acquire)
        owner.start()
        # The broke session blocks inside its budget check *after*
        # registering the cells; the rich acquirer joins them now.
        assert broke.reached_check.wait(timeout=5.0)
        joiner = threading.Thread(target=rich_acquire)
        joiner.start()
        time.sleep(0.05)
        broke.gate.set()
        owner.join(timeout=10.0)
        joiner.join(timeout=10.0)

        assert results["broke"].values == {"a": {}}  # skipped, cells MISSING
        assert results["broke"].dispatches == 0
        rich = results["rich"]
        assert rich.values == {"a": {1: 0.6, 2: 0.6}}  # retried and paid
        assert len(source.calls) == 1  # only the rich session dispatched

    def test_failed_submission_wakes_coalesced_waiters(self):
        class BrokenPool:
            def submit(self, *args, **kwargs):
                raise RuntimeError("cannot schedule new futures after shutdown")

        runtime = AcquisitionRuntime()
        runtime._pool = BrokenPool()
        # Multi-attribute flush: the failure hits the *first* submit, and
        # every later, never-submitted batch must be unwound too.
        requests = [(attr, items_for([1, 2])) for attr in ("a", "b", "c")]
        with pytest.raises(RuntimeError, match="cannot schedule"):
            runtime.acquire(RecordingSource(), "t", requests)
        # All cells were unregistered, so nothing hangs and a later
        # acquire (with a working pool) retries them.
        runtime._pool = None
        outcome = runtime.acquire(RecordingSource(), "t", requests)
        assert outcome.dispatches == 3
        assert outcome.coalesced == 0  # no orphaned in-flight batches

    def test_dispatch_errors_propagate_and_unregister(self):
        class FailingSource:
            def request_values_with_cost(self, attribute, items, **kwargs):
                raise RuntimeError("platform down")

        runtime = AcquisitionRuntime()
        with pytest.raises(RuntimeError, match="platform down"):
            runtime.acquire(FailingSource(), "t", [("a", items_for([1]))])
        # The failed cells were unregistered: a later acquire retries them.
        source = RecordingSource()
        outcome = runtime.acquire(source, "t", [("a", items_for([1]))])
        assert outcome.dispatches == 1

    def test_joiner_survives_owner_dispatch_error(self):
        # The owner's source fails mid-dispatch; a query that merely
        # coalesced onto it must not inherit the error — it re-acquires
        # the cells through its own dispatch.
        entered = threading.Event()
        release = threading.Event()

        class FailingSource:
            def request_values_with_cost(self, attribute, items, **kwargs):
                entered.set()
                assert release.wait(timeout=10.0)
                raise RuntimeError("owner's platform down")

        runtime = AcquisitionRuntime(max_concurrent_batches=2)
        results: dict[str, Any] = {}

        def owner() -> None:
            try:
                runtime.acquire(FailingSource(), "t", [("a", items_for([1, 2]))])
            except RuntimeError as exc:
                results["owner_error"] = str(exc)

        def joiner() -> None:
            results["joined"] = runtime.acquire(
                RecordingSource(value=0.7), "t", [("a", items_for([1, 2]))]
            )

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert entered.wait(timeout=5.0)
        joiner_thread = threading.Thread(target=joiner)
        joiner_thread.start()
        time.sleep(0.05)
        release.set()
        owner_thread.join(timeout=10.0)
        joiner_thread.join(timeout=10.0)

        assert results["owner_error"] == "owner's platform down"  # owner still fails
        assert results["joined"].values == {"a": {1: 0.7, 2: 0.7}}  # joiner recovered

    def test_unanswered_cells_are_not_cached(self):
        class SilentSource:
            def request_values_with_cost(self, attribute, items, **kwargs):
                return Dispatch({}, 0.0)

        runtime = AcquisitionRuntime()
        outcome = runtime.acquire(SilentSource(), "t", [("a", items_for([1, 2]))])
        assert outcome.values == {"a": {}}
        assert len(runtime.cache) == 0

    def test_run_prediction_counts_batches(self):
        runtime = AcquisitionRuntime()
        assert runtime.run_prediction(lambda: 42) == 42
        assert runtime.stats()["prediction_batches"] == 1

    def test_stats_shape(self):
        runtime = AcquisitionRuntime(max_concurrent_batches=2)
        runtime.acquire(RecordingSource(), "t", [("a", items_for([1]))])
        stats = runtime.stats()
        assert stats["dispatches"] == 1
        assert stats["max_concurrent_batches"] == 2
        assert stats["in_flight"] == 0
        assert stats["cache"].size == 1

    def test_rejects_bad_pool_size(self):
        with pytest.raises(ValueError):
            AcquisitionRuntime(max_concurrent_batches=0)

    def test_shutdown_is_idempotent(self):
        runtime = AcquisitionRuntime()
        runtime.acquire(RecordingSource(), "t", [("a", items_for([1]))])
        runtime.shutdown()
        runtime.shutdown()
        # The pool is recreated transparently on the next dispatch.
        outcome = runtime.acquire(RecordingSource(), "t", [("a", items_for([2]))])
        assert outcome.dispatches == 1

    def test_mean_worker_accuracy_weights_every_dispatch_equally(self):
        # Regression: merging as (running + new) / 2 weighted the last
        # dispatch by 1/2 and reported 0.75 here instead of the mean 0.80.
        accuracies = {"a": 0.9, "b": 0.9, "c": 0.6}

        class QualitySource:
            def request_values_with_cost(self, attribute, items, **kwargs):
                return Dispatch(
                    {rowid: True for rowid, _row in items},
                    0.0,
                    {"mean_worker_accuracy": accuracies[attribute]},
                )

        runtime = AcquisitionRuntime()
        outcome = runtime.acquire(
            QualitySource(), "t", [(attr, items_for([1])) for attr in accuracies]
        )
        assert outcome.dispatches == 3
        assert outcome.mean_worker_accuracy == pytest.approx(0.8)
        assert f"{outcome.mean_worker_accuracy:.3f}" == "0.800"


class RecordedSimulatedSource(SimulatedCrowdValueSource):
    """The simulated source, also recording every Dispatch it returns."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.returned: dict[str, Dispatch] = {}
        self._returned_lock = threading.Lock()

    def request_values_with_cost(self, attribute, items, **kwargs):
        dispatch = super().request_values_with_cost(attribute, items, **kwargs)
        with self._returned_lock:
            assert attribute not in self.returned, "one dispatch per attribute expected"
            self.returned[attribute] = dispatch
        return dispatch


class TestChargeOnce:
    """Every paid answer is charged exactly once, in every source mode."""

    ATTRIBUTES = ("a", "b", "c", "d")

    def make_source(self, mode: str) -> RecordedSimulatedSource:
        truth = {item_id: item_id % 3 == 0 for item_id in range(1, 31)}
        return RecordedSimulatedSource(
            CrowdPlatform(seed=11),
            WorkerPool.build(n_honest=15, n_spammers=0, seed=3),
            truth={attr: truth for attr in self.ATTRIBUTES},
            allow_dont_know=False,
            seed=5,
            quality=mode == "adaptive",
            gold_answers=(
                {attr: {i: truth[i] for i in range(21, 31)} for attr in self.ATTRIBUTES}
                if mode == "adaptive"
                else None
            ),
            universe={attr: [f"{attr}{rank}" for rank in range(12)] for attr in self.ATTRIBUTES},
        )

    def requests(self, mode: str) -> list[tuple[str, list[tuple[int, dict[str, Any]]]]]:
        if mode == "enumeration":
            # One open-world HIT batch (batch index 0) per predicate.
            return [(enumeration_attribute(attr), [(0, {})]) for attr in self.ATTRIBUTES]
        return [(attr, items_for(range(1, 11))) for attr in self.ATTRIBUTES]

    def platform_charge(self, source: RecordedSimulatedSource, attribute: str) -> float:
        """What the platform billed for the dispatch of *attribute*."""
        if enumeration_predicate(attribute) is not None:
            return source.payment_per_hit  # one enumeration HIT batch
        return sum(
            run.total_cost for run in source.runs if run.group.question.attribute == attribute
        )

    @pytest.mark.parametrize("mode", ["flat", "adaptive", "enumeration"])
    def test_every_dispatch_is_charged_exactly_once(self, mode):
        source = self.make_source(mode)
        runtime = AcquisitionRuntime(max_concurrent_batches=4)
        session = Session()
        requests = self.requests(mode)
        outcome = runtime.acquire(source, "t", requests, session=session)

        assert outcome.dispatches == len(requests)
        assert set(source.returned) == {attribute for attribute, _items in requests}
        for attribute, dispatch in source.returned.items():
            assert dispatch.cost > 0
            assert dispatch.cost == pytest.approx(self.platform_charge(source, attribute))
            assert (dispatch.quality is not None) == (mode == "adaptive")
        costs = [dispatch.cost for dispatch in source.returned.values()]
        # One charge per dispatch, each for exactly that dispatch's cost.
        assert sorted(session.charges) == pytest.approx(sorted(costs))
        assert session.cost_spent == pytest.approx(sum(costs))
        assert outcome.cost == pytest.approx(sum(costs))
        assert source.total_cost == pytest.approx(sum(costs))

        # A cache-served repeat charges nothing and dispatches nothing.
        repeat = runtime.acquire(source, "t", requests, session=session)
        assert repeat.dispatches == 0
        assert repeat.cost == 0.0
        assert repeat.cache_hits == sum(len(items) for _attribute, items in requests)
        assert len(session.charges) == len(requests)
        assert session.cost_spent == pytest.approx(sum(costs))
