"""Tests for the physical operator algebra: lowering, joins, CrowdFill, EXPLAIN."""

from __future__ import annotations

from typing import Any, Sequence

import pytest

from repro.db import AcquisitionPolicy, Catalog, Connection, Dispatch, connect
from repro.db.sql.operators import (
    CrowdFill,
    HashJoin,
    IndexScan,
    NestedLoopJoin,
    SeqScan,
    _ComparableValue,
)
from repro.db.types import MISSING


class CountingSource:
    """ValueSource that records every batch call and answers a constant."""

    def __init__(self, value: Any = 1.0) -> None:
        self.value = value
        self.calls: list[tuple[str, int]] = []

    def request_values_with_cost(
        self, attribute: str, items: Sequence[tuple[int, dict[str, Any]]], **_: Any
    ) -> Dispatch:
        self.calls.append((attribute, len(items)))
        return Dispatch({rowid: self.value for rowid, _row in items}, 0.0)


def make_joined_catalog() -> Catalog:
    catalog = Catalog()
    setup = Connection(catalog)
    setup.execute(
        "CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT, year INTEGER)"
    )
    setup.execute(
        "INSERT INTO movies VALUES (1, 'Rocky', 1976), (2, 'Psycho', 1960), "
        "(3, 'Airplane!', 1980), (4, 'Vertigo', 1958)"
    )
    setup.execute("CREATE TABLE ratings (movie_id INTEGER, user_id INTEGER, score REAL)")
    setup.execute(
        "INSERT INTO ratings VALUES (1, 100, 5), (1, 101, 4), (2, 100, 5), (9, 103, 1)"
    )
    return catalog


def operators_of(cursor) -> list[type]:
    assert cursor.plan is not None
    return [type(op) for op in cursor.plan.walk()]


class TestJoinLowering:
    def test_qualified_equi_join_uses_hash_join(self):
        conn = Connection(make_joined_catalog())
        cursor = conn.execute(
            "SELECT m.name FROM movies m JOIN ratings r ON m.movie_id = r.movie_id"
        )
        assert HashJoin in operators_of(cursor)
        assert NestedLoopJoin not in operators_of(cursor)

    def test_reversed_equality_also_uses_hash_join(self):
        conn = Connection(make_joined_catalog())
        cursor = conn.execute(
            "SELECT m.name FROM movies m JOIN ratings r ON r.movie_id = m.movie_id"
        )
        assert HashJoin in operators_of(cursor)

    def test_non_equi_condition_falls_back_to_nested_loop(self):
        conn = Connection(make_joined_catalog())
        cursor = conn.execute(
            "SELECT m.name FROM movies m JOIN ratings r ON m.movie_id < r.movie_id"
        )
        assert NestedLoopJoin in operators_of(cursor)
        assert HashJoin not in operators_of(cursor)

    def test_cross_join_uses_nested_loop(self):
        conn = Connection(make_joined_catalog())
        cursor = conn.execute("SELECT count(*) FROM movies CROSS JOIN ratings")
        assert NestedLoopJoin in operators_of(cursor)

    def test_hash_joins_can_be_disabled(self):
        conn = Connection(make_joined_catalog(), hash_joins=False)
        cursor = conn.execute(
            "SELECT m.name FROM movies m JOIN ratings r ON m.movie_id = r.movie_id"
        )
        assert NestedLoopJoin in operators_of(cursor)
        assert HashJoin not in operators_of(cursor)

    def test_per_row_resolver_disables_hash_join(self):
        conn = Connection(make_joined_catalog())
        conn.set_missing_resolver(lambda ref, row: MISSING)
        cursor = conn.execute(
            "SELECT m.name FROM movies m JOIN ratings r ON m.movie_id = r.movie_id"
        )
        assert NestedLoopJoin in operators_of(cursor)

    def test_point_lookup_uses_index_scan(self):
        conn = Connection(make_joined_catalog())
        cursor = conn.execute("SELECT name FROM movies WHERE movie_id = ?", (2,))
        assert cursor.fetchall() == [("Psycho",)]
        assert IndexScan in operators_of(cursor)


class TestJoinEquivalence:
    """The hash path must produce exactly the nested-loop results."""

    QUERIES = [
        "SELECT m.name, r.score FROM movies m JOIN ratings r "
        "ON m.movie_id = r.movie_id ORDER BY m.movie_id, r.user_id",
        "SELECT m.name, r.score FROM movies m LEFT JOIN ratings r "
        "ON m.movie_id = r.movie_id ORDER BY m.movie_id, r.user_id",
        "SELECT r.movie_id, count(*) AS n FROM ratings r JOIN movies m "
        "ON r.movie_id = m.movie_id GROUP BY r.movie_id ORDER BY n DESC, r.movie_id",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_hash_and_nested_loop_agree(self, sql):
        catalog = make_joined_catalog()
        hash_rows = Connection(catalog).execute(sql).fetchall()
        nl_rows = Connection(catalog, hash_joins=False).execute(sql).fetchall()
        assert hash_rows == nl_rows

    def test_null_join_keys_never_match(self):
        catalog = Catalog()
        setup = Connection(catalog)
        setup.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER)")
        setup.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, k INTEGER)")
        setup.execute("INSERT INTO a VALUES (1, 10), (2, NULL)")
        setup.execute("INSERT INTO b VALUES (1, 10), (2, NULL)")
        sql = "SELECT a.id, b.id FROM a JOIN b ON a.k = b.k"
        for connection in (Connection(catalog), Connection(catalog, hash_joins=False)):
            assert connection.execute(sql).fetchall() == [(1, 1)]

    def test_left_join_null_row_for_unmatched(self):
        catalog = make_joined_catalog()
        sql = (
            "SELECT m.name, r.score FROM movies m LEFT JOIN ratings r "
            "ON m.movie_id = r.movie_id WHERE m.movie_id = 4"
        )
        for connection in (Connection(catalog), Connection(catalog, hash_joins=False)):
            assert connection.execute(sql).fetchall() == [("Vertigo", None)]


class TestPhysicalExplain:
    def test_join_filter_limit_tree(self):
        conn = Connection(make_joined_catalog())
        text = conn.explain(
            "SELECT m.name FROM movies m JOIN ratings r ON m.movie_id = r.movie_id "
            "WHERE m.year > 1960 LIMIT 2"
        )
        lines = text.splitlines()
        assert "SeqScan" in lines[0]
        assert any("HashJoin" in line for line in lines)
        assert any("Filter" in line for line in lines)
        assert any("Project" in line for line in lines)
        assert any("Limit 2" in line for line in lines)
        # the build side of the join is indented beneath the join operator
        join_index = next(i for i, line in enumerate(lines) if "HashJoin" in line)
        assert lines[join_index + 1].startswith("  ")

    def test_explain_statement_renders_physical_tree(self):
        conn = Connection(make_joined_catalog())
        result = conn.execute("EXPLAIN SELECT name FROM movies WHERE year > 1960").result
        text = "\n".join(row[0] for row in result.rows)
        assert "SeqScan movies" in text
        assert "Filter" in text
        assert "Project name" in text

    def test_explain_analyze_reports_row_counts(self):
        conn = Connection(make_joined_catalog())
        text = conn.explain_analyze("SELECT name FROM movies WHERE year > 1960")
        assert "rows=" in text
        filter_line = next(line for line in text.splitlines() if "Filter" in line)
        assert "rows=2" in filter_line  # Rocky (1976) and Airplane! (1980)

    def test_crowd_fill_appears_with_value_source(self):
        conn = Connection(make_joined_catalog())
        conn.add_perceptual_column("movies", "is_funny")
        conn.set_value_source(CountingSource(True), batch_size=7)
        text = conn.explain(
            "SELECT m.name FROM movies m JOIN ratings r ON m.movie_id = r.movie_id "
            "WHERE m.is_funny = true LIMIT 2"
        )
        assert "CrowdFill(batch_size=7) movies.is_funny" in text
        assert "HashJoin" in text
        assert "Limit 2" in text

    def test_crowd_fill_absent_without_source(self):
        conn = Connection(make_joined_catalog())
        conn.add_perceptual_column("movies", "is_funny")
        assert "CrowdFill" not in conn.explain(
            "SELECT name FROM movies WHERE is_funny = true"
        )


class TestCrowdFillBatching:
    def _connection(self, n_rows: int) -> Connection:
        conn = connect()
        conn.execute("CREATE TABLE items (item_id INTEGER PRIMARY KEY)")
        conn.executemany(
            "INSERT INTO items (item_id) VALUES (?)", [(i,) for i in range(1, n_rows + 1)]
        )
        conn.add_perceptual_column("items", "appeal")
        return conn

    def test_n_missing_rows_produce_ceil_n_over_b_calls(self):
        conn = self._connection(10)
        source = CountingSource(0.9)
        conn.set_value_source(source, batch_size=3)
        (count,) = conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert count == 10
        # 10 missing rows, batch_size 3 -> ceil(10/3) = 4 coalesced calls
        assert [size for _attr, size in source.calls] == [3, 3, 3, 1]

    def test_batch_of_exact_multiple(self):
        conn = self._connection(6)
        source = CountingSource(0.9)
        conn.set_value_source(source, batch_size=3)
        conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert [size for _attr, size in source.calls] == [3, 3]

    def test_write_back_persists_values(self):
        conn = self._connection(8)
        source = CountingSource(0.9)
        conn.set_value_source(source, batch_size=4)
        conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert len(source.calls) == 2
        assert conn.missing_count("items", "appeal") == 0
        # everything persisted: the second query needs no crowd work
        conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert len(source.calls) == 2

    def test_without_write_back_values_stay_missing(self):
        conn = self._connection(4)
        source = CountingSource(0.9)
        conn.set_value_source(source, batch_size=4)
        conn.session.crowd_write_back = False
        (count,) = conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert count == 4
        assert conn.missing_count("items", "appeal") == 4
        # The cells stay MISSING in storage, but the repeat query is served
        # from the runtime's cross-query AnswerCache: same answer, zero
        # additional platform calls.
        (count,) = conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert count == 4
        assert len(source.calls) == 1
        assert conn.acquisition_runtime().cache.stats().hits == 4

    def test_partial_answers_leave_rest_missing(self):
        class PartialSource:
            def request_values_with_cost(self, attribute, items, **kwargs):
                return Dispatch({rowid: 1.0 for rowid, _row in items if rowid % 2 == 0}, 0.0)

        conn = self._connection(6)
        conn.set_value_source(PartialSource(), batch_size=10)
        (count,) = conn.execute("SELECT count(appeal) FROM items").fetchone()
        assert count == 3
        assert conn.missing_count("items", "appeal") == 3

    def test_crowd_fill_stats_in_explain_analyze(self):
        conn = self._connection(10)
        conn.set_value_source(CountingSource(0.9), batch_size=5)
        text = conn.explain_analyze("SELECT count(*) FROM items WHERE appeal > 0.5")
        crowd_line = next(line for line in text.splitlines() if "CrowdFill" in line)
        assert "batch_size=5" in crowd_line
        assert "batches=2" in crowd_line
        assert "filled=10/10" in crowd_line

    def test_expansion_query_batches_after_column_is_added(self):
        """The full paper loop: unknown column -> expansion -> batched fill."""
        conn = self._connection(9)
        source = CountingSource(True)
        conn.set_value_source(source, batch_size=4)

        def handler(table: str, column: str) -> bool:
            conn.add_perceptual_column(table, column)
            return True

        conn.set_expansion_handler(handler)
        (count,) = conn.execute("SELECT count(*) FROM items WHERE cult = ?", (True,)).fetchone()
        assert count == 9
        # 9 missing rows, batch_size 4 -> ceil(9/4) = 3 platform calls
        assert [size for _attr, size in source.calls] == [4, 4, 1]

    def test_invalid_batch_size_rejected_at_configuration_time(self):
        conn = self._connection(2)
        with pytest.raises(ValueError):
            conn.set_value_source(CountingSource(1.0), batch_size=0)
        with pytest.raises(ValueError):
            conn.expansion().with_value_source(CountingSource(1.0), batch_size=-1)

    def test_fully_populated_column_streams_without_buffering(self):
        """Regression: CrowdFill must not hold up rows that need no filling."""
        conn = self._connection(50)
        conn.table("items").fill_values(
            "appeal", {rowid: 0.9 for rowid in conn.table("items").rowids()}
        )
        source = CountingSource(0.9)
        conn.set_value_source(source, batch_size=10)
        cursor = conn.execute("SELECT item_id FROM items WHERE appeal > 0.5 LIMIT 5")
        assert len(cursor.fetchall()) == 5
        scan = next(op for op in cursor.plan.walk() if isinstance(op, SeqScan))
        assert scan.rows_scanned == 5  # LIMIT still terminates the scan early
        assert source.calls == []  # nothing was missing, nothing dispatched

    def test_crowd_fill_targets_only_referenced_tables(self):
        """Regression: a same-named perceptual column on a joined table the
        query never reads must not receive crowd dispatches."""
        conn = connect()
        conn.execute("CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT)")
        conn.execute("CREATE TABLE reviews (review_id INTEGER PRIMARY KEY, movie_id INTEGER)")
        conn.execute("INSERT INTO movies VALUES (1, 'Rocky'), (2, 'Psycho')")
        conn.execute("INSERT INTO reviews VALUES (10, 1), (11, 2)")
        conn.add_perceptual_column("movies", "is_comedy")
        conn.add_perceptual_column("reviews", "is_comedy")
        source = CountingSource(True)
        conn.set_value_source(source, batch_size=10)
        conn.execute(
            "SELECT m.name FROM movies m JOIN reviews r ON m.movie_id = r.movie_id "
            "WHERE m.is_comedy = ?",
            (True,),
        ).fetchall()
        assert source.calls == [("is_comedy", 2)]  # one batch, movies only
        assert conn.missing_count("reviews", "is_comedy") == 2

    def test_budget_exhausted_session_stops_dispatching(self):
        from repro.db import SessionContext

        conn = self._connection(6)
        conn.session.max_cost = 1.0
        conn.session.cost_spent = 1.0
        assert isinstance(conn.session, SessionContext)
        source = CountingSource(0.9)
        conn.set_value_source(source, batch_size=2)
        (count,) = conn.execute("SELECT count(appeal) FROM items").fetchone()
        assert count == 0  # nothing dispatched, cells stay MISSING
        assert source.calls == []

    def test_cost_aware_source_charges_session(self):
        class CostedSource(CountingSource):
            def request_values_with_cost(self, attribute, items, **kwargs):
                return super().request_values_with_cost(attribute, items)._replace(cost=0.25)

        conn = self._connection(8)
        conn.set_value_source(CostedSource(0.9), batch_size=4)
        conn.execute("SELECT count(*) FROM items WHERE appeal > 0.5").fetchone()
        assert conn.session.cost_spent == pytest.approx(0.5)  # two batches

    def test_explain_analyze_mean_worker_accuracy_is_the_dispatch_mean(self):
        # Regression: three flushes whose dispatches report worker
        # accuracies 0.9, 0.9 and 0.6 average to 0.800 (a running pairwise
        # average reported 0.750).
        accuracies = iter([0.9, 0.9, 0.6])

        class QualitySource(CountingSource):
            def request_values_with_cost(self, attribute, items, **kwargs):
                dispatch = super().request_values_with_cost(attribute, items)
                return dispatch._replace(quality={"mean_worker_accuracy": next(accuracies)})

        conn = self._connection(6)
        conn.set_value_source(QualitySource(0.9))
        conn.set_policy(AcquisitionPolicy(crowd_batch_size=2))
        text = conn.explain_analyze("SELECT count(*) FROM items WHERE appeal > 0.5")
        crowd_line = next(line for line in text.splitlines() if "CrowdFill" in line)
        assert "batches=3" in crowd_line
        assert "mean_worker_accuracy=0.800" in crowd_line


class TestComparableValue:
    def test_hash_consistent_with_eq(self):
        assert _ComparableValue(1) == _ComparableValue(1.0)
        assert hash(_ComparableValue(1)) == hash(_ComparableValue(1.0))
        assert _ComparableValue(True) == _ComparableValue(1)
        assert hash(_ComparableValue(True)) == hash(_ComparableValue(1))

    def test_unknowns_share_rank_and_hash(self):
        assert _ComparableValue(None) == _ComparableValue(MISSING)
        assert hash(_ComparableValue(None)) == hash(_ComparableValue(MISSING))

    def test_usable_in_sets(self):
        values = {_ComparableValue(1), _ComparableValue(1.0), _ComparableValue("a")}
        assert len(values) == 2

    def test_nulls_last_regression_both_directions(self):
        conn = connect()
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        conn.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(1, 10), (2, None), (3, 5), (4, None), (5, 20)],
        )
        ascending = [r[0] for r in conn.execute("SELECT id FROM t ORDER BY v").fetchall()]
        descending = [r[0] for r in conn.execute("SELECT id FROM t ORDER BY v DESC").fetchall()]
        # NULLS LAST regardless of direction; known keys properly ordered
        assert ascending[:3] == [3, 1, 5]
        assert set(ascending[3:]) == {2, 4}
        assert descending[:3] == [5, 1, 3]
        assert set(descending[3:]) == {2, 4}


class TestScanCounters:
    def test_seq_scan_counts_pulled_rows(self):
        conn = Connection(make_joined_catalog())
        cursor = conn.execute("SELECT name FROM movies")
        cursor.fetchall()
        scan = next(op for op in cursor.plan.walk() if isinstance(op, SeqScan))
        assert scan.rows_scanned == 4

    def test_crowd_fill_operator_exposed_in_plan(self):
        conn = connect()
        conn.execute("CREATE TABLE t (item_id INTEGER PRIMARY KEY)")
        conn.execute("INSERT INTO t VALUES (1), (2)")
        conn.add_perceptual_column("t", "appeal")
        conn.set_value_source(CountingSource(0.5), batch_size=2)
        cursor = conn.execute("SELECT appeal FROM t")
        cursor.fetchall()
        fill = next(op for op in cursor.plan.walk() if isinstance(op, CrowdFill))
        assert fill.acquired.dispatches == 1
        assert fill.values_filled == 2
