"""End-to-end tests for durable storage: ``repro.connect(path=...)``.

Covers snapshot + WAL recovery, checkpointing (manual, automatic and via
PRAGMA), the durability knobs, crash recovery with a SIGKILLed writer
process, rowid high-water marks across restarts and DROP/re-CREATE, and
the AnswerCache warm start that serves repeat crowd queries with zero
platform calls after a restart."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.db import Catalog, Connection
from repro.db.durability import DurabilityManager
from repro.db.snapshot import SNAPSHOT_FORMAT_VERSION, load_snapshot
from repro.errors import ExecutionError, PersistenceError


def make_db(path, **knobs) -> Connection:
    conn = repro.connect(path=path, **knobs)
    conn.execute("CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT)")
    conn.executemany(
        "INSERT INTO movies (movie_id, name) VALUES (?, ?)",
        [(i, f"movie-{i}") for i in range(1, 6)],
    )
    return conn


class TestRoundTrip:
    def test_rows_survive_reopen(self, tmp_path):
        conn = make_db(tmp_path / "db")
        conn.execute("UPDATE movies SET name = ? WHERE movie_id = ?", ("renamed", 2))
        conn.execute("DELETE FROM movies WHERE movie_id = ?", (5,))
        conn.close()

        reopened = repro.connect(path=tmp_path / "db")
        rows = reopened.execute(
            "SELECT movie_id, name FROM movies ORDER BY movie_id"
        ).fetchall()
        assert rows == [(1, "movie-1"), (2, "renamed"), (3, "movie-3"), (4, "movie-4")]
        reopened.close()

    def test_schema_expansion_and_indexes_survive(self, tmp_path):
        conn = make_db(tmp_path / "db")
        conn.execute("CREATE INDEX ON movies (name)")
        conn.add_perceptual_column("movies", "is_comedy")
        conn.close()

        reopened = repro.connect(path=tmp_path / "db")
        schema = {col["name"]: col for col in reopened.describe("movies")}
        assert schema["is_comedy"]["kind"] == "perceptual"
        assert schema["is_comedy"]["default"] == "MISSING"
        assert reopened.table("movies").index_on("name") is not None
        assert reopened.missing_count("movies", "is_comedy") == 5
        reopened.close()

    def test_crowd_fill_provenance_survives(self, tmp_path):
        conn = make_db(tmp_path / "db")
        conn.add_perceptual_column("movies", "is_comedy")
        conn.table("movies").fill_values(
            "is_comedy",
            {1: True, 2: False},
            provenance="crowd",
            confidences={1: 0.9, 2: 0.8},
        )
        conn.close()

        reopened = repro.connect(path=tmp_path / "db")
        provenance = reopened.value_provenance("movies", "is_comedy")
        assert provenance[1].source == "crowd" and provenance[1].confidence == 0.9
        assert provenance[2].source == "crowd" and provenance[2].confidence == 0.8
        assert reopened.missing_count("movies", "is_comedy") == 3
        reopened.close()

    def test_drop_table_survives(self, tmp_path):
        conn = make_db(tmp_path / "db")
        conn.execute("DROP TABLE movies")
        conn.close()
        reopened = repro.connect(path=tmp_path / "db")
        assert reopened.table_names() == []
        reopened.close()

    def test_connect_rejects_catalog_and_path(self, tmp_path):
        with pytest.raises(ValueError, match="either a catalog or a path"):
            repro.connect(Catalog(), path=tmp_path / "db")

    def test_connect_rejects_durability_knobs_without_path(self):
        # connect(synchronous="full") without a path must not silently
        # pretend to be durable.
        with pytest.raises(ValueError, match="require path"):
            repro.connect(synchronous="full")
        with pytest.raises(ValueError, match="require path"):
            repro.connect(checkpoint_interval=10)

    def test_directory_lock_blocks_second_opener(self, tmp_path):
        conn = make_db(tmp_path / "db")
        with pytest.raises(PersistenceError, match="locked"):
            repro.connect(path=tmp_path / "db")
        conn.close()
        # ... and the lock is released on close.
        reopened = repro.connect(path=tmp_path / "db")
        reopened.close()


class TestCheckpointing:
    def test_manual_checkpoint_truncates_wal(self, tmp_path):
        conn = make_db(tmp_path / "db", checkpoint_interval=None)
        wal_path = tmp_path / "db" / "wal.log"
        conn.commit()  # group commit: flush the buffered records first
        assert wal_path.stat().st_size > 0
        conn.checkpoint()
        assert wal_path.stat().st_size == 0
        snapshot = load_snapshot(tmp_path / "db")
        assert snapshot is not None
        assert snapshot["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert len(snapshot["tables"]) == 1
        conn.close()

        reopened = repro.connect(path=tmp_path / "db")
        stats = reopened.durability.stats()
        assert stats["snapshot_loaded"] is True
        assert stats["records_replayed"] == 0
        assert reopened.execute("SELECT count(*) FROM movies").fetchone() == (5,)
        reopened.close()

    def test_automatic_checkpoint_every_interval(self, tmp_path):
        conn = make_db(tmp_path / "db", checkpoint_interval=4)
        # CREATE + 5 INSERTs = 6 records: at least one auto checkpoint.
        assert conn.durability.stats()["checkpoints"] >= 1
        conn.close()
        reopened = repro.connect(path=tmp_path / "db")
        assert reopened.execute("SELECT count(*) FROM movies").fetchone() == (5,)
        reopened.close()

    def test_post_checkpoint_writes_replay_on_top_of_snapshot(self, tmp_path):
        conn = make_db(tmp_path / "db", checkpoint_interval=None)
        conn.checkpoint()
        conn.execute("INSERT INTO movies (movie_id, name) VALUES (?, ?)", (9, "late"))
        conn.close()
        reopened = repro.connect(path=tmp_path / "db")
        stats = reopened.durability.stats()
        assert stats["snapshot_loaded"] is True and stats["records_replayed"] == 1
        assert reopened.execute(
            "SELECT name FROM movies WHERE movie_id = ?", (9,)
        ).fetchone() == ("late",)
        reopened.close()

    def test_checkpoint_requires_durable_database(self):
        conn = repro.connect()
        with pytest.raises(ExecutionError, match="durable database"):
            conn.checkpoint()

    def test_snapshot_format_version_gate(self, tmp_path):
        conn = make_db(tmp_path / "db")
        conn.checkpoint()
        conn.close()
        snapshot_path = tmp_path / "db" / "snapshot.json"
        snapshot_path.write_text(
            snapshot_path.read_text().replace(
                f'"format_version":{SNAPSHOT_FORMAT_VERSION}', '"format_version":999'
            )
        )
        with pytest.raises(PersistenceError, match="format version"):
            repro.connect(path=tmp_path / "db")


class TestPragmas:
    def test_synchronous_read_and_write(self, tmp_path):
        conn = make_db(tmp_path / "db", synchronous="full")
        assert conn.execute("PRAGMA synchronous").fetchone() == ("full",)
        conn.execute("PRAGMA synchronous = normal")
        assert conn.execute("PRAGMA synchronous").fetchone() == ("normal",)
        with pytest.raises(PersistenceError, match="synchronous"):
            conn.execute("PRAGMA synchronous = eventually")
        conn.close()

    def test_checkpoint_interval_knob(self, tmp_path):
        conn = make_db(tmp_path / "db", checkpoint_interval=None)
        assert conn.execute("PRAGMA checkpoint_interval").fetchone() == (0,)
        conn.execute("PRAGMA checkpoint_interval = 2")
        assert conn.execute("PRAGMA checkpoint_interval").fetchone() == (2,)
        before = conn.durability.stats()["checkpoints"]
        conn.execute("INSERT INTO movies (movie_id, name) VALUES (?, ?)", (7, "a"))
        conn.execute("INSERT INTO movies (movie_id, name) VALUES (?, ?)", (8, "b"))
        assert conn.durability.stats()["checkpoints"] > before
        conn.close()

    def test_wal_checkpoint_pragma(self, tmp_path):
        conn = make_db(tmp_path / "db", checkpoint_interval=None)
        assert conn.execute("PRAGMA wal_checkpoint").fetchone() == ("ok",)
        assert (tmp_path / "db" / "wal.log").stat().st_size == 0
        conn.close()

    def test_durability_stats_pragma(self, tmp_path):
        conn = make_db(tmp_path / "db")
        stats = dict(conn.execute("PRAGMA durability_stats").fetchall())
        assert stats["synchronous"] == "normal"
        assert stats["wal_records"] >= 6
        conn.close()

    def test_memory_database_pragmas(self):
        conn = repro.connect()
        assert conn.execute("PRAGMA synchronous").fetchone() == ("memory",)
        with pytest.raises(ExecutionError, match="durable database"):
            conn.execute("PRAGMA synchronous = full")
        with pytest.raises(ExecutionError, match="durable database"):
            conn.execute("PRAGMA wal_checkpoint")
        with pytest.raises(ExecutionError, match="unknown PRAGMA"):
            conn.execute("PRAGMA no_such_knob")

    def test_explain_analyze_reports_durability_counters(self, tmp_path):
        conn = make_db(tmp_path / "db")
        text = conn.explain_analyze("SELECT count(*) FROM movies")
        assert "Durability:" in text
        assert "wal_records=" in text and "checkpoints=" in text
        conn.close()
        # In-memory plans carry no footer.
        memory = repro.connect()
        memory.execute("CREATE TABLE t (id INTEGER)")
        assert "Durability:" not in memory.explain_analyze("SELECT id FROM t")


class TestRowidWatermarks:
    def test_rowids_never_reused_across_restart(self, tmp_path):
        conn = make_db(tmp_path / "db")
        conn.execute("DELETE FROM movies WHERE movie_id >= ?", (3,))
        conn.close()
        reopened = repro.connect(path=tmp_path / "db")
        reopened.execute("INSERT INTO movies (movie_id, name) VALUES (?, ?)", (10, "new"))
        # Rowids 3-5 were used by the deleted rows; the new row must not
        # reuse them even though the process restarted in between.
        assert reopened.table("movies").rowids() == [1, 2, 6]
        reopened.close()

    def test_rowids_never_reused_across_drop_and_recreate(self, tmp_path):
        conn = make_db(tmp_path / "db")
        conn.execute("DROP TABLE movies")
        conn.execute("CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT)")
        conn.execute("INSERT INTO movies (movie_id, name) VALUES (?, ?)", (1, "fresh"))
        assert conn.table("movies").rowids() == [6]
        conn.close()
        # The watermark survives the restart too (via snapshot or WAL).
        reopened = repro.connect(path=tmp_path / "db")
        reopened.execute("INSERT INTO movies (movie_id, name) VALUES (?, ?)", (2, "x"))
        assert reopened.table("movies").rowids() == [6, 7]
        reopened.close()

    def test_watermark_survives_checkpoint_of_dropped_table(self, tmp_path):
        conn = make_db(tmp_path / "db", checkpoint_interval=None)
        conn.execute("DROP TABLE movies")
        conn.checkpoint()  # snapshot now holds the watermark, not the table
        conn.close()
        reopened = repro.connect(path=tmp_path / "db")
        reopened.execute("CREATE TABLE movies (movie_id INTEGER PRIMARY KEY)")
        reopened.execute("INSERT INTO movies (movie_id) VALUES (?)", (1,))
        assert reopened.table("movies").rowids() == [6]
        reopened.close()


class TestCrashRecovery:
    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        conn = make_db(tmp_path / "db")
        conn.close()
        wal_path = tmp_path / "db" / "wal.log"
        intact = wal_path.stat().st_size
        with open(wal_path, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00torn-partial-record")
        reopened = repro.connect(path=tmp_path / "db")
        assert reopened.durability.stats()["torn_records_dropped"] == 1
        assert wal_path.stat().st_size == intact
        assert reopened.execute("SELECT count(*) FROM movies").fetchone() == (5,)
        reopened.close()

    def test_kill_mid_commit_recovers_every_acknowledged_row(self, tmp_path):
        """SIGKILL a writer mid-commit; recovery must retain at least every
        row whose INSERT was acknowledged (synchronous=full) and come up
        with a consistent contiguous prefix — never an error."""
        db_path = tmp_path / "killed-db"
        script = textwrap.dedent(
            """
            import sys
            import repro

            conn = repro.connect(path=sys.argv[1], synchronous="full")
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            i = 0
            while True:
                i += 1
                conn.execute(
                    "INSERT INTO t (id, v) VALUES (?, ?)", (i, "payload-" + "x" * 64)
                )
                print(i, flush=True)  # acknowledged: the WAL record is fsynced
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-c", script, str(db_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        acknowledged = 0
        try:
            deadline = time.monotonic() + 30
            while acknowledged < 25:
                assert time.monotonic() < deadline, (
                    "writer subprocess produced no progress; stderr: "
                    + str(process.stderr.read() if process.poll() is not None else "")
                )
                line = process.stdout.readline().strip()
                if line:
                    acknowledged = int(line)
            process.send_signal(signal.SIGKILL)
        finally:
            process.kill()
            process.wait(timeout=30)
            process.stdout.close()
            process.stderr.close()

        recovered = repro.connect(path=db_path)
        ids = [row[0] for row in recovered.execute("SELECT id FROM t ORDER BY id")]
        # Every acknowledged insert survived; the unacknowledged tail may
        # contain at most what the kill raced in, as a contiguous prefix.
        assert len(ids) >= acknowledged
        assert ids == list(range(1, len(ids) + 1))
        recovered.close()


class TestAnswerCacheWarmStart:
    def test_restart_serves_crowd_answers_from_cache(self, tmp_path):
        conn = make_db(tmp_path / "db")
        conn.add_perceptual_column("movies", "is_comedy")
        conn.table("movies").fill_values(
            "is_comedy",
            {1: True, 2: False, 3: True},
            provenance="crowd",
            confidences={1: 0.9, 2: 0.8, 3: 0.7},
        )
        # Predicted cells must NOT warm the cache: it only ever holds
        # human answers.
        conn.table("movies").fill_values(
            "is_comedy", {4: True}, provenance="predicted", confidences={4: 0.5}
        )
        conn.close()

        reopened = repro.connect(path=tmp_path / "db")
        cache = reopened.acquisition_runtime().cache
        assert len(cache) == 3
        hit, value = cache.get("movies", "is_comedy", 1)
        assert hit and value == 1.0  # REAL perceptual column stores floats
        assert cache.get("movies", "is_comedy", 4) == (False, None)
        reopened.close()

    def test_deleted_row_is_skipped_by_warm_start(self, tmp_path):
        conn = make_db(tmp_path / "db")
        conn.add_perceptual_column("movies", "is_comedy")
        conn.table("movies").fill_values(
            "is_comedy", {1: True, 2: True}, provenance="crowd"
        )
        conn.execute("DELETE FROM movies WHERE movie_id = ?", (1,))
        conn.close()

        reopened = repro.connect(path=tmp_path / "db")
        cache = reopened.acquisition_runtime().cache
        assert cache.get("movies", "is_comedy", 1) == (False, None)
        assert cache.get("movies", "is_comedy", 2) == (True, 1.0)
        reopened.close()

    def test_warm_start_propagates_unexpected_errors(self, tmp_path, monkeypatch):
        # The deleted-row skip is narrowed to ExecutionError; an arbitrary
        # failure while reading a cell is a bug and must surface, not be
        # silently treated as "row deleted".
        conn = make_db(tmp_path / "db")
        conn.add_perceptual_column("movies", "is_comedy")
        conn.table("movies").fill_values("is_comedy", {1: True}, provenance="crowd")
        storage = conn.table("movies")

        def broken_get(rowid):
            raise RuntimeError("storage corrupted")

        monkeypatch.setattr(storage, "get", broken_get)
        with pytest.raises(RuntimeError, match="storage corrupted"):
            conn.durability._collect_crowd_answers()
        monkeypatch.undo()
        conn.close()

    def test_direct_update_invalidates_warm_answer_for_late_runtimes(self, tmp_path):
        conn = make_db(tmp_path / "db")
        conn.add_perceptual_column("movies", "is_comedy")
        conn.table("movies").fill_values(
            "is_comedy", {1: True, 2: True}, provenance="crowd"
        )
        conn.close()

        reopened = repro.connect(path=tmp_path / "db")
        # The UPDATE lands before any runtime registers; a runtime created
        # afterwards must not be warmed with the stale crowd answer.
        reopened.execute(
            "UPDATE movies SET is_comedy = ? WHERE movie_id = ?", (False, 1)
        )
        cache = reopened.acquisition_runtime().cache
        assert cache.get("movies", "is_comedy", 1) == (False, None)
        assert cache.get("movies", "is_comedy", 2) == (True, 1.0)
        reopened.close()


class TestSharedCatalogLifecycle:
    def test_sharing_connection_does_not_close_manager(self, tmp_path):
        owner = make_db(tmp_path / "db")
        sharer = Connection(owner.catalog)
        sharer.close()
        assert not owner.durability.closed
        owner.execute("INSERT INTO movies (movie_id, name) VALUES (?, ?)", (6, "still"))
        owner.close()
        assert owner.durability.closed

    def test_sharer_statements_fail_cleanly_after_owner_closes(self, tmp_path):
        """Once the owning connection closed the directory, a sharer must
        be refused *before* executing — a mutation applied in memory but
        never journaled would silently vanish on restart."""
        owner = make_db(tmp_path / "db")
        sharer = Connection(owner.catalog)
        owner.close()
        with pytest.raises(ExecutionError, match="directory .* is closed"):
            sharer.execute("INSERT INTO movies (movie_id, name) VALUES (?, ?)", (7, "x"))
        with pytest.raises(ExecutionError, match="directory .* is closed"):
            sharer.execute("SELECT count(*) FROM movies")
        # Nothing half-applied: the reopened database has the original rows.
        reopened = repro.connect(path=tmp_path / "db")
        assert reopened.execute("SELECT count(*) FROM movies").fetchone() == (5,)
        reopened.close()

    def test_commit_flushes_pending_group(self, tmp_path):
        conn = make_db(tmp_path / "db", synchronous="normal")
        fsyncs_before = conn.durability.stats()["fsyncs"]
        conn.execute("INSERT INTO movies (movie_id, name) VALUES (?, ?)", (6, "x"))
        conn.commit()
        assert conn.durability.stats()["fsyncs"] > fsyncs_before
        conn.close()

    def test_manager_context_and_repr(self, tmp_path):
        with DurabilityManager(tmp_path / "db") as manager:
            assert "open" in repr(manager)
        assert manager.closed and "closed" in repr(manager)
