"""SIGKILL recovery of WAL-durable worker-quality statistics.

A writer subprocess (``synchronous=full``) fills crowd cells through the
quality-tracked acquisition path, checkpoints mid-way — so the recorded
worker stats live partly in the snapshot and partly in the WAL tail — and
is then SIGKILLed.  Recovery must reproduce the exact per-worker totals,
``PRAGMA worker_stats`` must report them, a fresh runtime's tracker must
be warm-started from them, and re-running the same query must dispatch
**zero** platform calls (the paid-for answers and worker knowledge both
survived the crash).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import repro

_WRITER = textwrap.dedent(
    """
    import json
    import sys
    import time

    import repro
    from repro.crowd.platform import CrowdPlatform
    from repro.crowd.sources import SimulatedCrowdValueSource
    from repro.crowd.worker import WorkerPool

    path = sys.argv[1]
    conn = repro.connect(path=path, synchronous="full")
    conn.execute("CREATE TABLE items (item_id INTEGER PRIMARY KEY, name TEXT)")
    conn.executemany(
        "INSERT INTO items (item_id, name) VALUES (?, ?)",
        [(i, f"item-{i}") for i in range(1, 21)],
    )
    conn.add_perceptual_column("items", "is_comedy")

    truth = {"is_comedy": {i: i % 2 == 0 for i in range(1, 21)}}
    gold = {"is_comedy": {i: i % 3 == 0 for i in range(100, 108)}}
    pool = WorkerPool.build(n_honest=20, seed=7)
    rates = {w.worker_id: (0.08 if w.worker_id % 4 else 0.42) for w in pool}
    source = SimulatedCrowdValueSource(
        CrowdPlatform(seed=11), pool, truth=truth, seed=42, items_per_hit=1,
        worker_error_rates=rates, gold_answers=gold,
    )
    conn.set_value_source(source)

    # First half of the cells, then a checkpoint: these worker stats ride
    # the snapshot.  Second half: the stats delta lands in the WAL tail.
    conn.execute("SELECT count(is_comedy) FROM items WHERE item_id <= 10").fetchone()
    conn.execute("PRAGMA wal_checkpoint")
    conn.execute("SELECT count(is_comedy) FROM items").fetchone()

    stats = conn.catalog.worker_stats()
    print(
        "DONE " + json.dumps(
            {str(wid): [c, i] for wid, (c, i) in sorted(stats.items())}
        ),
        flush=True,
    )
    while True:  # spin until the parent SIGKILLs us mid-flight
        time.sleep(0.05)
    """
)


def _run_writer_until_done(db_path: Path) -> dict[int, tuple[float, float]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-c", _WRITER, str(db_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        deadline = time.monotonic() + 120
        while True:
            assert time.monotonic() < deadline, (
                "writer made no progress; stderr: "
                + str(process.stderr.read() if process.poll() is not None else "")
            )
            line = process.stdout.readline().strip()
            if process.poll() is not None:
                raise AssertionError(f"writer died early: {process.stderr.read()}")
            if line.startswith("DONE "):
                payload = json.loads(line[len("DONE "):])
                break
        process.send_signal(signal.SIGKILL)
    finally:
        process.kill()
        process.wait(timeout=30)
        process.stdout.close()
        process.stderr.close()
    return {
        int(worker_id): (float(correct), float(incorrect))
        for worker_id, (correct, incorrect) in payload.items()
    }


def _make_quality_source():
    from repro.crowd.platform import CrowdPlatform
    from repro.crowd.sources import SimulatedCrowdValueSource
    from repro.crowd.worker import WorkerPool

    truth = {"is_comedy": {i: i % 2 == 0 for i in range(1, 21)}}
    gold = {"is_comedy": {i: i % 3 == 0 for i in range(100, 108)}}
    pool = WorkerPool.build(n_honest=20, seed=7)
    rates = {w.worker_id: (0.08 if w.worker_id % 4 else 0.42) for w in pool}
    return SimulatedCrowdValueSource(
        CrowdPlatform(seed=11), pool, truth=truth, seed=42, items_per_hit=1,
        worker_error_rates=rates, gold_answers=gold,
    )


class TestWorkerStatsSurviveSigkill:
    def test_stats_recover_from_snapshot_plus_wal_tail(self, tmp_path):
        db_path = tmp_path / "db"
        expected = _run_writer_until_done(db_path)
        assert expected, "writer recorded no worker stats before the kill"

        recovered = repro.connect(path=db_path)
        try:
            # The catalog's recorded totals are exactly the pre-kill totals
            # (snapshot section merged with the WAL-tail records, last wins).
            assert recovered.catalog.worker_stats() == expected

            # PRAGMA worker_stats reports every worker with its estimate.
            rows = recovered.execute("PRAGMA worker_stats").fetchall()
            assert {row[0]: (row[1], row[2]) for row in rows} == expected
            assert all(0.0 < row[3] < 1.0 for row in rows)

            # A runtime registering on the recovered catalog is warm-started.
            runtime = recovered.catalog.acquisition_runtime()
            assert runtime.worker_quality.totals() == expected

            # Zero re-dispatches: every crowd answer was persisted before
            # the kill, so the same query costs no further platform calls.
            source = _make_quality_source()
            recovered.set_value_source(source)
            count = recovered.execute(
                "SELECT count(is_comedy) FROM items"
            ).fetchone()[0]
            assert count == 20
            assert source.dispatches == 0
        finally:
            recovered.close()
