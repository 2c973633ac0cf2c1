"""Crash-recovery property matrix for the paged storage layer.

Hypothesis draws a kill point — a scenario (buffer-pool write-back churn,
ordered-index build, checkpoint storm) and a progress threshold — and a
writer subprocess running with ``synchronous=full`` is SIGKILLed there.
Recovery must always come up clean with exactly a contiguous committed
prefix, and every query answered through a recovered ordered index must
match the answer computed from the recovered base rows (i.e. recovered
indexes are indistinguishable from indexes rebuilt from scratch).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro

#: Writer subprocess.  Scenario knobs:
#:   writeback  — 2-page buffer pool, every insert churns eviction/write-back
#:   indexbuild — bulk rows, then CREATE INDEX (parent kills on "INDEXING")
#:   checkpoint — checkpoint every 2 commits, kill lands mid-checkpoint
_WRITER = textwrap.dedent(
    """
    import sys
    import repro

    scenario, path = sys.argv[1], sys.argv[2]
    kwargs = {"synchronous": "full"}
    if scenario == "writeback":
        kwargs["buffer_pool_pages"] = 2
    if scenario == "checkpoint":
        kwargs["checkpoint_interval"] = 2
    conn = repro.connect(path=path, **kwargs)
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    if scenario == "indexbuild":
        for i in range(1, 401):
            conn.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, (i * 37) % 101))
        print("INDEXING", flush=True)
        conn.execute("CREATE INDEX ON t (v)")
        print("INDEXED", flush=True)
    else:
        conn.execute("CREATE INDEX ON t (v)")
    i = 400 if scenario == "indexbuild" else 0
    while True:
        i += 1
        conn.execute("INSERT INTO t (id, v) VALUES (?, ?)", (i, (i * 37) % 101))
        print(i, flush=True)  # acknowledged: the WAL record is fsynced
    """
)


def _spawn_writer(scenario: str, db_path: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-c", _WRITER, scenario, str(db_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def _kill_after(process: subprocess.Popen, threshold: int, scenario: str) -> int:
    """Read progress lines until the kill point, then SIGKILL; returns the
    number of acknowledged inserts."""
    acknowledged = 0
    deadline = time.monotonic() + 60
    while True:
        assert time.monotonic() < deadline, (
            "writer made no progress; stderr: "
            + str(process.stderr.read() if process.poll() is not None else "")
        )
        line = process.stdout.readline().strip()
        if not line:
            continue
        if line == "INDEXING":
            if scenario == "indexbuild":
                break  # kill lands while CREATE INDEX is building the run
            continue
        if line == "INDEXED":
            continue
        acknowledged = int(line)
        if scenario != "indexbuild" and acknowledged >= threshold:
            break
    process.send_signal(signal.SIGKILL)
    return acknowledged


class TestCrashRecoveryMatrix:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        scenario=st.sampled_from(("writeback", "indexbuild", "checkpoint")),
        threshold=st.integers(min_value=3, max_value=30),
        low=st.integers(min_value=0, max_value=100),
        span=st.integers(min_value=0, max_value=60),
    )
    def test_kill_point_leaves_committed_prefix_and_sound_indexes(
        self, tmp_path_factory, scenario, threshold, low, span
    ):
        db_path = tmp_path_factory.mktemp("crash") / "db"
        process = _spawn_writer(scenario, db_path)
        try:
            acknowledged = _kill_after(process, threshold, scenario)
        finally:
            process.kill()
            process.wait(timeout=30)
            process.stdout.close()
            process.stderr.close()

        recovered = repro.connect(path=db_path)
        try:
            rows = recovered.execute("SELECT id, v FROM t ORDER BY id").fetchall()
            ids = [row[0] for row in rows]
            # Committed-prefix property: every acknowledged insert survived,
            # and nothing beyond a contiguous prefix raced in.
            floor = 400 if scenario == "indexbuild" else acknowledged
            assert len(ids) >= floor
            assert ids == list(range(1, len(ids) + 1))

            # Recovered-index soundness: a range query answered through the
            # ordered index (when it survived) must equal the answer computed
            # from the recovered base rows — i.e. rebuilt-from-scratch.
            high = low + span
            expected = sorted(
                (v, rid) for rid, v in rows if low <= v <= high
            )
            got = recovered.execute(
                f"SELECT v, id FROM t WHERE v BETWEEN {low} AND {high} ORDER BY v, id"
            ).fetchall()
            assert [tuple(pair) for pair in got] == expected
        finally:
            recovered.close()
