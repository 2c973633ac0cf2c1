"""The served database: one server process, many tenants, shared crowd answers.

Starts a :class:`repro.server.ReproServer` on a temporary directory (the
server owns the directory lock, WAL and snapshots), configures two tenants
with *separate* crowd budgets, and lets both issue crowd-touching queries
concurrently through the wire client.  The punchline is the paper's
cross-user amortization at the process boundary: crowd answers live in the
catalog-shared answer cache, so when the second tenant repeats the first
tenant's query the platform is not called again — zero additional
platform calls, zero charge to the second tenant's budget — while each
tenant's *spending* stays isolated to its own ``SessionContext``.

Run with:  python examples/served_database.py
"""

from __future__ import annotations

import tempfile
import threading
from typing import Any, Sequence

import repro.client
from repro.db import Dispatch
from repro.db.connection import SessionContext
from repro.server import ReproServer, ServerConfig, TenantConfig


class MeteredSource:
    """A stand-in crowd platform: constant answers, counted and billed."""

    def __init__(self, cost_per_item: float = 0.05) -> None:
        self.cost_per_item = cost_per_item
        self.platform_calls = 0
        self._lock = threading.Lock()

    def request_values_with_cost(
        self, attribute: str, items: Sequence[tuple[int, dict[str, Any]]], **_: Any
    ) -> Dispatch:
        with self._lock:
            self.platform_calls += 1
        values = {rowid: round(0.3 + 0.1 * (rowid % 5), 2) for rowid, _row in items}
        return Dispatch(values, self.cost_per_item * len(items))


def main() -> None:
    source = MeteredSource()

    def tenant_session(config: TenantConfig) -> SessionContext:
        session = SessionContext(max_cost=config.max_cost, value_source=source)
        # Keep crowd answers in the shared cache (not table storage) so the
        # cross-tenant reuse below is visibly the cache's doing.
        session.crowd_write_back = False
        return session

    tenants = [
        TenantConfig(name="alice", max_cost=5.0),
        TenantConfig(name="bob", max_cost=5.0),
    ]

    with tempfile.TemporaryDirectory() as db_dir:
        config = ServerConfig(port=0, path=db_dir)
        with ReproServer(config, tenants=tenants, session_factory=tenant_session) as server:
            host, port = server.address
            print(f"server listening on {host}:{port} (db: {db_dir})")

            alice = repro.client.connect(host, port, tenant="alice")
            alice.execute(
                "CREATE TABLE movies (item_id INTEGER PRIMARY KEY, name TEXT,"
                " appeal REAL PERCEPTUAL)"
            )
            for i in range(1, 9):
                alice.execute(
                    "INSERT INTO movies (item_id, name) VALUES (?, ?)",
                    (i, f"movie-{i}"),
                )

            # Two tenants issue crowd-touching queries concurrently; the
            # runtime coalesces and caches the acquired cells.
            bob = repro.client.connect(host, port, tenant="bob")
            query = "SELECT COUNT(appeal) FROM movies"

            results: dict[str, Any] = {}

            def run(name: str, conn: repro.client.ClientConnection) -> None:
                results[name] = conn.execute(query).fetchall()

            first = threading.Thread(target=run, args=("alice", alice))
            first.start()
            first.join()
            print(f"alice's query: {results['alice']} "
                  f"({source.platform_calls} platform call(s) so far)")

            calls_before_bob = source.platform_calls
            second = threading.Thread(target=run, args=("bob", bob))
            second.start()
            second.join()
            extra = source.platform_calls - calls_before_bob
            print(f"bob's repeat:  {results['bob']} (+{extra} platform calls)")
            assert extra == 0, "the shared answer cache should serve bob's repeat"

            for snap in bob.server_stats()["tenants"]:
                print(
                    f"tenant {snap['tenant']}: spent ${snap['cost_spent']:.2f} "
                    f"of ${snap['max_cost']:.2f}, "
                    f"{snap['statements']} statement(s)"
                )
            alice.close()
            bob.close()
    print("server drained; WAL flushed and snapshot checkpointed")


if __name__ == "__main__":
    main()
