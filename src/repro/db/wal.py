"""Append-only write-ahead log for the durability layer.

Every mutation of a durable catalog — DDL, DML, schema expansion and the
crowd layer's ``fill_values`` write-backs (including provenance and
confidence) — is serialized as one log record *before* it is acknowledged,
so a crash loses at most the not-yet-fsynced tail and never corrupts
already-acknowledged data.

Record framing
--------------
Each record is ``<u32 payload-length><u32 crc32(payload)><payload>`` with a
compact-JSON payload carrying a monotone ``lsn`` (log sequence number), an
``op`` tag and the op's fields.  The per-record CRC is what makes torn
tails detectable: :func:`scan_wal` parses records until the first
incomplete or corrupt frame and reports the byte length of the valid
prefix, which recovery truncates to.  Values are JSON scalars except the
:data:`~repro.db.types.MISSING` marker, which round-trips through the
``{"__missing__": true}`` sentinel.

Durability modes
----------------
``synchronous`` controls when appended records are fsynced:

* ``"full"`` — fsync after every record (one platform-call-sized latency
  per statement; the safest and slowest mode);
* ``"normal"`` — *group commit*: records are written to the OS immediately
  but fsynced in batches of ``group_size`` (and on every explicit
  :meth:`~WriteAheadLog.flush`, checkpoint and close).  A crash can lose
  the last unsynced group, never more;
* ``"off"`` — never fsync (the OS decides; fastest, weakest).

Statements execute under the catalog lock, so appends are already
serialized; group commit here means batching fsyncs across consecutive
statements, which is where the hot-path insert throughput comes from (see
``benchmarks/test_bench_ablations.py::test_ablation_durability``).
"""

from __future__ import annotations

import json
import os
import struct
import threading
from pathlib import Path
from typing import Any, Iterable

from repro.db.types import MISSING, Missing, is_missing
from repro.errors import PersistenceError
from zlib import crc32

__all__ = [
    "RECORD_TYPES",
    "SYNCHRONOUS_MODES",
    "WriteAheadLog",
    "decode_value",
    "encode_value",
    "scan_wal",
    "validate_synchronous",
]

#: ``<payload length, crc32(payload)>`` little-endian frame header.
_HEADER = struct.Struct("<II")

#: Accepted values of the ``synchronous`` durability knob.
SYNCHRONOUS_MODES = ("full", "normal", "off")

#: The closed registry of WAL record types.  Every mutation path in the
#: engine serialises to exactly one of these ops, and recovery
#: (``DurabilityManager._apply``) has one handler per op.  ``reprolint``'s
#: ``wal-coverage`` rule cross-checks this set against both the append
#: sites and the replay handlers, so adding a mutation without wiring its
#: record type end-to-end fails CI instead of silently losing durability.
RECORD_TYPES = frozenset(
    {
        "create_table",
        "drop_table",
        "insert",
        "update",
        "delete",
        "fill",
        "add_column",
        "create_index",
        "enum_answers",
        "worker_stats",
    }
)

#: Compact JSON encoder for WAL and page records.  One shared instance:
#: ``json.dumps`` with non-default arguments builds a new encoder per call,
#: a measurable share of a single-row insert.
COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))

#: JSON sentinel for the MISSING marker (no JSON scalar can collide with it:
#: cell values are always scalars, never objects).
_MISSING_SENTINEL = {"__missing__": True}


def encode_value(value: Any) -> Any:
    """Encode one cell value (or default) for JSON serialization."""
    if is_missing(value):
        return dict(_MISSING_SENTINEL)
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict) and value.get("__missing__"):
        return MISSING
    return value


def encode_row(row: dict[str, Any]) -> dict[str, Any]:
    """Encode a stored row (column -> value) for JSON serialization."""
    encoded = dict(row)
    for name, value in encoded.items():
        if isinstance(value, Missing):
            encoded[name] = dict(_MISSING_SENTINEL)
    return encoded


def decode_row(row: dict[str, Any]) -> dict[str, Any]:
    """Inverse of :func:`encode_row`."""
    return {name: decode_value(value) for name, value in row.items()}


def encode_cells(values: dict[int, Any]) -> dict[str, Any]:
    """Encode a ``rowid -> value`` mapping (JSON keys must be strings)."""
    return {str(rowid): encode_value(value) for rowid, value in values.items()}


def decode_cells(values: dict[str, Any]) -> dict[int, Any]:
    """Inverse of :func:`encode_cells`."""
    return {int(rowid): decode_value(value) for rowid, value in values.items()}


def validate_synchronous(mode: str) -> str:
    """Normalize and validate a ``synchronous`` mode string."""
    mode = str(mode).lower()
    if mode not in SYNCHRONOUS_MODES:
        raise PersistenceError(
            f"synchronous must be one of {SYNCHRONOUS_MODES}, got {mode!r}"
        )
    return mode


class WriteAheadLog:
    """Append-only, CRC-framed, fsync-batched log file.

    All methods are thread-safe, though in practice appends arrive already
    serialized under the catalog lock.  ``next_lsn`` is owned by the
    recovery code: it must be seeded past the highest LSN already on disk
    (including records made obsolete by a snapshot) so LSNs stay monotone
    across restarts and replay can skip records a snapshot already covers.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        synchronous: str = "normal",
        group_size: int = 64,
    ) -> None:
        if group_size < 1:
            raise PersistenceError("wal group_size must be >= 1")
        self.path = Path(path)
        self.synchronous = validate_synchronous(synchronous)
        self.group_size = group_size
        self.next_lsn = 1
        self._lock = threading.RLock()
        self._file = open(self.path, "ab")
        #: Records written but not yet covered by an fsync.
        self._pending = 0
        #: Lifetime counters (survive truncation, not restarts).
        self.records_appended = 0
        self.fsyncs = 0

    # -- appending ------------------------------------------------------------

    def append(self, op: str, payload: dict[str, Any]) -> int:
        """Append one record and return its LSN.

        The payload must already be JSON-serializable (use the ``encode_*``
        helpers for rows and cell values).  Depending on ``synchronous``
        the record is fsynced immediately (``full``), in groups
        (``normal``) or not at all (``off``).
        """
        if op not in RECORD_TYPES:
            raise PersistenceError(
                f"unknown WAL record type {op!r}; register it in "
                f"repro.db.wal.RECORD_TYPES and add a replay handler"
            )
        with self._lock:
            lsn = self.next_lsn
            self.next_lsn += 1
            record = {"lsn": lsn, "op": op, **payload}
            blob = COMPACT_JSON.encode(record).encode("utf-8")
            self._file.write(_HEADER.pack(len(blob), crc32(blob)))
            self._file.write(blob)
            self._pending += 1
            self.records_appended += 1
            if self.synchronous == "full" or (
                self.synchronous == "normal" and self._pending >= self.group_size
            ):
                self._sync()
            return lsn

    def _sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self.fsyncs += 1
        self._pending = 0

    def flush(self) -> None:
        """Push buffered records to the OS; fsync unless ``synchronous=off``.

        This is the group-commit boundary: checkpoints, ``commit()`` and
        ``close()`` call it so acknowledged work is durable at those
        points even in ``normal`` mode.
        """
        with self._lock:
            if self._file.closed:
                return
            self._file.flush()
            if self.synchronous != "off" and self._pending:
                self._sync()

    # -- truncation (checkpointing) -------------------------------------------

    def truncate(self) -> None:
        """Discard every record (the snapshot now covers them).

        LSNs keep counting from where they were — replay relies on them
        being monotone across truncations.
        """
        with self._lock:
            self._file.flush()
            self._file.seek(0)
            self._file.truncate()
            os.fsync(self._file.fileno())
            self._pending = 0

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Flush and close the log file (idempotent)."""
        with self._lock:
            if self._file.closed:
                return
            self.flush()
            self._file.close()

    @property
    def size_bytes(self) -> int:
        """Current size of the log file in bytes."""
        with self._lock:
            if not self._file.closed:
                self._file.flush()
            return self.path.stat().st_size

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.path)!r}, synchronous={self.synchronous!r}, "
            f"records={self.records_appended})"
        )


def scan_wal(path: str | os.PathLike[str]) -> tuple[list[dict[str, Any]], int]:
    """Parse a WAL file, stopping at the first torn or corrupt record.

    Returns ``(records, valid_bytes)``: the records of the longest valid
    prefix, and its byte length.  A crash mid-append leaves a torn final
    frame (short header, short payload, or a CRC mismatch); everything
    before it is intact because records are strictly append-ordered.
    Recovery truncates the file to ``valid_bytes`` so the next append
    starts on a clean frame boundary.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    data = path.read_bytes()
    records: list[dict[str, Any]] = []
    offset = 0
    while offset + _HEADER.size <= len(data):
        length, checksum = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > len(data):
            break  # torn payload
        blob = data[start:end]
        if crc32(blob) != checksum:
            break  # corrupt (or torn-within-length) payload
        try:
            record = json.loads(blob.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):  # pragma: no cover - CRC makes this rare
            break
        if not isinstance(record, dict) or "lsn" not in record or "op" not in record:
            break
        records.append(record)
        offset = end
    return records, offset


def max_lsn(records: Iterable[dict[str, Any]]) -> int:
    """Highest LSN among *records* (0 when empty)."""
    return max((int(record["lsn"]) for record in records), default=0)
