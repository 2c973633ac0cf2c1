"""DB-API-2.0-style connection layer for the crowd-enabled database.

This module is the public entry point of :mod:`repro.db`:

>>> import repro
>>> conn = repro.connect()
>>> cur = conn.cursor()
>>> _ = cur.execute("CREATE TABLE movies (movie_id INTEGER PRIMARY KEY, name TEXT)")
>>> _ = cur.execute("INSERT INTO movies (movie_id, name) VALUES (?, ?)", (1, "Rocky"))
>>> cur.execute("SELECT name FROM movies WHERE movie_id = ?", (1,)).fetchone()
('Rocky',)

Compared with the legacy ``CrowdDatabase`` facade it replaced, it adds
three capabilities the paper's query-driven workload needs at scale:

* **parameter binding** — qmark-style ``?`` placeholders bound through the
  AST, so values never get interpolated into SQL strings;
* a **prepared-statement LRU cache** per connection, keyed on SQL text:
  hot repeated queries skip tokenize/parse/plan (plans are invalidated via
  the catalog's schema version when DDL changes the schema); and
* a **session-scoped crowd context** (:class:`SessionContext`) carrying the
  missing-value resolver, the schema-expansion handler, the cost ledger and
  a per-session budget.  Two connections sharing one
  :class:`~repro.db.catalog.Catalog` can run different crowd policies
  concurrently; the catalog's lock guards shared reads and writes.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from dataclasses import fields as dataclass_fields

from repro.db.acquisition import AcquisitionPolicy, AttributePredictor, PredictSpec
from repro.db.catalog import Catalog
from repro.db.schema import AttributeKind, Column, TableSchema
from repro.db.sql import ast
from repro.db.sql.executor import Executor, QueryResult, SelectStream
from repro.db.sql.expressions import MissingResolver
from repro.db.sql.operators import CrowdFillSpec, Operator
from repro.db.sql.parameters import bind_select_plan, bind_statement, check_arity, count_parameters
from repro.db.sql.parser import parse_script, parse_statement
from repro.db.sql.planner import Planner, SelectPlan
from repro.db.storage import TableStorage, ValueProvenance
from repro.db.types import MISSING, ColumnType
from repro.errors import ExecutionError, UnknownColumnError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports db)
    from repro.core.ledger import ExpansionLedger
    from repro.crowd.runtime import AcquisitionRuntime
    from repro.core.schema_expansion import ExpansionPipeline

#: Signature of the query-driven schema-expansion hook: ``(table, column)``
#: returns True if the column was added (the statement is retried once).
ExpansionHandler = Callable[[str, str], bool]

#: DB-API module attributes.
apilevel = "2.0"
threadsafety = 2  # threads may share the module and connections' catalog
paramstyle = "qmark"


def _normalize_params(params: Sequence[Any]) -> tuple[Any, ...]:
    """Validate and normalize a caller-supplied parameter sequence."""
    if isinstance(params, (str, bytes)) or not isinstance(params, Sequence):
        raise TypeError("parameters must be a sequence, e.g. a tuple")
    return tuple(params)


def _validate_batch_size(batch_size: int) -> int:
    """Reject non-positive crowd batch sizes at configuration time."""
    if batch_size <= 0:
        raise ValueError(f"crowd batch_size must be positive, got {batch_size}")
    return batch_size


#: Distinguishes "knob not passed" from an explicit None (a valid TTL value).
_UNSET: Any = object()

#: Knob names `PRAGMA acquisition_<knob>` exposes — exactly the fields of
#: :class:`~repro.db.acquisition.AcquisitionPolicy`.
_POLICY_FIELDS: tuple[str, ...] = tuple(f.name for f in dataclass_fields(AcquisitionPolicy))
_POLICY_INT_FIELDS = frozenset(
    {
        "min_sample",
        "max_sample",
        "crowd_batch_size",
        "max_concurrent_batches",
        "answer_cache_size",
        "enum_dry_batches",
        "max_enum_batches",
        "min_assignments",
        "max_assignments",
    }
)
_POLICY_BOOL_FIELDS = frozenset({"crowd_write_back"})
#: Fields whose value may be None; PRAGMA writes accept the word ``none``.
_POLICY_OPTIONAL_FIELDS = frozenset(
    {"max_sample", "max_cost", "answer_cache_ttl", "completeness_target"}
)


def _coerce_policy_pragma_value(knob: str, raw: Any) -> Any:
    """Parse a PRAGMA scalar into the typed value of policy field *knob*."""
    if isinstance(raw, str):
        lowered = raw.strip().lower()
        if knob in _POLICY_OPTIONAL_FIELDS and lowered in ("none", "null", ""):
            return None
        if knob in _POLICY_BOOL_FIELDS:
            if lowered in ("true", "on", "yes", "1"):
                return True
            if lowered in ("false", "off", "no", "0"):
                return False
            raise ExecutionError(
                f"PRAGMA acquisition_{knob} expects a boolean, got {raw!r}"
            )
        try:
            raw = float(lowered)
        except ValueError as exc:
            raise ExecutionError(
                f"PRAGMA acquisition_{knob} expects a number, got {raw!r}"
            ) from exc
    if knob in _POLICY_BOOL_FIELDS:
        return bool(raw)
    if knob in _POLICY_INT_FIELDS:
        number = float(raw)
        if number != int(number):
            raise ExecutionError(
                f"PRAGMA acquisition_{knob} expects an integer, got {raw!r}"
            )
        return int(number)
    return float(raw)


# ---------------------------------------------------------------------------
# Session context
# ---------------------------------------------------------------------------


class SessionContext:
    """Per-connection crowd-sourcing policy state.

    Replaces the legacy global ``set_missing_resolver`` /
    ``set_expansion_handler`` mutators: each connection owns one session, so
    two connections to the same shared catalog can resolve MISSING values
    and expand schemas with entirely different policies without clobbering
    each other.

    Parameters
    ----------
    missing_resolver:
        Hook consulted when a query reads a value marked MISSING.
    expansion_handler:
        Hook consulted when a SELECT references an unknown column.
    ledger:
        Cost/time ledger shared with the expansion machinery (created
        lazily when first accessed).
    max_cost:
        Optional budget in dollars.  Once ``cost_spent`` reaches it the
        session refuses further crowd-backed schema expansions.
    value_source:
        Optional batch :class:`~repro.db.acquisition.ValueSource`.
        When set, queries referencing crowd-sourced (perceptual) columns
        get a ``CrowdFill`` operator in their physical plan that acquires
        MISSING values in coalesced batches of ``crowd_batch_size`` rows —
        one platform call per attribute per batch instead of one
        ``missing_resolver`` call per row.
    crowd_batch_size:
        Number of missing rows coalesced into one batch dispatch.
    crowd_write_back:
        Whether batch-obtained values are persisted to storage so later
        queries need no further crowd work (default True).
    predictor:
        Optional :class:`~repro.db.acquisition.AttributePredictor` (e.g. a
        :class:`~repro.core.prediction.PerceptualPredictor`).  When set
        together with a ``value_source``, queries touching crowd-sourced
        columns lower to the *hybrid* two-stage plan: ``CrowdFill``
        acquires only a planner-chosen sample and ``PredictFill`` trains
        the predictor on the crowd answers and fills the remaining rows
        with predictions (provenance- and confidence-tagged in storage).
    acquisition:
        Legacy alias of *policy* (the historical name when the policy only
        carried the prediction knobs).  Passing both raises ``ValueError``.
    policy:
        The unified :class:`~repro.db.acquisition.AcquisitionPolicy` this
        session starts from: prediction knobs, budget, crowd batching,
        runtime knobs and enumeration knobs in one typed bundle.  Explicit
        legacy keyword arguments (``max_cost``, ``crowd_batch_size``, …)
        override the corresponding policy fields.  All of those legacy
        attributes remain readable/settable on the session and delegate to
        the policy.
    runtime:
        Optional session-private
        :class:`~repro.crowd.runtime.AcquisitionRuntime`.  By default the
        session dispatches through the *catalog's* shared runtime (created
        lazily from the three knobs below), which is what enables
        cross-connection answer caching and in-flight request coalescing;
        pass an explicit runtime to isolate a session or to pin different
        knobs.
    max_concurrent_batches:
        Worker-pool bound of the lazily created runtime: how many crowd
        platform dispatches (HIT-group batches of different attributes and
        batches) may be in flight at once.  ``1`` serializes all crowd
        calls.
    answer_cache_size, answer_cache_ttl:
        Capacity and expiry (seconds; ``None`` = never) of the runtime's
        cross-query :class:`~repro.crowd.runtime.AnswerCache`.
    on_runtime_knobs_ignored:
        Optional callback invoked (instead of emitting the
        ``RuntimeWarning``) when this session's explicit runtime knobs are
        ignored because the catalog's shared runtime was already created
        first-caller-wins with different knobs.  The server installs this
        to aggregate per-tenant mismatches into one log line rather than
        warning once per tenant session.
    """

    def __init__(
        self,
        *,
        missing_resolver: MissingResolver | None = None,
        expansion_handler: ExpansionHandler | None = None,
        ledger: "ExpansionLedger | None" = None,
        max_cost: float | None = None,
        value_source: Any = None,
        crowd_batch_size: int | None = None,
        crowd_write_back: bool | None = None,
        predictor: AttributePredictor | None = None,
        acquisition: AcquisitionPolicy | None = None,
        runtime: Any = None,
        max_concurrent_batches: int | None = None,
        answer_cache_size: int | None = None,
        answer_cache_ttl: float | None = _UNSET,
        on_runtime_knobs_ignored: Callable[[], None] | None = None,
        policy: AcquisitionPolicy | None = None,
    ) -> None:
        if policy is not None and acquisition is not None:
            raise ValueError("pass either policy= or its legacy alias acquisition=, not both")
        base = policy if policy is not None else acquisition
        if base is None:
            base = AcquisitionPolicy()
        defaults = AcquisitionPolicy()
        #: Whether the caller expressed runtime knobs at all — a session
        #: that kept the defaults must not be warned when the catalog's
        #: shared runtime happens to be configured differently.  A policy
        #: carrying non-default runtime knobs counts as explicit.
        self.runtime_knobs_explicit = (
            max_concurrent_batches is not None
            or answer_cache_size is not None
            or answer_cache_ttl is not _UNSET
            or base.max_concurrent_batches != defaults.max_concurrent_batches
            or base.answer_cache_size != defaults.answer_cache_size
            or base.answer_cache_ttl != defaults.answer_cache_ttl
        )
        if max_concurrent_batches is not None and max_concurrent_batches < 1:
            raise ValueError("max_concurrent_batches must be >= 1")
        overrides: dict[str, Any] = {}
        if max_cost is not None:
            overrides["max_cost"] = max_cost
        if crowd_batch_size is not None:
            overrides["crowd_batch_size"] = _validate_batch_size(crowd_batch_size)
        if crowd_write_back is not None:
            overrides["crowd_write_back"] = crowd_write_back
        if max_concurrent_batches is not None:
            overrides["max_concurrent_batches"] = max_concurrent_batches
        if answer_cache_size is not None:
            overrides["answer_cache_size"] = answer_cache_size
        if answer_cache_ttl is not _UNSET:
            overrides["answer_cache_ttl"] = answer_cache_ttl
        self._policy = base.with_overrides(**overrides) if overrides else base
        self.missing_resolver = missing_resolver
        self.expansion_handler = expansion_handler
        self._ledger = ledger
        self.cost_spent = 0.0
        self.value_source = value_source
        self.predictor = predictor
        self.runtime = runtime
        self.on_runtime_knobs_ignored = on_runtime_knobs_ignored

    def crowd_spec(self, runtime: "AcquisitionRuntime") -> CrowdFillSpec | None:
        """The batch crowd-fill configuration, or None when not set up.

        The session itself rides along as the budget hook: batch crowd
        spending is charged to ``cost_spent`` and stops once
        ``budget_exhausted``.  *runtime* is the acquisition runtime the
        operator dispatches through (see
        :meth:`Connection.acquisition_runtime`).
        """
        if self.value_source is None:
            return None
        return CrowdFillSpec(
            source=self.value_source,
            runtime=runtime,
            batch_size=self.crowd_batch_size,
            write_back=self.crowd_write_back,
            session=self,
        )

    def predict_spec(self, runtime: "AcquisitionRuntime") -> PredictSpec | None:
        """The prediction-stage configuration, or None when no predictor."""
        if self.predictor is None:
            return None
        return PredictSpec(
            predictor=self.predictor,
            runtime=runtime,
            policy=self.acquisition,
            write_back=self.crowd_write_back,
            session=self,
        )

    @property
    def ledger(self) -> "ExpansionLedger":
        """The session's expansion ledger (created on first access)."""
        if self._ledger is None:
            from repro.core.ledger import ExpansionLedger

            self._ledger = ExpansionLedger()
        return self._ledger

    @ledger.setter
    def ledger(self, value: "ExpansionLedger | None") -> None:
        self._ledger = value

    @property
    def remaining_budget(self) -> float | None:
        """Money left before the budget is exhausted (None = unlimited)."""
        if self.max_cost is None:
            return None
        return max(0.0, self.max_cost - self.cost_spent)

    @property
    def budget_exhausted(self) -> bool:
        """True once the session has spent its entire budget."""
        return self.max_cost is not None and self.cost_spent >= self.max_cost

    def record_cost(self, cost: float) -> None:
        """Account *cost* dollars of crowd spending against this session."""
        self.cost_spent += float(cost)

    # -- unified acquisition policy -----------------------------------------
    #
    # All acquisition knobs live on one AcquisitionPolicy; the attributes
    # below are the legacy per-knob views, kept so existing call sites (and
    # the PRAGMA surface) read and write the same underlying state.

    @property
    def policy(self) -> AcquisitionPolicy:
        """The session's unified :class:`~repro.db.acquisition.AcquisitionPolicy`."""
        return self._policy

    @policy.setter
    def policy(self, value: AcquisitionPolicy | None) -> None:
        self._policy = value if value is not None else AcquisitionPolicy()

    @property
    def acquisition(self) -> AcquisitionPolicy:
        """Legacy alias of :attr:`policy`."""
        return self._policy

    @acquisition.setter
    def acquisition(self, value: AcquisitionPolicy | None) -> None:
        # Historically `acquisition` carried only the prediction-side knobs,
        # so assigning one merges exactly those fields: it must not clobber
        # the budget or runtime knobs now unified into the policy.
        if value is None:
            value = AcquisitionPolicy()
        self._policy = self._policy.with_overrides(
            sample_fraction=value.sample_fraction,
            min_sample=value.min_sample,
            max_sample=value.max_sample,
            min_confidence=value.min_confidence,
            cost_ratio=value.cost_ratio,
            crowd_cost_per_value=value.crowd_cost_per_value,
        )

    @property
    def max_cost(self) -> float | None:
        """Session budget in dollars (None = unlimited)."""
        return self._policy.max_cost

    @max_cost.setter
    def max_cost(self, value: float | None) -> None:
        self._policy = self._policy.with_overrides(max_cost=value)

    @property
    def crowd_batch_size(self) -> int:
        """Rows coalesced into one crowd batch dispatch."""
        return self._policy.crowd_batch_size

    @crowd_batch_size.setter
    def crowd_batch_size(self, value: int) -> None:
        self._policy = self._policy.with_overrides(crowd_batch_size=_validate_batch_size(value))

    @property
    def crowd_write_back(self) -> bool:
        """Whether batch-obtained values are persisted to storage."""
        return self._policy.crowd_write_back

    @crowd_write_back.setter
    def crowd_write_back(self, value: bool) -> None:
        self._policy = self._policy.with_overrides(crowd_write_back=bool(value))

    @property
    def max_concurrent_batches(self) -> int:
        """Worker-pool bound of the lazily created acquisition runtime."""
        return self._policy.max_concurrent_batches

    @max_concurrent_batches.setter
    def max_concurrent_batches(self, value: int) -> None:
        if value < 1:
            raise ValueError("max_concurrent_batches must be >= 1")
        self._policy = self._policy.with_overrides(max_concurrent_batches=value)

    @property
    def answer_cache_size(self) -> int:
        """Capacity of the runtime's cross-query answer cache."""
        return self._policy.answer_cache_size

    @answer_cache_size.setter
    def answer_cache_size(self, value: int) -> None:
        self._policy = self._policy.with_overrides(answer_cache_size=value)

    @property
    def answer_cache_ttl(self) -> float | None:
        """Expiry (seconds; None = never) of cached crowd answers."""
        return self._policy.answer_cache_ttl

    @answer_cache_ttl.setter
    def answer_cache_ttl(self, value: float | None) -> None:
        self._policy = self._policy.with_overrides(answer_cache_ttl=value)

    @property
    def completeness_target(self) -> float | None:
        """Default ``WITH COMPLETENESS >=`` target for FROM CROWD queries."""
        return self._policy.completeness_target

    @completeness_target.setter
    def completeness_target(self, value: float | None) -> None:
        self._policy = self._policy.with_overrides(completeness_target=value)

    @property
    def enum_dry_batches(self) -> int:
        """Consecutive no-new-entity batches before an enumeration stops."""
        return self._policy.enum_dry_batches

    @enum_dry_batches.setter
    def enum_dry_batches(self, value: int) -> None:
        self._policy = self._policy.with_overrides(enum_dry_batches=value)

    @property
    def max_enum_batches(self) -> int:
        """Hard cap on platform batches one enumeration may pull."""
        return self._policy.max_enum_batches

    @max_enum_batches.setter
    def max_enum_batches(self, value: int) -> None:
        self._policy = self._policy.with_overrides(max_enum_batches=value)

    def __repr__(self) -> str:
        budget = "unlimited" if self.max_cost is None else f"${self.max_cost:.2f}"
        return (
            f"SessionContext(resolver={self.missing_resolver is not None}, "
            f"expansion={self.expansion_handler is not None}, budget={budget})"
        )


# ---------------------------------------------------------------------------
# Prepared statements and their cache
# ---------------------------------------------------------------------------


class PreparedStatement:
    """A parsed statement template plus its lazily cached SELECT plan."""

    __slots__ = ("sql", "statement", "parameter_count", "_plan", "_plan_version")

    def __init__(self, sql: str, statement: ast.Statement) -> None:
        self.sql = sql
        self.statement = statement
        self.parameter_count = count_parameters(statement)
        self._plan: SelectPlan | None = None
        self._plan_version: int = -1

    @property
    def is_select(self) -> bool:
        """True for plain SELECT statements (the plan-cached path)."""
        return isinstance(self.statement, ast.SelectStatement)

    def plan_for(self, planner: Planner, catalog_version: int) -> SelectPlan:
        """Return the plan for this SELECT, re-planning after DDL changes."""
        assert isinstance(self.statement, ast.SelectStatement)
        if self._plan is None or self._plan_version != catalog_version:
            self._plan = planner.plan_select(self.statement)
            self._plan_version = catalog_version
        return self._plan


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a :class:`StatementCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class StatementCache:
    """LRU cache of :class:`PreparedStatement` objects keyed on SQL text.

    A ``maxsize`` of 0 disables caching entirely (every lookup misses),
    which is how the ablation benchmark measures the cache's effect.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 0:
            raise ValueError("statement cache size must be >= 0")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, PreparedStatement] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, sql: str) -> PreparedStatement | None:
        """Return the cached statement for *sql*, updating LRU order."""
        entry = self._entries.get(sql)
        if entry is None:
            self._misses += 1
            return None
        self._entries.move_to_end(sql)
        self._hits += 1
        return entry

    def put(self, sql: str, prepared: PreparedStatement) -> None:
        """Insert *prepared* (evicting the least recently used on overflow)."""
        if self.maxsize == 0:
            return
        self._entries[sql] = prepared
        self._entries.move_to_end(sql)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._evictions += 1

    def clear(self) -> None:
        """Drop every cached statement (counters are preserved)."""
        self._entries.clear()

    def stats(self) -> CacheStats:
        """Current hit/miss/eviction counters."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._entries),
            maxsize=self.maxsize,
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sql: str) -> bool:
        return sql in self._entries


# ---------------------------------------------------------------------------
# Cursor
# ---------------------------------------------------------------------------


class Cursor:
    """DB-API-2.0-style cursor bound to one :class:`Connection`.

    SELECT statements *stream*: ``execute`` plans the query and opens the
    physical operator tree, but rows are pulled from it only as
    ``fetchone`` / ``fetchmany`` / iteration ask for them.  A ``LIMIT k``
    query therefore stops scanning after *k* rows, and closing the cursor
    mid-stream abandons the rest of the plan without running it.
    Whole-result accessors (:attr:`rowcount`, :attr:`result`, ``fetchall``)
    drain the remaining stream on demand.
    """

    def __init__(self, connection: "Connection") -> None:
        self._connection: Connection | None = connection
        self.arraysize = 1
        self._result: QueryResult | None = None
        self._stream: SelectStream | None = None
        self._position = 0

    # -- execution ---------------------------------------------------------------

    def execute(self, sql: str, params: Sequence[Any] = ()) -> "Cursor":
        """Execute one statement with optional qmark parameters."""
        connection = self._require_connection()
        # Drop the previous result first so a failed execute can never be
        # followed by fetches of stale rows.
        self._discard()
        outcome = connection.run_statement(sql, params, stream=True)
        if isinstance(outcome, SelectStream):
            self._stream = outcome
        else:
            self._result = outcome
        return self

    def executemany(self, sql: str, seq_of_params: Iterable[Sequence[Any]]) -> "Cursor":
        """Execute a DML statement once per parameter tuple.

        The statement is prepared once; only binding and execution repeat.
        Returning statements (SELECT/EXPLAIN) are rejected, mirroring the
        standard DB-API behaviour.
        """
        connection = self._require_connection()
        self._discard()
        total = connection._run_many(sql, seq_of_params)
        self._result = QueryResult(columns=[], rows=[], rowcount=total)
        return self

    # -- result access -----------------------------------------------------------

    @property
    def result(self) -> QueryResult | None:
        """The full :class:`QueryResult` of the last ``execute`` call.

        For streaming SELECTs this drains the remaining stream (fetch
        positions are preserved, so interleaving with ``fetchone`` is safe).
        """
        if self._stream is not None:
            return self._stream.materialize()
        return self._result

    @property
    def plan(self) -> Operator | None:
        """Root of the live physical operator tree of a streaming SELECT.

        Exposes per-operator runtime counters (``rows_out``, scan and
        crowd-batch statistics) for tests, benchmarks and diagnostics.
        """
        if self._stream is None:
            return None
        return self._stream.root

    def explain(self) -> str | None:
        """Physical plan of the last SELECT with current runtime counters."""
        if self._stream is None:
            return None
        return self._stream.describe(include_stats=True)

    @property
    def description(self) -> list[tuple[Any, ...]] | None:
        """DB-API column descriptions (7-tuples) of the last result."""
        columns = (
            self._stream.columns
            if self._stream is not None
            else (self._result.columns if self._result is not None else None)
        )
        if not columns:
            return None
        return [(name, None, None, None, None, None, None) for name in columns]

    @property
    def rowcount(self) -> int:
        """Rows returned (SELECT) or affected (DML) by the last statement."""
        if self._stream is not None:
            return self._stream.rowcount
        if self._result is None:
            return -1
        return self._result.rowcount

    def fetchone(self) -> tuple[Any, ...] | None:
        """Return the next result row, or None when exhausted."""
        if self._stream is not None:
            return self._stream.fetchone()
        rows = self._rows()
        if self._position >= len(rows):
            return None
        row = rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: int | None = None) -> list[tuple[Any, ...]]:
        """Return up to *size* rows (default: ``cursor.arraysize``)."""
        if size is None:
            size = self.arraysize
        if self._stream is not None:
            return self._stream.fetchmany(size)
        rows = self._rows()
        chunk = rows[self._position : self._position + size]
        self._position += len(chunk)
        return list(chunk)

    def fetchall(self) -> list[tuple[Any, ...]]:
        """Return all remaining result rows."""
        if self._stream is not None:
            return self._stream.fetchall()
        rows = self._rows()
        chunk = rows[self._position :]
        self._position = len(rows)
        return list(chunk)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return self

    def __next__(self) -> tuple[Any, ...]:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Detach the cursor, abandoning any partially fetched stream."""
        self._discard()
        self._connection = None

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- helpers ----------------------------------------------------------------

    def _discard(self) -> None:
        if self._stream is not None:
            self._stream.close()
        self._stream = None
        self._result = None
        self._position = 0

    def _require_connection(self) -> "Connection":
        if self._connection is None:
            raise ExecutionError("cursor is closed")
        return self._connection

    def _rows(self) -> list[tuple[Any, ...]]:
        if self._result is None:
            raise ExecutionError("no statement has been executed on this cursor")
        return self._result.rows


# ---------------------------------------------------------------------------
# Connection
# ---------------------------------------------------------------------------


class Connection:
    """A session against a (possibly shared) crowd-database catalog.

    Parameters
    ----------
    catalog:
        The catalog to operate on.  Pass an existing instance to share
        tables between connections; by default a fresh private catalog is
        created.
    session:
        The crowd context; a blank :class:`SessionContext` by default.
    statement_cache_size:
        Capacity of the prepared-statement LRU cache (0 disables caching).
    statement_log_size:
        Number of most recent SQL strings retained in
        :attr:`statement_log` (None keeps an unbounded log).
    hash_joins:
        Enable the hash-join fast path for qualified equi-joins (default
        True; the ablation benchmark disables it to measure the
        nested-loop baseline).
    """

    def __init__(
        self,
        catalog: Catalog | None = None,
        *,
        session: SessionContext | None = None,
        statement_cache_size: int = 128,
        statement_log_size: int | None = 1000,
        hash_joins: bool = True,
    ) -> None:
        self.catalog = catalog if catalog is not None else Catalog()
        self.session = session if session is not None else SessionContext()
        self._executor = Executor(self.catalog, hash_joins=hash_joins)
        self._planner = Planner(self.catalog)
        self._cache = StatementCache(statement_cache_size)
        self._lock = threading.RLock()
        self._statement_log: deque[str] = deque(maxlen=statement_log_size)
        self._runtime_knobs_warned = False
        #: True for the connection :func:`connect` opened a database
        #: directory with — closing it closes the durability manager too.
        self._owns_durability = False
        self._closed = False

    # -- DB-API surface -----------------------------------------------------------

    def cursor(self) -> Cursor:
        """Return a new :class:`Cursor` bound to this connection."""
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Cursor:
        """Shortcut: create a cursor and execute *sql* on it."""
        return self.cursor().execute(sql, params)

    def executemany(self, sql: str, seq_of_params: Iterable[Sequence[Any]]) -> Cursor:
        """Shortcut: create a cursor and run ``executemany`` on it."""
        return self.cursor().executemany(sql, seq_of_params)

    def execute_script(self, sql: str) -> list[QueryResult]:
        """Execute a ``;``-separated script; returns one result per statement."""
        self._check_open()
        results = []
        with self._lock:
            for source, statement in parse_script(sql):
                self._log_statement(source)
                results.append(self._execute_parsed(statement, ()))
        return results

    def commit(self) -> None:
        """Force durability of acknowledged statements.

        The engine auto-commits every statement logically; on a durable
        database (``connect(path=...)``) this additionally flushes the
        write-ahead log, so everything executed so far survives a crash
        even under group-commit (``synchronous=normal``) batching.  On an
        in-memory database it is a no-op.
        """
        self._check_open()
        if self.catalog.durability is not None:
            self.catalog.durability.flush()

    def rollback(self) -> None:
        """Unsupported: the in-memory engine has no transactions."""
        raise ExecutionError("the crowd database does not support transactions")

    def checkpoint(self) -> None:
        """Snapshot the catalog to disk and truncate the write-ahead log.

        Shortcut for ``PRAGMA wal_checkpoint``; requires a durable
        database opened via :func:`connect` with a ``path``.
        """
        self._check_open()
        if self.catalog.durability is None:
            raise ExecutionError(
                "checkpoint() requires a durable database "
                "(open one with repro.connect(path=...))"
            )
        self.catalog.durability.checkpoint()

    @property
    def durability(self) -> Any:
        """The catalog's :class:`~repro.db.durability.DurabilityManager` (or None)."""
        return self.catalog.durability

    def close(self) -> None:
        """Close the connection; subsequent statement execution fails.

        The connection that opened a database directory also flushes and
        closes its durability manager (releasing the directory lock);
        connections merely *sharing* a durable catalog leave it open.
        """
        if self._closed:
            return
        self._closed = True
        self._cache.clear()
        if self._owns_durability and self.catalog.durability is not None:
            self.catalog.durability.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        return self._closed

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- session configuration ----------------------------------------------------

    def set_missing_resolver(self, resolver: MissingResolver | None) -> None:
        """Install the session's resolver for MISSING values at query time."""
        self.session.missing_resolver = resolver

    def set_expansion_handler(self, handler: ExpansionHandler | None) -> None:
        """Install the session's handler for unknown-column expansion."""
        self.session.expansion_handler = handler

    @property
    def policy(self) -> AcquisitionPolicy:
        """The session's unified :class:`~repro.db.acquisition.AcquisitionPolicy`."""
        return self.session.policy

    def set_policy(self, policy: AcquisitionPolicy | None) -> None:
        """Install the session's unified acquisition policy (None = defaults).

        This is the single configuration path for every acquisition knob:
        prediction sampling, the session budget, crowd batching, the
        runtime cache knobs and the open-world enumeration targets.
        Individual knobs are also readable/settable as ``PRAGMA
        acquisition_<knob>`` and listable via ``PRAGMA acquisition_policy``;
        see ``docs/api.md`` for the migration table from the legacy
        per-knob setters.
        """
        if policy is not None and not isinstance(policy, AcquisitionPolicy):
            raise TypeError(
                f"set_policy expects an AcquisitionPolicy, got {type(policy).__name__}"
            )
        self.session.policy = policy

    def set_value_source(
        self, source: Any, *, batch_size: int | None = None
    ) -> None:
        """Install a batch ValueSource for coalesced crowd acquisition.

        Queries referencing crowd-sourced (perceptual) columns then carry a
        ``CrowdFill(batch_size=…)`` operator in their physical plan that
        dispatches MISSING values to *source* one batch per attribute.

        .. deprecated::
            The ``batch_size`` keyword; set
            ``AcquisitionPolicy.crowd_batch_size`` through
            :meth:`set_policy` or ``PRAGMA acquisition_crowd_batch_size``.
        """
        self.session.value_source = source
        if batch_size is not None:
            warnings.warn(
                "set_value_source(batch_size=...) is deprecated; configure "
                "AcquisitionPolicy.crowd_batch_size via Connection.set_policy() "
                "or PRAGMA acquisition_crowd_batch_size (see docs/api.md)",
                DeprecationWarning,
                stacklevel=2,
            )
            self.session.crowd_batch_size = _validate_batch_size(batch_size)

    def set_predictor(
        self,
        predictor: AttributePredictor | None,
        *,
        policy: AcquisitionPolicy | None = None,
        sample_fraction: float | None = None,
        min_confidence: float | None = None,
        cost_ratio: float | None = None,
    ) -> None:
        """Install (or remove) the session's hybrid-acquisition predictor.

        Together with a batch value source this turns crowd acquisition
        hybrid: ``CrowdFill`` asks the crowd for a planner-chosen sample,
        ``PredictFill`` predicts the rest from perceptual-space features.

        .. deprecated::
            The per-knob keywords (``policy``, ``sample_fraction``,
            ``min_confidence``, ``cost_ratio``); configure the session's
            :class:`~repro.db.acquisition.AcquisitionPolicy` through
            :meth:`set_policy` or ``PRAGMA acquisition_<knob>``.
        """
        self.session.predictor = predictor
        overrides = {
            name: value
            for name, value in (
                ("sample_fraction", sample_fraction),
                ("min_confidence", min_confidence),
                ("cost_ratio", cost_ratio),
            )
            if value is not None
        }
        if policy is not None or overrides:
            warnings.warn(
                "set_predictor's policy/sample_fraction/min_confidence/"
                "cost_ratio keywords are deprecated; configure the "
                "AcquisitionPolicy via Connection.set_policy() or PRAGMA "
                "acquisition_<knob> (see docs/api.md)",
                DeprecationWarning,
                stacklevel=2,
            )
        if policy is not None:
            self.session.acquisition = policy
        if overrides:
            self.session.policy = self.session.policy.with_overrides(**overrides)

    def set_acquisition_runtime(self, private: "AcquisitionRuntime | None") -> None:
        """Install a session-private acquisition runtime (None = shared).

        By default crowd acquisition dispatches through the catalog's
        shared :class:`~repro.crowd.runtime.AcquisitionRuntime`; a private
        runtime isolates this session's cache and worker pool (used e.g.
        by the concurrency ablation to pin ``max_concurrent_batches``).
        The runtime is registered with the catalog either way so direct
        UPDATEs keep invalidating its cached answers.
        """
        self.session.runtime = private
        if private is not None:
            self.catalog.register_runtime(private)

    def acquisition_runtime(self) -> "AcquisitionRuntime":
        """The runtime this connection's crowd acquisition dispatches through.

        Returns the session-private runtime when one is installed,
        otherwise the catalog's shared runtime — creating it (lazily) from
        the session's ``max_concurrent_batches`` / ``answer_cache_size`` /
        ``answer_cache_ttl`` knobs on first use.
        """
        private = self.session.runtime
        if private is not None:
            # register_runtime is an idempotent lock-guarded WeakSet.add;
            # calling it unconditionally keeps the session free to swap
            # runtimes without extra bookkeeping here.
            self.catalog.register_runtime(private)
            return private
        shared = self.catalog.acquisition_runtime(
            max_concurrent_batches=self.session.max_concurrent_batches,
            cache_size=self.session.answer_cache_size,
            cache_ttl_seconds=self.session.answer_cache_ttl,
        )
        if (
            not self._runtime_knobs_warned
            and self.session.runtime_knobs_explicit
            and (
                shared.max_concurrent_batches != self.session.max_concurrent_batches
                or shared.cache.capacity != self.session.answer_cache_size
                or shared.cache.ttl_seconds != self.session.answer_cache_ttl
            )
        ):
            # The shared runtime was created (by whichever session touched
            # the catalog first) with different knobs; a silent no-op here
            # would make e.g. a TTL setting appear to just not work.
            self._runtime_knobs_warned = True
            if self.session.on_runtime_knobs_ignored is not None:
                self.session.on_runtime_knobs_ignored()
            else:
                warnings.warn(
                    "this session's acquisition-runtime knobs differ from the "
                    "catalog's shared runtime (created first-caller-wins); pass "
                    "a session-private runtime via set_acquisition_runtime() or "
                    "SessionContext(runtime=...) to apply them",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return shared

    def expansion(self) -> "ExpansionPipeline":
        """Start a fluent :class:`~repro.core.schema_expansion.ExpansionPipeline`.

        >>> conn.expansion().with_policy(policy).with_key("movie_id").attach()
        """
        from repro.core.schema_expansion import ExpansionPipeline

        return ExpansionPipeline(self)

    # -- statement cache ----------------------------------------------------------

    @property
    def statement_cache(self) -> StatementCache:
        """The connection's prepared-statement cache."""
        return self._cache

    def cache_stats(self) -> CacheStats:
        """Hit/miss statistics of the prepared-statement cache."""
        return self._cache.stats()

    # -- execution core ----------------------------------------------------------

    def _crowd_spec(self) -> CrowdFillSpec | None:
        """Session crowd-fill spec wired to the acquisition runtime."""
        if self.session.value_source is None:
            return None
        return self.session.crowd_spec(runtime=self.acquisition_runtime())

    def _predict_spec(self) -> PredictSpec | None:
        """Session prediction spec wired to the acquisition runtime."""
        if self.session.predictor is None:
            return None
        return self.session.predict_spec(runtime=self.acquisition_runtime())

    def run_statement(
        self,
        sql: str,
        params: Sequence[Any] = (),
        *,
        explain: bool = False,
        allow_expansion: bool = True,
        stream: bool = False,
    ) -> QueryResult | SelectStream:
        """Prepare (or reuse), bind, execute and possibly expand-and-retry.

        With ``stream=True`` a SELECT returns a live
        :class:`~repro.db.sql.executor.SelectStream` instead of a
        materialized result: planning, parameter binding and the scan
        snapshots happen here (so schema expansion still triggers
        eagerly), but rows are produced only as the stream is pulled.
        """
        self._check_open()
        params = _normalize_params(params)
        with self._lock:
            self._log_statement(sql)
            prepared = self._prepare(sql)
            check_arity(prepared.parameter_count, params)
            return self._execute_with_expansion(
                lambda: self._execute_prepared(
                    prepared, params, explain=explain, stream=stream
                ),
                is_select=prepared.is_select,
                allow_expansion=allow_expansion,
            )

    def _execute_with_expansion(
        self,
        execute: Callable[[], QueryResult | SelectStream],
        *,
        is_select: bool,
        allow_expansion: bool = True,
    ) -> QueryResult | SelectStream:
        """Run *execute*, giving the session's expansion handler one retry.

        Crowd work never runs under the catalog lock: the *execute*
        callables acquire it only around catalog/storage access (planning,
        scanning, DML), and the expansion handler — which can spend
        (simulated) minutes crowd-sourcing — runs here with no lock held,
        taking it itself for the brief schema mutations it performs.
        """
        try:
            return execute()
        except UnknownColumnError as error:
            handler = self.session.expansion_handler
            if not allow_expansion or handler is None or not is_select or error.table is None:
                raise
            if not handler(error.table, error.column):
                raise
            return execute()

    def _run_many(self, sql: str, seq_of_params: Iterable[Sequence[Any]]) -> int:
        """Prepare *sql* once, then bind and execute per parameter tuple.

        Returns the total affected row count.  Statements that return rows
        are rejected (DB-API behaviour); DML never triggers expansion, so
        the whole batch runs under one catalog-lock acquisition.
        """
        self._check_open()
        total = 0
        with self._lock:
            self._log_statement(sql)
            prepared = self._prepare(sql)
            if isinstance(prepared.statement, (ast.SelectStatement, ast.ExplainStatement)):
                raise ExecutionError("executemany() cannot execute statements that return rows")
            # Drain and validate the caller's iterable outside the catalog
            # lock (a slow generator must not stall other connections);
            # binding itself is cheap CPU work and happens per tuple inside
            # the lock so only the raw parameter tuples are materialized.
            batches = []
            for params in seq_of_params:
                params = _normalize_params(params)
                check_arity(prepared.parameter_count, params)
                batches.append(params)
            with self.catalog.lock:
                for params in batches:
                    statement = (
                        bind_statement(prepared.statement, params, verify_arity=False)
                        if params
                        else prepared.statement
                    )
                    result = self._executor.execute(
                        statement, missing_resolver=self.session.missing_resolver
                    )
                    total += result.rowcount
        return total

    def _execute_prepared(
        self,
        prepared: PreparedStatement,
        params: tuple[Any, ...],
        *,
        explain: bool,
        stream: bool = False,
    ) -> QueryResult | SelectStream:
        if prepared.is_select:
            with self.catalog.lock:
                plan = prepared.plan_for(self._planner, self.catalog.version)
                bound_plan = bind_select_plan(plan, params)
            if stream and not explain:
                return self._executor.open_select(
                    bound_plan,
                    missing_resolver=self.session.missing_resolver,
                    crowd=self._crowd_spec(),
                    predict=self._predict_spec(),
                    lock=self.catalog.lock,
                )
            return self._executor.execute_select_plan(
                bound_plan,
                missing_resolver=self.session.missing_resolver,
                crowd=self._crowd_spec(),
                predict=self._predict_spec(),
                explain=explain,
                lock=self.catalog.lock,
            )
        statement = (
            bind_statement(prepared.statement, params, verify_arity=False)
            if params
            else prepared.statement
        )
        pragma_result = self._maybe_acquisition_pragma(statement)
        if pragma_result is not None:
            return pragma_result
        return self._executor.execute(
            statement,
            missing_resolver=self.session.missing_resolver,
            crowd=self._crowd_spec(),
            predict=self._predict_spec(),
            explain=explain,
            lock=self.catalog.lock,
        )

    def _maybe_acquisition_pragma(self, statement: ast.Statement) -> QueryResult | None:
        """Handle ``PRAGMA acquisition_*`` at the connection layer.

        Acquisition knobs are per-session state, unlike the durability and
        engine pragmas the executor owns, so they are intercepted here
        before the statement reaches the (catalog-scoped) executor.
        ``PRAGMA acquisition_policy`` lists every knob; ``PRAGMA
        acquisition_<knob>`` reads one, ``PRAGMA acquisition_<knob> =
        value`` writes it (``none`` clears an optional knob).
        """
        if not isinstance(statement, ast.PragmaStatement):
            return None
        name = statement.name
        if name == "acquisition_policy":
            if statement.value is not None:
                raise ExecutionError(
                    "PRAGMA acquisition_policy is read-only; write individual "
                    "knobs via PRAGMA acquisition_<knob> or Connection.set_policy()"
                )
            policy = self.session.policy
            rows = [(knob, getattr(policy, knob)) for knob in _POLICY_FIELDS]
            return QueryResult(columns=["knob", "value"], rows=rows, rowcount=0)
        if not name.startswith("acquisition_"):
            return None
        knob = name[len("acquisition_") :]
        if knob not in _POLICY_FIELDS:
            raise ExecutionError(f"unknown PRAGMA: {name}")
        if statement.value is None:
            value = getattr(self.session.policy, knob)
            return QueryResult(columns=[name], rows=[(value,)], rowcount=0)
        value = _coerce_policy_pragma_value(knob, statement.value)
        # with_overrides revalidates through AcquisitionPolicy.__post_init__,
        # so an out-of-range PRAGMA write fails without touching the session.
        self.session.policy = self.session.policy.with_overrides(**{knob: value})
        return QueryResult(columns=[], rows=[], rowcount=0)

    def _execute_parsed(self, statement: ast.Statement, params: tuple[Any, ...]) -> QueryResult:
        """Execute an already-parsed statement (script path; no caching).

        Like the prepared path, SELECTs referencing an unknown column get
        one chance at session-scoped schema expansion before the error
        propagates.
        """
        check_arity(count_parameters(statement), params)
        if params:
            statement = bind_statement(statement, params, verify_arity=False)
        pragma_result = self._maybe_acquisition_pragma(statement)
        if pragma_result is not None:
            return pragma_result
        result = self._execute_with_expansion(
            lambda: self._executor.execute(
                statement,
                missing_resolver=self.session.missing_resolver,
                crowd=self._crowd_spec(),
                predict=self._predict_spec(),
                lock=self.catalog.lock,
            ),
            is_select=isinstance(statement, ast.SelectStatement),
        )
        assert isinstance(result, QueryResult)  # script path never streams
        return result

    def _prepare(self, sql: str) -> PreparedStatement:
        prepared = self._cache.get(sql)
        if prepared is None:
            prepared = PreparedStatement(sql, parse_statement(sql))
            self._cache.put(sql, prepared)
        return prepared

    def _log_statement(self, sql: str) -> None:
        self._statement_log.append(sql)

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("connection is closed")
        durability = self.catalog.durability
        if durability is not None and durability.closed:
            # The owning connection closed the database directory; a
            # sharer must fail *before* executing, or its mutations would
            # apply in memory without ever reaching the (closed) WAL.
            raise ExecutionError(
                "the database directory backing this catalog is closed"
            )

    # -- introspection and plan inspection ---------------------------------------

    def explain(self, sql: str, params: Sequence[Any] = ()) -> str:
        """Return the *physical* operator tree of a SELECT without running it.

        The rendering shows access paths (``SeqScan`` / ``IndexLookup``),
        join strategies (``HashJoin`` / ``NestedLoopJoin``), and a
        ``CrowdFill(batch_size=…)`` operator whenever the query references
        a crowd-sourced attribute and the session has a batch value source.
        Unbound ``?`` placeholders render as ``?N``.
        """
        self._check_open()
        with self._lock, self.catalog.lock:
            prepared = self._prepare(sql)
            if not prepared.is_select:
                raise ExecutionError("EXPLAIN is only supported for SELECT statements")
            plan = prepared.plan_for(self._planner, self.catalog.version)
            if params:
                params = _normalize_params(params)
                check_arity(prepared.parameter_count, params)
                plan = bind_select_plan(plan, params)
            return self._executor.describe_physical_plan(
                plan,
                missing_resolver=self.session.missing_resolver,
                crowd=self._crowd_spec(),
                predict=self._predict_spec(),
            )

    def explain_analyze(self, sql: str, params: Sequence[Any] = ()) -> str:
        """Execute a SELECT and return its operator tree with row counts.

        Each line carries the operator's runtime counters — rows produced,
        inclusive wall time, hash-build sizes and crowd-batch statistics
        (batches dispatched, values filled, answer-cache hits, coalesced
        requests) — the EXPLAIN ANALYZE of the engine.  See
        ``docs/operators.md`` for a worked transcript.
        """
        result = self.run_statement(sql, params, explain=True)
        assert isinstance(result, QueryResult)
        if result.plan_description is None:
            raise ExecutionError("explain_analyze is only supported for SELECT statements")
        return result.plan_description

    @property
    def statement_log(self) -> Sequence[str]:
        """The most recent SQL strings executed on this connection."""
        return tuple(self._statement_log)

    def table_names(self) -> list[str]:
        """Names of all tables in the catalog."""
        with self.catalog.lock:
            return self.catalog.table_names()

    def describe(self, table_name: str) -> list[dict[str, Any]]:
        """Schema description of *table_name* (one dict per column)."""
        with self.catalog.lock:
            return self.catalog.table(table_name).schema.describe()

    # -- programmatic schema and data access --------------------------------------

    def create_table(self, schema: TableSchema, *, if_not_exists: bool = False) -> TableStorage:
        """Create a table from a :class:`~repro.db.schema.TableSchema` object."""
        with self.catalog.lock:
            return self.catalog.create_table(schema, if_not_exists=if_not_exists)

    def table(self, name: str) -> TableStorage:
        """Return the storage object of table *name*."""
        return self.catalog.table(name)

    def insert_rows(self, table_name: str, rows: Iterable[dict[str, Any]]) -> int:
        """Bulk-insert dictionaries into *table_name*; returns the row count."""
        with self.catalog.lock:
            table = self.catalog.table(table_name)
            return len(table.insert_many(rows))

    def add_perceptual_column(
        self,
        table_name: str,
        column_name: str,
        column_type: Any = None,
    ) -> Column:
        """Add a new perceptual column initialised to MISSING and return it."""
        with self.catalog.lock:
            table = self.catalog.table(table_name)
            if isinstance(column_type, str):
                # Accept SQL type names ("REAL", "boolean", ...); a raw string
                # in Column.type would crash the durability journal later.
                column_type = ColumnType.from_name(column_type)
            resolved_type = column_type or ColumnType.REAL
            column = Column(
                name=column_name,
                type=resolved_type,
                kind=AttributeKind.PERCEPTUAL,
                nullable=True,
                default=MISSING,
            )
            table.add_column(column, fill_value=MISSING)
            return column

    def column_values(self, table_name: str, column_name: str) -> dict[int, Any]:
        """Return ``rowid -> value`` for one column (including MISSING cells)."""
        with self.catalog.lock:
            table = self.catalog.table(table_name)
            key = table.schema.column(column_name).name
            return {rowid: row.get(key) for rowid, row in table.scan()}

    def missing_count(self, table_name: str, column_name: str) -> int:
        """Number of MISSING cells in ``table_name.column_name``."""
        with self.catalog.lock:
            return len(self.catalog.table(table_name).missing_rowids(column_name))

    def value_provenance(
        self, table_name: str, column_name: str
    ) -> dict[int, ValueProvenance]:
        """``rowid -> ValueProvenance`` for the non-stored cells of a column."""
        with self.catalog.lock:
            return self.catalog.table(table_name).provenance_map(column_name)

    def provenance_counts(self, table_name: str, column_name: str) -> dict[str, int]:
        """Histogram of value provenance (stored/crowd/predicted) of a column."""
        with self.catalog.lock:
            return self.catalog.table(table_name).provenance_counts(column_name)

    def __repr__(self) -> str:
        tables = ", ".join(self.table_names()) or "<empty>"
        state = "closed" if self._closed else "open"
        return f"Connection({state}, tables=[{tables}])"


def connect(
    catalog: Catalog | None = None,
    *,
    path: Any = None,
    synchronous: str | None = None,
    checkpoint_interval: int | None = _UNSET,
    buffer_pool_pages: int | None = None,
    page_size: int | None = None,
    session: SessionContext | None = None,
    policy: AcquisitionPolicy | None = None,
    statement_cache_size: int = 128,
    statement_log_size: int | None = 1000,
    hash_joins: bool = True,
) -> Connection:
    """Open a connection to an in-memory or durable crowd database.

    This is the module-level DB-API entry point::

        conn = repro.connect()
        conn.cursor().execute("SELECT name FROM movies WHERE movie_id = ?", (1,))

    Pass an existing :class:`~repro.db.catalog.Catalog` to share one set of
    tables between several connections, each with its own
    :class:`SessionContext` (resolver, expansion policy, budget).  A
    *policy* — the unified
    :class:`~repro.db.acquisition.AcquisitionPolicy` — seeds the session's
    acquisition knobs (budget, batching, prediction, enumeration); when a
    *session* is passed too, the policy is installed on it.

    With ``path`` the database lives in a directory on disk and survives
    restarts: opening replays the last snapshot plus the write-ahead-log
    tail (recovering paid crowd answers, their provenance and confidence,
    and warm-starting the answer cache), and every later statement is
    logged before it is acknowledged.  ``synchronous`` picks the fsync
    policy (``"full"`` per statement, ``"normal"`` group commit,
    ``"off"``) and ``checkpoint_interval`` the automatic-snapshot cadence
    in WAL records (``None`` disables) — both adjustable at runtime via
    ``PRAGMA``.  Durable tables keep their rows in a paged store behind a
    fixed-size buffer pool (``docs/storage.md``): ``buffer_pool_pages``
    sets its capacity (0 keeps rows in plain memory), ``page_size`` the
    page size in bytes; the pool is resizable at runtime via ``PRAGMA
    buffer_pool_pages = N``.  Closing this connection closes the database
    directory; see ``docs/persistence.md`` for the file format and
    crash-safety guarantees.
    """
    if policy is not None:
        if session is None:
            session = SessionContext(policy=policy)
        else:
            session.policy = policy
    owns_durability = False
    if path is None:
        if (
            synchronous is not None
            or checkpoint_interval is not _UNSET
            or buffer_pool_pages is not None
            or page_size is not None
        ):
            # Silently accepting the knobs would let e.g.
            # connect(synchronous="full") look durable while nothing is.
            raise ValueError(
                "synchronous/checkpoint_interval/buffer_pool_pages/page_size "
                "are durability knobs: they require path=..."
            )
    else:
        if catalog is not None:
            raise ValueError("pass either a catalog or a path, not both")
        from repro.db.durability import (
            DEFAULT_PAGE_SIZE,
            DEFAULT_POOL_PAGES,
            DurabilityManager,
        )

        manager = DurabilityManager(
            path,
            synchronous="normal" if synchronous is None else synchronous,
            checkpoint_interval=1000 if checkpoint_interval is _UNSET else checkpoint_interval,
            buffer_pool_pages=(
                DEFAULT_POOL_PAGES if buffer_pool_pages is None else buffer_pool_pages
            ),
            page_size=DEFAULT_PAGE_SIZE if page_size is None else page_size,
        )
        catalog = manager.catalog
        owns_durability = True
    connection = Connection(
        catalog,
        session=session,
        statement_cache_size=statement_cache_size,
        statement_log_size=statement_log_size,
        hash_joins=hash_joins,
    )
    connection._owns_durability = owns_durability
    return connection
