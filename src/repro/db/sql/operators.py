"""Physical operator algebra: Volcano-style iterators for SELECT execution.

The planner produces a *logical* :class:`~repro.db.sql.planner.SelectPlan`;
:func:`lower_select_plan` lowers it into a tree of composable physical
operators, each a pull-based iterator:

* access paths — :class:`SeqScan`, :class:`IndexScan` (rendered as
  ``IndexLookup``) and the cost-model-chosen :class:`IndexRangeScan`
  (ordered-index range probe and/or Sort-eliminating ordered walk), all
  snapshotting the row set under the catalog lock at ``open()`` time and
  copying rows lazily as they are pulled;
* :class:`CrowdFill` — the crowd-acquisition operator.  It watches the rows
  streaming out of a scan for MISSING values of crowd-sourced (perceptual)
  attributes and acquires them from a batch
  :class:`~repro.db.acquisition.ValueSource` in configurable batches: one
  coalesced platform call per attribute per ``batch_size`` missing rows
  instead of one resolver call per row.  Every batch goes through the
  session's :class:`~repro.crowd.runtime.AcquisitionRuntime`: per-attribute
  batches execute concurrently on a bounded worker pool, repeat requests
  are served from the cross-query answer cache, and cells another query is
  already acquiring are coalesced onto that in-flight dispatch.  Under
  hybrid acquisition it acquires only the planner-chosen *sample* of the
  missing rows (plus any low-confidence predicted cells up for
  re-acquisition) and leaves the rest to :class:`PredictFill`;
* :class:`PredictFill` — the prediction stage of hybrid acquisition.  It
  trains an :class:`~repro.db.acquisition.AttributePredictor` (e.g. an
  SVR/SVC over perceptual-space coordinates) on every known value streaming
  by — crowd answers from the ``CrowdFill`` below plus previously stored
  cells — and fills the remaining MISSING cells with predictions, tagging
  each value's provenance (``crowd`` vs ``predicted`` vs ``stored``) and
  per-value confidence in storage;
* joins — :class:`NestedLoopJoin` (general predicates, per-join invariants
  such as the materialized right side and the LEFT JOIN null-row template
  are hoisted out of the probe loop) and :class:`HashJoin`, the equi-join
  fast path that builds a hash table on the right input once and probes it
  with each left row;
* :class:`Filter`, :class:`Project`, :class:`Aggregate`, :class:`Distinct`,
  :class:`Sort` and :class:`Limit`.

Operators pull from their children lazily, so a ``LIMIT k`` query without an
ORDER BY stops pulling from the scan after *k* rows instead of materializing
the table, and cursors can stream rows to the client incrementally.  Every
operator counts the rows it produced (``rows_out``) and its inclusive
wall-clock time (``wall_seconds``); the EXPLAIN rendering
(:func:`describe_operator_tree`) shows the tree in pipeline order together
with those counters and the crowd-batch statistics of any ``CrowdFill``
(batches dispatched, cells filled, answer-cache hits, coalesced requests).

Item types flowing between operators:

* below :class:`Bind`: ``(rowid, row_dict)`` pairs (private row copies);
* between :class:`Bind` and the projection: :class:`RowContext` objects;
* above :class:`Project`/:class:`Aggregate`: ``(row_tuple, context)`` pairs.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Iterator,
    Mapping,
    Optional,
    Sequence,
)

from repro.crowd.estimation import (
    ENUMERATION_TABLE,
    Chao92Estimator,
    EnumerationStats,
    enumeration_attribute,
    normalize_entity,
)
from repro.db.acquisition import (
    PROVENANCE_CROWD,
    PROVENANCE_PREDICTED,
    PROVENANCE_STORED,
    PredictSpec,
    SamplePlan,
    plan_sample,
)
from repro.db.catalog import Catalog
from repro.db.schema import AttributeKind, TableSchema
from repro.db.sql import ast
from repro.db.sql.expressions import (
    MissingResolver,
    RowContext,
    evaluate,
    evaluate_predicate,
    expression_label,
)
from repro.db.sql.planner import (
    AccessPath,
    OutputColumn,
    ScanPlan,
    SelectPlan,
    choose_join_strategy,
)
from repro.db.types import is_missing, sort_rank
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crowd.runtime import AcquisitionRuntime
    from repro.db.acquisition import ValueSource


# ---------------------------------------------------------------------------
# Crowd-fill configuration
# ---------------------------------------------------------------------------


@dataclass
class CrowdFillSpec:
    """How a query should acquire MISSING crowd-sourced values in bulk.

    Parameters
    ----------
    source:
        A batch :class:`~repro.db.acquisition.ValueSource`; each
        ``request_values_with_cost`` call corresponds to one coalesced crowd
        dispatch (e.g. one HIT group on the simulated platform).
    runtime:
        The :class:`~repro.crowd.runtime.AcquisitionRuntime` the operator
        dispatches through.  The runtime executes the per-attribute
        batches concurrently on its bounded worker pool, serves repeat
        requests from its cross-query
        :class:`~repro.crowd.runtime.AnswerCache`, coalesces duplicate
        cells with other in-flight queries and charges each dispatch's
        cost to *session*.
    batch_size:
        Number of missing rows coalesced into one platform call.  N missing
        rows for one attribute produce ``ceil(N / batch_size)`` calls.
    write_back:
        Whether obtained values are persisted to storage (under the catalog
        lock) so later queries need no further crowd work.
    session:
        Optional session-budget hook (duck-typed: ``budget_exhausted`` and
        ``record_cost(cost)``, i.e. a
        :class:`~repro.db.connection.SessionContext`).  When set, no batch
        is dispatched once the budget is exhausted, and each dispatch's
        cost is charged against the session.
    """

    source: "ValueSource"
    runtime: "AcquisitionRuntime"
    batch_size: int = 50
    write_back: bool = True
    session: Any = None

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ExecutionError(
                f"crowd batch_size must be positive, got {self.batch_size}"
            )


# ---------------------------------------------------------------------------
# Operator base
# ---------------------------------------------------------------------------


class Operator:
    """One node of a physical execution plan.

    Lifecycle: construct (cheap), ``open()`` once under the catalog lock
    (scans snapshot their row set here), iterate (pull-based, unlocked),
    ``close()``.  An operator tree is single-use.
    """

    label = "Operator"
    #: Hidden operators are glue (e.g. :class:`Bind`) and are omitted from
    #: the EXPLAIN rendering.
    hidden = False

    def __init__(self, *children: "Operator") -> None:
        self.children: tuple[Operator, ...] = children
        #: Number of items this operator has produced so far.
        self.rows_out = 0
        #: Cost-model row estimate set at lowering time (None when the
        #: planner made no estimate for this operator).  EXPLAIN ANALYZE
        #: renders it as ``est=N`` next to the actual count.
        self.est_rows: Optional[int] = None
        #: Inclusive wall-clock seconds spent producing items (contains the
        #: children's time, like the "actual time" of EXPLAIN ANALYZE in
        #: mainstream engines; for a CrowdFill it contains the platform
        #: latency the batch dispatches waited on).
        self.wall_seconds = 0.0

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> None:
        """Prepare for execution; called once, under the catalog lock."""
        for child in self.children:
            child.open()

    def close(self) -> None:
        """Release resources (snapshots, hash tables)."""
        for child in self.children:
            child.close()

    # -- iteration -----------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        produce = self._produce()
        while True:
            # Time each pull, not the whole loop: the time a *consumer*
            # spends between pulls (e.g. a client iterating a streaming
            # cursor) must not be billed to this operator.
            start = perf_counter()
            try:
                item = next(produce)
            except StopIteration:
                self.wall_seconds += perf_counter() - start
                return
            self.wall_seconds += perf_counter() - start
            self.rows_out += 1
            yield item

    def _produce(self) -> Iterator[Any]:
        raise NotImplementedError  # pragma: no cover - abstract

    # -- introspection -------------------------------------------------------

    def detail(self) -> str:
        """Operator-specific annotation rendered after the label."""
        return ""

    def stats(self) -> str:
        """Runtime statistics rendered by EXPLAIN when the tree executed.

        Every operator reports its row count and inclusive wall time;
        subclasses contribute extra counters through :meth:`extra_stats`.
        """
        parts = [f"rows={self.rows_out}"]
        if self.est_rows is not None:
            parts.append(f"est={self.est_rows}")
        parts.extend(self.extra_stats())
        parts.append(f"time={self.wall_seconds * 1000.0:.1f}ms")
        return " ".join(parts)

    def extra_stats(self) -> list[str]:
        """Operator-specific ``key=value`` counters for EXPLAIN ANALYZE."""
        return []

    def render_line(self) -> str:
        """The operator's EXPLAIN line (without indentation or stats)."""
        detail = self.detail()
        return self.label + (f" {detail}" if detail else "")

    def walk(self) -> Iterator["Operator"]:
        """Yield this operator and all descendants (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        detail = self.detail()
        return f"<{self.label}{' ' + detail if detail else ''} rows_out={self.rows_out}>"


# ---------------------------------------------------------------------------
# Row-level helpers
# ---------------------------------------------------------------------------


def _copy_row(row: dict[str, Any]) -> dict[str, Any]:
    """Copy a live storage row, retrying if concurrent DDL resizes it."""
    while True:
        try:
            return dict(row)
        except RuntimeError:  # pragma: no cover - needs a racing ALTER TABLE
            continue


def _context_for(alias: str, rowid: Optional[int], row: dict[str, Any]) -> RowContext:
    """Build the evaluation context of one scanned row."""
    context = RowContext()
    context.add_table_row(alias, row)
    if rowid is not None:
        context.set(f"{alias}.__rowid__", rowid)
    return context


def _merge_context(
    context: RowContext, alias: str, rowid: Optional[int], row: dict[str, Any]
) -> RowContext:
    """Extend a join's left-side context with one right-side row."""
    merged = RowContext.from_mapping(context.as_mapping())
    merged.add_table_row(alias, row)
    if rowid is not None:
        merged.set(f"{alias}.__rowid__", rowid)
    return merged


def hashable_key(value: Any) -> Any:
    """Map a value to a hashable stand-in (MISSING gets a private sentinel)."""
    if is_missing(value):
        return "\x00MISSING\x00"
    return value


def _truthy(value: Any) -> bool:
    if value is None or is_missing(value):
        return False
    return bool(value)


def _is_unknown(value: Any) -> bool:
    return value is None or is_missing(value)


class _ComparableValue:
    """Total-order sort-key wrapper so heterogeneous keys never raise.

    Values are ranked numeric < text < other; ``None`` and MISSING rank
    **last** (NULLS LAST).  The :class:`Sort` operator additionally
    re-partitions unknown values to the end for descending sorts, so the
    contract is: unknown sort keys always appear after all known keys,
    regardless of sort direction.  ``__hash__`` is defined consistently
    with ``__eq__`` (two wrappers comparing equal hash equal), so wrapped
    keys are usable in sets and dictionaries.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def _rank(self) -> tuple[int, Any]:
        # Delegates to the engine-wide total order: the ordered secondary
        # index ranks through the same function, which is what makes an
        # index-backed ORDER BY agree row-for-row with this operator.
        return sort_rank(self.value)

    def __lt__(self, other: "_ComparableValue") -> bool:
        return self._rank() < other._rank()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _ComparableValue):
            return NotImplemented
        return self._rank() == other._rank()

    def __hash__(self) -> int:
        return hash(self._rank())


# ---------------------------------------------------------------------------
# Access paths (yield (rowid, row) pairs)
# ---------------------------------------------------------------------------


class SeqScan(Operator):
    """Full-table scan over a snapshot taken at ``open()`` time.

    The snapshot holds *references* (cheap); each row is copied lazily as it
    is pulled, so a downstream LIMIT stops the copying early.
    ``rows_scanned`` counts the rows actually pulled through the scan.
    """

    label = "SeqScan"

    def __init__(self, catalog: Catalog, table: str, alias: str) -> None:
        super().__init__()
        self._catalog = catalog
        self.table = table
        self.alias = alias
        self._snapshot: list[tuple[int, dict[str, Any]]] = []
        self.rows_scanned = 0

    def open(self) -> None:
        """Snapshot the table's row references (runs under the catalog lock)."""
        self._snapshot = self._catalog.table(self.table).snapshot()

    def close(self) -> None:
        """Release the snapshot."""
        self._snapshot = []
        super().close()

    def _produce(self) -> Iterator[tuple[int, dict[str, Any]]]:
        for rowid, row in self._snapshot:
            self.rows_scanned += 1
            yield rowid, _copy_row(row)

    def detail(self) -> str:
        return f"{self.table} AS {self.alias}"


class IndexScan(Operator):
    """Hash-index equality lookup (rendered as ``IndexLookup``)."""

    label = "IndexLookup"

    def __init__(
        self,
        catalog: Catalog,
        table: str,
        alias: str,
        column: str,
        value_expr: ast.Expression,
    ) -> None:
        super().__init__()
        self._catalog = catalog
        self.table = table
        self.alias = alias
        self.column = column
        self._value_expr = value_expr
        self._snapshot: list[tuple[int, dict[str, Any]]] = []
        self.rows_scanned = 0

    def open(self) -> None:
        """Resolve the key and collect the matching rows via the hash index.

        Falls back to a full snapshot when the index vanished between
        planning and execution (the scan then behaves like a SeqScan).
        """
        storage = self._catalog.table(self.table)
        index = storage.index_on(self.column)
        if index is None:  # index vanished between planning and execution
            self._snapshot = storage.snapshot()
            return
        value = evaluate(self._value_expr, RowContext())
        self._snapshot = [
            (rowid, storage.get(rowid)) for rowid in sorted(index.lookup(value))
        ]

    def close(self) -> None:
        self._snapshot = []
        super().close()

    def _produce(self) -> Iterator[tuple[int, dict[str, Any]]]:
        for rowid, row in self._snapshot:
            self.rows_scanned += 1
            yield rowid, _copy_row(row)

    def detail(self) -> str:
        return f"{self.table} AS {self.alias} ON {self.column}"


class IndexRangeScan(Operator):
    """Ordered-index walk: range probe, ordered scan, or both.

    Lowered from a cost-model :class:`~repro.db.sql.planner.AccessPath`.
    With bounds set, only entries inside ``low <op> value <op> high`` are
    fetched (unknown cells are never inside a range — exactly the rows the
    residual WHERE filter would keep).  With ``ordered`` set and *no*
    bounds, the scan walks the whole index in order — every row including
    NULL/MISSING cells, which come last in both directions — and the
    lowering has eliminated the Sort operator.  An ascending ordered walk
    composes with bounds (a range is emitted in index order already).

    Bound expressions are resolved at ``open()`` time.  A NULL bound makes
    the range predicate unknown for every row, so the scan is empty.  Like
    :class:`IndexScan`, a vanished index degrades to a full snapshot scan
    — the residual filter keeps the result correct (the dialect has no
    DROP INDEX, so an eliminated Sort can only lose its index to DROP
    TABLE, which makes the whole query fail on lookup instead).
    """

    label = "IndexRangeScan"

    def __init__(
        self,
        catalog: Catalog,
        table: str,
        alias: str,
        column: str,
        low: Optional[ast.Expression] = None,
        high: Optional[ast.Expression] = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        ordered: bool = False,
        descending: bool = False,
    ) -> None:
        super().__init__()
        self._catalog = catalog
        self.table = table
        self.alias = alias
        self.column = column
        self._low = low
        self._high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.ordered = ordered
        self.descending = descending
        self._snapshot: list[tuple[int, dict[str, Any]]] = []
        self.rows_scanned = 0

    def open(self) -> None:
        """Probe the index and collect the matching rows (under the lock)."""
        storage = self._catalog.table(self.table)
        index = storage.index_on(self.column)
        if index is None:  # index vanished between planning and execution
            self._snapshot = storage.snapshot()
            return
        low = high = None
        if self._low is not None:
            low = evaluate(self._low, RowContext())
            if _is_unknown(low):
                return  # NULL bound: predicate unknown for every row
        if self._high is not None:
            high = evaluate(self._high, RowContext())
            if _is_unknown(high):
                return
        if low is None and high is None:
            rowids: Iterator[int] | list[int] = index.ordered_rowids(
                descending=self.descending
            )
        elif self.descending:
            rowids = _descending_group_rowids(
                index.range_pairs(
                    low,
                    high,
                    low_inclusive=self.low_inclusive,
                    high_inclusive=self.high_inclusive,
                )
            )
        else:
            rowids = index.range_rowids(
                low,
                high,
                low_inclusive=self.low_inclusive,
                high_inclusive=self.high_inclusive,
            )
        self._snapshot = [(rowid, storage.get(rowid)) for rowid in rowids]

    def close(self) -> None:
        self._snapshot = []
        super().close()

    def _produce(self) -> Iterator[tuple[int, dict[str, Any]]]:
        for rowid, row in self._snapshot:
            self.rows_scanned += 1
            yield rowid, _copy_row(row)

    def detail(self) -> str:
        pieces = []
        if self._low is not None:
            op = ">=" if self.low_inclusive else ">"
            pieces.append(f"{self.column} {op} {expression_label(self._low)}")
        if self._high is not None:
            op = "<=" if self.high_inclusive else "<"
            pieces.append(f"{self.column} {op} {expression_label(self._high)}")
        condition = " AND ".join(pieces) if pieces else self.column
        suffix = ""
        if self.ordered:
            suffix = " (ordered desc)" if self.descending else " (ordered)"
        return f"{self.table} AS {self.alias} ON {condition}{suffix}"


def _descending_group_rowids(
    pairs: Sequence[tuple[tuple[int, Any], int]],
) -> Iterator[int]:
    """Walk ``(rank, rowid)`` pairs by descending rank, rowids ascending.

    Mirrors :meth:`~repro.db.indexes.OrderedIndex.ordered_rowids` for a
    bounded slice: equal-rank groups keep ascending rowid order, matching
    what a stable ``reverse=True`` sort produces.
    """
    i = len(pairs)
    while i > 0:
        rank = pairs[i - 1][0]
        j = i
        while j > 0 and pairs[j - 1][0] == rank:
            j -= 1
        for _rank, rowid in pairs[j:i]:
            yield rowid
        i = j


class CrowdFill(Operator):
    """Batch-acquire MISSING crowd-sourced attribute values mid-stream.

    Sits directly above a table's scan.  Rows stream through in input
    order; whenever ``batch_size`` rows with at least one MISSING watched
    attribute have accumulated (or the input is exhausted), the batch is
    handed to the acquisition runtime, which dispatches one coalesced
    platform call per attribute for the cells it cannot serve from its
    cache or from another query's in-flight dispatch.  Obtained values are
    patched into the in-flight rows and, when ``write_back`` is set,
    persisted to storage under the catalog lock.

    Contract: N missing rows for one attribute produce
    ``ceil(N / batch_size)`` platform calls — never one call per row.

    Under hybrid acquisition the lowering passes *sample* (attribute ->
    rowids the planner chose for the crowd; everything else is left MISSING
    for the :class:`PredictFill` above) and *reacquire* (attribute ->
    rowids whose stored predicted value fell below the session's confidence
    threshold; those cells are answered again by the crowd even though they
    currently hold a value).
    """

    label = "CrowdFill"

    def __init__(
        self,
        child: Operator,
        catalog: Catalog,
        table: str,
        attributes: Sequence[str],
        spec: CrowdFillSpec,
        lock: ContextManager[Any] | None = None,
        *,
        sample: Mapping[str, frozenset[int]] | None = None,
        reacquire: Mapping[str, frozenset[int]] | None = None,
    ) -> None:
        from repro.crowd.runtime import AcquisitionOutcome  # lazy: crowd imports db

        super().__init__(child)
        self._catalog = catalog
        self.table = table
        self.attributes = list(attributes)
        self.spec = spec
        self._lock = lock if lock is not None else nullcontext()
        self.sample = dict(sample) if sample is not None else None
        self.reacquire = {key: frozenset(value) for key, value in (reacquire or {}).items()}
        #: Number of missing values requested from the source.
        self.values_requested = 0
        #: Number of values actually obtained and patched in.
        self.values_filled = 0
        #: Counters summed over every flush's acquisition outcome:
        #: platform dispatches, cache hits, coalesced cells, assignments
        #: saved and the per-dispatch worker-accuracy mean.
        self.acquired = AcquisitionOutcome()
        #: attribute -> rowid -> posterior confidence of quality dispatches;
        #: written back as provenance confidence so low-confidence crowd
        #: cells feed the re-acquisition loop.
        self._cell_confidences: dict[str, dict[int, float]] = {}

    def _needs_value(self, attribute: str, rowid: int, row: dict[str, Any]) -> bool:
        """Whether this operator should crowd-source ``row[attribute]``."""
        reacquire = rowid in self.reacquire.get(attribute, ())
        if not reacquire and not is_missing(row.get(attribute)):
            return False
        if self.sample is None:
            return True
        return rowid in self.sample.get(attribute, frozenset())

    def _produce(self) -> Iterator[tuple[int, dict[str, Any]]]:
        pending: list[tuple[int, dict[str, Any]]] = []
        missing = 0
        for rowid, row in self.children[0]:
            row_missing = any(
                self._needs_value(attribute, rowid, row) for attribute in self.attributes
            )
            # Rows with nothing to fill stream straight through while no
            # batch is accumulating, so fully-populated tables keep LIMIT
            # early termination; once a missing row opens a batch, later
            # rows queue behind it to preserve input order.
            if not pending and not row_missing:
                yield rowid, row
                continue
            pending.append((rowid, row))
            if row_missing:
                missing += 1
            if missing >= self.spec.batch_size:
                yield from self._flush(pending)
                pending = []
                missing = 0
        if pending:
            yield from self._flush(pending)

    def _flush(
        self, pending: list[tuple[int, dict[str, Any]]]
    ) -> list[tuple[int, dict[str, Any]]]:
        session = self.spec.session
        requests: list[tuple[str, list[tuple[int, dict[str, Any]]]]] = []
        for attribute in self.attributes:
            if session is not None and session.budget_exhausted:
                # Budget ran out mid-query: emit the rows with their cells
                # still MISSING instead of spending past the cap.
                break
            items = [
                (rowid, row)
                for rowid, row in pending
                if self._needs_value(attribute, rowid, row)
            ]
            if items:
                requests.append((attribute, items))
        if requests:
            self._acquire(requests)
        return pending

    def _acquire(self, requests: list[tuple[str, list[tuple[int, dict[str, Any]]]]]) -> None:
        """Resolve one flush through the shared acquisition runtime.

        The runtime serves what it can from the cross-query answer cache,
        joins cells another query is already acquiring, and dispatches the
        per-attribute remainders *concurrently* on its bounded worker
        pool — the wall-clock win on multi-attribute queries.  Budget cost
        for the dispatches this flush owns is charged inside the runtime.
        """
        outcome = self.spec.runtime.acquire(
            self.spec.source,
            self.table,
            [
                (attribute, [(rowid, dict(row)) for rowid, row in items])
                for attribute, items in requests
            ],
            session=self.spec.session,
        )
        self.acquired.absorb(outcome)
        for attribute, confidences in outcome.confidences.items():
            self._cell_confidences.setdefault(attribute, {}).update(confidences)
        for attribute, items in requests:
            self.values_requested += len(items)
            self._apply_resolved(attribute, items, outcome.values.get(attribute, {}))

    def _apply_resolved(
        self,
        attribute: str,
        items: list[tuple[int, dict[str, Any]]],
        values: Mapping[int, Any],
    ) -> None:
        """Patch obtained values into the in-flight rows and persist them.

        The write-back re-checks each cell under the catalog lock: a
        direct UPDATE that landed while the dispatch was in flight made
        the stored value authoritative, so the crowd answer is dropped
        for that cell (and evicted from the answer cache) instead of
        silently overwriting application data.  Cells that are still
        MISSING, or hold an earlier crowd/predicted value (re-acquisition),
        are written as usual.
        """
        resolved = {
            rowid: value for rowid, value in values.items() if not is_missing(value)
        }
        for rowid, row in items:
            if rowid in resolved:
                row[attribute] = resolved[rowid]
                self.values_filled += 1
        if self.spec.write_back and resolved:
            with self._lock:
                storage = self._catalog.table(self.table)
                writable: dict[int, Any] = {}
                for rowid, value in resolved.items():
                    try:
                        current = storage.get(rowid)
                    except ExecutionError:
                        continue  # row deleted mid-flight; nothing to write
                    if (
                        not is_missing(current.get(attribute))
                        and storage.provenance_of(attribute, rowid).source
                        == PROVENANCE_STORED
                    ):
                        # A concurrent direct UPDATE won the race; its
                        # value is authoritative.  The cache may hold our
                        # answer (the UPDATE's invalidation can have fired
                        # before the dispatch cached it) — evict it.
                        self.spec.runtime.cache.invalidate(self.table, attribute, rowid)
                        continue
                    writable[rowid] = value
                if writable:
                    confidences = self._cell_confidences.get(attribute, {})
                    storage.fill_values(
                        attribute,
                        writable,
                        skip_deleted=True,
                        provenance=PROVENANCE_CROWD,
                        confidences={
                            rowid: confidences[rowid]
                            for rowid in writable
                            if rowid in confidences
                        },
                    )

    def detail(self) -> str:
        return ", ".join(f"{self.table}.{a}" for a in self.attributes)

    def render_line(self) -> str:
        options = f"batch_size={self.spec.batch_size}"
        if self.sample is not None:
            sampled = sum(len(rowids) for rowids in self.sample.values())
            options += f", sample={sampled}"
        return f"CrowdFill({options}) {self.detail()}"

    def extra_stats(self) -> list[str]:
        acquired = self.acquired
        parts = [
            f"batches={acquired.dispatches}",
            f"filled={self.values_filled}/{self.values_requested}",
            f"cache_hits={acquired.cache_hits}",
            f"coalesced={acquired.coalesced}",
        ]
        if acquired.mean_worker_accuracy is not None:
            parts.append(f"mean_worker_accuracy={acquired.mean_worker_accuracy:.3f}")
            parts.append(f"assignments_saved={acquired.assignments_saved}")
        return parts


class PredictFill(Operator):
    """Predict remaining MISSING crowd-sourced values from the known ones.

    The second stage of hybrid acquisition: sits directly above a table's
    :class:`CrowdFill` (or its scan).  The operator is *blocking* — it
    materializes the child's rows, then for each watched attribute trains
    the session's :class:`~repro.db.acquisition.AttributePredictor` on
    every row that already holds a *trustworthy* value (crowd answers
    obtained below plus previously stored cells; cells whose provenance is
    ``predicted`` are excluded so the model never trains on its own
    earlier outputs) and predicts the cells still MISSING.

    Because it blocks, a ``LIMIT`` query under hybrid acquisition acquires
    the full planner-chosen sample instead of terminating the scan early:
    the session pays the sample once and ``write_back`` amortizes it
    across all later queries.  Sessions that want cheap point queries
    against a sparsely filled table should run crowd-only (no predictor).
    Predicted values are patched into the in-flight rows and, when
    ``write_back`` is set, persisted with provenance ``predicted`` and the
    model's per-value confidence, so later sessions can re-acquire
    low-confidence cells.

    EXPLAIN ANALYZE counters: rows predicted, crowd platform calls saved
    versus a crowd-only plan, and the model's training RMSE per attribute.
    """

    label = "PredictFill"

    def __init__(
        self,
        child: Operator,
        catalog: Catalog,
        table: str,
        attributes: Sequence[str],
        spec: PredictSpec,
        plans: Mapping[str, SamplePlan],
        batch_size: int,
        lock: ContextManager[Any] | None = None,
    ) -> None:
        super().__init__(child)
        self._catalog = catalog
        self.table = table
        self.attributes = list(attributes)
        self.spec = spec
        self.plans = dict(plans)
        self.batch_size = batch_size
        self._lock = lock if lock is not None else nullcontext()
        #: Number of cells filled with predictions (all attributes).
        self.rows_predicted = 0
        #: Crowd platform calls avoided versus crowd-only acquisition.
        self.crowd_calls_saved = 0
        #: attribute -> training RMSE of the fitted model.
        self.model_rmse: dict[str, float] = {}
        #: attribute -> model kind ("svr-rbf", "svc-rbf", "tsvm-rbf", ...).
        self.model_kinds: dict[str, str] = {}
        #: attribute -> number of training examples used.
        self.training_sizes: dict[str, int] = {}

    def _produce(self) -> Iterator[tuple[int, dict[str, Any]]]:
        rows = list(self.children[0])
        for attribute in self.attributes:
            self._predict_attribute(attribute, rows)
        yield from rows

    def _predict_attribute(
        self, attribute: str, rows: list[tuple[int, dict[str, Any]]]
    ) -> None:
        targets = [
            (rowid, row) for rowid, row in rows if is_missing(row.get(attribute))
        ]
        if not targets:
            return
        # Cells a model filled earlier must not feed the next model's
        # training set (self-training would relearn prior errors as truth).
        with self._lock:
            previously_predicted = {
                rowid
                for rowid, entry in self._catalog.table(self.table)
                .provenance_map(attribute)
                .items()
                if entry.source == PROVENANCE_PREDICTED
            }
        train = [
            (rowid, row, row[attribute])
            for rowid, row in rows
            if not is_missing(row.get(attribute)) and rowid not in previously_predicted
        ]
        # Train/predict through the runtime's accounting chokepoint
        # (inline — prediction is CPU work and must not occupy the
        # platform dispatch pool).
        batch = self.spec.runtime.run_prediction(
            lambda: self.spec.predictor.fit_predict(
                attribute,
                [(rowid, dict(row), value) for rowid, row, value in train],
                [(rowid, dict(row)) for rowid, row in targets],
            )
        )
        self.model_kinds[attribute] = batch.model_kind
        self.training_sizes[attribute] = batch.training_size
        if batch.rmse is not None:
            self.model_rmse[attribute] = batch.rmse
        if not batch.values:
            return
        predicted: dict[int, Any] = {}
        for rowid, row in targets:
            if rowid in batch.values:
                row[attribute] = batch.values[rowid]
                predicted[rowid] = batch.values[rowid]
        self.rows_predicted += len(predicted)
        sample_size = (
            self.plans[attribute].sample_size if attribute in self.plans else len(train)
        )
        # Platform calls a crowd-only plan would have dispatched for the
        # cells this stage filled by prediction instead.
        self.crowd_calls_saved += math.ceil(
            (sample_size + len(predicted)) / self.batch_size
        ) - math.ceil(sample_size / self.batch_size)
        if self.spec.write_back and predicted:
            confidences = {
                rowid: batch.confidence_for(rowid) for rowid in predicted
            }
            with self._lock:
                self._catalog.table(self.table).fill_values(
                    attribute,
                    predicted,
                    skip_deleted=True,
                    provenance=PROVENANCE_PREDICTED,
                    confidences=confidences,
                )

    def detail(self) -> str:
        return ", ".join(f"{self.table}.{a}" for a in self.attributes)

    def render_line(self) -> str:
        policy = self.spec.policy
        options = f"sample_fraction={policy.sample_fraction:g}"
        if policy.min_confidence > 0:
            options += f", min_confidence={policy.min_confidence:g}"
        return f"PredictFill({options}) {self.detail()}"

    def extra_stats(self) -> list[str]:
        parts = [
            f"predicted={self.rows_predicted}",
            f"crowd_calls_saved={self.crowd_calls_saved}",
        ]
        if self.model_rmse:
            parts.append(
                "rmse=" + ",".join(f"{a}:{v:.3f}" for a, v in sorted(self.model_rmse.items()))
            )
        return parts


class Bind(Operator):
    """Glue: turn a table source's ``(rowid, row)`` pairs into contexts."""

    label = "Bind"
    hidden = True

    def __init__(self, child: Operator, alias: str) -> None:
        super().__init__(child)
        self.alias = alias

    def _produce(self) -> Iterator[RowContext]:
        for rowid, row in self.children[0]:
            yield _context_for(self.alias, rowid, row)


class SingleRow(Operator):
    """Source for table-less SELECTs: one empty context."""

    label = "Result"

    def _produce(self) -> Iterator[RowContext]:
        yield RowContext()

    def detail(self) -> str:
        return "(no table)"


@dataclass
class CrowdEnumerateSpec:
    """How an open-world ``FROM CROWD`` relation enumerates its rows.

    Parameters
    ----------
    source:
        Batch :class:`~repro.db.acquisition.ValueSource`; each HIT batch is
        one ``request_values_with_cost`` call whose single "row" is the
        batch index and whose answer is a *list* of worker answers.
    runtime:
        The :class:`~repro.crowd.runtime.AcquisitionRuntime` every batch
        goes through — batch answers are cached and coalesced exactly like
        closed-world fills.
    predicate:
        Natural-language description posted to workers.
    completeness:
        Optional target in [0, 1]: stop once the Chao92 estimated coverage
        reaches it (``stopped_on == "completeness"``).
    budget:
        Optional statement-level spend cap.  Enumeration never dispatches a
        batch it cannot pay for: when the source exposes its per-batch cost
        (``payment_per_hit``) the check is exact, otherwise the loop stops
        as soon as accumulated cost reaches the cap
        (``stopped_on == "budget"``).  The *session* budget is honoured as
        well, independently of this cap.
    session:
        Optional session-budget hook (duck-typed ``budget_exhausted`` /
        ``record_cost``), as in :class:`CrowdFillSpec`.
    dry_batches:
        Stop after this many consecutive batches with no new species
        (``stopped_on == "exhausted"``) — the open-world analogue of
        scanning a table to its end.
    max_batches:
        Hard cap on batches pulled per enumeration, a backstop against
        pathological sources.
    existing_keys:
        Normalized entity keys already present in the target table
        (``INSERT ... FROM CROWD`` dedup).  They still feed the estimator
        when workers re-answer them, but are never emitted as rows.
    record_answers:
        Optional ``(attribute, batch_index, answers)`` hook invoked for
        every batch that cost a platform dispatch.  Durable catalogs pass
        :meth:`~repro.db.catalog.Catalog.record_enum_answers` here so
        dispatched batches are journaled and warm-start the answer cache
        after a restart — repeat enumerations then replay at zero spend.
    """

    source: "ValueSource"
    runtime: "AcquisitionRuntime"
    predicate: str
    completeness: Optional[float] = None
    budget: Optional[float] = None
    session: Any = None
    dry_batches: int = 3
    max_batches: int = 256
    existing_keys: frozenset[str] = frozenset()
    record_answers: Optional[Callable[[str, int, list[Any]], None]] = None

    def __post_init__(self) -> None:
        if self.dry_batches <= 0:
            raise ExecutionError(
                f"enumeration dry_batches must be positive, got {self.dry_batches}"
            )
        if self.max_batches <= 0:
            raise ExecutionError(
                f"enumeration max_batches must be positive, got {self.max_batches}"
            )
        if self.completeness is not None and not 0.0 <= self.completeness <= 1.0:
            raise ExecutionError(
                f"completeness target must be in [0, 1], got {self.completeness}"
            )


class CrowdEnumerate(Operator):
    """Open-world enumeration source: crowd answers become rows.

    The leaf operator of ``FROM CROWD`` pipelines (SELECT and
    ``INSERT ... FROM CROWD`` alike).  It pulls HIT batches for the
    predicate through the shared acquisition runtime, dedupes the streaming
    answers via entity resolution (:func:`~repro.crowd.estimation.normalize_entity`)
    and feeds every observation to a streaming
    :class:`~repro.crowd.estimation.Chao92Estimator`, which drives the
    stopping rule: stop on reaching the completeness target, on running out
    of budget, or on ``dry_batches`` consecutive batches with no new
    species.  Each *new* species is emitted as one ``(ordinal, {"value":
    answer})`` row in first-seen order, so the operator slots in below
    :class:`Bind` exactly like a table scan.

    EXPLAIN ANALYZE counters: ``rows_enumerated`` / ``unique_seen`` /
    ``est_total`` / ``est_coverage`` / ``stopped_on`` plus the usual
    cache/coalescing/cost counters.
    """

    label = "CrowdEnumerate"

    def __init__(self, spec: CrowdEnumerateSpec) -> None:
        from repro.crowd.runtime import AcquisitionOutcome  # lazy: crowd imports db

        super().__init__()
        self.spec = spec
        self.estimator = Chao92Estimator()
        #: Batches pulled (platform dispatches + cache/coalesced replays).
        self.batches_pulled = 0
        #: Counters summed over every batch's acquisition outcome: actual
        #: platform dispatches (what the crowd was paid for), cache hits,
        #: coalesced batches and dollars spent.
        self.acquired = AcquisitionOutcome()
        self.rows_enumerated = 0
        #: Why the enumeration loop ended: "completeness", "budget" or
        #: "exhausted" (None while running or when the consumer stopped
        #: pulling first, e.g. a LIMIT above).
        self.stopped_on: Optional[str] = None

    # -- enumeration loop ----------------------------------------------------

    def _produce(self) -> Iterator[tuple[int, dict[str, Any]]]:
        spec = self.spec
        attribute = enumeration_attribute(spec.predicate)
        emitted: set[str] = set()
        dry = 0
        ordinal = 0
        batch_index = 0
        while True:
            if not self._within_budget():
                self.stopped_on = "budget"
                return
            if self.batches_pulled >= spec.max_batches:
                self.stopped_on = "exhausted"
                return
            answers = self._pull_batch(attribute, batch_index)
            batch_index += 1
            self.batches_pulled += 1
            new_in_batch = 0
            for answer in answers:
                key = normalize_entity(answer)
                if not key:
                    continue
                if self.estimator.observe(key):
                    new_in_batch += 1
                if key in spec.existing_keys or key in emitted:
                    continue
                emitted.add(key)
                ordinal += 1
                self.rows_enumerated += 1
                yield ordinal, {"value": answer}
            dry = dry + 1 if new_in_batch == 0 else 0
            if (
                spec.completeness is not None
                and self.batches_pulled >= 2
                and self.estimator.unique_seen > 0
                and self.estimator.est_coverage() >= spec.completeness
            ):
                self.stopped_on = "completeness"
                return
            if dry >= spec.dry_batches:
                self.stopped_on = "exhausted"
                return

    def _within_budget(self) -> bool:
        session = self.spec.session
        if session is not None and getattr(session, "budget_exhausted", False):
            return False
        budget = self.spec.budget
        if budget is None:
            return True
        spent = self.acquired.cost
        if spent >= budget:
            return False
        per_batch = getattr(self.spec.source, "payment_per_hit", None)
        if per_batch is not None and spent + per_batch > budget + 1e-9:
            return False
        return True

    def _pull_batch(self, attribute: str, batch_index: int) -> list[Any]:
        """Fetch one HIT batch of answers through the acquisition runtime."""
        spec = self.spec
        outcome = spec.runtime.acquire(
            spec.source,
            ENUMERATION_TABLE,
            [(attribute, [(batch_index, {})])],
            session=spec.session,
        )
        self.acquired.absorb(outcome)
        dispatched = outcome.dispatches > 0
        answers = outcome.values.get(attribute, {}).get(batch_index)
        if answers is None or is_missing(answers):
            batch: list[Any] = []
        elif isinstance(answers, (list, tuple)):
            batch = list(answers)
        else:
            batch = [answers]
        # Journal even empty dispatched batches: replay must reproduce the
        # dry-streak exhaustion without paying for the batches again.
        if dispatched and spec.record_answers is not None:
            spec.record_answers(attribute, batch_index, batch)
        return batch

    # -- introspection -------------------------------------------------------

    def stats_snapshot(self) -> EnumerationStats:
        """The enumeration counters as one reusable stats object."""
        return EnumerationStats(
            predicate=self.spec.predicate,
            rows_enumerated=self.rows_enumerated,
            unique_seen=self.estimator.unique_seen,
            est_total=self.estimator.est_total(),
            est_coverage=self.estimator.est_coverage(),
            stopped_on=self.stopped_on,
            batches=self.batches_pulled,
            sample_size=self.estimator.sample_size,
            cache_hits=self.acquired.cache_hits,
            coalesced=self.acquired.coalesced,
            cost=self.acquired.cost,
            completeness_target=self.spec.completeness,
            budget=self.spec.budget,
        )

    def detail(self) -> str:
        return repr(self.spec.predicate)

    def render_line(self) -> str:
        options = []
        if self.spec.completeness is not None:
            options.append(f"completeness>={self.spec.completeness:g}")
        if self.spec.budget is not None:
            options.append(f"budget<={self.spec.budget:g}")
        prefix = f"CrowdEnumerate({', '.join(options)})" if options else "CrowdEnumerate"
        return f"{prefix} {self.detail()}"

    def extra_stats(self) -> list[str]:
        parts = [
            f"batches={self.batches_pulled}",
            f"rows_enumerated={self.rows_enumerated}",
            f"unique_seen={self.estimator.unique_seen}",
            f"est_total={self.estimator.est_total():.1f}",
            f"est_coverage={self.estimator.est_coverage():.3f}",
            f"stopped_on={self.stopped_on}",
            f"cache_hits={self.acquired.cache_hits}",
            f"coalesced={self.acquired.coalesced}",
            f"cost={self.acquired.cost:.4f}",
        ]
        tracker = self.spec.runtime.worker_quality
        if tracker.n_workers:
            parts.append(f"mean_worker_accuracy={tracker.mean_accuracy():.3f}")
        return parts


# ---------------------------------------------------------------------------
# Joins (left child yields contexts, right child yields (rowid, row) pairs)
# ---------------------------------------------------------------------------


class NestedLoopJoin(Operator):
    """General-purpose join: evaluate the condition per candidate pair.

    Join invariants are hoisted out of the probe loop: the right input is
    materialized exactly once at first pull, and the LEFT JOIN null-row
    template is built once per join, not once per unmatched left row.
    """

    label = "NestedLoopJoin"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        alias: str,
        condition: Optional[ast.Expression],
        kind: str,
        right_columns: Sequence[str],
        missing_resolver: MissingResolver | None = None,
    ) -> None:
        super().__init__(left, right)
        self.alias = alias
        self.condition = condition
        self.kind = kind
        self._right_columns = list(right_columns)
        self._resolver = missing_resolver

    def _produce(self) -> Iterator[RowContext]:
        right_rows = list(self.children[1])  # materialized once per join
        null_row = {column: None for column in self._right_columns}  # hoisted
        for context in self.children[0]:
            matched = False
            for rowid, row in right_rows:
                candidate = _merge_context(context, self.alias, rowid, row)
                if self.kind == "cross" or evaluate_predicate(
                    self.condition, candidate, missing_resolver=self._resolver
                ):
                    matched = True
                    yield candidate
            if self.kind == "left" and not matched:
                yield _merge_context(context, self.alias, None, null_row)

    def detail(self) -> str:
        condition = (
            expression_label(self.condition) if self.condition is not None else "TRUE"
        )
        return f"{self.kind.upper()} {self.alias} ON {condition}"


class HashJoin(Operator):
    """Equi-join fast path: hash the right input once, probe per left row.

    Only lowered for ``left.col = right.col`` conditions with qualified
    references and no per-row missing-value resolver (the resolver could
    change key values mid-probe, which only the nested-loop path models).
    Unknown keys (NULL/MISSING) never match, matching SQL three-valued
    equality; unmatched left rows of a LEFT JOIN get the hoisted null row.
    """

    label = "HashJoin"

    def __init__(
        self,
        left: Operator,
        right: Operator,
        alias: str,
        left_key: ast.ColumnRef,
        right_key_column: str,
        kind: str,
        right_columns: Sequence[str],
    ) -> None:
        super().__init__(left, right)
        self.alias = alias
        self.left_key = left_key
        self.right_key_column = right_key_column
        self.kind = kind
        self._right_columns = list(right_columns)
        #: Number of buckets in the build-side hash table (for EXPLAIN).
        self.build_rows = 0

    def _produce(self) -> Iterator[RowContext]:
        table: dict[Any, list[tuple[int, dict[str, Any]]]] = {}
        for rowid, row in self.children[1]:
            key = row.get(self.right_key_column)
            if _is_unknown(key):
                continue
            table.setdefault(key, []).append((rowid, row))
            self.build_rows += 1
        null_row = {column: None for column in self._right_columns}
        for context in self.children[0]:
            key = evaluate(self.left_key, context)
            matches = None if _is_unknown(key) else table.get(key)
            if matches:
                for rowid, row in matches:
                    yield _merge_context(context, self.alias, rowid, row)
            elif self.kind == "left":
                yield _merge_context(context, self.alias, None, null_row)

    def detail(self) -> str:
        left = (
            f"{self.left_key.table}.{self.left_key.name}"
            if self.left_key.table
            else self.left_key.name
        )
        return f"{self.kind.upper()} {self.alias} ON {left} = {self.alias}.{self.right_key_column}"

    def extra_stats(self) -> list[str]:
        return [f"build={self.build_rows}"]


# ---------------------------------------------------------------------------
# Row-set operators
# ---------------------------------------------------------------------------


class Filter(Operator):
    """Keep contexts whose predicate evaluates to TRUE (unknown drops)."""

    label = "Filter"

    def __init__(
        self,
        child: Operator,
        predicate: ast.Expression,
        missing_resolver: MissingResolver | None = None,
    ) -> None:
        super().__init__(child)
        self.predicate = predicate
        self._resolver = missing_resolver
        self.rows_in = 0

    def _produce(self) -> Iterator[RowContext]:
        for context in self.children[0]:
            self.rows_in += 1
            if evaluate_predicate(
                self.predicate, context, missing_resolver=self._resolver
            ):
                yield context

    def detail(self) -> str:
        return expression_label(self.predicate)


class Project(Operator):
    """Evaluate the output expressions; yields ``(row_tuple, context)``."""

    label = "Project"

    def __init__(
        self,
        child: Operator,
        output: Sequence[OutputColumn],
        missing_resolver: MissingResolver | None = None,
    ) -> None:
        super().__init__(child)
        self.output = tuple(output)
        self._resolver = missing_resolver

    def _produce(self) -> Iterator[tuple[tuple[Any, ...], RowContext]]:
        for context in self.children[0]:
            row = tuple(
                evaluate(column.expression, context, missing_resolver=self._resolver)
                for column in self.output
            )
            yield row, context

    def detail(self) -> str:
        return ", ".join(column.name for column in self.output)


# -- aggregation -------------------------------------------------------------


def compute_aggregate(
    call: ast.FunctionCall,
    group: Sequence[RowContext],
    missing_resolver: MissingResolver | None,
) -> Any:
    """Compute one aggregate function over a group of row contexts."""
    name = call.name.lower()
    if call.star:
        if name != "count":
            raise ExecutionError(f"{name.upper()}(*) is not a valid aggregate")
        return len(group)
    if len(call.args) != 1:
        raise ExecutionError(f"aggregate {name.upper()} takes exactly one argument")
    values = []
    for context in group:
        value = evaluate(call.args[0], context, missing_resolver=missing_resolver)
        if value is None or is_missing(value):
            continue
        values.append(value)
    if call.distinct:
        unique: list[Any] = []
        seen: set[Any] = set()
        for value in values:
            key = hashable_key(value)
            if key not in seen:
                seen.add(key)
                unique.append(value)
        values = unique
    if name == "count":
        return len(values)
    if not values:
        return None
    if name == "sum":
        return sum(values)
    if name == "avg":
        return sum(values) / len(values)
    if name == "min":
        return min(values)
    if name == "max":
        return max(values)
    raise ExecutionError(f"unknown aggregate {name!r}")


def evaluate_aggregate_expression(
    expr: ast.Expression,
    group: Sequence[RowContext],
    representative: RowContext,
    missing_resolver: MissingResolver | None,
) -> Any:
    """Evaluate an expression that may mix aggregates and scalars."""
    if isinstance(expr, ast.FunctionCall) and expr.name.lower() in ast.AGGREGATE_FUNCTIONS:
        return compute_aggregate(expr, group, missing_resolver)
    if isinstance(expr, ast.BinaryOp):
        left = evaluate_aggregate_expression(
            expr.left, group, representative, missing_resolver
        )
        right = evaluate_aggregate_expression(
            expr.right, group, representative, missing_resolver
        )
        synthetic = ast.BinaryOp(expr.op, ast.Literal(left), ast.Literal(right))
        return evaluate(synthetic, representative)
    if isinstance(expr, ast.UnaryOp):
        operand = evaluate_aggregate_expression(
            expr.operand, group, representative, missing_resolver
        )
        return evaluate(ast.UnaryOp(expr.op, ast.Literal(operand)), representative)
    return evaluate(expr, representative, missing_resolver=missing_resolver)


class Aggregate(Operator):
    """Blocking GROUP BY/HAVING operator; yields ``(row_tuple, context)``."""

    label = "Aggregate"

    def __init__(
        self,
        child: Operator,
        output: Sequence[OutputColumn],
        group_by: Sequence[ast.Expression],
        having: Optional[ast.Expression],
        missing_resolver: MissingResolver | None = None,
    ) -> None:
        super().__init__(child)
        self.output = tuple(output)
        self.group_by = tuple(group_by)
        self.having = having
        self._resolver = missing_resolver
        self.groups_built = 0

    def _produce(self) -> Iterator[tuple[tuple[Any, ...], RowContext]]:
        groups: dict[tuple[Any, ...], list[RowContext]] = {}
        if self.group_by:
            for context in self.children[0]:
                key = tuple(
                    hashable_key(
                        evaluate(expr, context, missing_resolver=self._resolver)
                    )
                    for expr in self.group_by
                )
                groups.setdefault(key, []).append(context)
        else:
            # A global aggregate always emits one row, even over no input.
            groups[()] = list(self.children[0])
        self.groups_built = len(groups)

        for group_contexts in groups.values():
            representative = group_contexts[0] if group_contexts else RowContext()
            if self.having is not None:
                having_value = evaluate_aggregate_expression(
                    self.having, group_contexts, representative, self._resolver
                )
                if not _truthy(having_value):
                    continue
            row = tuple(
                evaluate_aggregate_expression(
                    column.expression, group_contexts, representative, self._resolver
                )
                for column in self.output
            )
            yield row, representative

    def detail(self) -> str:
        keys = ", ".join(expression_label(e) for e in self.group_by) or "<all>"
        return f"BY {keys}"

    def extra_stats(self) -> list[str]:
        return [f"groups={self.groups_built}"]


class Distinct(Operator):
    """Drop duplicate projected rows (first occurrence wins)."""

    label = "Distinct"

    def __init__(self, child: Operator) -> None:
        super().__init__(child)

    def _produce(self) -> Iterator[tuple[tuple[Any, ...], RowContext]]:
        seen: set[tuple[Any, ...]] = set()
        for row, context in self.children[0]:
            key = tuple(hashable_key(value) for value in row)
            if key not in seen:
                seen.add(key)
                yield row, context


class Sort(Operator):
    """Blocking multi-key sort.

    Unknown sort keys (NULL/MISSING) are placed last regardless of sort
    direction (NULLS LAST) — see :class:`_ComparableValue`.
    """

    label = "Sort"

    def __init__(
        self,
        child: Operator,
        order_by: Sequence[ast.OrderItem],
        output_names: Sequence[str],
        aggregate: bool,
        missing_resolver: MissingResolver | None = None,
    ) -> None:
        super().__init__(child)
        self.order_by = tuple(order_by)
        self._output_names = list(output_names)
        self._aggregate = aggregate
        self._resolver = missing_resolver

    def _produce(self) -> Iterator[tuple[tuple[Any, ...], RowContext]]:
        ordered = list(self.children[0])

        def sort_key_context(
            row: tuple[Any, ...], context: RowContext
        ) -> RowContext:
            extended = RowContext.from_mapping(context.as_mapping())
            for name, value in zip(self._output_names, row):
                extended.set(name, value)
            return extended

        def key_for(item: ast.OrderItem):
            def compute(entry: tuple[tuple[Any, ...], RowContext]):
                row, context = entry
                extended = sort_key_context(row, context)
                if self._aggregate:
                    value = evaluate_aggregate_expression(
                        item.expression, [context], extended, self._resolver
                    )
                else:
                    value = evaluate(
                        item.expression, extended, missing_resolver=self._resolver
                    )
                missing = value is None or is_missing(value)
                return missing, value

            return compute

        for item in reversed(self.order_by):
            compute = key_for(item)
            decorated = [(compute(entry), entry) for entry in ordered]

            def sort_value(element):
                (missing, value), _entry = element
                return (missing, _ComparableValue(value))

            # Python's sort is stable, so applying keys from least to most
            # significant yields a correct multi-key ordering.
            decorated.sort(key=sort_value, reverse=not item.ascending)
            if not item.ascending:
                # NULLS LAST also for descending sorts.
                known = [d for d in decorated if not d[0][0]]
                unknown = [d for d in decorated if d[0][0]]
                decorated = known + unknown
            ordered = [entry for _key, entry in decorated]

        yield from ordered

    def detail(self) -> str:
        return ", ".join(
            expression_label(item.expression) + ("" if item.ascending else " DESC")
            for item in self.order_by
        )


class Limit(Operator):
    """OFFSET/LIMIT with early termination.

    Once ``limit`` rows have been emitted the operator stops pulling from
    its child entirely, so an un-sorted ``LIMIT k`` query never scans past
    the rows it needs.
    """

    label = "Limit"

    def __init__(self, child: Operator, limit: Optional[int], offset: int = 0) -> None:
        super().__init__(child)
        self.limit = limit
        self.offset = offset

    def _produce(self) -> Iterator[Any]:
        if self.limit == 0:
            return
        skipped = 0
        emitted = 0
        for item in self.children[0]:
            if skipped < self.offset:
                skipped += 1
                continue
            yield item
            emitted += 1
            if self.limit is not None and emitted >= self.limit:
                return

    def detail(self) -> str:
        if self.limit is None:
            return f"ALL Offset {self.offset}"
        return f"{self.limit}" + (f" Offset {self.offset}" if self.offset else "")


# ---------------------------------------------------------------------------
# Lowering: SelectPlan -> operator tree
# ---------------------------------------------------------------------------


def crowd_attributes_for(plan: SelectPlan, schema: TableSchema, alias: str) -> list[str]:
    """Columns of the table scanned as *alias* that *plan* reads and that
    are crowd-sourced in *schema*.

    Qualified references (``m.is_comedy``) only ever target their own
    alias; unqualified references bind to the single table that has the
    column (the planner rejects ambiguous bare names).  This keeps
    ``CrowdFill`` from spending crowd money on a same-named perceptual
    column of a joined table the query never evaluates.
    """
    alias = alias.lower()
    refs = plan.referenced_refs or tuple((None, name) for name in plan.referenced_columns)
    attributes: list[str] = []
    for qualifier, name in refs:
        if qualifier is not None and qualifier != alias:
            continue
        if (
            name in schema
            and schema.column(name).kind is AttributeKind.PERCEPTUAL
            and name not in attributes
        ):
            attributes.append(name)
    return sorted(attributes)


def _plan_acquisition(
    catalog: Catalog,
    table: str,
    attributes: Sequence[str],
    crowd: CrowdFillSpec | None,
    predict: PredictSpec,
) -> tuple[dict[str, SamplePlan], dict[str, frozenset[int]], dict[str, frozenset[int]]]:
    """Choose, per attribute, which MISSING cells the crowd answers.

    Runs at lowering time (under the catalog lock): the acquisition
    candidates are the attribute's MISSING cells plus any previously
    predicted cells whose confidence fell below the policy threshold
    (re-acquisition).  The sample size is the cost model's call
    (:func:`repro.db.acquisition.choose_sample_size`), capped by the
    session's remaining budget — which is apportioned across the query's
    attributes as the plans are built, so the *total* planned crowd spend
    never exceeds it.
    """
    storage = catalog.table(table)
    policy = predict.policy
    budget = predict.remaining_budget()
    plans: dict[str, SamplePlan] = {}
    sample: dict[str, frozenset[int]] = {}
    reacquire: dict[str, frozenset[int]] = {}
    for attribute in attributes:
        candidates = list(storage.missing_rowids(attribute))
        if policy.min_confidence > 0:
            low = storage.low_confidence_rowids(attribute, policy.min_confidence)
            reacquire[attribute] = frozenset(low)
            candidates.extend(low)
        attribute_plan = plan_sample(
            attribute,
            candidates,
            policy,
            budget=budget,
            can_acquire=crowd is not None,
        )
        plans[attribute] = attribute_plan
        sample[attribute] = attribute_plan.sample_rowids
        if budget is not None:
            budget = max(
                0.0, budget - attribute_plan.sample_size * policy.crowd_cost_per_value
            )
    return plans, sample, reacquire


def _lower_scan(
    plan: SelectPlan,
    scan: ScanPlan,
    catalog: Catalog,
    crowd: CrowdFillSpec | None,
    predict: PredictSpec | None,
    lock: ContextManager[Any] | None,
    access_path: AccessPath | None = None,
) -> Operator:
    """Lower one table scan, stacking acquisition operators as configured.

    The shape depends on the session: bare scan (no crowd config),
    ``scan -> CrowdFill`` (exhaustive crowd-only acquisition), or the
    hybrid ``scan -> CrowdFill(sample) -> PredictFill`` two-stage plan.
    A cost-model *access_path* (only ever passed for the driving scan of a
    vanilla plan) lowers to an :class:`IndexRangeScan` instead.
    """
    storage = catalog.table(scan.table)
    source: Operator
    if access_path is not None:
        source = IndexRangeScan(
            catalog,
            scan.table,
            scan.alias,
            access_path.column,
            access_path.low,
            access_path.high,
            low_inclusive=access_path.low_inclusive,
            high_inclusive=access_path.high_inclusive,
            ordered=access_path.ordered,
            descending=access_path.descending,
        )
        source.est_rows = access_path.est_rows
    elif scan.uses_index and scan.index_value is not None:
        source = IndexScan(
            catalog, scan.table, scan.alias, scan.index_column or "", scan.index_value
        )
        source.est_rows = storage.stats.estimate_equality(
            scan.index_column or "", len(storage)
        )
    else:
        source = SeqScan(catalog, scan.table, scan.alias)
        source.est_rows = len(storage)
    if crowd is None and predict is None:
        return source
    attributes = crowd_attributes_for(plan, catalog.table(scan.table).schema, scan.alias)
    if not attributes:
        return source
    if predict is None:
        # Exhaustive (crowd-only) acquisition: every MISSING cell is asked.
        return CrowdFill(source, catalog, scan.table, attributes, crowd, lock)
    plans, sample, reacquire = _plan_acquisition(
        catalog, scan.table, attributes, crowd, predict
    )
    if crowd is not None:
        source = CrowdFill(
            source,
            catalog,
            scan.table,
            attributes,
            crowd,
            lock,
            sample=sample,
            reacquire=reacquire,
        )
    if any(p.predicted_count > 0 for p in plans.values()):
        batch_size = crowd.batch_size if crowd is not None else 50
        source = PredictFill(
            source, catalog, scan.table, attributes, predict, plans, batch_size, lock
        )
    return source


def _equi_join_keys(
    condition: ast.Expression, left_aliases: set[str], right_alias: str
) -> Optional[tuple[ast.ColumnRef, str]]:
    """Extract hash-join keys from a qualified ``a.x = b.y`` condition.

    Returns ``(left_key_ref, right_key_column)`` or None when the condition
    is not a simple two-sided equality between the accumulated left input
    and the table being joined.
    """
    if not isinstance(condition, ast.BinaryOp) or condition.op != "=":
        return None
    left, right = condition.left, condition.right
    if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)):
        return None
    if left.table is None or right.table is None:
        return None
    right_alias = right_alias.lower()
    if left.table.lower() in left_aliases and right.table.lower() == right_alias:
        return left, right.name
    if right.table.lower() in left_aliases and left.table.lower() == right_alias:
        return right, left.name
    return None


def build_enumerate_spec(
    relation: ast.CrowdRelation,
    crowd: CrowdFillSpec,
    *,
    existing_keys: frozenset[str] = frozenset(),
    record_answers: Optional[Callable[[str, int, list[Any]], None]] = None,
) -> CrowdEnumerateSpec:
    """Resolve a parsed CROWD relation + crowd spec into an enumerate spec.

    Statement-level constraints win; the session's acquisition policy
    supplies the completeness target fallback and the dry-batch/backstop
    knobs (bare sessions fall back to the defaults).
    """
    session = crowd.session
    completeness = relation.completeness
    if completeness is None and session is not None:
        completeness = getattr(session, "completeness_target", None)
    dry_batches = getattr(session, "enum_dry_batches", None) or 3
    max_batches = getattr(session, "max_enum_batches", None) or 256
    return CrowdEnumerateSpec(
        source=crowd.source,
        runtime=crowd.runtime,
        predicate=relation.predicate,
        completeness=completeness,
        budget=relation.budget,
        session=session,
        dry_batches=dry_batches,
        max_batches=max_batches,
        existing_keys=existing_keys,
        record_answers=record_answers,
    )


def lower_select_plan(
    plan: SelectPlan,
    catalog: Catalog,
    *,
    missing_resolver: MissingResolver | None = None,
    crowd: CrowdFillSpec | None = None,
    predict: PredictSpec | None = None,
    lock: ContextManager[Any] | None = None,
    hash_joins: bool = True,
    access_path: AccessPath | None = None,
) -> Operator:
    """Lower a logical :class:`SelectPlan` into a physical operator tree.

    Must be called (and the returned tree ``open()``-ed) under the catalog
    lock when the catalog is shared; iteration afterwards is lock-free.

    With both *crowd* and *predict* configured, scans of tables whose
    referenced perceptual attributes have MISSING cells lower to the
    two-stage hybrid plan ``scan -> CrowdFill(sample) -> PredictFill``.

    *access_path* is the cost model's verdict for the driving scan (see
    :meth:`~repro.db.sql.planner.Planner.choose_scan_path`); when it is
    ``ordered`` the index walk already emits rows in ORDER BY order and no
    Sort operator is planted.
    """
    root: Operator
    if plan.from_crowd is not None:
        if crowd is None:
            raise ExecutionError(
                "FROM CROWD requires a crowd value source "
                "(set one via Connection.set_value_source or an AcquisitionPolicy)"
            )
        root = Bind(
            CrowdEnumerate(
                build_enumerate_spec(
                    plan.from_crowd, crowd, record_answers=catalog.record_enum_answers
                )
            ),
            "crowd",
        )
    elif plan.scan is None:
        root = SingleRow()
    else:
        source = _lower_scan(
            plan, plan.scan, catalog, crowd, predict, lock, access_path
        )
        root = Bind(source, plan.scan.alias)
        left_est = source.est_rows if source.est_rows is not None else 1
        aliases = {plan.scan.alias.lower()}
        for join in plan.joins:
            right = _lower_scan(plan, join.scan, catalog, crowd, predict, lock)
            right_columns = catalog.table(join.scan.table).schema.column_names
            right_est = len(catalog.table(join.scan.table))
            keys = None
            if (
                hash_joins
                and missing_resolver is None
                and join.kind in ("inner", "left")
                and join.condition is not None
            ):
                keys = _equi_join_keys(join.condition, aliases, join.scan.alias)
            strategy = choose_join_strategy(
                left_est, right_est, equi_keys=keys is not None
            )
            if strategy == "hash":
                assert keys is not None
                left_key, right_column = keys
                root = HashJoin(
                    root,
                    right,
                    join.scan.alias,
                    left_key,
                    right_column,
                    join.kind,
                    right_columns,
                )
                # Equi-join output heuristic: each left row matches about
                # one right group, so the larger input bounds the estimate.
                left_est = max(1, left_est, right_est)
            else:
                root = NestedLoopJoin(
                    root,
                    right,
                    join.scan.alias,
                    join.condition,
                    join.kind,
                    right_columns,
                    missing_resolver,
                )
                if join.condition is None:  # cross join: full product
                    left_est = max(1, left_est * right_est)
                else:
                    left_est = max(1, left_est, right_est)
            root.est_rows = left_est
            aliases.add(join.scan.alias.lower())

    if plan.where is not None:
        root = Filter(root, plan.where, missing_resolver)

    if plan.aggregate is not None:
        root = Aggregate(
            root,
            plan.output,
            plan.aggregate.group_by,
            plan.aggregate.having,
            missing_resolver,
        )
    else:
        root = Project(root, plan.output, missing_resolver)

    if plan.distinct:
        root = Distinct(root)

    if plan.order_by and not (access_path is not None and access_path.ordered):
        # An ordered access path already emits rows in ORDER BY order
        # (including NULLS LAST), so the Sort is eliminated.
        root = Sort(
            root,
            plan.order_by,
            [column.name for column in plan.output],
            plan.aggregate is not None,
            missing_resolver,
        )

    if plan.limit is not None or plan.offset:
        root = Limit(root, plan.limit, plan.offset or 0)

    return root


# ---------------------------------------------------------------------------
# EXPLAIN rendering
# ---------------------------------------------------------------------------


def describe_operator_tree(root: Operator, *, include_stats: bool = False) -> str:
    """Render the physical operator tree in pipeline order.

    The driving pipeline reads top to bottom (scan first, sink last); the
    build side of a join is indented beneath the join operator.  With
    ``include_stats`` each line carries the operator's runtime counters
    (row counts, hash-build sizes, crowd-batch statistics).
    """
    lines: list[str] = []
    _render(root, lines, 0, include_stats)
    return "\n".join(lines)


def _render(op: Operator, lines: list[str], indent: int, stats: bool) -> None:
    if op.children:
        _render(op.children[0], lines, indent, stats)
    if not op.hidden:
        line = op.render_line()
        if stats:
            line += f"  [{op.stats()}]"
        lines.append("  " * indent + line)
    for child in op.children[1:]:
        _render(child, lines, indent + 1, stats)
