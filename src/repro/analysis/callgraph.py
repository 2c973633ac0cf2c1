"""Lock model and call-graph approximation for the locking rules.

The static race detector needs two things neither Python nor its AST give
us directly:

* **lock identity** — knowing that ``with self._lock:`` inside
  ``AnswerCache`` and ``runtime.cache._lock`` denote the *same* lock, while
  ``self._lock`` inside ``AcquisitionRuntime`` denotes a different one.
  :func:`resolve_lock` encodes the project's known lock sites (the curated
  table below) plus a generic fallback that names unknown locks by their
  enclosing class, so new locks are tracked from the moment they appear;
* **a call graph** — ``Catalog.register_runtime`` holds ``Catalog.lock``
  and calls ``runtime.cache.put``, which acquires ``AnswerCache._lock``;
  the acquire-order edge ``Catalog.lock -> AnswerCache._lock`` only exists
  *interprocedurally*.  :func:`build_lock_graph` approximates the call
  graph by name resolution (self-methods, same-module functions, curated
  receiver types, and unique method names) and propagates "locks acquired
  inside" sets to a fixpoint.

The result is a directed acquire-order graph: an edge ``A -> B`` means
"somewhere, B is (possibly transitively) acquired while A is held".  A
cycle in that graph is a potential deadlock — the static half of the
race detector; the dynamic half is :mod:`repro.analysis.tracer`, which
builds the same graph from witnessed acquisitions at runtime.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.analysis.core import Module, Project

__all__ = [
    "LockGraph",
    "build_lock_graph",
    "find_cycles",
    "resolve_lock",
]

# ---------------------------------------------------------------------------
# Lock identity
# ---------------------------------------------------------------------------

#: Curated lock sites: (module-path suffix, class, attribute) -> lock id.
#: These are the synchronisation points the engine relies on today; the
#: generic fallback below picks up any future additions under a
#: class-qualified name so they participate in the graph automatically.
#: The pager hierarchy orders strictly ``Catalog.lock`` →
#: ``PagedRowStore._lock`` → ``Pager._alloc_lock`` → ``BufferPool._lock``
#: (the pool lock is a leaf: nothing is acquired while holding it).
KNOWN_LOCKS: dict[tuple[str, str, str], str] = {
    ("db/catalog.py", "Catalog", "lock"): "Catalog.lock",
    ("db/pager.py", "PagedRowStore", "_lock"): "PagedRowStore._lock",
    ("db/pager.py", "Pager", "_alloc_lock"): "Pager._alloc_lock",
    ("db/pager.py", "BufferPool", "_lock"): "BufferPool._lock",
    ("crowd/runtime.py", "AcquisitionRuntime", "_lock"): "AcquisitionRuntime._lock",
    ("crowd/runtime.py", "AnswerCache", "_lock"): "AnswerCache._lock",
    (
        "crowd/sources.py",
        "SimulatedCrowdValueSource",
        "_stats_lock",
    ): "SimulatedCrowdValueSource._stats_lock",
    ("crowd/platform.py", "CrowdPlatform", "_seed_lock"): "CrowdPlatform._seed_lock",
    ("db/connection.py", "Connection", "_lock"): "Connection._lock",
    ("db/wal.py", "WriteAheadLog", "_lock"): "WriteAheadLog._lock",
    (
        "crowd/worker_quality.py",
        "WorkerQualityTracker",
        "_lock",
    ): "WorkerQualityTracker._lock",
}

#: Attribute-path suffixes that identify a lock regardless of the module
#: doing the acquiring (``self.catalog.lock``, ``runtime.cache._lock``...).
LOCK_PATH_SUFFIXES: dict[tuple[str, ...], str] = {
    ("catalog", "lock"): "Catalog.lock",
    ("cache", "_lock"): "AnswerCache._lock",
    ("wal", "_lock"): "WriteAheadLog._lock",
    ("_stats_lock",): "SimulatedCrowdValueSource._stats_lock",
    ("_seed_lock",): "CrowdPlatform._seed_lock",
}

#: The physical-operator classes receive the *catalog* lock by injection
#: (``Connection`` passes ``self.catalog.lock`` into the operator tree),
#: so their ``self._lock`` is Catalog.lock under a different name.
INJECTED_CATALOG_LOCK_MODULES = ("db/sql/operators.py",)


def attribute_path(expr: ast.expr) -> tuple[str, ...]:
    """Dotted name path of an expression (``self.catalog.lock`` ...)."""
    parts: list[str] = []
    node: ast.expr = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return tuple(parts)


def resolve_lock(expr: ast.expr, module: Module, cls: str | None) -> str | None:
    """Lock id denoted by a ``with`` context expression, or None.

    Resolution order: the call-shaped ``self._catalog_lock()`` helper, the
    curated :data:`KNOWN_LOCKS` table, the path-suffix table, then a
    generic fallback naming any ``*lock*`` attribute by its enclosing
    class.  Non-lock context managers resolve to None and are ignored.
    """
    if isinstance(expr, ast.Call):
        path = attribute_path(expr.func)
        if path and path[-1] == "_catalog_lock":
            return "Catalog.lock"
        return None
    path = attribute_path(expr)
    if not path:
        return None
    attr = path[-1]
    if len(path) >= 2 and path[0] == "self":
        if module.matches(*INJECTED_CATALOG_LOCK_MODULES) and attr == "_lock":
            return "Catalog.lock"
        for (suffix, known_cls, known_attr), lock_id in KNOWN_LOCKS.items():
            if cls == known_cls and attr == known_attr and module.matches(suffix):
                return lock_id
    for suffix, lock_id in LOCK_PATH_SUFFIXES.items():
        if len(path) >= len(suffix) and tuple(path[-len(suffix) :]) == suffix:
            return lock_id
    if attr == "lock" or attr.endswith("_lock"):
        owner = cls if path[0] == "self" and cls else (path[-2] if len(path) >= 2 else None)
        if owner is None:
            owner = module.norm.rsplit("/", 1)[-1]
        return f"{owner}.{attr}"
    return None


# ---------------------------------------------------------------------------
# Function index
# ---------------------------------------------------------------------------

#: Receiver names whose type is unambiguous in this codebase.  Used to
#: resolve ``recv.method(...)`` calls; method names common on builtin
#: collections are *only* resolved through this table (or ``self``), so a
#: ``dict.update`` can never alias ``TableStorage.update``.
RECEIVER_TYPES: dict[str, str] = {
    "catalog": "Catalog",
    "cache": "AnswerCache",
    "wal": "WriteAheadLog",
    "runtime": "AcquisitionRuntime",
    "storage": "TableStorage",
    "table": "TableStorage",
    "journal": "TableJournal",
    "manager": "DurabilityManager",
    "_manager": "DurabilityManager",
    "durability": "DurabilityManager",
    "platform": "CrowdPlatform",
    "_platform": "CrowdPlatform",
    "_executor": "Executor",
    "executor": "Executor",
    "_planner": "Planner",
    "planner": "Planner",
}

#: Method names so generic (dict/list/set API) that name-based resolution
#: would drown the graph in false edges; these only resolve via ``self``
#: or a curated receiver type.
GENERIC_NAMES = frozenset(
    {
        "get",
        "put",
        "pop",
        "add",
        "remove",
        "discard",
        "clear",
        "update",
        "append",
        "extend",
        "insert",
        "items",
        "keys",
        "values",
        "setdefault",
        "popitem",
        "join",
        "split",
        "close",
        "flush",
        "wait",
        "set",
        "copy",
        "submit",
        "result",
        "delete",
        "execute",
        "scan",
        "write",
        "read",
        "lower",
        "upper",
    }
)


@dataclass
class CallSite:
    """One call expression inside a function body."""

    kind: str  # "self" | "bare" | "attr"
    receiver: str | None
    name: str
    node: ast.Call
    #: Lock ids lexically held (outermost first) at the call site.
    held: tuple[str, ...]
    #: True when the call is the direct operand of an ``await`` — inside a
    #: coroutine, an awaited ``sleep``/``wait`` yields to the event loop
    #: instead of blocking it (the distinction ``lock-blocking`` relies on).
    awaited: bool = False


@dataclass
class LockSite:
    """One ``with <lock>`` acquisition inside a function body."""

    lock: str
    node: ast.AST
    #: Lock ids lexically held when this acquisition happens.
    held: tuple[str, ...]


@dataclass
class FunctionInfo:
    """Everything the lock rules need to know about one function."""

    module: Module
    cls: str | None
    name: str
    node: ast.AST
    #: True for ``async def`` — such functions run on the event loop, so
    #: non-awaited blocking calls inside them stall every connection.
    is_async: bool = False
    lock_sites: list[LockSite] = field(default_factory=list)
    call_sites: list[CallSite] = field(default_factory=list)
    #: Locks this function may acquire, directly or via callees
    #: (populated by the fixpoint in :func:`build_lock_graph`).
    acquires: set[str] = field(default_factory=set)

    @property
    def qualname(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name

    @property
    def key(self) -> str:
        return f"{self.module.norm}::{self.qualname}"


class _FunctionCollector(ast.NodeVisitor):
    """Extract lock and call sites from one function body."""

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.stack: list[str] = []
        #: ``id()`` of Call nodes that are the direct operand of an await.
        self._awaited: set[int] = set()

    def visit_Await(self, node: ast.Await) -> None:
        if isinstance(node.value, ast.Call):
            self._awaited.add(id(node.value))
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        self._handle_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._handle_with(node)

    def _handle_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired: list[str] = []
        for item in node.items:
            lock = resolve_lock(item.context_expr, self.info.module, self.info.cls)
            if isinstance(item.context_expr, ast.Call):
                # Record the call itself too (e.g. ``with self._catalog_lock():``
                # still calls the helper; other context-manager calls may
                # transitively acquire locks).
                self._record_call(item.context_expr)
            if lock is not None:
                self.info.lock_sites.append(
                    LockSite(lock=lock, node=node, held=tuple(self.stack))
                )
                self.stack.append(lock)
                acquired.append(lock)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node)
        self.generic_visit(node)

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        held = tuple(self.stack)
        awaited = id(node) in self._awaited
        if isinstance(func, ast.Name):
            self.info.call_sites.append(
                CallSite(
                    kind="bare",
                    receiver=None,
                    name=func.id,
                    node=node,
                    held=held,
                    awaited=awaited,
                )
            )
        elif isinstance(func, ast.Attribute):
            path = attribute_path(func)
            if not path:
                return
            if len(path) >= 2 and path[0] == "self" and len(path) == 2:
                kind, receiver = "self", "self"
            else:
                kind, receiver = "attr", path[-2] if len(path) >= 2 else None
            self.info.call_sites.append(
                CallSite(
                    kind=kind,
                    receiver=receiver,
                    name=path[-1],
                    node=node,
                    held=held,
                    awaited=awaited,
                )
            )

    # Nested function/class definitions get their own FunctionInfo via the
    # module-level walk; do not double-count their bodies here.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is not self.info.node:
            return
        for stmt in node.body:
            self.visit(stmt)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if node is not self.info.node:
            return
        for stmt in node.body:
            self.visit(stmt)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Lambda bodies execute later, not under the lexical lock stack.
        return


def index_functions(modules: Iterable[Module]) -> list[FunctionInfo]:
    """Collect a :class:`FunctionInfo` for every function/method."""
    infos: list[FunctionInfo] = []
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = _enclosing_class(module.tree, node)
            info = FunctionInfo(
                module=module,
                cls=cls,
                name=node.name,
                node=node,
                is_async=isinstance(node, ast.AsyncFunctionDef),
            )
            _FunctionCollector(info).visit(node)
            infos.append(info)
    return infos


def _enclosing_class(tree: ast.Module, target: ast.AST) -> str | None:
    """Name of the class whose body (directly) contains *target*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if child is target:
                    return node.name
    return None


# ---------------------------------------------------------------------------
# Call resolution + lock graph
# ---------------------------------------------------------------------------


class _Resolver:
    """Name-based call resolution over the function index."""

    def __init__(self, infos: list[FunctionInfo]) -> None:
        self.by_class_method: dict[tuple[str, str], list[FunctionInfo]] = {}
        self.by_method_name: dict[str, list[FunctionInfo]] = {}
        self.by_module_func: dict[tuple[str, str], list[FunctionInfo]] = {}
        self.init_by_class: dict[str, list[FunctionInfo]] = {}
        for info in infos:
            if info.cls is not None:
                self.by_class_method.setdefault((info.cls, info.name), []).append(info)
                self.by_method_name.setdefault(info.name, []).append(info)
                if info.name == "__init__":
                    self.init_by_class.setdefault(info.cls, []).append(info)
            else:
                self.by_module_func.setdefault((info.module.norm, info.name), []).append(
                    info
                )

    def resolve(self, site: CallSite, caller: FunctionInfo) -> list[FunctionInfo]:
        if site.kind == "self" and caller.cls is not None:
            exact = self.by_class_method.get((caller.cls, site.name))
            if exact:
                return exact
            return self._by_name(site.name)
        if site.kind == "bare":
            local = self.by_module_func.get((caller.module.norm, site.name))
            if local:
                return local
            ctor = self.init_by_class.get(site.name)
            if ctor:
                return ctor
            return []
        # Attribute call: curated receiver type first, then (for
        # non-generic names) unique-name resolution.
        if site.receiver is not None:
            receiver_cls = RECEIVER_TYPES.get(site.receiver)
            if receiver_cls is not None:
                exact = self.by_class_method.get((receiver_cls, site.name))
                if exact:
                    return exact
                return []
        return self._by_name(site.name)

    def _by_name(self, name: str) -> list[FunctionInfo]:
        if name in GENERIC_NAMES:
            return []
        return self.by_method_name.get(name, [])


@dataclass
class LockEdge:
    """One acquire-order edge with an example site justifying it."""

    held: str
    acquired: str
    path: str
    line: int
    via: str  # human-readable description of how the edge arises


class LockGraph:
    """Directed acquire-order graph over the project's lock identities."""

    def __init__(self) -> None:
        self.edges: dict[tuple[str, str], LockEdge] = {}

    def add(self, held: str, acquired: str, path: str, line: int, via: str) -> None:
        if held == acquired:
            return  # re-entrant acquisition of an RLock: not an ordering edge
        self.edges.setdefault(
            (held, acquired),
            LockEdge(held=held, acquired=acquired, path=path, line=line, via=via),
        )

    def adjacency(self) -> dict[str, set[str]]:
        graph: dict[str, set[str]] = {}
        for held, acquired in self.edges:
            graph.setdefault(held, set()).add(acquired)
            graph.setdefault(acquired, set())
        return graph

    def cycles(self) -> list[list[str]]:
        return find_cycles(self.adjacency())

    def edge(self, held: str, acquired: str) -> LockEdge | None:
        return self.edges.get((held, acquired))


def build_lock_graph(project: Project) -> LockGraph:
    """Build the static acquire-order graph for *project*'s src modules."""
    infos = index_functions(project.src_modules())
    resolver = _Resolver(infos)

    # Fixpoint: ACQ(f) = direct locks of f  U  ACQ of every resolved callee.
    for info in infos:
        info.acquires = {site.lock for site in info.lock_sites}
    changed = True
    while changed:
        changed = False
        for info in infos:
            for site in info.call_sites:
                for callee in resolver.resolve(site, info):
                    if callee is info:
                        continue
                    missing = callee.acquires - info.acquires
                    if missing:
                        info.acquires |= missing
                        changed = True

    graph = LockGraph()
    for info in infos:
        for lock_site in info.lock_sites:
            for held in lock_site.held:
                graph.add(
                    held,
                    lock_site.lock,
                    info.module.path,
                    getattr(lock_site.node, "lineno", 0),
                    via=f"{info.qualname} acquires {lock_site.lock} while holding {held}",
                )
        for call_site in info.call_sites:
            if not call_site.held:
                continue
            for callee in resolver.resolve(call_site, info):
                for acquired in callee.acquires:
                    for held in call_site.held:
                        graph.add(
                            held,
                            acquired,
                            info.module.path,
                            getattr(call_site.node, "lineno", 0),
                            via=(
                                f"{info.qualname} calls {callee.qualname} "
                                f"(which acquires {acquired}) while holding {held}"
                            ),
                        )
    return graph


def find_cycles(graph: Mapping[str, set[str]]) -> list[list[str]]:
    """Cycles in a directed graph, as node paths (first node repeated last).

    Tarjan SCC followed by one cycle extraction per non-trivial component;
    deterministic output (nodes visited in sorted order).
    """
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: dict[str, bool] = {}
    stack: list[str] = []
    counter = [0]
    components: list[list[str]] = []

    def strongconnect(node: str) -> None:
        # Iterative Tarjan (explicit stack) so deep graphs cannot overflow
        # the interpreter recursion limit.
        work: list[tuple[str, Iterable[str]]] = [(node, iter(sorted(graph.get(node, ()))))]
        index[node] = lowlink[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack[node] = True
        while work:
            current, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(sorted(graph.get(succ, ())))))
                    advanced = True
                    break
                if on_stack.get(succ):
                    lowlink[current] = min(lowlink[current], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[current])
            if lowlink[current] == index[current]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == current:
                        break
                if len(component) > 1:
                    components.append(sorted(component))

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)

    cycles: list[list[str]] = []
    for component in components:
        cycles.append(_cycle_through(component, graph))
    return cycles


def _cycle_through(component: list[str], graph: Mapping[str, set[str]]) -> list[str]:
    """One concrete cycle path inside a strongly connected component."""
    members = set(component)
    start = component[0]
    path = [start]
    seen = {start}
    node = start
    while True:
        successors = sorted(n for n in graph.get(node, ()) if n in members)
        nxt = next((n for n in successors if n == start), None)
        if nxt is None:
            nxt = next((n for n in successors if n not in seen), successors[0])
        path.append(nxt)
        if nxt == start:
            return path
        if nxt in seen:
            # Trim to the loop that closed.
            loop_start = path.index(nxt)
            return path[loop_start:]
        seen.add(nxt)
        node = nxt
