"""``charge-once``: every value-source dispatch charges cost exactly once.

The crowd budget is real money in the paper's setting ("never spend twice
for what you already know").  The engine's ledger discipline is: one
dispatch, one ``session.record_cost`` — charged by the runtime or the
operator that issued the dispatch, nowhere else.  Four failure shapes are
checked:

1. dispatch calls (``request_values`` / ``request_values_with_cost``)
   outside the modules allowed to issue them — anything else must go
   through the runtime so dedup/caching/accounting happen;
2. a discarded ``request_values_with_cost(...)`` result — the cost half of
   the tuple is the ledger entry; dropping it loses the charge;
3. ``record_cost`` inside a loop body with no dispatch in the same loop —
   charging per-iteration for a single dispatch double-counts;
4. two unconditional ``record_cost`` calls on the same straight-line path
   through a function — a double charge for one dispatch.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.callgraph import attribute_path
from repro.analysis.core import Finding, Module, Project, Rule, register

__all__ = ["ChargeOnceRule"]

#: Modules allowed to issue value-source dispatches directly: the runtime
#: itself (``AcquisitionRuntime._run_dispatch`` is the one place that
#: calls a source and charges its cost) and the simulated sources.  The
#: physical operators reach sources only through the runtime.
ALLOWED_DISPATCH_MODULES = (
    "crowd/runtime.py",
    "crowd/sources.py",
)

DISPATCH_NAMES = frozenset(
    {
        "request_values",
        "request_values_with_cost",
        "_run_dispatch",
        "acquire",
        "run_group",
        "execute",
        "submit",
    }
)


def _terminal_name(call: ast.Call) -> str | None:
    path = attribute_path(call.func)
    return path[-1] if path else None


def _calls_named(tree: ast.AST, names: frozenset[str] | set[str]) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _terminal_name(node) in names
    ]


def _unconditional_record_costs(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.Call]:
    """``record_cost`` calls that run on every pass through *func*.

    Descends only through ``with`` and ``try`` bodies — anything under an
    ``if``/``for``/``while``/handler is conditional and may legitimately be
    one arm of an either/or charge.
    """
    calls: list[ast.Call] = []

    def scan(body: list[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                if _terminal_name(stmt.value) == "record_cost":
                    calls.append(stmt.value)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                scan(stmt.body)
            elif isinstance(stmt, ast.Try):
                scan(stmt.body)

    scan(func.body)
    return calls


@register
class ChargeOnceRule(Rule):
    id = "charge-once"
    summary = "each value-source dispatch must charge session cost exactly once"
    rationale = (
        "The crowd budget is the paper's scarce resource; the ledger invariant "
        "is one record_cost per dispatch, charged by the issuing runtime/"
        "operator. Stray dispatch sites bypass dedup and accounting; discarded "
        "request_values_with_cost results lose the charge; per-iteration "
        "charges for a single dispatch double-count."
    )
    roles = frozenset({"src"})

    def check_module(self, module: Module, project: Project) -> Iterable[Finding]:
        dispatch_allowed = module.matches(*ALLOWED_DISPATCH_MODULES)

        for node in ast.walk(module.tree):
            # (1) dispatch outside the allowed modules
            if isinstance(node, ast.Call):
                name = _terminal_name(node)
                if (
                    name in {"request_values", "request_values_with_cost"}
                    and not dispatch_allowed
                ):
                    yield Finding(
                        rule=self.id,
                        message=(
                            f"direct value-source dispatch {name}() outside the "
                            "runtime/operator layer; route it through "
                            "AcquisitionRuntime so cost is charged exactly once"
                        ),
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                    )
            # (2) discarded request_values_with_cost result
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                if _terminal_name(node.value) == "request_values_with_cost":
                    yield Finding(
                        rule=self.id,
                        message=(
                            "request_values_with_cost() result discarded; the "
                            "returned cost is the ledger entry and must be "
                            "charged via session.record_cost"
                        ),
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                    )
            # (3) record_cost inside a loop without a dispatch in that loop
            if isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
                loop_body = ast.Module(body=list(node.body), type_ignores=[])
                charges = _calls_named(loop_body, {"record_cost"})
                if charges and not _calls_named(loop_body, DISPATCH_NAMES):
                    for call in charges:
                        yield Finding(
                            rule=self.id,
                            message=(
                                "record_cost() charged per loop iteration with "
                                "no dispatch in the loop body; charge once per "
                                "dispatch, not per iteration"
                            ),
                            path=module.path,
                            line=call.lineno,
                            col=call.col_offset,
                        )
            # (4) two unconditional charges on one straight-line path
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                unconditional = _unconditional_record_costs(node)
                if len(unconditional) >= 2:
                    second = unconditional[1]
                    yield Finding(
                        rule=self.id,
                        message=(
                            f"{node.name}() charges record_cost() "
                            f"{len(unconditional)} times on the same path; a "
                            "dispatch must be charged exactly once"
                        ),
                        path=module.path,
                        line=second.lineno,
                        col=second.col_offset,
                    )
