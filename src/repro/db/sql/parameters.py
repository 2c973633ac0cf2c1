"""Binding of qmark-style ``?`` parameters into parsed statements and plans.

Placeholders are lexed as first-class tokens (never inside string literals)
and parsed into :class:`~repro.db.sql.ast.Parameter` leaves, so values are
bound structurally instead of being interpolated into SQL text.  Binding
replaces each ``Parameter`` with a :class:`~repro.db.sql.ast.Literal`
carrying the supplied Python value; because all AST (and plan) nodes are
frozen dataclasses, the template stays reusable and can be cached, and one
generic traversal over dataclass fields and tuples covers every node type —
new AST constructs are counted and bound automatically.

Two binding granularities are provided:

* :func:`bind_statement` rewrites a parsed statement (used for DML/DDL), and
* :func:`bind_select_plan` rewrites an already-planned SELECT, so a cached
  plan can be re-executed with fresh values without re-tokenizing,
  re-parsing or re-planning.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence, TypeVar

from repro.db.sql import ast
from repro.db.sql.planner import SelectPlan
from repro.errors import ParameterBindingError

_Node = TypeVar("_Node")


def count_parameters(node: Any) -> int:
    """Number of ``?`` placeholders in *node* (a statement or expression)."""
    count = 0
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Parameter):
            count += 1
        elif isinstance(current, ast.Literal):
            continue  # never descend into bound Python values
        elif isinstance(current, tuple):
            stack.extend(current)
        elif dataclasses.is_dataclass(current) and not isinstance(current, type):
            for field in dataclasses.fields(current):
                stack.append(getattr(current, field.name))
    return count


def check_arity(expected: int, params: Sequence[Any]) -> None:
    """Raise :class:`ParameterBindingError` unless ``len(params) == expected``."""
    if len(params) != expected:
        raise ParameterBindingError(
            f"statement takes {expected} parameter{'s' if expected != 1 else ''}, "
            f"{len(params)} given"
        )


def bind_statement(
    statement: ast.Statement, params: Sequence[Any], *, verify_arity: bool = True
) -> ast.Statement:
    """Return *statement* with every ``?`` placeholder replaced by a literal.

    The parameter arity is validated against the placeholders actually
    present; a statement without placeholders is returned unchanged.
    Callers that already validated arity against a cached placeholder count
    (the prepared-statement hot path) pass ``verify_arity=False`` to skip
    the extra AST walk.
    """
    if verify_arity:
        check_arity(count_parameters(statement), params)
    if not params:
        return statement
    return _rebuild(statement, tuple(params))


def bind_expression(expr: ast.Expression, params: Sequence[Any]) -> ast.Expression:
    """Replace ``Parameter`` leaves in *expr* with literals from *params*."""
    return _rebuild(expr, tuple(params))


def bind_select_plan(plan: SelectPlan, params: Sequence[Any]) -> SelectPlan:
    """Return *plan* with parameters bound into all of its expressions.

    This is the statement-cache fast path: the plan was built once from the
    parameter template and only its expression trees are rewritten per
    execution.
    """
    if not params:
        return plan
    return _rebuild(plan, tuple(params))


def _node_fields(cls: type) -> tuple[str, ...]:
    """Names of the fields of *cls* that binding must visit (cached per class).

    Non-dataclass values (str, int, enums, ...) and ``Literal`` — whose
    value is a bound Python object, never a template — have none.
    """
    names = _FIELDS.get(cls)
    if names is None:
        if dataclasses.is_dataclass(cls) and not issubclass(cls, ast.Literal):
            names = tuple(field.name for field in dataclasses.fields(cls))
        else:
            names = ()
        _FIELDS[cls] = names
    return names


#: Per-class field names visited by :func:`_rebuild` (see :func:`_node_fields`).
_FIELDS: dict[type, tuple[str, ...]] = {}


def _rebuild(node: _Node, params: tuple[Any, ...]) -> _Node:
    """Generic structural substitution of ``Parameter`` leaves.

    Rebuilds only the paths that actually contain parameters; untouched
    subtrees are returned by identity, so binding shares structure with the
    cached template.  This runs once per executed statement, so field names
    are looked up per class (:func:`_node_fields`), not per node.
    """
    if isinstance(node, ast.Parameter):
        try:
            return ast.Literal(params[node.index])
        except IndexError as exc:
            raise ParameterBindingError(
                f"no value bound for parameter {node.index + 1}"
            ) from exc
    if isinstance(node, tuple):
        rebuilt = tuple([_rebuild(item, params) for item in node])
        return node if all(a is b for a, b in zip(rebuilt, node)) else rebuilt
    changes = {}
    for name in _node_fields(type(node)):
        value = getattr(node, name)
        replacement = _rebuild(value, params)
        if replacement is not value:
            changes[name] = replacement
    return dataclasses.replace(node, **changes) if changes else node
