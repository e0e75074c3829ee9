"""Physical plan nodes.

Plans are trees of nodes with an ``execute(context) -> list[rows]``
protocol.  The planner builds them; the engine runs them under table
locks.  ``InSubqueryFilterNode`` is the old (10.1.2.1) strategy for ``IN``
subqueries; ``SemiJoinNode`` is the flattened strategy the new optimiser
prefers.
"""

from __future__ import annotations

from repro.capture import traced
from repro.workloads.minidb.errors import StorageError
from repro.workloads.minidb.sql import (BoolOp, ColumnRef, Comparison,
                                        Literal)


def compare(op: str, left, right) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise StorageError(f"unknown comparison: {op}")


@traced
class PlanNode:
    """Base node."""

    def execute(self, context) -> list[tuple]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__

    def __repr__(self):
        return self.describe()


@traced
class ScanNode(PlanNode):
    """Full table scan (under a shared lock)."""

    def __init__(self, table_name: str):
        self.table_name = table_name

    def execute(self, context) -> list[tuple]:
        lock = context.locks.read_lock(self.table_name)
        try:
            return context.catalog.table(self.table_name).scan()
        finally:
            lock.release_shared()

    def describe(self) -> str:
        return f"Scan({self.table_name})"


@traced
class PredicateFilterNode(PlanNode):
    """Row filter over comparison/boolean predicates (no subqueries)."""

    def __init__(self, child: PlanNode, predicate, schema):
        self.child = child
        self.predicate = predicate
        self.schema = schema

    def execute(self, context) -> list[tuple]:
        rows = self.child.execute(context)
        return [row for row in rows if self.matches(row)]

    def matches(self, row: tuple) -> bool:
        return self.evaluate(self.predicate, row)

    def evaluate(self, predicate, row: tuple) -> bool:
        if isinstance(predicate, BoolOp):
            left = self.evaluate(predicate.left, row)
            if predicate.op == "and":
                return left and self.evaluate(predicate.right, row)
            return left or self.evaluate(predicate.right, row)
        if isinstance(predicate, Comparison):
            return compare(predicate.op,
                           self.resolve(predicate.left, row),
                           self.resolve(predicate.right, row))
        raise StorageError(f"unsupported predicate: {predicate!r}")

    def resolve(self, operand, row: tuple):
        if isinstance(operand, Literal):
            return operand.value
        if isinstance(operand, ColumnRef):
            return row[self.schema.column_index(operand.name)]
        raise StorageError(f"unsupported operand: {operand!r}")

    def describe(self) -> str:
        return f"Filter({self.child.describe()})"


@traced
class InSubqueryFilterNode(PlanNode):
    """Old strategy: evaluate the subquery once, then filter the outer
    rows by membership (nested evaluation, no flattening)."""

    def __init__(self, child: PlanNode, column_index: int,
                 subplan: PlanNode, negated: bool):
        self.child = child
        self.column_index = column_index
        self.subplan = subplan
        self.negated = negated

    def execute(self, context) -> list[tuple]:
        members = {row[0] for row in self.subplan.execute(context)}
        rows = self.child.execute(context)
        kept = []
        for row in rows:
            inside = row[self.column_index] in members
            if inside != self.negated:
                kept.append(row)
        return kept

    def describe(self) -> str:
        return f"InSubquery({self.child.describe()})"


@traced
class SemiJoinNode(PlanNode):
    """New strategy (10.1.3.1): the flattened semi-join over the subquery
    table."""

    def __init__(self, child: PlanNode, column_index: int,
                 inner: PlanNode, inner_column_index: int, negated: bool):
        self.child = child
        self.column_index = column_index
        self.inner = inner
        self.inner_column_index = inner_column_index
        self.negated = negated

    def execute(self, context) -> list[tuple]:
        inner_rows = self.inner.execute(context)
        members = {row[self.inner_column_index] for row in inner_rows}
        kept = []
        for row in self.child.execute(context):
            inside = row[self.column_index] in members
            if inside != self.negated:
                kept.append(row)
        return kept

    def describe(self) -> str:
        return f"SemiJoin({self.child.describe()})"


@traced
class ProjectNode(PlanNode):
    """Column projection."""

    def __init__(self, child: PlanNode, indices: tuple[int, ...]):
        self.child = child
        self.indices = indices

    def execute(self, context) -> list[tuple]:
        rows = self.child.execute(context)
        if not self.indices:  # SELECT *
            return rows
        return [tuple(row[i] for i in self.indices) for row in rows]

    def describe(self) -> str:
        return f"Project({self.child.describe()})"


@traced
class SortNode(PlanNode):
    """ORDER BY: sorts rows on one column."""

    def __init__(self, child: PlanNode, column_index: int,
                 descending: bool):
        self.child = child
        self.column_index = column_index
        self.descending = descending

    def execute(self, context) -> list[tuple]:
        rows = self.child.execute(context)
        at = self.column_index
        return sorted(rows, key=lambda row: row[at],
                      reverse=self.descending)

    def describe(self) -> str:
        direction = "desc" if self.descending else "asc"
        return f"Sort({self.child.describe()}, {direction})"


@traced
class LimitNode(PlanNode):
    """LIMIT: caps the row count."""

    def __init__(self, child: PlanNode, limit: int):
        self.child = child
        self.limit = limit

    def execute(self, context) -> list[tuple]:
        return self.child.execute(context)[:self.limit]

    def describe(self) -> str:
        return f"Limit({self.child.describe()}, {self.limit})"


@traced
class CountNode(PlanNode):
    """COUNT(*): one row holding the child's row count."""

    def __init__(self, child: PlanNode):
        self.child = child

    def execute(self, context) -> list[tuple]:
        return [(len(self.child.execute(context)),)]

    def describe(self) -> str:
        return f"Count({self.child.describe()})"


@traced
class InsertNode(PlanNode):
    """Row insertion (under an exclusive lock)."""

    def __init__(self, table_name: str, values: tuple):
        self.table_name = table_name
        self.values = values

    def execute(self, context) -> list[tuple]:
        lock = context.locks.write_lock(self.table_name)
        try:
            context.catalog.table(self.table_name).insert(self.values)
            return []
        finally:
            lock.release_exclusive()

    def describe(self) -> str:
        return f"Insert({self.table_name})"
