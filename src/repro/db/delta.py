"""World deltas: the (Δ−, Δ+) of the paper, as signed multisets.

A :class:`Delta` records, per relation, the signed multiset of rows that
changed between two possible worlds ``w`` and ``w'``: deleted rows carry
count −1 and inserted rows +1 (Fig. 2 of the paper).  Because counts are
signed, composing deltas is plain addition — a row changed ``A → B → C``
between query executions collapses to ``−A, +C`` with the transient
``B`` cancelling automatically.

:class:`DeltaRecorder` is the accumulation buffer a query evaluator
attaches to a :class:`~repro.db.database.Database`; every table mutation
is appended to all attached recorders.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

from repro.db.multiset import Multiset

__all__ = ["Delta", "DeltaRecorder"]

Row = Tuple[Any, ...]


class Delta:
    """Per-relation signed row multisets describing ``w' − w``."""

    __slots__ = ("_tables",)

    def __init__(self) -> None:
        self._tables: Dict[str, Multiset] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_insert(self, table: str, row: Row, count: int = 1) -> None:
        self._delta_for(table).add(row, count)

    def record_delete(self, table: str, row: Row, count: int = 1) -> None:
        self._delta_for(table).add(row, -count)

    def add(self, table: str, row: Row, count: int) -> None:
        """Record a signed change: ``count`` > 0 inserts, < 0 deletes."""
        self._delta_for(table).add(row, count)

    def record_update(self, table: str, old_row: Row, new_row: Row) -> None:
        ms = self._delta_for(table)
        ms.add(old_row, -1)
        ms.add(new_row, 1)

    def _delta_for(self, table: str) -> Multiset:
        key = table.lower()
        ms = self._tables.get(key)
        if ms is None:
            ms = Multiset()
            self._tables[key] = ms
        return ms

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def for_table(self, table: str) -> Multiset:
        """The signed multiset for ``table`` (empty if untouched)."""
        return self._tables.get(table.lower(), _EMPTY)

    def tables(self) -> Iterator[str]:
        return iter(self._tables)

    def removed(self, table: str) -> Multiset:
        """Δ− — rows leaving the world, with positive counts."""
        out = Multiset()
        for row, count in self.for_table(table).items():
            if count < 0:
                out.add(row, -count)
        return out

    def added(self, table: str) -> Multiset:
        """Δ+ — rows entering the world, with positive counts."""
        out = Multiset()
        for row, count in self.for_table(table).items():
            if count > 0:
                out.add(row, count)
        return out

    def is_empty(self) -> bool:
        return all(ms.is_empty() for ms in self._tables.values())

    def size(self) -> int:
        """Total number of (row, ±1) change entries across relations."""
        return sum(
            abs(count) for ms in self._tables.values() for _, count in ms.items()
        )

    def merge(self, other: "Delta") -> None:
        """In-place composition ``self ∘ other`` (apply other after self)."""
        for table, ms in other._tables.items():
            self._delta_for(table).update(ms)

    def copy(self) -> "Delta":
        out = Delta()
        for table, ms in self._tables.items():
            out._tables[table] = ms.copy()
        return out

    def inverted(self) -> "Delta":
        """The delta that undoes this one."""
        out = Delta()
        for table, ms in self._tables.items():
            out._tables[table] = -ms
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{t}:{ms.distinct_size()}" for t, ms in self._tables.items())
        return f"Delta({parts})"


_EMPTY = Multiset()


class DeltaRecorder:
    """Accumulates table mutations until an evaluator pops them.

    Attach with :meth:`repro.db.database.Database.attach_recorder`;
    every mutation of the database is appended.  :meth:`pop` returns the
    accumulated delta and resets the buffer, which is exactly the
    per-sample (Δ−, Δ+) of Algorithm 1.
    """

    def __init__(self) -> None:
        self._delta = Delta()

    def notify_insert(self, table: str, row: Row) -> None:
        self._delta.record_insert(table, row)

    def notify_delete(self, table: str, row: Row) -> None:
        self._delta.record_delete(table, row)

    def notify_update(self, table: str, old_row: Row, new_row: Row) -> None:
        self._delta.record_update(table, old_row, new_row)

    def peek(self) -> Delta:
        return self._delta

    def pop(self) -> Delta:
        out = self._delta
        self._delta = Delta()
        return out
