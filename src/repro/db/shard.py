"""Horizontal partitioning: slicing one database into K sub-databases.

The paper scales inference by *data parallelism* (§5.4, Fig. 5): the
probabilistic database is partitioned across machines and each worker
runs MCMC over its own self-contained sub-model.  This module is the
relational half of that story:

* a :class:`Partitioner` maps shard-key values to shard indexes —
  :class:`HashPartitioner` (stable hashing, balanced for sequential
  ids) or :class:`KeyListPartitioner` (explicit key lists, e.g. coref
  mention blocks that must stay together);
* a :class:`ShardSpec` names the shard-key column of each sharded
  table (NER declares ``TOKEN.DOC_ID``, coref ``MENTION.MENTION_ID``);
* a :class:`ShardedDatabase` routes every row of a
  :class:`~repro.db.database.Database` to exactly one of K
  self-contained sub-databases.

Invariant (property-tested): the shards partition the original rows —
their disjoint union equals the original database, no tuple lost or
duplicated.  Tables listed in ``replicate`` are copied into every shard
instead and are exempt from that invariant (reference data).

Whether the *model* decomposes along the same lines — no factor
template spanning two shards — is validated at the factor-graph layer
(:func:`repro.core.sharded.validate_shardable_graph`), since this
package deliberately knows nothing about factor graphs.

Hashing is deliberately not Python's built-in ``hash`` (salted per
process for strings): shard assignment must be a pure function of the
value so parent and workers, and runs on different days, agree.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Sequence

from repro.db.database import Database
from repro.errors import ShardingError

__all__ = [
    "HashPartitioner",
    "KeyListPartitioner",
    "Partitioner",
    "ShardSpec",
    "ShardedDatabase",
    "stable_hash",
]


def stable_hash(value: Any) -> int:
    """A process- and platform-stable non-negative hash of a shard-key
    value.  Integers (bools included) hash to themselves so sequential
    ids (doc ids, mention ids) spread round-robin over shards;
    everything else goes through CRC-32 of a canonical text form."""
    if isinstance(value, int):
        return value if value >= 0 else -value
    return zlib.crc32(f"{type(value).__name__}:{value!r}".encode("utf-8"))


class Partitioner:
    """Maps shard-key values to shard indexes ``0 .. num_shards-1``."""

    num_shards: int

    def shard_of(self, value: Any) -> int:
        raise NotImplementedError

    def fingerprint(self) -> Any:
        """A hashable digest of the partitioner's *content*, equal for
        partitioners that produce the same split.  Runner caches key on
        this, so rebuilding an equivalent partitioner (the natural
        ``partitioner=pipeline.shard_partitioner(2)`` idiom) continues
        the same cached chains instead of restarting them.  Custom
        subclasses that don't override fall back to object identity
        (conservative: equal only to themselves)."""
        return ("instance", id(self))

    def _check_num_shards(self, num_shards: int) -> int:
        if num_shards < 1:
            raise ShardingError(f"need at least one shard, got {num_shards}")
        return num_shards


class HashPartitioner(Partitioner):
    """``shard = stable_hash(value) % num_shards`` — the default
    strategy; balanced for sequential integer keys and reproducible
    across processes (no salted ``hash``)."""

    def __init__(self, num_shards: int):
        self.num_shards = self._check_num_shards(num_shards)

    def shard_of(self, value: Any) -> int:
        return stable_hash(value) % self.num_shards

    def fingerprint(self) -> Any:
        return ("hash", self.num_shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashPartitioner({self.num_shards})"


class KeyListPartitioner(Partitioner):
    """Explicit assignment: ``key_lists[i]`` holds the shard-key values
    of shard ``i``.

    This is how blocked workloads co-partition: coref mention blocks
    (mentions that could ever co-refer) are placed in one list so no
    candidate pair is split.  A value appearing in no list — or in two —
    is a configuration error and raises :class:`ShardingError` eagerly.
    """

    def __init__(self, key_lists: Sequence[Iterable[Any]]):
        self.num_shards = self._check_num_shards(len(key_lists))
        self._assignment: Dict[Any, int] = {}
        for shard, keys in enumerate(key_lists):
            for key in keys:
                previous = self._assignment.setdefault(key, shard)
                if previous != shard:
                    raise ShardingError(
                        f"shard key {key!r} assigned to both shard "
                        f"{previous} and shard {shard}"
                    )

    def shard_of(self, value: Any) -> int:
        try:
            return self._assignment[value]
        except KeyError:
            raise ShardingError(
                f"shard key {value!r} is not assigned to any shard "
                f"(key-list partitioner over {len(self._assignment)} keys)"
            ) from None

    def fingerprint(self) -> Any:
        return (
            "keylist",
            self.num_shards,
            frozenset(self._assignment.items()),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeyListPartitioner({self.num_shards} shards, "
            f"{len(self._assignment)} keys)"
        )


@dataclass(frozen=True)
class ShardSpec:
    """The natural shard key of one workload: ``table.column``.

    Models declare their spec next to their chain factory (NER:
    ``ShardSpec("TOKEN", "DOC_ID")`` — skip/transition factors never
    cross documents; coref: ``ShardSpec("MENTION", "MENTION_ID")`` with
    a block-respecting partitioner).
    """

    table: str
    column: str


class ShardedDatabase:
    """A :class:`Database` plus a partitioning of its rows into K
    self-contained sub-databases.

    Parameters
    ----------
    db:
        The database to slice.  It is read, never mutated.
    shard_keys:
        A :class:`ShardSpec` or a ``{table: column}`` mapping naming
        the shard-key column of every sharded table.
    partitioner:
        Maps shard-key values to shard indexes.
    replicate:
        Table names copied whole into every shard (reference data;
        exempt from the disjoint-union invariant).

    Every table of ``db`` must be either sharded or replicated —
    silently dropping a table would make shards lie about the schema.
    """

    def __init__(
        self,
        db: Database,
        shard_keys: ShardSpec | Mapping[str, str],
        partitioner: Partitioner,
        replicate: Iterable[str] = (),
    ):
        self.db = db
        self.partitioner = partitioner
        if isinstance(shard_keys, ShardSpec):
            shard_keys = {shard_keys.table: shard_keys.column}
        self._columns = {t.lower(): c for t, c in shard_keys.items()}
        self._replicate = {t.lower() for t in replicate}
        for name in db.table_names():
            key = name.lower()
            if key in self._columns and key in self._replicate:
                raise ShardingError(
                    f"table {name!r} is both sharded and replicated"
                )
            if key not in self._columns and key not in self._replicate:
                raise ShardingError(
                    f"table {name!r} has no shard key and is not replicated; "
                    f"add it to shard_keys or replicate"
                )
            if key in self._columns:
                column = self._columns[key]
                if not db.table(name).schema.has_attribute(column):
                    raise ShardingError(
                        f"shard column {column!r} does not exist in table "
                        f"{name!r}"
                    )

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.partitioner.num_shards

    def is_sharded(self, table: str) -> bool:
        return table.lower() in self._columns

    def is_replicated(self, table: str) -> bool:
        return table.lower() in self._replicate

    def shard_column(self, table: str) -> str:
        try:
            return self._columns[table.lower()]
        except KeyError:
            raise ShardingError(f"table {table!r} is not sharded") from None

    def shard_of_value(self, value: Any) -> int:
        """The shard a shard-key value routes to (bounds-checked)."""
        shard = self.partitioner.shard_of(value)
        if not 0 <= shard < self.num_shards:
            raise ShardingError(
                f"partitioner returned shard {shard} for key {value!r} "
                f"(have {self.num_shards} shards)"
            )
        return shard

    def shard_of_row(self, table: str, row: Sequence[Any]) -> int:
        """The shard a stored row of a sharded table belongs to."""
        position = self.db.table(table).schema.position(self.shard_column(table))
        return self.shard_of_value(row[position])

    def shard_of_key(self, table: str, pk: Sequence[Any]) -> int:
        """The shard of the row with primary key ``pk`` — how hidden
        variables (bound to ``(table, pk, attr)``) map to shards."""
        return self.shard_of_row(table, self.db.table(table).get(pk))

    # ------------------------------------------------------------------
    def split(self) -> List[Database]:
        """Materialize the K sub-databases.

        Every shard carries the full schema (a shard may own zero rows
        of a table — legal, e.g. K greater than the number of
        documents); sharded tables receive exactly the rows whose shard
        key routes to them, replicated tables a full copy.
        """
        shards = [
            Database(f"{self.db.name}-shard{i}") for i in range(self.num_shards)
        ]
        for name in self.db.table_names():
            table = self.db.table(name)
            for shard in shards:
                shard.create_table(table.schema)
            if name.lower() in self._replicate:
                for shard in shards:
                    shard.table(name).insert_many(table.rows())
                continue
            position = table.schema.position(self.shard_column(name))
            buckets: List[List[Sequence[Any]]] = [[] for _ in shards]
            for row in table.rows():
                buckets[self.shard_of_value(row[position])].append(row)
            for shard, bucket in zip(shards, buckets):
                shard.table(name).insert_many(bucket)
        return shards
