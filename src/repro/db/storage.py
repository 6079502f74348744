"""Snapshot persistence.

The paper's prototype kept worlds in Apache Derby on disk; our engine
is memory-resident, so durability is provided by explicit snapshot
files.  The format is line-oriented JSON: a header per table followed
by one line per row.  It is deliberately simple and public API only:
nothing else in the library uses it (benchmarks regenerate their
corpora from seeds, and chain workers receive their worlds as pickled
payloads, see :mod:`repro.core.backends`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.db.database import Database
from repro.db.schema import Attribute, Schema
from repro.db.types import AttrType
from repro.errors import IntegrityError

__all__ = ["save_database", "load_database"]

_FORMAT_VERSION = 1


def save_database(db: Database, path: str | Path) -> None:
    """Write all tables of ``db`` to ``path`` (overwrites)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": _FORMAT_VERSION, "name": db.name}) + "\n")
        for table_name in db.table_names():
            table = db.table(table_name)
            header = {
                "table": table.schema.name,
                "columns": [
                    [a.name, a.attr_type.value] for a in table.schema.attributes
                ],
                "key": list(table.schema.key),
                "rows": len(table),
            }
            fh.write(json.dumps(header) + "\n")
            for row in table.rows():
                fh.write(json.dumps(list(row)) + "\n")


def load_database(path: str | Path) -> Database:
    """Load a database previously written by :func:`save_database`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        preamble = json.loads(fh.readline())
        if preamble.get("format") != _FORMAT_VERSION:
            raise IntegrityError(f"unsupported snapshot format in {path}")
        db = Database(preamble.get("name", "world"))
        line = fh.readline()
        while line:
            header = json.loads(line)
            schema = Schema(
                header["table"],
                [Attribute(name, AttrType(kind)) for name, kind in header["columns"]],
                key=header["key"],
            )
            table = db.create_table(schema)
            for _ in range(header["rows"]):
                row_line = fh.readline()
                if not row_line:
                    raise IntegrityError(f"truncated snapshot file {path}")
                table.insert(json.loads(row_line))
            line = fh.readline()
    return db
