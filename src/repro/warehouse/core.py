"""The :class:`Warehouse` handle and :func:`open_warehouse` factory.

A warehouse is a directory (or ``":memory:"`` for tests and one-shot
scripts) holding a single stdlib ``sqlite3`` database in WAL mode --
concurrent readers never block the writer and vice versa -- plus the
writer lock::

    wh = open_warehouse("results/warehouse")   # created on first open

All rows live in one generic ``rows`` table with a ``UNIQUE(tbl, key)``
constraint, so idempotent re-ingest is a constraint check, not
application logic.  Multi-process writers serialize on a
:class:`~repro.scenarios.store.CommitLock`-style ``flock`` on
``<root>/.warehouse.lock``; reads take no lock.

Row iteration returns ``(seq, key, row)`` sorted by **key**, not by
insertion order: two warehouses fed the same data by concurrently
racing ingesters enumerate identically.  All query logic lives in
:mod:`repro.warehouse.query` as pure functions over those sorted row
streams.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
from pathlib import Path
from typing import Any, Iterator

from repro.scenarios.store import CommitLock

LOCK_FILENAME = ".warehouse.lock"
SQLITE_FILENAME = "warehouse.sqlite"
# Where warehouses written by the retired JSONL backend kept their
# tables.  Such a directory has no database; opening it must fail
# instead of creating an empty one beside the old tables.
JSONL_TABLES_DIRNAME = "tables"


class Warehouse:
    """Append keyed rows, stream tables, vacuum.  Use
    :func:`open_warehouse` to construct."""

    def __init__(self, root: Path | None, lock_timeout: float = 30.0) -> None:
        self.root = root
        if root is not None:
            root.mkdir(parents=True, exist_ok=True)
            db_path = str(root / SQLITE_FILENAME)
        else:
            db_path = ":memory:"
        self._lock_timeout = lock_timeout
        # check_same_thread=False: the query edge serves from
        # http.server handler threads; every access here is either a
        # single statement or wrapped in the writer flock.
        self._conn = sqlite3.connect(db_path, timeout=lock_timeout,
                                     check_same_thread=False)
        if root is not None:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS rows ("
            " seq INTEGER PRIMARY KEY AUTOINCREMENT,"
            " tbl TEXT NOT NULL,"
            " key TEXT NOT NULL,"
            " data TEXT NOT NULL,"
            " UNIQUE(tbl, key))")
        self._conn.commit()

    def _writer_lock(self):
        if self.root is None:
            # In-memory: one process by construction, nothing on disk.
            return contextlib.nullcontext()
        return CommitLock(self.root / LOCK_FILENAME,
                          timeout=self._lock_timeout)

    def append_rows(self, table: str,
                    keyed_rows: list[tuple[str, dict[str, Any]]],
                    ) -> tuple[int, int]:
        """Insert ``(key, row)`` pairs; returns ``(inserted,
        duplicates)``.  A key already present leaves the stored row
        untouched (append-only: first write wins for a given key)."""
        if not keyed_rows:
            return 0, 0
        with self._writer_lock():
            cursor = self._conn.executemany(
                "INSERT OR IGNORE INTO rows (tbl, key, data) "
                "VALUES (?, ?, ?)",
                [(table, key, json.dumps(row, sort_keys=True))
                 for key, row in keyed_rows])
            self._conn.commit()
            inserted = cursor.rowcount if cursor.rowcount >= 0 else 0
        return inserted, len(keyed_rows) - inserted

    def rows(self, table: str) -> Iterator[tuple[int, str, dict]]:
        cursor = self._conn.execute(
            "SELECT seq, key, data FROM rows WHERE tbl = ? ORDER BY key",
            (table,))
        for seq, key, data in cursor:
            yield int(seq), str(key), json.loads(data)

    def counts(self) -> dict[str, int]:
        cursor = self._conn.execute(
            "SELECT tbl, COUNT(*) FROM rows GROUP BY tbl ORDER BY tbl")
        return {str(tbl): int(n) for tbl, n in cursor}

    def _delete_keys(self, table: str, keys: list[str]) -> int:
        if not keys:
            return 0
        with self._writer_lock():
            cursor = self._conn.executemany(
                "DELETE FROM rows WHERE tbl = ? AND key = ?",
                [(table, key) for key in keys])
            self._conn.commit()
            return cursor.rowcount if cursor.rowcount >= 0 else 0

    def vacuum(self) -> dict[str, int]:
        """Drop superseded duplicates, then compact the storage.

        Append-only ingest keeps every content version of a row; for
        rows sharing a logical identity (same key prefix up to the
        content digest -- e.g. a re-ingested run that genuinely
        changed), only the most recently inserted version survives a
        vacuum.  Returns ``{table: rows_removed}``.
        """
        removed: dict[str, int] = {}
        for table in sorted(self.counts()):
            latest: dict[str, tuple[int, str]] = {}
            drop: list[str] = []
            for seq, key, _row in self.rows(table):
                identity = key.rsplit("|", 1)[0]
                prior = latest.get(identity)
                if prior is None:
                    latest[identity] = (seq, key)
                elif seq > prior[0]:
                    drop.append(prior[1])
                    latest[identity] = (seq, key)
                else:
                    drop.append(key)
            count = self._delete_keys(table, drop)
            if count:
                removed[table] = count
        with self._writer_lock():
            self._conn.execute("VACUUM")
            self._conn.commit()
        return removed

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_warehouse(target: "str | Path | Warehouse",
                   lock_timeout: float = 30.0) -> Warehouse:
    """Open (creating if needed) the warehouse at ``target``.

    ``target`` may be a directory path, ``":memory:"`` (private
    in-process sqlite, for tests and one-shot scripts), or an existing
    :class:`Warehouse` (returned as-is, so APIs can accept either).
    A directory holding only an old JSONL-backend warehouse raises
    ``ValueError``: its rows cannot be read here, and an empty
    database created beside them would answer every query with
    nothing.
    """
    if isinstance(target, Warehouse):
        return target
    if str(target) == ":memory:":
        return Warehouse(None)
    root = Path(target)
    if ((root / JSONL_TABLES_DIRNAME).is_dir()
            and not (root / SQLITE_FILENAME).exists()):
        raise ValueError(
            f"{root} is a JSONL warehouse, which is no longer supported; "
            f"re-ingest its campaign stores and BENCH_*.json snapshots "
            f"into a new warehouse directory (python -m repro.warehouse "
            f"ingest --db <new dir> ...)")
    return Warehouse(root, lock_timeout=lock_timeout)
