"""The result store: every sweep cell in one SQLite file.

Every experiment and scenario grid is a list of cells keyed by their
``config_hash``; the executor probes the whole plan in one batched
:meth:`ResultStore.lookup_many` call and commits each computed chunk
in one :meth:`ResultStore.put_many` transaction, so a warm rerun
serves its tables without simulating anything.

The store is a single WAL-mode database, ``<directory>/cells.db``,
holding one table::

    CREATE TABLE cells (
        hash    TEXT PRIMARY KEY,   -- the cell's config_hash
        config  TEXT NOT NULL,      -- canonical identity JSON
        metrics TEXT NOT NULL       -- canonical metrics JSON
    )

with :data:`STORE_SCHEMA_VERSION` pinned in ``PRAGMA user_version`` —
a file written under another store schema refuses to open rather than
mis-serving rows.  Only the parent process writes (one ``put_many``
per committed chunk), WAL lets readers proceed while it does, and a
30 s busy timeout serializes concurrent processes sharing the file
(the switch to WAL, which SQLite does not route through that timeout,
is retried within the same budget).

Config integrity is enforced where rows enter: ``put_many`` derives
the key and the ``config`` text from the cell's canonical identity, and
WAL transactions rule out torn rows.  A probe therefore fetches only
``(hash, metrics)`` and reports ``corrupt`` when the stored metrics do
not parse back to a dict; the executor quarantines such rows
(:meth:`ResultStore.quarantine_many`) and recomputes them.
:func:`verify_store` is the deep counterpart — every row's config text
re-digested against its key — and, with :func:`store_info` and
:func:`vacuum_store`, backs the ``python -m repro cache`` subcommand.

Anything else in the directory — such as the ``<hh>/<hash>.json`` tree
or the ``shard-*.db`` files of earlier store layouts — is ignored;
their cells are simply recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Sequence

#: Bump when the stored entry payload layout or the SQLite row schema
#: changes, so a store written by older code is never silently read.
#: Pinned (with the row-identity surface below) by ``repro lint``'s
#: I001 lockfile check.
STORE_SCHEMA_VERSION = 1

#: The database file inside a cache directory.
STORE_FILE = "cells.db"

#: Rows per ``IN (...)`` query, comfortably under SQLite's default
#: 999-variable limit.
_SELECT_CHUNK = 512

#: Seconds a connection waits on another process's lock: SQLite's busy
#: timeout, and the budget of the WAL-switch retry in
#: :func:`_enable_wal`.
_BUSY_TIMEOUT = 30.0


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch ``conn``'s database to WAL, waiting out other openers.

    Changing the journal mode takes a lock that SQLite does not route
    through the busy handler, so a process racing other openers of a
    fresh file fails at once with "database is locked" despite the
    connection timeout.  This one statement is retried with exponential
    backoff (1 ms doubling, capped at 0.1 s) inside the same
    :data:`_BUSY_TIMEOUT` budget; any other error, or the budget running
    out, raises as before.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT
    delay = 0.001
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() > deadline:
                raise
        time.sleep(delay)
        delay = min(2 * delay, 0.1)


def _canonical(payload: dict) -> str:
    """The one canonical JSON dump used for identities and payloads.

    Identical to the serialization behind ``config_hash``
    (:meth:`repro.sweep.spec.SweepConfig.config_hash`), so a stored
    identity text can be hash-verified by re-digesting it directly.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class StoreEntry:
    """One cached cell as the store serializes it.

    The identity is the entry's full on-disk surface: the cell's
    canonical ``config`` identity dict plus its ``metrics`` payload.
    Changing these keys (or the dataclass fields) is a store-format
    change and must come with a :data:`STORE_SCHEMA_VERSION` bump —
    rule I001 pins this surface in ``cache_identity.lock``.
    """

    config: dict
    metrics: dict

    def identity(self) -> dict:
        return {
            "config": self.config,
            "metrics": self.metrics,
        }


class StoreOpenError(ValueError):
    """A cache directory that cannot serve as a result store."""


def open_store(directory: str) -> "ResultStore":
    """Open (creating if needed) the result store in ``directory``."""
    return ResultStore(directory)


class ResultStore:
    """The sweep cache: batched probes and commits over one database.

    Probe statuses are ``"hit"``, ``"miss"`` or ``"corrupt"``; corrupt
    rows are never served and never fail a sweep — they are recomputed
    like misses but counted separately so cache rot stays visible.
    """

    def __init__(self, directory: str) -> None:
        if not directory:
            raise StoreOpenError("cache path names no directory")
        self.directory = directory
        self.path = os.path.join(directory, STORE_FILE)
        try:
            os.makedirs(directory, exist_ok=True)
        except FileExistsError:
            raise StoreOpenError(
                f"cannot open result store {directory!r}: not a directory"
            ) from None
        except OSError as exc:
            raise StoreOpenError(
                f"cannot open result store {directory!r}: {exc.strerror}"
            ) from None
        try:
            self._conn = self._connect()
        except sqlite3.Error as exc:
            raise StoreOpenError(
                f"cannot open result store {self.path!r}: {exc}"
            ) from None

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT)
        try:
            conn.isolation_level = None  # explicit BEGIN/COMMIT below
            _enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            if version == 0:
                with _transaction(conn):
                    conn.execute(
                        "CREATE TABLE IF NOT EXISTS cells ("
                        "hash TEXT PRIMARY KEY, "
                        "config TEXT NOT NULL, "
                        "metrics TEXT NOT NULL)"
                    )
                    conn.execute(
                        f"PRAGMA user_version = {int(STORE_SCHEMA_VERSION)}"
                    )
            elif version != STORE_SCHEMA_VERSION:
                raise StoreOpenError(
                    f"cannot open result store {self.path!r}: it carries "
                    f"schema {version}, this code expects "
                    f"{STORE_SCHEMA_VERSION}; delete the file to rebuild "
                    "the cache"
                )
        except BaseException:
            conn.close()
            raise
        return conn

    def lookup_many(
        self, cells: Sequence
    ) -> tuple[dict[str, dict], dict[str, str]]:
        """Batched probe: ``(metrics_by_hash, status_by_hash)``."""
        all_hashes = list(map(attrgetter("config_hash"), cells))
        probe = dict.fromkeys(all_hashes)
        found: dict[str, dict] = {}
        corrupt: list[str] = []
        if probe:
            self._fetch(probe, found, corrupt)
        if len(found) == len(probe):
            statuses = dict.fromkeys(all_hashes, "hit")
        else:
            statuses = dict.fromkeys(all_hashes, "miss")
            statuses.update(dict.fromkeys(found, "hit"))
            statuses.update(dict.fromkeys(corrupt, "corrupt"))
        return found, statuses

    def _fetch(
        self, probe: dict, found: dict[str, dict], corrupt: list[str]
    ) -> None:
        """Resolve the probed hashes into ``found``/``corrupt``.

        A probe covering a large share of the table reads it as one
        sequential scan (a warm rerun's shape — index seeks cost more
        than the rows they skip); a sparse probe seeks via chunked
        ``IN`` lists.  Either way the rows arrive as comma-joined
        aggregate strings, and all metrics parse in one ``json.loads``.
        The batch is served only if it parses to exactly one dict per
        row; otherwise the row-at-a-time fallback sorts the good rows
        from the corrupt ones.  (Only a coordinated edit of several
        rows could pass this check with a text that is not an object
        on its own; an edit can write valid wrong metrics anyway, which
        no probe detects.)
        """
        conn = self._conn
        select = "SELECT group_concat(hash), group_concat(metrics) FROM cells"
        total = conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0]
        scanned = 2 * len(probe) >= total
        if scanned:
            batches = [conn.execute(select).fetchone()]
        else:
            hashes = list(probe)
            batches = []
            for start in range(0, len(hashes), _SELECT_CHUNK):
                chunk = hashes[start:start + _SELECT_CHUNK]
                marks = ",".join("?" * len(chunk))
                batches.append(conn.execute(
                    f"{select} WHERE hash IN ({marks})", chunk
                ).fetchone())
        batches = [batch for batch in batches if batch[0] is not None]
        if not batches:
            return
        hashes = ",".join(batch[0] for batch in batches).split(",")
        try:
            metrics = json.loads(
                "[" + ",".join(batch[1] for batch in batches) + "]"
            )
        except ValueError:
            metrics = None
        if (
            metrics is None
            or len(metrics) != len(hashes)
            or set(map(type, metrics)) != {dict}
        ):
            self._fetch_rows(list(probe), found, corrupt)
            return
        entries = dict(zip(hashes, metrics))
        if scanned and entries.keys() != probe.keys():
            entries = {h: entries[h] for h in probe if h in entries}
        found.update(entries)

    def _fetch_rows(
        self, probe: list[str], found: dict[str, dict], corrupt: list[str]
    ) -> None:
        """Row-at-a-time fallback that isolates corrupt rows."""
        for start in range(0, len(probe), _SELECT_CHUNK):
            chunk = probe[start:start + _SELECT_CHUNK]
            marks = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                f"SELECT hash, metrics FROM cells WHERE hash IN ({marks})",
                chunk,
            ).fetchall()
            for row_hash, metrics_text in rows:
                try:
                    metrics = json.loads(metrics_text)
                except (TypeError, ValueError):
                    corrupt.append(row_hash)
                    continue
                if type(metrics) is dict:
                    found[row_hash] = metrics
                else:
                    corrupt.append(row_hash)

    def put_many(self, items: Sequence[tuple[object, dict]]) -> None:
        """Write ``(cell, metrics)`` pairs in one transaction."""
        rows = []
        for config, metrics in items:
            entry = StoreEntry(config=config.identity(), metrics=metrics)
            rows.append((
                config.config_hash,
                _canonical(entry.config),
                _canonical(entry.metrics),
            ))
        with _transaction(self._conn):
            self._conn.executemany(
                "INSERT OR REPLACE INTO cells (hash, config, metrics) "
                "VALUES (?, ?, ?)",
                rows,
            )

    def quarantine_many(self, hashes: Sequence[str]) -> int:
        """Delete known-bad rows so the next probe is a clean miss.

        The executor calls this with every hash ``lookup_many``
        reported ``corrupt`` before recomputing them; the recompute's
        ``put_many`` then writes a fresh row — quarantine-and-overwrite,
        so a store self-heals instead of re-flagging the same rot every
        run.  Returns the number of rows deleted.
        """
        quarantined = 0
        with _transaction(self._conn):
            for start in range(0, len(hashes), _SELECT_CHUNK):
                chunk = list(hashes[start:start + _SELECT_CHUNK])
                marks = ",".join("?" * len(chunk))
                cursor = self._conn.execute(
                    f"DELETE FROM cells WHERE hash IN ({marks})", chunk
                )
                quarantined += cursor.rowcount
        return quarantined

    def count(self) -> int:
        """Number of stored rows."""
        return self._conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0]

    def close(self) -> None:
        """Release the connection (idempotent)."""
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()


@contextmanager
def _transaction(conn: sqlite3.Connection) -> Iterator[None]:
    """``BEGIN IMMEDIATE`` … ``COMMIT``, rolled back on any exception."""
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    conn.execute("COMMIT")


# ----------------------------------------------------------------------
# tooling: verify, info, vacuum (the `repro cache` subcommand)
# ----------------------------------------------------------------------
def _open_existing(directory: str) -> ResultStore:
    """The store of an existing cache directory; tooling creates nothing."""
    path = os.path.join(directory, STORE_FILE)
    if not os.path.isfile(path):
        raise StoreOpenError(f"no result store at {path!r}")
    return open_store(directory)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one full-store integrity scan."""

    checked: int
    corrupt: int
    repaired: int

    @property
    def ok(self) -> bool:
        """Whether the store ended the scan free of bad rows."""
        return self.corrupt == self.repaired

    def summary_line(self) -> str:
        return (
            f"checked={self.checked} corrupt={self.corrupt} "
            f"repaired={self.repaired}"
        )


def _row_is_sound(row_hash: str, config_text, metrics_text) -> bool:
    """Whether a row's config re-digests to its key over dict metrics."""
    try:
        config = json.loads(config_text)
        metrics = json.loads(metrics_text)
    except (TypeError, ValueError):
        return False
    if not isinstance(config, dict) or not isinstance(metrics, dict):
        return False
    digest = hashlib.sha256(_canonical(config).encode("utf-8")).hexdigest()
    return digest == row_hash


def verify_store(directory: str, repair: bool = False) -> VerifyReport:
    """Re-digest every stored row; optionally evict the bad ones.

    The deep counterpart of the probe-time corruption check: the
    canonical dump of each row's ``config`` must digest back to the
    hash it is keyed under, and its ``metrics`` must parse to a dict —
    exactly the invariant ``put_many`` enforces at write time, so a
    clean scan certifies the store serves only rows it would itself
    have written.  ``repair=True`` deletes each bad row so the next
    sweep recomputes it.  Backs ``repro cache verify``.
    """
    store = _open_existing(directory)
    try:
        checked = 0
        bad: list[str] = []
        for row in store._conn.execute(
            "SELECT hash, config, metrics FROM cells ORDER BY hash"
        ):
            checked += 1
            if not _row_is_sound(*row):
                bad.append(row[0])
        repaired = store.quarantine_many(bad) if repair and bad else 0
    finally:
        store.close()
    return VerifyReport(checked=checked, corrupt=len(bad), repaired=repaired)


def _file_bytes(path: str) -> int:
    """Size of the database plus its write-ahead log, if any."""
    return sum(
        os.path.getsize(name)
        for name in (path, f"{path}-wal")
        if os.path.exists(name)
    )


def store_info(directory: str) -> dict:
    """Entry count, schema and size of a cache directory's store."""
    store = _open_existing(directory)
    try:
        entries = store.count()
    finally:
        store.close()
    return {
        "bytes": _file_bytes(store.path),
        "entries": entries,
        "path": store.path,
        "schema": STORE_SCHEMA_VERSION,
    }


def vacuum_store(directory: str) -> dict:
    """``VACUUM`` the store; returns its size before and after."""
    store = _open_existing(directory)
    before = _file_bytes(store.path)
    try:
        store._conn.execute("VACUUM")
    finally:
        store.close()
    return {"bytes_after": _file_bytes(store.path), "bytes_before": before}
