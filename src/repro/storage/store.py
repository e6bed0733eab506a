"""SQLite-backed store for extracted sustainability objectives."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import sqlite3
import time
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path

from repro.goalspotter.pipeline import ExtractedRecord
from repro.normalize import normalize_details

#: Schema version written to ``PRAGMA user_version``. v2 added the
#: multi-year provenance columns (``reporting_year``,
#: ``extractor_fingerprint``) and the ``(company, reporting_year)``
#: index; v3 added the content-addressed ``record_digest`` column (and
#: its index) that makes re-publishing idempotent under durable-run
#: resume. Older databases are migrated in place on open.
SCHEMA_VERSION = 3

_SCHEMA = """
CREATE TABLE IF NOT EXISTS objectives (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    company TEXT NOT NULL,
    report_id TEXT NOT NULL,
    page INTEGER NOT NULL,
    objective TEXT NOT NULL,
    action TEXT NOT NULL DEFAULT '',
    amount TEXT NOT NULL DEFAULT '',
    qualifier TEXT NOT NULL DEFAULT '',
    baseline TEXT NOT NULL DEFAULT '',
    deadline TEXT NOT NULL DEFAULT '',
    score REAL NOT NULL DEFAULT 0.0,
    -- normalized (typed) columns, populated on insert:
    action_direction TEXT NOT NULL DEFAULT 'unknown',
    amount_kind TEXT NOT NULL DEFAULT 'unknown',
    amount_value REAL,
    baseline_year INTEGER,
    deadline_year INTEGER,
    -- v2/v3 columns (must stay last, newest last: migrations append
    -- them with ALTER TABLE, and SELECT * order feeds StoredObjective):
    reporting_year INTEGER,
    extractor_fingerprint TEXT NOT NULL DEFAULT '',
    record_digest TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_objectives_company ON objectives (company);
CREATE INDEX IF NOT EXISTS idx_objectives_deadline ON objectives (deadline);
CREATE INDEX IF NOT EXISTS idx_objectives_deadline_year
    ON objectives (deadline_year);
CREATE INDEX IF NOT EXISTS idx_objectives_company_year
    ON objectives (company, reporting_year);
CREATE INDEX IF NOT EXISTS idx_objectives_digest
    ON objectives (record_digest);
"""

#: Columns appended by the v1->v2 and v2->v3 migrations, in schema order.
_V2_COLUMNS = (
    ("reporting_year", "INTEGER"),
    ("extractor_fingerprint", "TEXT NOT NULL DEFAULT ''"),
)
_V3_COLUMNS = (("record_digest", "TEXT NOT NULL DEFAULT ''"),)

def record_digest(
    record: ExtractedRecord,
    *,
    extractor_fingerprint: str = "",
    ordinal: int = 0,
) -> str:
    """Content address of one record for idempotent re-publishing.

    SHA-256 over the record's full identity: provenance (company,
    report, page, reporting year), content (objective, details in
    sorted-key order, exact score via ``float.hex``, status), the
    producing model's weight fingerprint, and ``ordinal`` — the record's
    occurrence index among byte-identical twins *within one published
    batch*, which keeps genuine duplicate rows distinct while making a
    re-publish of the same batch map onto the same digests.
    """
    payload = [
        record.company,
        record.report_id,
        int(record.page),
        getattr(record, "reporting_year", None),
        record.objective,
        sorted(record.details.items()),
        float(record.score).hex(),
        getattr(record, "status", ""),
        extractor_fingerprint,
        int(ordinal),
    ]
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _batch_digests(
    records: Sequence[ExtractedRecord], extractor_fingerprint: str
) -> list[str]:
    """Per-record digests with in-batch occurrence ordinals."""
    seen: dict[str, int] = {}
    digests: list[str] = []
    for record in records:
        base = record_digest(
            record, extractor_fingerprint=extractor_fingerprint, ordinal=0
        )
        ordinal = seen.get(base, 0)
        seen[base] = ordinal + 1
        digests.append(
            base
            if ordinal == 0
            else record_digest(
                record,
                extractor_fingerprint=extractor_fingerprint,
                ordinal=ordinal,
            )
        )
    return digests


_FIELD_COLUMNS = {
    "Action": "action",
    "Amount": "amount",
    "Qualifier": "qualifier",
    "Baseline": "baseline",
    "Deadline": "deadline",
}


@dataclasses.dataclass(frozen=True)
class StoredObjective:
    """A row read back from the objectives table."""

    id: int
    company: str
    report_id: str
    page: int
    objective: str
    action: str
    amount: str
    qualifier: str
    baseline: str
    deadline: str
    score: float
    action_direction: str = "unknown"
    amount_kind: str = "unknown"
    amount_value: float | None = None
    baseline_year: int | None = None
    deadline_year: int | None = None
    reporting_year: int | None = None
    extractor_fingerprint: str = ""
    record_digest: str = ""  # v3: content address ('' on pre-v3 rows)

    @property
    def details(self) -> dict[str, str]:
        return {
            "Action": self.action,
            "Amount": self.amount,
            "Qualifier": self.qualifier,
            "Baseline": self.baseline,
            "Deadline": self.deadline,
        }

    @property
    def specificity(self) -> int:
        """How many of the five key details are filled (paper Section 5.1:
        companies 'more specific in terms of indicating the exact amount of
        change and the timeline')."""
        return sum(1 for value in self.details.values() if value)


class ObjectiveStore:
    """A structured database of extracted sustainability objectives.

    Use as a context manager or call :meth:`close` explicitly. Pass
    ``":memory:"`` (default) for an ephemeral store.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self._conn = sqlite3.connect(str(path))
        self._migrate()
        self._conn.executescript(_SCHEMA)
        self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        self._conn.commit()

    def _migrate(self) -> None:
        """Bring an older database up to the current schema in place.

        v1 databases carry ``user_version`` 0 and lack the provenance
        columns; v2 lacks ``record_digest``. Missing columns are added
        via ``ALTER TABLE ADD COLUMN`` (appended last, preserving
        ``SELECT *`` order) with NULL/''-backfill — pre-v3 rows keep an
        empty digest, which the dedupe path never matches against. The
        index creation itself is idempotent via ``_SCHEMA``.
        """
        version = int(
            self._conn.execute("PRAGMA user_version").fetchone()[0]
        )
        if version >= SCHEMA_VERSION:
            return
        tables = {
            row[0]
            for row in self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if "objectives" not in tables:
            return  # fresh database: _SCHEMA creates everything current
        existing = {
            row[1]
            for row in self._conn.execute("PRAGMA table_info(objectives)")
        }
        with self._conn:
            for column, decl in _V2_COLUMNS + _V3_COLUMNS:
                if column not in existing:
                    self._conn.execute(
                        f"ALTER TABLE objectives ADD COLUMN {column} {decl}"
                    )

    @property
    def schema_version(self) -> int:
        """The on-disk schema version (``PRAGMA user_version``)."""
        return int(self._conn.execute("PRAGMA user_version").fetchone()[0])

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ObjectiveStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (for ad-hoc analyst queries)."""
        return self._conn

    # -- writes ----------------------------------------------------------------

    def insert_records(
        self,
        records: Iterable[ExtractedRecord],
        *,
        extractor_fingerprint: str = "",
        dedupe: bool = False,
    ) -> int:
        """Insert pipeline records (normalizing on the way in).

        ``extractor_fingerprint`` stamps every inserted row with the
        producing model's weight fingerprint
        (:meth:`repro.nn.module.Module.fingerprint`) so downstream
        multi-year analysis can tell extractor upgrades apart from
        objective drift. The per-record ``reporting_year`` (when the
        record carries one) lands in the v2 column; every row also gets
        a content-addressed :func:`record_digest` (v3 column).

        With ``dedupe=True`` records whose digest is already in the
        table are skipped — the durable-run resume path, where a crashed
        run may re-publish a batch it already committed. Batches with
        genuinely identical twin rows stay intact (occurrence ordinals
        keep the twins' digests distinct).

        Returns the number of rows actually added.
        """
        records = list(records)
        digests = _batch_digests(records, extractor_fingerprint)
        if dedupe:
            existing = {
                row[0]
                for row in self._conn.execute(
                    "SELECT record_digest FROM objectives"
                    " WHERE record_digest != ''"
                )
            }
            keep = [
                index
                for index in range(len(records))
                if digests[index] not in existing
            ]
            records = [records[index] for index in keep]
            digests = [digests[index] for index in keep]
        rows = []
        for record, digest in zip(records, digests):
            normalized = normalize_details(record.details)
            rows.append(
                (
                    record.company,
                    record.report_id,
                    record.page,
                    record.objective,
                    record.details.get("Action", ""),
                    record.details.get("Amount", ""),
                    record.details.get("Qualifier", ""),
                    record.details.get("Baseline", ""),
                    record.details.get("Deadline", ""),
                    record.score,
                    normalized.action.value,
                    normalized.amount.kind.value,
                    normalized.amount.value,
                    normalized.baseline_year,
                    normalized.deadline_year,
                    getattr(record, "reporting_year", None),
                    extractor_fingerprint,
                    digest,
                )
            )
        with self._conn:
            self._conn.executemany(
                "INSERT INTO objectives (company, report_id, page, objective,"
                " action, amount, qualifier, baseline, deadline, score,"
                " action_direction, amount_kind, amount_value,"
                " baseline_year, deadline_year,"
                " reporting_year, extractor_fingerprint, record_digest)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?,"
                " ?)",
                rows,
            )
        return len(rows)

    # -- reads -----------------------------------------------------------------

    @staticmethod
    def _row_to_objective(row: Sequence) -> StoredObjective:
        return StoredObjective(*row)

    def count(self, company: str | None = None) -> int:
        if company is None:
            cursor = self._conn.execute("SELECT COUNT(*) FROM objectives")
        else:
            cursor = self._conn.execute(
                "SELECT COUNT(*) FROM objectives WHERE company = ?",
                (company,),
            )
        return int(cursor.fetchone()[0])

    def companies(self) -> list[str]:
        cursor = self._conn.execute(
            "SELECT DISTINCT company FROM objectives ORDER BY company"
        )
        return [row[0] for row in cursor.fetchall()]

    def reporting_years(self, company: str | None = None) -> list[int]:
        """Distinct reporting years present (optionally for one company)."""
        sql = (
            "SELECT DISTINCT reporting_year FROM objectives"
            " WHERE reporting_year IS NOT NULL"
        )
        params: list = []
        if company is not None:
            sql += " AND company = ?"
            params.append(company)
        cursor = self._conn.execute(sql + " ORDER BY reporting_year", params)
        return [int(row[0]) for row in cursor.fetchall()]

    def query(
        self,
        company: str | None = None,
        has_field: str | None = None,
        deadline_before: str | None = None,
        deadline_after: str | None = None,
        min_score: float | None = None,
        reporting_year: int | None = None,
        min_reporting_year: int | None = None,
        max_reporting_year: int | None = None,
        limit: int | None = None,
        order_by_score: bool = False,
    ) -> list[StoredObjective]:
        """Filter objectives on the structured columns.

        Args:
            company: exact company filter.
            has_field: schema field name that must be non-empty
                (e.g. ``"Deadline"``).
            deadline_before / deadline_after: lexicographic year bounds
                (years are 4-digit strings, so this is chronological).
            min_score: minimum detector confidence.
            reporting_year: exact reporting-year filter (v2 column;
                hits the ``(company, reporting_year)`` index when
                combined with ``company``).
            min_reporting_year / max_reporting_year: inclusive
                reporting-year range bounds.
            limit: cap on returned rows.
            order_by_score: sort by detector confidence, best first.
        """
        clauses: list[str] = []
        params: list = []
        if company is not None:
            clauses.append("company = ?")
            params.append(company)
        if reporting_year is not None:
            clauses.append("reporting_year = ?")
            params.append(reporting_year)
        if min_reporting_year is not None:
            clauses.append(
                "reporting_year IS NOT NULL AND reporting_year >= ?"
            )
            params.append(min_reporting_year)
        if max_reporting_year is not None:
            clauses.append(
                "reporting_year IS NOT NULL AND reporting_year <= ?"
            )
            params.append(max_reporting_year)
        if has_field is not None:
            column = _FIELD_COLUMNS.get(has_field)
            if column is None:
                raise KeyError(f"unknown field {has_field!r}")
            clauses.append(f"{column} != ''")
        if deadline_before is not None:
            clauses.append("deadline != '' AND deadline <= ?")
            params.append(deadline_before)
        if deadline_after is not None:
            clauses.append("deadline != '' AND deadline >= ?")
            params.append(deadline_after)
        if min_score is not None:
            clauses.append("score >= ?")
            params.append(min_score)
        sql = "SELECT * FROM objectives"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        if order_by_score:
            sql += " ORDER BY score DESC"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        cursor = self._conn.execute(sql, params)
        return [self._row_to_objective(row) for row in cursor.fetchall()]

    def field_fill_rates(self) -> dict[str, float]:
        """Fraction of stored objectives with each detail filled."""
        total = self.count()
        if total == 0:
            return {field: 0.0 for field in _FIELD_COLUMNS}
        rates: dict[str, float] = {}
        for field, column in _FIELD_COLUMNS.items():
            cursor = self._conn.execute(
                f"SELECT COUNT(*) FROM objectives WHERE {column} != ''"
            )
            rates[field] = int(cursor.fetchone()[0]) / total
        return rates


def atomic_store_records(
    path: str | Path,
    records: Sequence[ExtractedRecord],
    *,
    retry_policy=None,
    fault_injector=None,
    dedupe: bool = False,
    extractor_fingerprint: str = "",
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Insert ``records`` into the store at ``path`` atomically.

    The write happens against a temp copy of the database which then
    replaces the original via ``os.replace`` (atomic on POSIX), so a crash
    or fault at any point leaves the original file untouched — the batch
    either lands completely or not at all. Retryable under ``retry_policy``
    (a :class:`repro.runtime.resilience.RetryPolicy`); the optional
    ``fault_injector`` is checked at the ``"store"`` stage (call entry) and
    ``"store_commit"`` (after the temp write, before the rename) for crash
    simulation.

    ``dedupe=True`` makes the call idempotent: rows whose
    content-addressed :func:`record_digest` already exists in the store
    are skipped, so a resumed durable run re-publishing a batch it
    already committed never double-inserts.

    Returns the number of rows actually added.
    """
    from repro.runtime.resilience import run_stage

    path = Path(path)
    if str(path) == ":memory:":
        raise ValueError("atomic writes need a file-backed store")
    tmp = path.with_name(path.name + ".tmp")

    def attempt() -> int:
        if tmp.exists():
            tmp.unlink()
        try:
            if path.exists():
                shutil.copy2(path, tmp)
            with ObjectiveStore(tmp) as store:
                added = store.insert_records(
                    records,
                    extractor_fingerprint=extractor_fingerprint,
                    dedupe=dedupe,
                )
            with open(tmp, "rb") as handle:
                os.fsync(handle.fileno())
            if fault_injector is not None:
                fault_injector.check("store_commit")
            os.replace(tmp, path)
            # Durability of the rename itself, not just the file bytes:
            # without the directory fsync a crash can roll back os.replace.
            from repro.runtime.checkpoint import fsync_dir

            fsync_dir(path.parent)
            return added
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    return run_stage(
        attempt,
        stage="store",
        policy=retry_policy,
        injector=fault_injector,
        sleep=sleep,
    )
