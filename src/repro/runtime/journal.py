"""Crash-safe run journal for corpus extraction (DESIGN §6c).

Training became durable in PR 5 (:mod:`repro.runtime.checkpoint`); this
module gives *inference* runs the same guarantee. A :class:`RunJournal`
is a write-ahead log for one corpus run:

* ``MANIFEST.json`` — written atomically before any work starts; binds
  the journal to a config/weight fingerprint, an input digest, and the
  exact segment plan. Resuming against a different model, corpus, or
  plan is refused with :class:`ArtifactError` instead of silently mixing
  results.
* ``journal.jsonl`` — an append-only JSONL WAL. Each line is
  ``<sha256-of-body> <compact-json-body>\\n``; each committed segment is
  flushed and fsync'd before :meth:`commit_segment` returns, so a kill
  at *any* instant leaves either a fully-committed segment or no trace
  of it. A torn final line (crash mid-append) is detected by its
  checksum / missing newline and truncated away on replay; corruption
  anywhere earlier is a hard :class:`ArtifactError`.

Segment bodies carry the result rows themselves plus a content-addressed
digest, so replay both restores the rows and re-verifies them.  Row
payloads are encoded compactly but **without** key sorting — insertion
order round-trips, and Python's shortest-repr float coding means a
replayed row is byte-identical to the freshly computed one.  That is the
foundation of the tentpole guarantee: resume output is bitwise-identical
to an uninterrupted run.

Commits are idempotent first-write-wins (the PR 7 at-least-once
pattern): a reaped worker's late duplicate commit is discarded after a
digest cross-check, which is what lets the :class:`RunSupervisor`
re-grant leases without double-counting results.

Crash sites for the chaos tests: ``journal_commit`` (before anything is
written) and ``journal_publish`` (after the OS write, before fsync).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, Sequence

from repro.runtime.checkpoint import atomic_write_json, fsync_dir, read_json
from repro.runtime.errors import ArtifactError
from repro.runtime.resilience import FaultInjector

__all__ = [
    "JOURNAL_NAME",
    "JOURNAL_SCHEMA_VERSION",
    "JournalSegment",
    "MANIFEST_NAME",
    "RunJournal",
    "input_digest",
    "rows_digest",
]

JOURNAL_SCHEMA_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"
JOURNAL_NAME = "journal.jsonl"


def _canonical_bytes(payload: object) -> bytes:
    """Compact JSON bytes preserving dict insertion order.

    No ``sort_keys``: row dicts must round-trip in their original key
    order so replayed output is byte-identical to a live run.
    """
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def rows_digest(rows: Sequence[object]) -> str:
    """Content address of a segment's result rows."""
    return hashlib.sha256(_canonical_bytes(list(rows))).hexdigest()


def input_digest(texts: Iterable[str]) -> str:
    """Content address of the run's input corpus (order-sensitive)."""
    hasher = hashlib.sha256()
    for text in texts:
        data = text.encode("utf-8")
        hasher.update(str(len(data)).encode("ascii"))
        hasher.update(b":")
        hasher.update(data)
    return hasher.hexdigest()


@dataclasses.dataclass(frozen=True)
class JournalSegment:
    """One durably committed unit of work."""

    index: int
    start: int
    stop: int
    digest: str
    rows: tuple
    quarantine: tuple


class RunJournal:
    """Append-only, checksummed WAL of per-segment completion.

    Args:
        directory: run directory (created if missing); holds
            ``MANIFEST.json`` and ``journal.jsonl``.
        resume: when False, any existing journal/manifest in the
            directory is wiped at :meth:`begin` instead of replayed.
        fault_injector: optional injector for the ``journal_commit`` /
            ``journal_publish`` crash sites.

    Counters (``stats()``): ``commits`` (segments durably appended this
    process), ``duplicate_commits`` (idempotent re-commits discarded),
    ``replayed_segments`` (restored from disk at begin), plus
    ``truncated_tail`` when a torn final line was cut away.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        resume: bool = True,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.resume = resume
        self.fault_injector = fault_injector
        self.manifest: dict | None = None
        self.segments: dict[int, JournalSegment] = {}
        self.complete = False
        self.result_digest: str | None = None
        self.commits = 0
        self.duplicate_commits = 0
        self.replayed_segments = 0
        self.truncated_tail = False

    # -- paths ---------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    # -- lifecycle -----------------------------------------------------------

    def begin(
        self,
        *,
        kind: str,
        config_hash: str,
        input_digest: str,
        num_items: int,
        segments: Sequence[tuple[int, int]],
        extra: dict | None = None,
    ) -> None:
        """Bind the journal to a run identity and replay committed work.

        First call in a fresh directory writes the manifest atomically;
        a resume call verifies the on-disk manifest matches (config
        hash, input digest, item count, and the exact segment plan) and
        replays ``journal.jsonl``. Any mismatch — resuming with a
        retrained model, an edited corpus, or a different segmenting —
        raises :class:`ArtifactError` rather than mixing results.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "kind": kind,
            "config_hash": config_hash,
            "input_digest": input_digest,
            "num_items": int(num_items),
            "segments": [[int(s), int(e)] for s, e in segments],
            "extra": dict(extra or {}),
        }
        if not self.resume:
            self._wipe()
        if self.manifest_path.exists():
            on_disk = read_json(self.manifest_path)
            if not isinstance(on_disk, dict):
                raise ArtifactError(
                    "run manifest is not a JSON object",
                    path=str(self.manifest_path),
                )
            for key, value in manifest.items():
                if key == "extra":
                    continue
                if on_disk.get(key) != value:
                    raise ArtifactError(
                        f"run manifest mismatch on {key!r}: journal was "
                        f"written for {on_disk.get(key)!r}, resume "
                        f"requested {value!r}",
                        path=str(self.manifest_path),
                        expected=str(value),
                        actual=str(on_disk.get(key)),
                    )
            self.manifest = on_disk
        else:
            atomic_write_json(self.manifest_path, manifest)
            self.manifest = manifest
        self._replay()

    def _wipe(self) -> None:
        for path in (self.journal_path, self.manifest_path):
            if path.exists():
                os.unlink(path)
        fsync_dir(self.directory)
        self.segments.clear()
        self.complete = False
        self.result_digest = None

    # -- replay --------------------------------------------------------------

    def _replay(self) -> None:
        self.segments.clear()
        self.complete = False
        self.result_digest = None
        if not self.journal_path.exists():
            return
        raw = self.journal_path.read_bytes()
        good_end = 0
        offset = 0
        bodies: list[dict] = []
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                # Torn tail: the process died mid-append. Everything up
                # to ``good_end`` is intact; cut the partial line away.
                self._truncate(good_end)
                break
            line = raw[offset:newline]
            body = self._decode_line(line)
            if body is None:
                if newline == len(raw) - 1:
                    # Checksum-failed *final* line: also a torn write
                    # (e.g. the tail of a line from a dead page cache).
                    self._truncate(good_end)
                    break
                raise ArtifactError(
                    "run journal corrupted mid-file (checksum mismatch "
                    f"at byte {offset})",
                    path=str(self.journal_path),
                )
            bodies.append(body)
            offset = newline + 1
            good_end = offset
        for body in bodies:
            self._apply(body)
        self.replayed_segments = len(self.segments)

    def _decode_line(self, line: bytes) -> dict | None:
        parts = line.split(b" ", 1)
        if len(parts) != 2:
            return None
        digest, body = parts
        if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
            return None
        try:
            payload = json.loads(body)
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def _truncate(self, good_end: int) -> None:
        self.truncated_tail = True
        with open(self.journal_path, "r+b") as handle:
            handle.truncate(good_end)
            handle.flush()
            os.fsync(handle.fileno())

    def _apply(self, body: dict) -> None:
        entry_type = body.get("type")
        if entry_type == "segment":
            index = int(body["index"])
            self._check_bounds(index, int(body["start"]), int(body["stop"]))
            segment = JournalSegment(
                index=index,
                start=int(body["start"]),
                stop=int(body["stop"]),
                digest=str(body["digest"]),
                rows=tuple(body["rows"]),
                quarantine=tuple(body.get("quarantine", [])),
            )
            if rows_digest(segment.rows) != segment.digest:
                raise ArtifactError(
                    f"segment {index} rows do not match their recorded "
                    "digest",
                    path=str(self.journal_path),
                    expected=segment.digest,
                    actual=rows_digest(segment.rows),
                )
            if index in self.segments:
                # Late duplicate from a reaped worker: first write wins.
                self.duplicate_commits += 1
                return
            self.segments[index] = segment
        elif entry_type == "complete":
            expected = self._result_digest()
            if len(self.segments) != self._num_segments():
                raise ArtifactError(
                    "run journal marked complete with "
                    f"{len(self.segments)}/{self._num_segments()} "
                    "segments committed",
                    path=str(self.journal_path),
                )
            if body.get("result_digest") != expected:
                raise ArtifactError(
                    "run journal completion digest mismatch",
                    path=str(self.journal_path),
                    expected=expected,
                    actual=str(body.get("result_digest")),
                )
            self.complete = True
            self.result_digest = expected
        else:
            raise ArtifactError(
                f"unknown journal entry type {entry_type!r}",
                path=str(self.journal_path),
            )

    def _check_bounds(self, index: int, start: int, stop: int) -> None:
        plan = (self.manifest or {}).get("segments", [])
        if index < 0 or index >= len(plan):
            raise ArtifactError(
                f"journal segment index {index} outside the manifest "
                f"plan of {len(plan)} segments",
                path=str(self.journal_path),
            )
        if plan[index] != [start, stop]:
            raise ArtifactError(
                f"journal segment {index} bounds [{start}, {stop}] do "
                f"not match the manifest plan {plan[index]}",
                path=str(self.journal_path),
            )

    # -- commits -------------------------------------------------------------

    def commit_segment(
        self,
        index: int,
        rows: Sequence[object],
        *,
        quarantine: Sequence[dict] = (),
    ) -> bool:
        """Durably append one finished segment; returns False on a dupe.

        The entry is checksummed, appended, flushed, and fsync'd before
        this returns — after that, no crash can lose it. Re-committing
        an index already on disk is a no-op (first write wins); a
        re-execution producing *different* bytes for the same segment
        would break the bitwise guarantee and raises.
        """
        if self.manifest is None:
            raise ArtifactError("commit_segment before begin()")
        if self.fault_injector is not None:
            self.fault_injector.check("journal_commit")
        segment = JournalSegment(
            index=int(index),
            start=int(self.manifest["segments"][index][0]),
            stop=int(self.manifest["segments"][index][1]),
            digest=rows_digest(rows),
            rows=tuple(rows),
            quarantine=tuple(quarantine),
        )
        existing = self.segments.get(segment.index)
        if existing is not None:
            if existing.digest != segment.digest:
                raise ArtifactError(
                    f"segment {index} re-commit produced different "
                    "results than the committed ones",
                    path=str(self.journal_path),
                    expected=existing.digest,
                    actual=segment.digest,
                )
            self.duplicate_commits += 1
            return False
        self._append(
            {
                "type": "segment",
                "index": segment.index,
                "start": segment.start,
                "stop": segment.stop,
                "digest": segment.digest,
                "rows": list(segment.rows),
                "quarantine": list(segment.quarantine),
            }
        )
        self.segments[segment.index] = segment
        self.commits += 1
        return True

    def mark_complete(self) -> None:
        """Append the completion record once every segment is committed."""
        if self.complete:
            return
        if len(self.segments) != self._num_segments():
            raise ArtifactError(
                "cannot mark run complete: "
                f"{len(self.segments)}/{self._num_segments()} segments "
                "committed"
            )
        digest = self._result_digest()
        self._append({"type": "complete", "result_digest": digest})
        self.complete = True
        self.result_digest = digest

    def _append(self, body: dict) -> None:
        data = _canonical_bytes(body)
        line = (
            hashlib.sha256(data).hexdigest().encode("ascii")
            + b" "
            + data
            + b"\n"
        )
        created = not self.journal_path.exists()
        with open(self.journal_path, "ab") as handle:
            handle.write(line)
            handle.flush()
            if self.fault_injector is not None:
                # Crash window between the OS write and the fsync: the
                # bytes may or may not survive — replay's torn-tail
                # handling must cope with both.
                self.fault_injector.check("journal_publish")
            os.fsync(handle.fileno())
        if created:
            fsync_dir(self.directory)

    # -- views ---------------------------------------------------------------

    def _num_segments(self) -> int:
        return len((self.manifest or {}).get("segments", []))

    def _result_digest(self) -> str:
        hasher = hashlib.sha256()
        for index in sorted(self.segments):
            hasher.update(self.segments[index].digest.encode("ascii"))
        return hasher.hexdigest()

    def pending(self) -> list[int]:
        """Segment indices not yet committed, in execution order."""
        return [
            index
            for index in range(self._num_segments())
            if index not in self.segments
        ]

    def rows(self) -> list:
        """All rows in corpus order; requires every segment committed."""
        if self.pending():
            raise ArtifactError(
                f"run incomplete: segments {self.pending()} not committed"
            )
        merged: list = []
        for index in sorted(self.segments):
            merged.extend(self.segments[index].rows)
        return merged

    def quarantine_payloads(self) -> list[dict]:
        """Persisted quarantine entries, in segment order."""
        merged: list[dict] = []
        for index in sorted(self.segments):
            merged.extend(self.segments[index].quarantine)
        return merged

    def stats(self) -> dict:
        return {
            "segments_total": self._num_segments(),
            "segments_committed": len(self.segments),
            "commits": self.commits,
            "duplicate_commits": self.duplicate_commits,
            "replayed_segments": self.replayed_segments,
            "truncated_tail": self.truncated_tail,
            "complete": self.complete,
        }
