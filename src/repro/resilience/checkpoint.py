"""Crash-safe JSONL checkpoint journal for sharded scans.

An 8 GB dump takes the paper ~21 hours to scan; losing hour 20 to a
power blip is not acceptable.  The journal records one line per
completed shard — its offset and its serialized
:class:`~repro.attack.aes_search.RecoveredAesKey` results — so an
interrupted ``parallel_recover_keys(..., checkpoint=path)`` run picks
up exactly where it stopped, re-searching nothing.

Crash-safety model:

* every record is one line, flushed and fsynced before the scan moves
  on, so at most the *currently being written* line can be lost;
* a torn trailing line (the signature of a crash mid-write) is
  expected damage: it is dropped and truncated away on resume;
* every line carries a CRC32 of its canonical JSON form (``crc``
  field), so a record whose *content* rotted on disk — bit flips
  inside a hex key string still parse as JSON — is rejected with
  :class:`~repro.resilience.errors.CheckpointCorruptError` instead of
  silently replaying a wrong key; journals written before the CRC
  field existed (no ``crc`` key) remain readable;
* anything else that does not parse — interior garbage, an unreadable
  header — means the journal cannot be trusted and raises
  :class:`~repro.resilience.errors.CheckpointCorruptError`;
* the header pins the dump (length + SHA-256) and the scan geometry
  (key bits, shard count, overlap); resuming against a different dump
  or layout is refused rather than silently merging alien results.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.resilience.errors import (
    CheckpointCorruptError,
    CheckpointStaleError,
    CheckpointStorageError,
)

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (aes_search → image)
    from repro.attack.aes_search import RecoveredAesKey

#: Journal schema version; bump on incompatible format changes.
JOURNAL_VERSION = 1


def dump_fingerprint(data: bytes) -> str:
    """SHA-256 of the dump — the identity a journal is bound to."""
    return hashlib.sha256(data).hexdigest()


def line_crc(record: dict) -> str:
    """CRC32 (8 hex digits) of a record's canonical JSON form.

    Computed over the record *without* its ``crc`` field, with sorted
    keys and minimal separators, so the checksum is independent of both
    field order and the writer's formatting.
    """
    canonical = json.dumps(
        {key: value for key, value in record.items() if key != "crc"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return f"{zlib.crc32(canonical.encode('utf-8')) & 0xFFFFFFFF:08x}"


def _check_line_crc(record: dict, path: Path, line_number: int) -> None:
    """Reject a record whose stored CRC does not match its content.

    Records without a ``crc`` field are accepted — journals written
    before the field existed stay readable.
    """
    stored = record.get("crc")
    if stored is None:
        return
    expected = line_crc(record)
    if stored != expected:
        raise CheckpointCorruptError(
            f"{path}: CRC mismatch on line {line_number} "
            f"(stored {stored!r}, content {expected!r}) — the record was "
            "altered after it was written and cannot be replayed"
        )


@dataclass(frozen=True)
class JournalHeader:
    """First line of every journal: what scan these records belong to."""

    dump_len: int
    dump_sha256: str
    key_bits: int
    n_shards: int
    overlap_bytes: int
    version: int = JOURNAL_VERSION

    def to_json(self) -> dict:
        """The header as a JSON-ready record."""
        record = asdict(self)
        record["type"] = "header"
        return record

    @classmethod
    def from_json(cls, record: dict) -> "JournalHeader":
        """Parse a header record, refusing unknown versions."""
        if record.get("type") != "header":
            raise CheckpointCorruptError("journal does not start with a header record")
        version = record.get("version")
        if version != JOURNAL_VERSION:
            raise CheckpointCorruptError(
                f"journal version {version!r} not supported (want {JOURNAL_VERSION})"
            )
        try:
            return cls(
                dump_len=int(record["dump_len"]),
                dump_sha256=str(record["dump_sha256"]),
                key_bits=int(record["key_bits"]),
                n_shards=int(record["n_shards"]),
                overlap_bytes=int(record["overlap_bytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorruptError(f"malformed journal header: {exc}") from exc


def serialize_recovered(recovered: "RecoveredAesKey") -> dict:
    """A :class:`RecoveredAesKey` as JSON-ready primitives."""
    return {
        "master_key": recovered.master_key.hex(),
        "key_bits": recovered.key_bits,
        "votes": recovered.votes,
        "first_block_index": recovered.first_block_index,
        "match_fraction": recovered.match_fraction,
        "region_agreement": recovered.region_agreement,
        "confidence": recovered.confidence,
        "hits": [asdict(hit) for hit in recovered.hits],
    }


def deserialize_recovered(record: dict) -> "RecoveredAesKey":
    """Rebuild a :class:`RecoveredAesKey` from its journal record."""
    from repro.attack.aes_search import RecoveredAesKey, ScheduleHit

    try:
        return RecoveredAesKey(
            master_key=bytes.fromhex(record["master_key"]),
            key_bits=int(record["key_bits"]),
            votes=int(record["votes"]),
            first_block_index=int(record["first_block_index"]),
            match_fraction=float(record["match_fraction"]),
            region_agreement=float(record["region_agreement"]),
            hits=tuple(ScheduleHit(**hit) for hit in record["hits"]),
            # Journals written before confidence scoring lack the field.
            confidence=float(record.get("confidence", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(f"malformed recovered-key record: {exc}") from exc


def _truncate_torn_tail(path: Path) -> None:
    """Drop any bytes after the final newline (a torn trailing record)."""
    raw = path.read_bytes()
    cut = raw.rfind(b"\n") + 1
    if cut < len(raw):
        with open(path, "r+b") as handle:
            handle.truncate(cut)


def verify_journal_file(path: str | Path) -> int:
    """Cheap read-only integrity pass over a checkpoint journal.

    The CLI's ``--resume`` preflight: parse every record and check its
    CRC *without* loading results, binding to a dump, or repairing the
    file.  A torn trailing line — the expected signature of a crash
    mid-write — is tolerated (the real loader truncates it on resume);
    anything else raises :class:`CheckpointCorruptError` naming the
    offending line so the operator sees one readable diagnostic instead
    of a traceback or a silent full rescan.  Returns the number of
    completed shard records the journal holds.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointCorruptError(
            f"{path}: no such checkpoint journal — nothing to resume "
            "(drop --resume to start a fresh scan, or point --checkpoint "
            "at the journal the interrupted run wrote)"
        )
    raw = path.read_bytes()
    if not raw:
        raise CheckpointCorruptError(f"{path}: empty journal")
    lines = raw.split(b"\n")
    torn_tail = lines[-1] != b""
    body = lines[:-1]
    if not body:
        raise CheckpointCorruptError(f"{path}: journal header is torn")
    shards = 0
    for index, line in enumerate(body, start=1):
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            if index == len(body) and not torn_tail:
                break  # torn final line that happened to contain a newline
            raise CheckpointCorruptError(
                f"{path}: unreadable record on line {index}: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise CheckpointCorruptError(
                f"{path}: record on line {index} is not a JSON object"
            )
        _check_line_crc(record, path, index)
        if index == 1:
            JournalHeader.from_json(record)
        elif record.get("type") == "shard":
            shards += 1
    return shards


class CheckpointJournal:
    """Append-only JSONL journal of completed shards.

    Use :meth:`open` — it creates, resumes, or refuses the file as
    appropriate and returns both the journal and whatever completed
    shard results it already held.

    Appends tolerate a dying filesystem: when the primary path becomes
    unwritable (``ENOSPC``, a yanked mount), the journal *rotates* —
    its records so far are copied to a fallback path (by default under
    the system tempdir) and appending continues there, so completed
    work keeps being persisted.  Only when the fallback fails too does
    :meth:`record` raise
    :class:`~repro.resilience.errors.CheckpointStorageError`; the
    orchestrator catches that, disables journaling, and finishes the
    scan un-resumable rather than dying mid-write.
    """

    def __init__(
        self,
        path: str | Path,
        header: JournalHeader,
        fallback_directory: str | Path | None = None,
    ) -> None:
        self.path = Path(path)
        self.header = header
        self.fallback_directory = fallback_directory
        #: Original path, set once appends have rotated to the fallback.
        self.rotated_from: Path | None = None

    @property
    def rotated(self) -> bool:
        """Whether appends moved to the fallback path."""
        return self.rotated_from is not None

    # -------------------------------------------------------------- creation

    @classmethod
    def open(
        cls,
        path: str | Path,
        header: JournalHeader,
        resume: bool = True,
        fallback_directory: str | Path | None = None,
    ) -> tuple["CheckpointJournal", dict[int, list["RecoveredAesKey"]]]:
        """Create or resume a journal; return (journal, completed shards).

        A fresh file (or ``resume=False``) starts with just the header.
        An existing file is validated against ``header`` — same dump,
        same geometry — then its completed shards are returned so the
        caller can skip them.
        """
        journal = cls(path, header, fallback_directory=fallback_directory)
        if resume and journal.path.exists() and journal.path.stat().st_size > 0:
            completed = journal._load_and_repair()
            return journal, completed
        journal._start_fresh()
        return journal, {}

    def _start_fresh(self) -> None:
        record = self.header.to_json()
        record["crc"] = line_crc(record)
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # --------------------------------------------------------------- loading

    def _load_and_repair(self) -> dict[int, list["RecoveredAesKey"]]:
        """Parse the journal, truncating a torn trailing line if present."""
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        # A journal written by `record` always ends with a newline, so a
        # well-formed file splits into records plus one empty tail.
        torn_tail = lines[-1] != b""
        body = lines[:-1]
        good_bytes = len(raw) - (len(lines[-1]) if torn_tail else 0)

        if not body and not torn_tail:
            raise CheckpointCorruptError(f"{self.path}: empty journal")
        if not body:
            # Only a torn fragment — the header itself never landed.
            raise CheckpointCorruptError(f"{self.path}: journal header is torn")

        records: list[dict] = []
        for index, line in enumerate(body):
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (ValueError, UnicodeDecodeError) as exc:
                if index == len(body) - 1 and not torn_tail:
                    # Torn final line that happened to contain a newline
                    # fragment; treat like any torn tail.
                    good_bytes -= len(line) + 1
                    break
                raise CheckpointCorruptError(
                    f"{self.path}: unreadable record on line {index + 1}: {exc}"
                ) from exc

        if not records:
            raise CheckpointCorruptError(f"{self.path}: journal header is torn")
        for index, record in enumerate(records, start=1):
            _check_line_crc(record, self.path, index)
        header = JournalHeader.from_json(records[0])
        if header.overlap_bytes != self.header.overlap_bytes:
            # Called out separately from the generic header check: an
            # overlap mismatch means the shard geometry the journal's
            # offsets describe no longer exists, so resuming would merge
            # results from incompatible shard layouts.
            raise CheckpointStaleError(
                f"{self.path}: journal overlap_bytes={header.overlap_bytes} does not "
                f"match this scan's overlap_bytes={self.header.overlap_bytes}"
            )
        if header != self.header:
            raise CheckpointStaleError(
                f"{self.path}: journal belongs to a different scan "
                f"(header {header} != expected {self.header})"
            )

        completed: dict[int, list] = {}
        for index, record in enumerate(records[1:], start=2):
            if record.get("type") != "shard":
                raise CheckpointCorruptError(
                    f"{self.path}: unexpected record type {record.get('type')!r} "
                    f"on line {index}"
                )
            try:
                offset = int(record["offset"])
                results = [deserialize_recovered(r) for r in record["results"]]
            except (KeyError, TypeError) as exc:
                raise CheckpointCorruptError(
                    f"{self.path}: malformed shard record on line {index}: {exc}"
                ) from exc
            completed[offset] = results

        if good_bytes < len(raw):
            # Drop the torn tail so future appends start on a clean line.
            with open(self.path, "r+b") as handle:
                handle.truncate(good_bytes)
        return completed

    # -------------------------------------------------------------- appending

    def record(self, shard_offset: int, results: list["RecoveredAesKey"]) -> None:
        """Durably append one completed shard's results.

        A failed append rotates the journal to the fallback path and
        retries once; a second failure raises
        :class:`~repro.resilience.errors.CheckpointStorageError`.
        """
        payload = {
            "type": "shard",
            "offset": shard_offset,
            "results": [serialize_recovered(r) for r in results],
        }
        payload["crc"] = line_crc(payload)
        line = json.dumps(payload)
        try:
            self._append(line)
        except OSError as exc:
            self._rotate(exc)
            try:
                self._append(line)
            except OSError as retry_exc:
                raise CheckpointStorageError(str(self.path), str(retry_exc)) from retry_exc

    def _append(self, line: str) -> None:
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def _rotate(self, cause: OSError) -> None:
        """Move appending to the fallback path, carrying records over.

        The primary is usually still *readable* when it stops being
        writable (``ENOSPC``), so its records are copied across; a
        partial line the failed append may have left behind is
        truncated so the fallback resumes on a clean record boundary.
        """
        import shutil
        import tempfile

        directory = Path(self.fallback_directory or tempfile.gettempdir())
        target = directory / f"{self.path.name}.fallback"
        try:
            shutil.copyfile(self.path, target)
            _truncate_torn_tail(target)
        except OSError as exc:
            raise CheckpointStorageError(
                str(self.path), f"rotation to {target} failed: {exc}"
            ) from exc
        self.rotated_from = self.path
        self.path = target

    def close(self) -> None:
        """Nothing to flush — every :meth:`record` is already durable.

        Provided so callers can treat the journal like any other
        resource with a lifecycle.
        """


class DecodeStateStore:
    """Sidecar store for partial belief-propagation decode posteriors.

    The shard journal above is strictly append-only JSONL whose readers
    reject unknown record types — the right contract for shard results,
    and the wrong one for decode state, which is a dense float blob
    that gets *overwritten* on every checkpoint rather than appended.
    So mid-decode state lives in its own small JSON sidecar (by
    convention ``<checkpoint>.decode``): a map from a caller-chosen
    context key (stage, table base, rescue iteration) to a
    :class:`repro.attack.decode.DecodeState` dict, each entry CRC'd via
    :func:`line_crc` and the whole file replaced atomically.  A resumed
    run warm-starts message passing from the stored float64 messages,
    which continues the iteration bit-exactly — the resumed decode's
    result is byte-identical to an uninterrupted run's.
    """

    VERSION = 1

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._entries: dict[str, dict] = {}
        # Each search decodes on its calling thread, but nothing stops
        # two searches (or a search and a watchdog flush) from sharing a
        # store — serialise the read-modify-rewrite cycle so concurrent
        # saves cannot drop entries.
        self._lock = threading.Lock()
        if self.path.exists():
            self._entries = self._load()

    def _load(self) -> dict[str, dict]:
        """Read the sidecar, dropping any entry that fails its CRC."""
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}
        if not isinstance(data, dict) or data.get("version") != self.VERSION:
            return {}
        entries = data.get("entries")
        if not isinstance(entries, dict):
            return {}
        kept: dict[str, dict] = {}
        for key, entry in entries.items():
            if isinstance(entry, dict) and entry.get("crc") == line_crc(entry):
                kept[key] = entry
        return kept

    def save(self, key: str, state_dict: dict) -> None:
        """Store one decode state and atomically rewrite the sidecar."""
        entry = dict(state_dict)
        entry["crc"] = line_crc(entry)
        with self._lock:
            self._entries[key] = entry
            payload = json.dumps({"version": self.VERSION, "entries": self._entries})
            tmp = self.path.with_name(self.path.name + ".tmp")
            try:
                tmp.write_text(payload, encoding="utf-8")
                os.replace(tmp, self.path)
            except OSError as exc:
                raise CheckpointStorageError(str(self.path), str(exc)) from exc

    def load(self, key: str) -> dict | None:
        """Fetch one stored decode state dict (CRC already verified)."""
        with self._lock:
            return self._entries.get(key)

    def discard(self, key: str) -> None:
        """Drop a consumed state so a finished decode is not replayed."""
        with self._lock:
            if key not in self._entries:
                return
            del self._entries[key]
            payload = json.dumps({"version": self.VERSION, "entries": self._entries})
            tmp = self.path.with_name(self.path.name + ".tmp")
            try:
                tmp.write_text(payload, encoding="utf-8")
                os.replace(tmp, self.path)
            except OSError:
                pass  # best effort — a stale entry is digest-guarded anyway
