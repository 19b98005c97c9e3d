"""Crash-safe JSONL checkpoint journal for sharded scans, and the
durable-record code every resumable file in the package goes through.

An 8 GB dump takes the paper ~21 hours to scan; losing hour 20 to a
power blip is not acceptable.  The journal records one line per
completed shard — its offset and its serialized
:class:`~repro.attack.aes_search.RecoveredAesKey` results — so an
interrupted ``resilient_recover_keys(..., checkpoint=path)`` run picks
up exactly where it stopped, re-searching nothing.

The journal shares its record format with the service's job WAL
(:mod:`repro.service.jobstore`), and the helpers below are the only
code in the package that reads that format or writes a file durably:

* :func:`append_record` writes one record as one line, flushed and
  fsynced before it returns, so at most the line being written can be
  lost;
* every line carries a CRC32 of its canonical JSON form (``crc``
  field, :func:`line_crc`), so a record whose *content* rotted on disk
  — bit flips inside a hex key string still parse as JSON — is
  rejected instead of silently replayed; records without the field
  (journals written before it existed) remain readable;
* :func:`read_records` is the one strict reader: a torn trailing line
  (the signature of a crash mid-write) is expected damage and is left
  out — a writable opener truncates it away — while any other line
  that is not a JSON object or fails its CRC raises the caller's
  typed error naming the line;
* :func:`rewrite_file` replaces a whole file atomically (temp file,
  fsync, rename), so a reader sees the old file or the new one, never
  a torn hybrid; :func:`read_json_object` reads such a file back and
  treats any damage as "no file";
* :func:`count_shard_records` is the cheap, CRC-free progress gauge
  for readers that poll a journal while it grows.

On top of that format, the journal's header pins the dump (length +
SHA-256) and the scan geometry (key bits, shard count, overlap);
resuming against a different dump or layout is refused rather than
silently merging alien results.  Anything else that does not load —
interior garbage, an unreadable header, a CRC-valid record of the
wrong shape — raises
:class:`~repro.resilience.errors.CheckpointCorruptError`.
"""

from __future__ import annotations

import contextlib
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


# ------------------------------------------------------------ durable records


def record_line(record: dict) -> str:
    """``record`` as one JSON line (no newline), its ``crc`` field last."""
    return json.dumps({**record, "crc": line_crc(record)})


def read_records(
    path: Path, error: type[CheckpointCorruptError] = CheckpointCorruptError
) -> tuple[list[dict], int]:
    """Every record of a CRC'd JSONL file, and how many bytes they span.

    A torn trailing line — bytes after the last newline, or a final
    line that does not parse — is left out and the byte count stops
    before it, so a writable opener can truncate it away.  Any other
    line that is not a JSON object, or whose ``crc`` does not match its
    content, raises ``error`` naming the line.  Records without a
    ``crc`` field pass.
    """
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    body = lines[:-1]
    good_bytes = len(raw) - len(lines[-1])
    records: list[dict] = []
    for number, line in enumerate(body, start=1):
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            if number == len(body) and not lines[-1]:
                # A torn final line that happened to end in a newline.
                good_bytes -= len(line) + 1
                break
            raise error(f"{path}: unreadable record on line {number}: {exc}") from exc
        if not isinstance(record, dict):
            raise error(f"{path}: record on line {number} is not a JSON object")
        stored = record.get("crc")
        if stored is not None and stored != (expected := line_crc(record)):
            raise error(
                f"{path}: CRC mismatch on line {number} (stored {stored!r}, "
                f"content {expected!r}) — the record was altered after it was "
                "written and cannot be replayed"
            )
        records.append(record)
    return records, good_bytes


def append_record(path: Path, record: dict) -> None:
    """Durably append ``record`` as one CRC'd line: written, flushed, fsynced."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(record_line(record) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def rewrite_file(path: Path, data: str | bytes) -> None:
    """Atomically replace ``path`` with ``data``.

    The bytes go to a temp file beside it and are fsynced before
    ``os.replace`` swings the name over, so any crash leaves either the
    old file or the new one — never a half-written hybrid.
    """
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data.encode("utf-8") if isinstance(data, str) else data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_json_object(path: Path) -> dict | None:
    """The JSON object a whole file holds; ``None`` when the file is
    missing, unreadable, not UTF-8 JSON, or not an object."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def count_shard_records(path: str | Path) -> int:
    """Completed-shard lines in a journal, counted without CRC checks.

    A progress gauge for readers that poll a journal while it grows
    (the service board, the soak harnesses): a line that does not parse
    — a torn tail mid-append, rotten bytes — is skipped, and a missing
    or unreadable file counts 0.  Resuming never trusts this count; it
    goes through :func:`read_records`.
    """
    try:
        lines = Path(path).read_bytes().split(b"\n")
    except OSError:
        return 0
    count = 0
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("type") == "shard":
            count += 1
    return count


# -------------------------------------------------------------------- journal


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
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
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
            hits=tuple(ScheduleHit(**{name: int(value) for name, value in hit.items()})
                       for hit in record["hits"]),
            # Journals written before confidence scoring lack the field.
            confidence=float(record.get("confidence", 0.0)),
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(f"malformed recovered-key record: {exc}") from exc


def _read_journal(path: Path) -> tuple[JournalHeader, dict[int, list["RecoveredAesKey"]], int]:
    """A journal's header, completed shards, and the bytes before a torn tail.

    Every check a resume makes except binding the header to a dump.
    """
    records, good_bytes = read_records(path)
    if not records:
        raise CheckpointCorruptError(f"{path}: journal header is torn")
    header = JournalHeader.from_json(records[0])
    completed: dict[int, list] = {}
    for number, record in enumerate(records[1:], start=2):
        if record.get("type") != "shard":
            raise CheckpointCorruptError(
                f"{path}: unexpected record type {record.get('type')!r} on line {number}"
            )
        try:
            completed[int(record["offset"])] = [
                deserialize_recovered(result) for result in record["results"]
            ]
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"{path}: malformed shard record on line {number}: {exc}"
            ) from exc
    return header, completed, good_bytes


def verify_journal_file(path: str | Path) -> int:
    """Read-only preflight: would :meth:`CheckpointJournal.open` resume this?

    The CLI's ``--resume`` check.  It makes every check the loader makes
    — each record's parse and CRC, the header, every shard record — but
    neither binds the header to a dump nor truncates a torn trailing
    line, so it raises :class:`CheckpointCorruptError` naming the
    offending line exactly when loading the journal would.  A missing
    or empty file has nothing to resume and raises too.  Returns the
    number of completed shards the journal holds.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointCorruptError(
            f"{path}: no such checkpoint journal — nothing to resume "
            "(drop --resume to start a fresh scan, or point --checkpoint "
            "at the journal the interrupted run wrote)"
        )
    if path.stat().st_size == 0:
        raise CheckpointCorruptError(f"{path}: empty journal — nothing to resume")
    return len(_read_journal(path)[1])


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
            return journal, journal._load_and_repair()
        rewrite_file(journal.path, record_line(header.to_json()) + "\n")
        return journal, {}

    def _load_and_repair(self) -> dict[int, list["RecoveredAesKey"]]:
        """Load the journal for this scan, truncating a torn trailing line."""
        header, completed, good_bytes = _read_journal(self.path)
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
        if good_bytes < self.path.stat().st_size:
            # Drop the torn tail so future appends start on a clean line.
            os.truncate(self.path, good_bytes)
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
        try:
            self._append(payload)
        except OSError as exc:
            self._rotate(exc)
            try:
                self._append(payload)
            except OSError as retry_exc:
                raise CheckpointStorageError(str(self.path), str(retry_exc)) from retry_exc

    def _append(self, record: dict) -> None:
        append_record(self.path, record)

    def _rotate(self, cause: OSError) -> None:
        """Move appending to the fallback path, carrying records over.

        The primary is usually still *readable* when it stops being
        writable (``ENOSPC``), so its records are copied across; a
        partial line the failed append may have left behind is dropped
        so the fallback resumes on a clean record boundary.
        """
        import tempfile

        directory = Path(self.fallback_directory or tempfile.gettempdir())
        target = directory / f"{self.path.name}.fallback"
        try:
            raw = self.path.read_bytes()
            rewrite_file(target, raw[: raw.rfind(b"\n") + 1])
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
    :func:`line_crc` and the whole file replaced by
    :func:`rewrite_file`.  A sidecar that does not read back starts
    empty.  A resumed run warm-starts message passing from the stored
    float64 messages, which continues the iteration bit-exactly — the
    resumed decode's result is byte-identical to an uninterrupted run's.
    """

    VERSION = 1

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        # A decode saves its state from the thread that called it (its
        # sweep pool never touches the store), but nothing stops two
        # searches (or a search and a watchdog flush) from sharing a
        # store — serialise the read-modify-rewrite cycle so concurrent
        # saves cannot drop entries.
        self._lock = threading.Lock()
        self._entries = self._load()

    def _load(self) -> dict[str, dict]:
        """Read the sidecar, dropping any entry that fails its CRC."""
        data = read_json_object(self.path) or {}
        entries = data.get("entries")
        if data.get("version") != self.VERSION or not isinstance(entries, dict):
            return {}
        return {
            key: entry
            for key, entry in entries.items()
            if isinstance(entry, dict) and entry.get("crc") == line_crc(entry)
        }

    def _rewrite(self) -> None:
        rewrite_file(self.path, json.dumps({"version": self.VERSION, "entries": self._entries}))

    def save(self, key: str, state_dict: dict) -> None:
        """Store one decode state and atomically rewrite the sidecar."""
        entry = dict(state_dict)
        entry["crc"] = line_crc(entry)
        with self._lock:
            self._entries[key] = entry
            try:
                self._rewrite()
            except OSError as exc:
                raise CheckpointStorageError(str(self.path), str(exc)) from exc

    def load(self, key: str) -> dict | None:
        """Fetch one stored decode state dict (CRC already verified)."""
        with self._lock:
            return self._entries.get(key)

    def discard(self, key: str) -> None:
        """Drop a consumed state so a finished decode is not replayed."""
        with self._lock:
            if self._entries.pop(key, None) is None:
                return
            # Best effort — a stale entry is digest-guarded anyway.
            with contextlib.suppress(OSError):
                self._rewrite()
