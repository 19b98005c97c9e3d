"""Resource-degradation chain: shm → mmap tempfile → in-process serial.

A production scan cannot assume the host is healthy.  ``/dev/shm`` may
be absent (minimal containers), full (``ENOSPC``), or denied by
policy; the disk the checkpoint journal lives on may fill mid-run.
This module centralises the fallback decisions so every publisher of
shared bytes — the dump, the mined key matrix, the heartbeat board —
degrades identically:

1. **POSIX shared memory** (:class:`~repro.dram.image.SharedDumpBuffer`)
   — the fast path: tmpfs pages, zero filesystem traffic;
2. **mmap-backed tempfile**
   (:class:`~repro.dram.image.FileBackedDumpBuffer`) — when shm fails:
   ``MAP_SHARED`` file mappings propagate across ``fork``/attach just
   like shm, at page-cache speed;
3. **in-process serial** — when even a tempfile cannot be created the
   caller drops to one process and passes plain buffers; nothing
   crosses a process boundary, so nothing needs publishing.

Buffer *references* — the picklable ``(kind, name, length)`` tuples a
worker resolves in its pool initializer — are also defined here, so
the executor, the attack orchestrator, and the watchdog all speak one
attach protocol.

``REPRO_DISABLE_SHM=1`` in the environment forces step 2 (the CI
no-``/dev/shm`` smoke); ``REPRO_DISABLE_FILE_BUFFERS=1`` forces step 3.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (image → errors)
    from repro.dram.image import FileBackedDumpBuffer, SharedDumpBuffer

#: Backend names, in degradation order.
BACKEND_SHM = "shm"
BACKEND_FILE = "file"
BACKEND_SERIAL = "serial"


@dataclass(frozen=True)
class ResourcePolicy:
    """Which publication backends a run may use.

    The chaos harness and the CI smoke jobs deny backends to *prove*
    the fallback chain; production callers take the default and let
    the chain degrade only when the host actually fails.
    """

    allow_shm: bool = True
    allow_file: bool = True
    #: Directory for file-backed fallback segments (``None`` = tempdir).
    file_directory: str | None = None

    @classmethod
    def from_env(cls) -> "ResourcePolicy":
        """The default policy, honouring the ``REPRO_DISABLE_*`` overrides."""
        return cls(
            allow_shm=os.environ.get("REPRO_DISABLE_SHM", "") != "1",
            allow_file=os.environ.get("REPRO_DISABLE_FILE_BUFFERS", "") != "1",
        )


@dataclass
class PublishedBuffer:
    """One published segment: the holder, its attach ref, its backend."""

    backend: str
    buffer: "SharedDumpBuffer | FileBackedDumpBuffer | None"
    ref: tuple

    @property
    def view(self):
        """The published bytes (only meaningful for shm/file backends)."""
        return self.buffer.view if self.buffer is not None else None

    def unlink(self) -> None:
        """Destroy the segment (owner side); serial refs hold nothing."""
        if self.buffer is not None:
            self.buffer.unlink()

    def __enter__(self) -> "PublishedBuffer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.unlink()


def publish_bytes(
    data: bytes | bytearray | memoryview,
    policy: ResourcePolicy | None = None,
    on_event=None,
) -> PublishedBuffer:
    """Publish ``data`` through the degradation chain.

    Returns a :class:`PublishedBuffer` whose ``ref`` workers can attach
    via :func:`resolve_ref`.  A ``("buffer", data)`` serial ref (backend
    ``"serial"``) means no cross-process segment could be created — the
    caller must run in-process.
    """
    from repro.dram.image import FileBackedDumpBuffer, SharedDumpBuffer

    policy = policy or ResourcePolicy.from_env()
    notify = on_event or (lambda message: None)
    if policy.allow_shm:
        try:
            buffer = SharedDumpBuffer.create(data)
            return PublishedBuffer(
                BACKEND_SHM, buffer, (BACKEND_SHM, buffer.name, buffer.length)
            )
        except OSError as exc:
            notify(f"shared memory unavailable ({exc}); falling back to mmap tempfile")
    if policy.allow_file:
        try:
            buffer = FileBackedDumpBuffer.create(data, directory=policy.file_directory)
            return PublishedBuffer(
                BACKEND_FILE, buffer, (BACKEND_FILE, buffer.name, buffer.length)
            )
        except OSError as exc:
            notify(f"mmap tempfile unavailable ({exc}); degrading to in-process serial")
    return PublishedBuffer(BACKEND_SERIAL, None, ("buffer", bytes(data)))


def allocate_slots(
    n_bytes: int,
    policy: ResourcePolicy | None = None,
) -> PublishedBuffer | None:
    """A zero-filled cross-process segment (heartbeat boards).

    Unlike :func:`publish_bytes` there is no serial fallback — a board
    nobody else can see is useless — so ``None`` means "no watchdog".
    """
    from repro.dram.image import FileBackedDumpBuffer, SharedDumpBuffer

    policy = policy or ResourcePolicy.from_env()
    if policy.allow_shm:
        try:
            buffer = SharedDumpBuffer.allocate(n_bytes)
            buffer.view[:] = bytes(n_bytes)
            return PublishedBuffer(
                BACKEND_SHM, buffer, (BACKEND_SHM, buffer.name, buffer.length)
            )
        except OSError:
            pass
    if policy.allow_file:
        try:
            buffer = FileBackedDumpBuffer.allocate(
                n_bytes, directory=policy.file_directory
            )
            return PublishedBuffer(
                BACKEND_FILE, buffer, (BACKEND_FILE, buffer.name, buffer.length)
            )
        except OSError:
            pass
    return None


def resolve_ref(ref: tuple, writable: bool = False):
    """Materialise a buffer reference into ``(holder, buffer)``.

    ``("shm", name, length)`` attaches the named POSIX segment;
    ``("file", path, length)`` maps the fallback tempfile (pass
    ``writable=True`` for heartbeat boards — readers keep the default
    read-only mapping); ``("buffer", obj)`` is the in-process fast path
    used by serial and degraded execution.  The holder keeps the
    mapping alive; ``None`` holder means nothing to close.
    """
    from repro.dram.image import FileBackedDumpBuffer, SharedDumpBuffer

    kind = ref[0]
    if kind == BACKEND_SHM:
        _, name, length = ref
        holder = SharedDumpBuffer.attach(name, length)
        return holder, holder.view
    if kind == BACKEND_FILE:
        _, name, length = ref
        if writable:
            holder = FileBackedDumpBuffer.attach_writable(name, length)
        else:
            holder = FileBackedDumpBuffer.attach(name, length)
        return holder, holder.view
    if kind == "buffer":
        return None, ref[1]
    raise ValueError(f"unknown buffer reference kind: {kind!r}")
