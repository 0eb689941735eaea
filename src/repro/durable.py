"""The one place a file becomes durable: every published file goes through
:func:`atomic_replace` (documents rewritten whole) or :func:`append_records`
(the append-only results log). Calls go through ``os.`` attributes so tests
can inject crashes at every boundary."""

from __future__ import annotations

import contextlib
import os
import uuid


def _write_synced(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
    os.fsync(fd)


def _fsync_directory(path: str) -> None:
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_replace(path: str, data: bytes) -> None:
    """Publish ``data`` at ``path``: readers see old or new, never a mix."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f"{name}.{uuid.uuid4().hex}.tmp")
    # 0o644 minus the umask, as append_records creates the results log
    # (mkstemp would publish every document 0600)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        try:
            _write_synced(fd, data)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    _fsync_directory(path)


def append_records(path: str, payload: bytes) -> None:
    """Append whole lines to the log at ``path``, reading only its last byte.

    A torn final line left by an interrupted append is terminated first,
    so it stays a lone unparseable fragment instead of swallowing the
    first record of ``payload``.
    """
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            payload = b"\n" + payload
        _write_synced(fd, payload)
    finally:
        os.close(fd)
    if not size:  # a new log: make its directory entry durable too
        _fsync_directory(path)
