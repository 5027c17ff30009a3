"""One append-only JSON-lines journal, for the cache counters and the job records."""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
from pathlib import Path
from typing import Callable, Iterator

from .backends import atomic_write


def _line(document: object) -> bytes:
    return (json.dumps(document, sort_keys=True, separators=(",", ":"), default=str) + "\n").encode()


def _decode(blob: bytes) -> list[object]:
    documents = []
    for line in blob.splitlines():
        try:
            documents.append(json.loads(line))
        except ValueError:  # torn line from a writer killed mid-append
            pass
    return documents


class Journal:
    """An append-only JSON-lines file at ``path``.

    Appends hold a shared ``flock`` and compactions an exclusive one, so no
    append is in flight while a compaction folds the lines and replaces the
    file.  An appender that opened the file before that replacement sees
    another inode at the path and reopens, so no line is lost.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)

    @contextlib.contextmanager
    def _locked(self, flags: int, lock: int) -> Iterator[int]:
        """A descriptor on the file *currently* at :attr:`path` (created if absent), ``flock``-ed."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            descriptor = os.open(self.path, flags | os.O_CREAT, 0o644)
            try:
                fcntl.flock(descriptor, lock)
                if os.path.samestat(os.fstat(descriptor), os.stat(self.path)):  # else a compaction replaced it
                    yield descriptor
                    return
            finally:
                os.close(descriptor)

    def append(self, document: object, *, durable: bool = False) -> None:
        """Append ``document`` as one line; ``durable`` fsyncs it before returning."""
        with self._locked(os.O_WRONLY | os.O_APPEND, fcntl.LOCK_SH) as descriptor:
            os.write(descriptor, _line(document))
            if durable:
                os.fsync(descriptor)

    def read(self) -> list[object]:
        """Every decodable line, in append order (``[]`` when the file is unreadable)."""
        try:
            return _decode(self.path.read_bytes())
        except OSError:
            return []

    def compact(self, fold: Callable[[list[object]], list[object]]) -> None:
        """Atomically replace the lines with ``fold(lines)``.

        Raises ``OSError``, leaving the file as it was, on a read-only directory.
        """
        with self._locked(os.O_RDONLY, fcntl.LOCK_EX):
            folded = fold(_decode(self.path.read_bytes()))
            atomic_write(self.path, b"".join(map(_line, folded)), durable=True)
