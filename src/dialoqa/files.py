"""The one way the package writes a file: atomically and durably."""

import os
from pathlib import Path
from typing import Iterable


def write_file(path: str | Path, parts: Iterable[bytes | memoryview]) -> None:
    """Writes ``parts`` to ``<path>.tmp``, syncs it, renames it onto ``path`` and
    syncs the directory. Removes the temporary file on any failure."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(parts)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
