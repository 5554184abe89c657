"""Parses cached beside their input file, in ``__rislink_cache__/<name>.npz``.

An entry holds the arrays of one parse, each a ``.npy`` member, under a key:
the SHA-256 of the input's bytes, joined to the SHA-256 of the parsing
module's code and the numpy version. ``store`` also records the CRC-32 of
every member it writes in a member of its own, ``crc32``. ``load`` serves an
entry only under its key and hands its caller's ``convert`` a reader that
returns a member only as ``store`` wrote it: the bytes must match the CRC-32
in the archive's directory, which zipfile checks, and that CRC-32 the
record. A member that is missing or does not match raises ``KeyError``.
Anything that fails, an unreadable or truncated entry or one without a
record (written by an earlier version) included, is a miss. ``store``
writes an entry to a file of this process and renames it into place, and an
``OSError`` (a read-only directory, say) skips caching. The directory is
safe to delete.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import zipfile
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Directory beside an input file that holds its cached parse.
CACHE_DIR = "__rislink_cache__"


def entry_path(path: str | Path) -> Path:
    """Where the entry of the input file ``path`` lives."""
    return Path(path).parent / CACHE_DIR / f"{Path(path).name}.npz"


def key(digest: str, parser: str) -> str:
    """``digest`` (the input's SHA-256) joined to the SHA-256 of the code at ``parser`` and the numpy version."""
    code = hashlib.sha256(Path(parser).read_bytes() + np.__version__.encode())
    return f"{digest} {code.hexdigest()}"


def load(path: str | Path, digest: str, parser: str, convert: Callable[..., Any]) -> Any:
    """What ``convert(read)`` makes of the entry of ``path`` stored under ``key(digest, parser)``; None on a miss.

    ``read(name)`` is the array ``store`` wrote as ``name``, or raises ``KeyError`` when the entry has no such
    member or the member's CRC-32 is not the one ``store`` recorded.
    """
    try:
        with zipfile.ZipFile(entry_path(path)) as entry:
            record = set(np.load(io.BytesIO(entry.read("crc32.npy"))).tolist())

            def read(name: str) -> np.ndarray:
                member = entry.getinfo(f"{name}.npy")
                if f"{member.filename} {member.CRC}" not in record:
                    raise KeyError(name)
                return np.load(io.BytesIO(entry.read(member)))  # zipfile checks the bytes against that CRC-32

            return convert(read) if str(read("key")) == key(digest, parser) else None
    except Exception:  # a damaged entry fails in zipfile, zlib and numpy in more ways than they document
        return None


def store(path: str | Path, digest: str, parser: str, **arrays: np.ndarray | Callable[[], np.ndarray]) -> None:
    """Write ``arrays`` as the entry of ``path`` under ``key(digest, parser)``, with the CRC-32 of each member.

    A callable value is called for its array once the entry's file is open, so an unwritable directory skips it.
    """
    target = entry_path(path)
    temporary = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(exist_ok=True)
        with open(temporary, "w+b") as file:
            values = {name: a() if callable(a) else a for name, a in arrays.items()}
            np.savez(file, key=np.array(key(digest, parser)), **values)
            with zipfile.ZipFile(file, "a") as entry, entry.open("crc32.npy", "w") as record:
                np.lib.format.write_array(record, np.array([f"{m.filename} {m.CRC}" for m in entry.infolist()]))
        os.replace(temporary, target)
    except OSError:
        with contextlib.suppress(OSError):
            temporary.unlink(missing_ok=True)
