"""Parses cached beside their input file, in ``__rislink_cache__/<name>.npz``.

An entry holds the arrays of one parse under a key: the SHA-256 of the
input's bytes, joined to the SHA-256 of the parsing module's code and the
numpy version. ``load`` serves an entry only under its key and only as its
caller's ``convert`` accepts it; anything else, an unreadable or truncated
entry included, is a miss. ``store`` writes an entry to a file of this
process and renames it into place, and an ``OSError`` (a read-only
directory, say) skips caching. The directory is safe to delete.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
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
    """What ``convert`` makes of the entry of ``path`` stored under ``key(digest, parser)``; None on a miss."""
    try:
        with np.load(entry_path(path), allow_pickle=False) as entry:
            return convert(entry) if str(entry["key"]) == key(digest, parser) else None
    except Exception:  # a damaged entry fails in zipfile, zlib and numpy in more ways than they document
        return None


def store(path: str | Path, digest: str, parser: str, **arrays: np.ndarray | Callable[[], np.ndarray]) -> None:
    """Write ``arrays`` as the entry of ``path`` under ``key(digest, parser)``.

    A callable value is called for its array once the entry's file is open, so an unwritable directory skips it.
    """
    target = entry_path(path)
    temporary = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(exist_ok=True)
        with open(temporary, "wb") as file:
            values = {name: a() if callable(a) else a for name, a in arrays.items()}
            np.savez(file, key=np.array(key(digest, parser)), **values)
        os.replace(temporary, target)
    except OSError:
        with contextlib.suppress(OSError):
            temporary.unlink(missing_ok=True)
