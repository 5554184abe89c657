"""The parse cache's one integrity rule: ``load`` serves a member only as ``store`` wrote it."""

import numpy as np

from rislink import cache


def test_member_read_short_by_its_header_misses(tmp_path):
    # numpy stops reading a member where its header's shape says, before zipfile's check at the member's end;
    # the reader reads each member whole, so that check always runs.
    source = tmp_path / "input.txt"
    source.write_text("input")
    cache.store(source, "digest", cache.__file__, values=np.arange(10_000.0))
    assert cache.load(source, "digest", cache.__file__, lambda read: read("values").shape) == (10_000,)
    entry = cache.entry_path(source)
    assert entry.read_bytes().count(b"'shape': (10000,)") == 1
    entry.write_bytes(entry.read_bytes().replace(b"'shape': (10000,)", b"'shape': ( 1000,)"))
    assert cache.load(source, "digest", cache.__file__, lambda read: read("values")) is None
