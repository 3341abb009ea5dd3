"""CRS008 fixture: the three commit-point protocols with the flush deleted.

Each function is a stripped copy of a real publication protocol from the
tree (``btree/engine.py``, ``btree/pager.py``, ``lsm/vlog.py``) with
the device flush barrier removed — the acceptance check that the rule
catches exactly the bug class it was built for.  The flush-present
counterparts live in ``crs008_clean.py`` and must report nothing.
"""


class MarkerEngine:
    """WAL COMMIT marker appended with the data records still volatile."""

    def __init__(self, device, wal):
        self.device = device
        self.wal = wal

    def commit(self, lsn: int, txid: int) -> None:
        # CRS008: no flush precedes the marker on any path.
        self.wal.append(LogRecord(lsn, txid, LogOp.COMMIT, b"", b""))

    def commit_deep(self, lsn: int, txid: int) -> None:
        self._seal(lsn, txid)

    def _seal(self, lsn: int, txid: int) -> None:
        # CRS008: reached interprocedurally (commit_deep -> _seal).
        self.wal.append(LogRecord(lsn, txid, LogOp.COMMIT, b"", b""))


class MetaEngine:
    """Meta-page write publishing a root whose pages may still be volatile."""

    META_BLOCK = 0

    def __init__(self, device):
        self.device = device

    def persist_root(self, image: bytes) -> None:
        # CRS008: the meta page is the commit point; nothing flushed first.
        write_block_retrying(self.device, self.META_BLOCK, image)


class ShadowPager:
    """Shadow flip: trimming the superseded image publishes the new slot."""

    def __init__(self, device):
        self.device = device

    def flip(self, old_lba: int, new_lba: int, image: bytes) -> None:
        self.device.write_block(new_lba, image)
        # CRS008: the new image may still sit in the device cache.
        self.device.trim(old_lba)


def flush_on_one_branch(engine, lsn: int, txid: int, durable: bool) -> None:
    # CRS008: dominated on the durable branch only — "some path" reports.
    if durable:
        engine.device.flush()
    engine.wal.append(LogRecord(lsn, txid, LogOp.COMMIT, b"", b""))


class VlogGC:
    """Value-log GC: the victim TRIM publishes the re-put records."""

    def __init__(self, device, wal):
        self.device = device
        self.wal = wal

    def reclaim(self, victim_lba: int, head_lba: int, live) -> None:
        for key, image in live:
            self.device.write_block(head_lba, image)  # rewrite into the head
            self.wal.append(LogRecord(0, 0, LogOp.PUT, key, image))
        # CRS008: the rewritten records may still sit in the device cache —
        # a crash after the TRIM loses both copies of the value.
        self.device.trim(victim_lba, 4)
