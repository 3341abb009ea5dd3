"""LSM tests, and the one helper they share."""

from repro.lsm.sstable import encode_record


def write_table(writer, records):
    """Write ``records`` (``(key, value)`` pairs in key order, ``None`` for a
    tombstone) as ``writer``'s table; returns ``(meta, logical, physical)``."""
    keys = [key for key, _ in records]
    return writer.write(keys, [encode_record(key, value) for key, value in records])
