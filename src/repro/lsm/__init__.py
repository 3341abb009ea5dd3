"""LSM-tree key-value store (the reproduction's RocksDB stand-in).

A leveled LSM-tree built from scratch: a dict + sorted-key-list memtable,
write-ahead log, block-based SSTables with bloom filters, leveled compaction,
and a shadowed manifest.  Configured like the paper's RocksDB setup (bloom filter at 10 bits
per key, application-level compression off — the simulated drive compresses
transparently underneath).
"""

from repro.lsm.bloom import BloomFilter
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.lsm.memtable import MemTable
from repro.lsm.sstable import SSTableMeta, SSTableReader, SSTableWriter

__all__ = [
    "BloomFilter",
    "LSMConfig",
    "LSMEngine",
    "MemTable",
    "SSTableMeta",
    "SSTableReader",
    "SSTableWriter",
]
