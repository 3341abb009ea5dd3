"""Record and key material for the paper's workloads.

Keys are 8-byte big-endian integers (order-preserving).  Record content
follows §4.1: "we generate the content of each record by filling its half
content as all-zero and the other half content as random bytes in order to
mimic the runtime data content compressibility" — so every value is half
random, half zeros, giving a ~0.5 standalone compression ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from repro.errors import ConfigError
from repro.sim.rng import DeterministicRng

KEY_SIZE = 8


def encode_key(index: int) -> bytes:
    """Order-preserving 8-byte key for a record index."""
    return index.to_bytes(KEY_SIZE, "big")


@lru_cache(maxsize=None)
def value_layout(record_size: int) -> Tuple[int, bytes]:
    """How a value of ``record_size - KEY_SIZE`` bytes is made: the length of
    its random head (``value_size // 2``, 0 when the value is one byte long)
    and its all-zero tail.  Cached (a run uses a handful of record sizes) so
    that :func:`record_value`, called once per populated record, looks the
    layout up instead of building it."""
    if record_size <= KEY_SIZE:
        raise ConfigError(f"record size must exceed the {KEY_SIZE}-byte key")
    value_size = record_size - KEY_SIZE
    random_half = value_size // 2
    return random_half, bytes(value_size - random_half)


def record_value(rng: DeterministicRng, record_size: int) -> bytes:
    """A value of ``record_size - KEY_SIZE`` bytes: half random, half zeros."""
    random_half, zero_tail = value_layout(record_size)
    return rng.random_bytes(random_half) + zero_tail


@dataclass(frozen=True)
class KeySpace:
    """The record population of one experiment.

    The paper defines experiments by dataset bytes (e.g. 150GB of 128B
    records); scaled-down runs are defined by record count so that the
    record-per-page geometry stays exact while the population shrinks.
    """

    n_records: int
    record_size: int

    def __post_init__(self) -> None:
        if self.n_records <= 0:
            raise ConfigError("key space must contain at least one record")
        if self.record_size <= KEY_SIZE:
            raise ConfigError("record size must exceed the key size")

    @property
    def dataset_bytes(self) -> int:
        return self.n_records * self.record_size

    @property
    def value_size(self) -> int:
        return self.record_size - KEY_SIZE

    def key(self, index: int) -> bytes:
        if not 0 <= index < self.n_records:
            raise IndexError(f"record index {index} outside key space")
        return encode_key(index)

    @classmethod
    def from_dataset(cls, dataset_bytes: int, record_size: int) -> "KeySpace":
        return cls(max(1, dataset_bytes // record_size), record_size)
