"""Deterministic, splittable random number helpers.

Experiments must be exactly reproducible: the same seed yields the same keys,
record contents, and operation interleavings.  ``random.Random`` is already
deterministic for a fixed seed; the helpers here add cheap *derived* seeds so
that independent streams (per client thread, per workload phase) never share
state and never depend on consumption order.
"""

from __future__ import annotations

import hashlib
import random

from repro.errors import ConfigError


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a 64-bit seed from a root seed and a label path.

    The derivation is a SHA-256 over the textual path, so adding a new consumer
    never perturbs the streams of existing consumers.
    """
    payload = repr((root_seed,) + labels).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


class DeterministicRng(random.Random):
    """A ``random.Random`` with labelled splitting.

    ``rng.split("populate")`` returns a fresh generator whose stream depends
    only on the parent's root seed and the label, not on how much of the
    parent stream has been consumed.
    """

    def __init__(self, seed: int, _path: tuple = ()) -> None:
        self._root_seed = int(seed)
        self._path = _path
        super().__init__(derive_seed(self._root_seed, *_path))

    def split(self, *labels: object) -> "DeterministicRng":
        """Return an independent child generator for the given label path."""
        return DeterministicRng(self._root_seed, self._path + tuple(labels))

    def random_bytes(self, n: int) -> bytes:
        """Return ``n`` pseudo-random bytes from this stream: exactly
        ``getrandbits(8 * n).to_bytes(n, "little")``, which is how the
        workload op streams draw values inline.  ``n == 0`` draws nothing."""
        if n < 0:
            raise ConfigError("byte count must be non-negative")
        return self.getrandbits(8 * n).to_bytes(n, "little")
