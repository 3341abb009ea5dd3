"""Zipfian key distributions (YCSB-style skewed access).

The paper evaluates uniform random writes only; real workloads skew.  This
module adds a standard Zipf(θ) generator over a key space so users can study
how access skew changes the trade-offs: hot pages coalesce more updates per
flush (helping every B-tree variant) and keep the B⁻-tree's per-page deltas
short (more flushes between resets).

Sampling uses the YCSB/Gray et al. analytic method: O(1) per draw after an
O(1) setup, no per-key tables, so million-key spaces cost nothing.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import ConfigError
from repro.sim.rng import DeterministicRng
from repro.workloads.generator import Op, put_ops
from repro.workloads.records import KeySpace


class ZipfGenerator:
    """Draws ranks in ``[0, n)`` with probability ∝ 1/(rank+1)^theta.

    The classic "quick zipf" of Gray et al. (SIGMOD'94), as used by YCSB:
    exact for the two head items, an excellent approximation for the tail.
    ``theta`` in [0, 1); YCSB's default skew is 0.99.
    """

    def __init__(self, n: int, theta: float = 0.99) -> None:
        if n <= 0:
            raise ConfigError("key space must be positive")
        if not 0.0 <= theta < 1.0:
            raise ConfigError("theta must lie in [0, 1)")
        self.n = n
        self.theta = theta
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
            1.0 - self._zeta2 / self._zetan
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Exact for small n; Euler-Maclaurin tail approximation beyond, so a
        # million-key space does not cost a million-term sum.
        cutoff = min(n, 10_000)
        total = sum(1.0 / (i ** theta) for i in range(1, cutoff + 1))
        if n > cutoff:
            total += ((n ** (1.0 - theta)) - (cutoff ** (1.0 - theta))) / (1.0 - theta)
        return total

    def ranks(self, rng: DeterministicRng) -> Iterator[int]:
        """Endless ranks (0 = hottest), one ``rng.random()`` each, with the
        constants bound once.  The analytic formula can round up to ``n``;
        such a draw is the coldest rank, ``n - 1``."""
        random = rng.random
        n, zetan, eta, alpha = self.n, self._zetan, self._eta, self._alpha
        second = 1.0 + 0.5 ** self.theta
        while True:
            u = random()
            uz = u * zetan
            if uz < 1.0:
                yield 0
            elif uz < second:
                yield 1
            else:
                rank = int(n * ((eta * u - eta + 1.0) ** alpha))
                yield rank if rank < n else n - 1

    def sample(self, rng: DeterministicRng) -> int:
        """Draw one rank (0 = hottest)."""
        return next(self.ranks(rng))

    def head_mass(self, k: int) -> float:
        """Probability mass of the ``k`` hottest ranks (diagnostics)."""
        return self._zeta(min(k, self.n), self.theta) / self._zetan


def zipfian_write_ops(
    keyspace: KeySpace,
    rng: DeterministicRng,
    theta: float = 0.99,
) -> Iterator[Op]:
    """Skewed random updates: rank r maps to key r (hot keys are clustered).

    Clustering hot keys gives the B-tree page-level locality too — the
    pessimistic alternative (scattering ranks over the key space) can be had
    by composing with a permutation.
    """
    zipf = ZipfGenerator(keyspace.n_records, theta)
    return put_ops(keyspace, zipf.ranks(rng), rng)


def scattered_zipfian_write_ops(
    keyspace: KeySpace,
    rng: DeterministicRng,
    theta: float = 0.99,
) -> Iterator[Op]:
    """Skewed updates with hot keys scattered across the key space.

    Applies a fixed multiplicative-hash permutation to the rank so hot keys
    land on distinct pages — the worst case for page-flush coalescing.
    """
    n = keyspace.n_records
    ranks = ZipfGenerator(n, theta).ranks(rng)
    return put_ops(keyspace, ((rank * 0x9E3779B1 + 0x7F4A7C15) % n for rank in ranks), rng)
