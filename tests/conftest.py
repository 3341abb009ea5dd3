"""Shared pytest fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.csd.compression import ZlibCompressor
from repro.csd.device import CompressedBlockDevice, PlainSSD
from repro.sim.rng import DeterministicRng


@pytest.fixture
def rng() -> DeterministicRng:
    return DeterministicRng(0xC0FFEE)


@pytest.fixture
def device() -> CompressedBlockDevice:
    """A small compressing device, plenty for unit tests."""
    return CompressedBlockDevice(num_blocks=4096, compressor=ZlibCompressor())


@pytest.fixture
def plain_ssd() -> PlainSSD:
    return PlainSSD(num_blocks=4096)
