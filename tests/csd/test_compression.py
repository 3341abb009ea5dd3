"""Unit tests for the per-block compressor models."""

import zlib

import pytest

from repro.csd.compression import (
    ZERO_BLOCK_COST,
    ZLIB_LEVEL,
    Compressor,
    NullCompressor,
    ZeroRunEstimator,
    ZlibCompressor,
)
from repro.csd.device import BLOCK_SIZE


@pytest.fixture(params=["zlib", "estimator", "null"])
def compressor(request):
    return {
        "zlib": ZlibCompressor(),
        "estimator": ZeroRunEstimator(),
        "null": NullCompressor(),
    }[request.param]


def test_empty_block_is_free(compressor):
    assert compressor.compressed_size(b"") == 0


def test_never_exceeds_input_size(compressor, rng):
    block = rng.random_bytes(BLOCK_SIZE)
    assert compressor.compressed_size(block) <= BLOCK_SIZE


def test_ratio_bounds(compressor, rng):
    block = rng.random_bytes(1024) + bytes(3072)
    assert 0.0 < compressor.ratio(block) <= 1.0


def test_ratio_of_empty_block_is_one(compressor):
    assert compressor.ratio(b"") == 1.0


def test_zlib_zero_block_nearly_free():
    assert ZlibCompressor().compressed_size(bytes(BLOCK_SIZE)) == ZERO_BLOCK_COST


@pytest.mark.parametrize("length", [0, 1, BLOCK_SIZE, BLOCK_SIZE + 1])
@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_zlib_all_zero_test_by_length_and_type(length, wrap):
    """All-zero inputs cost ZERO_BLOCK_COST at any length and in any
    bytes-like wrapper; one non-zero byte, first or last, goes to zlib."""
    zlib_c = ZlibCompressor()
    assert zlib_c.compressed_size(wrap(bytes(length))) == (ZERO_BLOCK_COST if length else 0)
    for position in {0, length - 1} if length else ():
        block = bytearray(length)
        block[position] = 1
        expected = min(length, len(zlib.compress(bytes(block), ZLIB_LEVEL)))
        assert expected != ZERO_BLOCK_COST
        assert zlib_c.compressed_size(wrap(bytes(block))) == expected


def test_zlib_random_block_incompressible(rng):
    block = rng.random_bytes(BLOCK_SIZE)
    size = ZlibCompressor().compressed_size(block)
    assert size > 0.95 * BLOCK_SIZE


def test_zlib_half_zero_block_roughly_halves(rng):
    block = rng.random_bytes(BLOCK_SIZE // 2) + bytes(BLOCK_SIZE // 2)
    size = ZlibCompressor().compressed_size(block)
    assert 0.4 * BLOCK_SIZE < size < 0.6 * BLOCK_SIZE
    # The device's zero-copy write path hands compressors memoryview slices.
    assert ZlibCompressor().compressed_size(memoryview(block)) == size


def test_estimator_zero_block_nearly_free():
    assert ZeroRunEstimator().compressed_size(bytes(BLOCK_SIZE)) == ZERO_BLOCK_COST


def test_estimator_counts_nonzero_bytes(rng):
    payload = bytes(b % 255 + 1 for b in rng.random_bytes(100))  # 100 non-zero bytes
    block = payload + bytes(BLOCK_SIZE - 100)
    assert ZeroRunEstimator().compressed_size(block) == ZERO_BLOCK_COST + 100


def test_estimator_entropy_factor():
    payload = bytes([7] * 1000) + bytes(BLOCK_SIZE - 1000)
    est = ZeroRunEstimator(entropy_factor=0.5)
    assert est.compressed_size(payload) == ZERO_BLOCK_COST + 500


def test_estimator_parameter_validation():
    with pytest.raises(ValueError):
        ZeroRunEstimator(entropy_factor=0.0)
    with pytest.raises(ValueError):
        ZeroRunEstimator(entropy_factor=1.5)
    with pytest.raises(ValueError):
        ZeroRunEstimator(header_cost=-1)


def test_null_compressor_identity(rng):
    block = rng.random_bytes(512)
    assert NullCompressor().compressed_size(block) == 512


def test_estimator_tracks_zlib_on_workload_content(rng):
    """The fast estimator should stay within ~15% of real zlib on the paper's
    half-zero/half-random record content."""
    zlib_c = ZlibCompressor()
    est = ZeroRunEstimator()
    for _ in range(10):
        block = rng.random_bytes(BLOCK_SIZE // 2) + bytes(BLOCK_SIZE // 2)
        real = zlib_c.compressed_size(block)
        approx = est.compressed_size(block)
        assert abs(real - approx) / real < 0.15


class FirstByteCompressor(Compressor):
    """Overrides only ``compressed_size``: inherits the batch loop."""

    def compressed_size(self, block):
        return block[0] if len(block) else 0


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 10, 33])
def test_compressed_sizes_is_the_per_block_loop(count, wrap, rng):
    """The batch entry point returns each block's own size, in order, for
    every compressor and below, at and above the two-thread split."""
    contents = []
    for i in range(count):
        live = 0 if i % 3 == 1 else BLOCK_SIZE // (i % 4 + 1)  # every third all-zero
        contents.append(rng.random_bytes(live) + bytes(BLOCK_SIZE - live))
    if wrap is memoryview:  # slices of one request buffer, as the device passes
        view = memoryview(b"".join(contents))
        blocks = [view[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE] for i in range(count)]
    else:
        blocks = [wrap(content) for content in contents]
    for compressor in (
        ZlibCompressor(), ZeroRunEstimator(), NullCompressor(), FirstByteCompressor()
    ):
        expected = [compressor.compressed_size(block) for block in blocks]
        assert compressor.compressed_sizes(blocks) == expected
        assert compressor.compressed_sizes(blocks) == expected  # worker reused
