"""Unit tests for the bloom filter."""

import math
import random
import zlib

import pytest

from repro.errors import LsmError
from repro.lsm.bloom import BloomFilter, probe_sequence


def keys(start, n):
    return [i.to_bytes(8, "big") for i in range(start, start + n)]


def test_validation():
    with pytest.raises(ValueError):
        BloomFilter(-1)
    with pytest.raises(ValueError):
        BloomFilter(10, bits_per_key=0)


def test_no_false_negatives():
    filt = BloomFilter(1000, bits_per_key=10)
    for k in keys(0, 1000):
        filt.add(k)
    assert all(filt.may_contain(k) for k in keys(0, 1000))


def test_false_positive_rate_roughly_one_percent():
    """10 bits/key keeps its promise on an L0 table's shape: ~216 keys drawn
    from a 10k-key span, probed with every absent key of that span, within
    1.25x of the theoretical rate (1 - e^(-k/b))^k = 0.82% for k = 7 probes
    at b = 10 bits/key.  Dense keys probed far outside their span hide a
    hash whose double-hashing step is correlated with its base."""
    k, b = 7, 10
    bound = 1.25 * (1 - math.exp(-k / b)) ** k
    false_positives = probes = 0
    for seed in range(8):
        rng = random.Random(seed)
        start = rng.randrange(1 << 32)
        members = set(rng.sample(range(start, start + 10_000), 216))
        filt = BloomFilter(len(members), bits_per_key=b)
        assert filt.num_probes == k
        filt.add_all(sorted(i.to_bytes(8, "big") for i in members))
        absent = [i.to_bytes(8, "big") for i in range(start, start + 10_000) if i not in members]
        false_positives += sum(filt.may_contain(key) for key in absent)
        probes += len(absent)
    assert false_positives / probes <= bound


def test_fewer_bits_higher_fp_rate():
    dense = BloomFilter(5000, bits_per_key=10)
    sparse = BloomFilter(5000, bits_per_key=2)
    for k in keys(0, 5000):
        dense.add(k)
        sparse.add(k)
    probe = keys(1_000_000, 5000)
    fp_dense = sum(dense.may_contain(k) for k in probe)
    fp_sparse = sum(sparse.may_contain(k) for k in probe)
    assert fp_sparse > fp_dense * 3


def test_probe_count_follows_bits_per_key():
    assert BloomFilter(10, bits_per_key=10).num_probes == 7
    assert BloomFilter(10, bits_per_key=4).num_probes == 3


def test_empty_filter_rejects_everything():
    filt = BloomFilter(100)
    assert not filt.may_contain(b"anything")


def test_serialization_roundtrip():
    filt = BloomFilter(500, bits_per_key=10)
    for k in keys(0, 500):
        filt.add(k)
    restored = BloomFilter.from_bytes(filt.to_bytes())
    assert restored.num_bits == filt.num_bits
    assert restored.num_probes == filt.num_probes
    assert all(restored.may_contain(k) for k in keys(0, 500))


def test_serialized_size_matches():
    filt = BloomFilter(100)
    assert len(filt.to_bytes()) == filt.serialized_size()


def _reference_positions(key: bytes, num_bits: int, num_probes: int) -> list[int]:
    """The filter's probe positions written out plainly: Kirsch-Mitzenmacher
    double hashing over ``h1 = crc32(key)`` and ``h2``, the high half of the
    64-bit product ``h1 * 0x9E3779B97F4A7C15``, made odd."""
    h1 = zlib.crc32(key)
    h2 = (h1 * 0x9E3779B97F4A7C15) % 2**64 // 2**32
    if h2 % 2 == 0:
        h2 += 1
    return [(h1 + i * h2) % num_bits for i in range(num_probes)]


def _reference_bits(filt: BloomFilter, key_list) -> bytes:
    """The filter's packed bits for ``key_list``, from the plain reference."""
    bits = bytearray(len(filt.to_bytes()) - 10)
    for k in key_list:
        for pos in _reference_positions(k, filt.num_bits, filt.num_probes):
            bits[pos // 8] |= 1 << (pos % 8)
    return bytes(bits)


def _sequential(num_keys, key_list, bits_per_key=10.0):
    filt = BloomFilter(num_keys, bits_per_key)
    for k in key_list:
        filt.add(k)
    return filt


_KEY_LISTS = [
    pytest.param(keys(0, 600), id="sorted-8-byte"),
    pytest.param(
        sorted(
            [b"", b"a", b"b", b"ab", b"ac", b"abc", b"abd", b"b" * 40, b"b" * 39 + b"c"]
            + [bytes([i]) for i in range(256)]
        ),
        id="mixed-lengths",
    ),
    pytest.param(
        random.Random(3).sample(keys(0, 600) + [b"x", b"xy", b"", b"z" * 40], 604),
        id="unsorted",
    ),
]


@pytest.mark.parametrize(
    "key_list",
    _KEY_LISTS + [pytest.param(keys(0, 700) + [b"", b"\xff" * 40], id="700-and-extremes")],
)
@pytest.mark.parametrize("oversize", [1, 100])
def test_add_all_sets_the_same_bits_as_sequential_add(key_list, oversize):
    """The bulk path sets the bits one ``add`` per key and the plain reference
    set, whatever the order and lengths of the keys (shared prefixes, the
    empty key, unsorted input), into a dense or a 100x sparse filter."""
    bulk = BloomFilter(len(key_list) * oversize)
    bulk.add_all(key_list)
    assert bulk.to_bytes() == _sequential(len(key_list) * oversize, key_list).to_bytes()
    assert bulk.to_bytes()[10:] == _reference_bits(bulk, key_list)
    assert all(bulk.may_contain(k) for k in key_list)


@pytest.mark.parametrize(
    "bits_per_key,num_probes", [(10.0, 7), (1.0, 1), (4.0, 3), (16.0, 11), (60.0, 30)]
)
@pytest.mark.parametrize("num_keys", [7, 1500])
def test_bits_are_the_probe_sequence_positions(bits_per_key, num_probes, num_keys):
    """``add_all`` (and ``add``, which goes through it) sets exactly bit
    ``(h1 + i * h2) % num_bits`` for ``i < num_probes`` of each key's
    :func:`probe_sequence` pair ``(h1, h2)``, and nothing else, whether the
    probe loop runs as a loop or (at 7 probes) written out.  A 7-key filter
    has so few bits that most probe sequences wrap around it."""
    key_list = [random.Random(num_keys).randbytes(1 + i % 23) for i in range(num_keys)]
    reference = bytearray(BloomFilter(num_keys, bits_per_key)._bitmap)
    bulk, single = BloomFilter(num_keys, bits_per_key), BloomFilter(num_keys, bits_per_key)
    assert bulk.num_probes == num_probes
    for k in key_list:
        h1, h2 = probe_sequence(k)
        for i in range(num_probes):
            reference[(h1 + i * h2) % bulk.num_bits] = 1
        single.add(k)
    bulk.add_all(key_list)
    assert bulk._bitmap == reference
    assert single._bitmap == reference


@pytest.mark.parametrize("key_list", _KEY_LISTS + [pytest.param([], id="empty")])
@pytest.mark.parametrize("bits_per_key", [10.0, 60.0])
@pytest.mark.parametrize("preset", [False, True], ids=["blank", "preset"])
def test_add_all_scratch_map_packs_to_the_bits_add_sets(key_list, bits_per_key, preset):
    """The byte-per-bit map packs into the filter bytes one ``add`` per key
    sets and the plain reference computes, for a bit count that is not a
    multiple of 8, at a flushed table's density (10 bits/key) and a
    compaction output's (~60), over bits already set."""
    expected_keys = max(len(key_list), 7)
    while int(expected_keys * bits_per_key) % 8 == 0:
        expected_keys += 1
    bulk = BloomFilter(expected_keys, bits_per_key)
    single = BloomFilter(expected_keys, bits_per_key)
    assert bulk.num_bits % 8
    earlier = keys(50_000, 20) if preset else []
    for k in earlier:
        bulk.add(k)
        single.add(k)
    bulk.add_all(key_list)
    for k in key_list:
        single.add(k)
    assert bulk.to_bytes() == single.to_bytes()
    assert bulk.to_bytes()[10:] == _reference_bits(bulk, earlier + key_list)


def test_may_contain_is_the_probe_loop_applied_to_the_base_hash():
    """``may_contain`` is ``probe`` over the key's probe pair, whose first
    half is the base hash (CRC-32) and whose second is the odd step; the
    pair is a value, not extended by the filters it is handed to."""
    filt = BloomFilter(500)
    filt.add_all(keys(0, 500))
    for k in keys(0, 500) + keys(10_000, 2_000) + [b"", b"\x00"]:
        pair = probe_sequence(k)
        assert pair[0] == zlib.crc32(k)
        assert pair[1] % 2 == 1
        assert filt.may_contain(k) == filt.probe(pair)
        assert probe_sequence(k) == pair
    assert filt.num_probes == 7
    assert all(filt.probe(probe_sequence(k)) for k in keys(0, 500))
    assert not all(filt.probe(probe_sequence(k)) for k in keys(10_000, 2_000))
    assert probe_sequence(b"") == (0, 1)
    # CRC-32's published check value; the step is the high half of
    # 0xCBF43926 * 0x9E3779B97F4A7C15 mod 2**64, already odd.
    assert probe_sequence(b"123456789") == (0xCBF43926, 0xF313C243)


def _reference_answer(blob: bytes, reference_bits: bytes, key: bytes) -> bool:
    """Membership written out plainly against ``_reference_bits``: every
    probe position of the double-hashing sequence, under the serialized
    filter's own bit and probe counts."""
    num_bits = int.from_bytes(blob[0:8], "little")
    num_probes = int.from_bytes(blob[8:10], "little")
    return all(
        reference_bits[pos // 8] & (1 << (pos % 8))
        for pos in _reference_positions(key, num_bits, num_probes)
    )


@pytest.mark.parametrize("order", [(1, 7, 30), (30, 7, 1), (7, 30, 1)])
def test_filters_with_mixed_probe_counts_share_one_probe_sequence(order):
    """Tables written under different ``bits_per_key`` meet in one get: one
    probe pair serves every filter, whatever its probe count and in any
    order, and each answers exactly as its reference bits say, for members
    and not."""
    members = keys(0, 300)
    blobs, bits = {}, {}
    for num_probes in (1, 7, 30):
        filt = BloomFilter(len(members), num_probes / math.log(2))
        assert filt.num_probes == num_probes
        filt.add_all(members)
        blobs[num_probes] = filt.to_bytes()
        bits[num_probes] = _reference_bits(filt, members)
        assert blobs[num_probes][10:] == bits[num_probes]
    loaded = [(n, BloomFilter.from_bytes(blobs[n])) for n in order]
    assert [filt.num_probes for _, filt in loaded] == list(order)
    answers = {n: set() for n in order}
    for k in members + keys(10_000, 3_000):
        pair = probe_sequence(k)
        for n, filt in loaded:
            answer = filt.probe(pair)
            assert answer == _reference_answer(blobs[n], bits[n], k), (n, k)
            answers[n].add(answer)
        assert pair == probe_sequence(k)
    assert answers[1] == {True, False}  # the sparse filter passes some strangers


def test_bitmap_round_trips_through_the_packed_bytes():
    """A loaded filter serializes to the bytes it was loaded from, trailing
    bits past ``num_bits`` in the last byte included."""
    filt = BloomFilter(37, bits_per_key=3)
    assert filt.num_bits % 8
    filt.add_all(keys(0, 37))
    blob = filt.to_bytes()
    assert BloomFilter.from_bytes(blob).to_bytes() == blob
    noisy = blob[:-1] + bytes([blob[-1] | 0x80])
    assert BloomFilter.from_bytes(noisy + b"tail").to_bytes() == noisy
    assert BloomFilter.from_bytes(noisy).serialized_size() == len(noisy)


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda blob: blob[:-1], id="one-byte-short"),
        pytest.param(lambda blob: blob[:10], id="header-only"),
        pytest.param(lambda blob: blob[:6], id="short-header"),
        pytest.param(lambda blob: b"", id="empty"),
        pytest.param(lambda blob: bytes(len(blob)), id="zeroed"),
        pytest.param(lambda blob: bytes(8) + blob[8:], id="zero-bits"),
        pytest.param(lambda blob: blob[:8] + bytes(2) + blob[10:], id="zero-probes"),
        pytest.param(lambda blob: blob[:8] + b"\x1f\x00" + blob[10:], id="31-probes"),
    ],
)
def test_from_bytes_rejects_a_damaged_payload(damage):
    """Typed error at load time, not IndexError / ZeroDivisionError at the
    first probe."""
    blob = BloomFilter(200).to_bytes()
    with pytest.raises(LsmError):
        BloomFilter.from_bytes(damage(blob))
