"""Unit tests for the programmable fault-injection layer."""

import random
from dataclasses import asdict

import pytest

from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.csd.faults import (
    RETRY_ATTEMPTS,
    FaultInjectingDevice,
    FaultPlan,
    ScriptedFault,
    read_block_retrying,
    read_blocks_retrying,
    trim_retrying,
    write_block_retrying,
    write_blocks_retrying,
)
from repro.errors import (
    FaultInjectionError,
    SimulatedCrashError,
    TornWriteError,
    TransientIOError,
)
from repro.metrics import FaultStats


def block(seed: int, tag: int = 0) -> bytes:
    rng = random.Random((seed << 8) | tag)
    return bytes(rng.getrandbits(8) for _ in range(BLOCK_SIZE))


def wrapped(plan=None, num_blocks=256, record_ops=False):
    inner = CompressedBlockDevice(num_blocks=num_blocks)
    return FaultInjectingDevice(inner, plan, record_ops=record_ops)


# ----------------------------------------------------------- transparency


def test_fault_free_plan_is_transparent():
    """An empty plan must behave exactly like the bare device."""
    device = wrapped()
    data = block(1)
    device.write_block(7, data)
    device.write_blocks(10, block(2) + block(3))
    device.flush()
    assert device.read_block(7) == data
    assert device.read_blocks(10, 2) == block(2) + block(3)
    device.trim(7)
    device.flush()
    assert device.read_block(7) == bytes(BLOCK_SIZE)
    assert device.injected.total == 0
    # Delegation: untouched attributes come from the wrapped device.
    assert device.num_blocks == 256
    assert device.physical_bytes_used == device.inner.physical_bytes_used


def test_fault_free_wrapper_matches_bare_device_byte_for_byte():
    """Differential: same op stream through wrapper and bare device."""
    bare = CompressedBlockDevice(num_blocks=64)
    faulty = wrapped(num_blocks=64)
    rng = random.Random(99)
    for _ in range(300):
        action = rng.randrange(5)
        lba = rng.randrange(60)
        if action == 0:
            data = block(rng.randrange(1 << 16))
            bare.write_block(lba, data)
            faulty.write_block(lba, data)
        elif action == 1:
            data = block(rng.randrange(1 << 16)) + block(rng.randrange(1 << 16))
            bare.write_blocks(lba, data)
            faulty.write_blocks(lba, data)
        elif action == 2:
            bare.trim(lba)
            faulty.trim(lba)
        elif action == 3:
            bare.flush()
            faulty.flush()
        else:
            assert bare.read_block(lba) == faulty.read_block(lba)
    assert bare.physical_bytes_used == faulty.physical_bytes_used
    assert faulty.injected.total == 0


# ------------------------------------------------------------- validation


@pytest.mark.parametrize("bad_plan", [
    FaultPlan(transient_read_rate=1.5),
    FaultPlan(dropped_trim_rate=-0.1),
    FaultPlan(max_faults=-1),
    FaultPlan(scripted=(ScriptedFault(0, "nonsense"),)),
    FaultPlan(scripted=(ScriptedFault(-1, "crash"),)),
    FaultPlan(scripted=(ScriptedFault(0, "corrupt"),)),  # needs an lba
    FaultPlan(scripted=(ScriptedFault(0, "crash", mode="sideways"),)),
])
def test_plan_validation_rejects(bad_plan):
    with pytest.raises(FaultInjectionError):
        FaultInjectingDevice(CompressedBlockDevice(num_blocks=8), bad_plan)


# ------------------------------------------------- transient faults + retry


def test_transient_read_fault_heals_on_retry():
    device = wrapped(FaultPlan(scripted=(ScriptedFault(2, "transient-read"),)))
    device.write_block(3, block(4))
    device.flush()
    with pytest.raises(TransientIOError):
        device.read_block(3)  # op 2 (write, flush, read): the scripted fault
    assert device.read_block(3) == block(4)
    stats = FaultStats()
    device2 = wrapped(FaultPlan(scripted=(ScriptedFault(1, "transient-read"),)))
    device2.write_block(3, block(4))
    assert read_block_retrying(device2, 3, stats) == block(4)
    assert stats.transient_read_retries == 1


def test_transient_write_fault_applies_nothing_then_heals():
    stats = FaultStats()
    device = wrapped(FaultPlan(scripted=(ScriptedFault(0, "transient-write"),)))
    write_block_retrying(device, 5, block(7), stats)
    device.flush()
    assert device.read_block(5) == block(7)
    assert stats.transient_write_retries == 1
    assert device.injected.transient_writes == 1


def test_retry_budget_exhaustion_reraises():
    always = FaultPlan(transient_read_rate=1.0)
    device = wrapped(always)
    with pytest.raises(TransientIOError):
        read_block_retrying(device, 0, attempts=RETRY_ATTEMPTS)
    assert device.injected.transient_reads == RETRY_ATTEMPTS


def test_torn_write_applies_strict_prefix_then_retry_completes():
    stats = FaultStats()
    device = wrapped(FaultPlan(seed=5, scripted=(ScriptedFault(0, "torn-write"),)))
    payload = block(1) + block(2) + block(3)
    write_blocks_retrying(device, 20, payload, stats)
    device.flush()
    assert device.read_blocks(20, 3) == payload  # full-request retry healed it
    assert stats.torn_write_retries == 1
    assert device.injected.torn_writes == 1


def test_torn_write_without_retry_leaves_a_prefix():
    device = wrapped(FaultPlan(seed=5, scripted=(ScriptedFault(0, "torn-write"),)))
    payload = block(1) + block(2) + block(3)
    with pytest.raises(TornWriteError):
        device.write_blocks(20, payload)
    device.flush()
    landed = device.read_blocks(20, 3)
    applied = 0
    for i in range(3):
        chunk = landed[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]
        if chunk == payload[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]:
            applied += 1
        else:
            assert chunk == bytes(BLOCK_SIZE)  # nothing past the tear point
            break
    assert applied < 3  # strictly torn


def test_probabilistic_tear_never_hits_single_block_writes():
    device = wrapped(FaultPlan(seed=1, torn_write_rate=1.0))
    device.write_blocks(0, block(9))  # one block: must not tear
    assert device.injected.torn_writes == 0


# ----------------------------------------------------- corruption semantics


def test_latent_corruption_persists_until_rewrite_heals():
    device = wrapped()
    data = block(11)
    device.write_block(40, data)
    device.flush()
    device.corrupt_stable(40)
    first = device.read_block(40)
    assert first != data
    assert device.read_block(40) == first  # persistent, deterministic
    assert device.corrupted_lbas == [40]
    device.write_block(40, data)  # the rewrite heals the sector
    assert device.corrupted_lbas == []
    assert device.read_block(40) == data


def test_latent_corruption_survives_crash_and_heals_by_trim():
    device = wrapped()
    device.write_block(8, block(2))
    device.flush()
    device.corrupt_stable(8)
    device.simulate_crash()
    assert device.corrupted_lbas == [8]  # bit rot ignores power cycles
    device.trim(8)
    assert device.corrupted_lbas == []


def test_read_corruption_is_transient():
    device = wrapped(FaultPlan(scripted=(ScriptedFault(2, "read-corruption"),)))
    data = block(3)
    device.write_block(2, data)
    device.flush()
    assert device.read_block(2) != data  # this read is corrupted...
    assert device.read_block(2) == data  # ...the media was always fine
    assert device.injected.read_corruptions == 1


def test_corrupt_stable_bounds_checked():
    device = wrapped(num_blocks=16)
    with pytest.raises(FaultInjectionError):
        device.corrupt_stable(15, count=2)


# ------------------------------------------------------- silent misbehaviour


def test_dropped_trim_leaves_data_in_place():
    device = wrapped(FaultPlan(scripted=(ScriptedFault(1, "drop-trim"),)))
    data = block(6)
    device.write_block(9, data)
    device.trim(9)  # silently dropped
    device.flush()
    assert device.read_block(9) == data
    assert device.injected.dropped_trims == 1


def test_misdirected_write_lands_next_door():
    device = wrapped(FaultPlan(scripted=(ScriptedFault(0, "misdirect"),)))
    data = block(8)
    device.write_block(30, data)
    device.flush()
    assert device.read_block(31) == data
    assert device.read_block(30) == bytes(BLOCK_SIZE)
    assert device.injected.misdirected_writes == 1


# ------------------------------------------------------------ crash points


def test_scripted_crash_drop_loses_pending_writes():
    device = wrapped(FaultPlan(scripted=(ScriptedFault(3, "crash", mode="drop"),)))
    device.write_block(1, block(1))
    device.flush()
    device.write_block(2, block(2))  # pending when the crash fires
    with pytest.raises(SimulatedCrashError):
        device.write_block(3, block(3))  # op 3: crash fires before applying
    assert device.read_block(1) == block(1)
    assert device.read_block(2) == bytes(BLOCK_SIZE)
    assert device.read_block(3) == bytes(BLOCK_SIZE)
    assert device.injected.crashes == 1


def test_scripted_crash_keep_retains_pending_writes():
    device = wrapped(FaultPlan(scripted=(ScriptedFault(1, "crash", mode="keep"),)))
    device.write_block(1, block(1))
    with pytest.raises(SimulatedCrashError):
        device.write_block(2, block(2))  # crash fires before applying this
    assert device.read_block(1) == block(1)


def test_crash_points_fire_on_trim_and_flush_too():
    for setup in ("trim", "flush"):
        device = wrapped(FaultPlan(scripted=(ScriptedFault(1, "crash"),)))
        device.write_block(1, block(1))
        with pytest.raises(SimulatedCrashError):
            if setup == "trim":
                device.trim(1)
            else:
                device.flush()


# ------------------------------------------------- determinism + recording


def test_same_seed_same_faults():
    def run(seed):
        device = wrapped(FaultPlan(seed=seed, transient_read_rate=0.3,
                                   read_corruption_rate=0.2))
        device.write_block(0, block(0))
        device.flush()
        outcomes = []
        for _ in range(50):
            try:
                device.read_block(0)
                outcomes.append("ok")
            except TransientIOError:
                outcomes.append("fault")
        return outcomes, device.injected.as_dict()

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_max_faults_caps_probabilistic_injection():
    device = wrapped(FaultPlan(seed=0, transient_read_rate=1.0, max_faults=2))
    device.write_block(0, block(0))
    device.flush()
    for _ in range(2):
        with pytest.raises(TransientIOError):
            device.read_block(0)
    assert device.read_block(0) == block(0)  # budget spent: faults stop
    assert device.injected.transient_reads == 2


def test_op_log_records_the_mutation_stream():
    device = wrapped(record_ops=True)
    device.write_block(3, block(1))
    device.read_block(3)
    device.trim(3)
    device.flush()
    assert device.op_log == [
        ("write", 3, 1), ("read", 3, 1), ("trim", 3, 1), ("flush", -1, 0),
    ]


def test_zero_rate_plans_consume_no_rng():
    """Reads under an all-zero-rate plan leave the plan RNG untouched, so
    scripted crash reruns stay deterministic whatever the read count."""
    device = wrapped(FaultPlan(seed=7))
    device.write_block(0, block(0))
    device.flush()
    state = device._rng.getstate()
    for _ in range(25):
        device.read_block(0)
        device.read_blocks(0, 1)
    assert device._rng.getstate() == state


def test_read_blocks_retrying_and_multi_corruption():
    stats = FaultStats()
    device = wrapped(FaultPlan(scripted=(ScriptedFault(2, "transient-read"),)))
    payload = block(1) + block(2)
    device.write_blocks(4, payload)
    device.flush()
    assert read_blocks_retrying(device, 4, 2, stats) == payload
    assert stats.transient_read_retries == 1


# ---------------------------------------------------------------- repeat


def test_scripted_repeat_fires_at_consecutive_op_indices():
    fault = ScriptedFault(2, "transient-read", repeat=3)
    device = wrapped(FaultPlan(scripted=(fault,)))
    device.write_block(0, block(0))  # op 0
    device.flush()                   # op 1
    for _ in range(3):               # ops 2..4 all fault
        with pytest.raises(TransientIOError):
            device.read_block(0)
    assert device.read_block(0) == block(0)  # op 5: past the repeat span


def test_scripted_repeat_outlasts_the_bounded_retry_helper():
    """A repeat longer than RETRY_ATTEMPTS forces the fault past the
    engine-level retry helpers, to whoever sits above them."""
    stats = FaultStats()
    fault = ScriptedFault(1, "transient-read", repeat=RETRY_ATTEMPTS + 1)
    device = wrapped(FaultPlan(scripted=(fault,)))
    device.write_block(0, block(0))  # op 0
    with pytest.raises(TransientIOError):
        read_block_retrying(device, 0, stats)
    assert stats.transient_read_retries == RETRY_ATTEMPTS
    # One more span-exhausting read succeeds (indices past the span).
    assert read_block_retrying(device, 0, stats) == block(0)


def test_scripted_repeat_validation():
    with pytest.raises(FaultInjectionError):
        FaultPlan(scripted=(ScriptedFault(0, "transient-read", repeat=0),)
                  ).validate()


# ------------------------------------------------------ retry-count matrix


def _loop_retrying(op, stats, attempts, writes):
    """The retry loop of the helpers' first form, kept as the oracle: each
    attempt calls ``op()``, a closure over the device call."""
    for remaining in range(attempts - 1, -1, -1):
        try:
            return op()
        except TransientIOError:
            if stats is not None:
                if writes:
                    stats.transient_write_retries += 1
                else:
                    stats.transient_read_retries += 1
            if not remaining:
                raise
        except TornWriteError:
            if not writes:
                raise
            if stats is not None:
                stats.torn_write_retries += 1
            if not remaining:
                raise


class _FaultScript:
    """A device whose next I/O calls raise the scripted faults in order,
    then pass through to a real device; ``ops`` counts every call."""

    def __init__(self, faults):
        self.inner = CompressedBlockDevice(num_blocks=16)
        self.inner.write_blocks(0, block(1) + block(2))
        self.faults = list(faults)
        self.ops = 0

    def _issue(self, method, *args):
        self.ops += 1
        if self.faults:
            raise self.faults.pop(0)("scripted")
        return getattr(self.inner, method)(*args)

    def read_block(self, lba):
        return self._issue("read_block", lba)

    def read_blocks(self, lba, count):
        return self._issue("read_blocks", lba, count)

    def write_block(self, lba, data):
        return self._issue("write_block", lba, data)

    def write_blocks(self, lba, data):
        return self._issue("write_blocks", lba, data)

    def trim(self, lba, count=1):
        return self._issue("trim", lba, count)


#: Each helper, the device call its oracle makes, and whether it writes.
_HELPERS = {
    "read_block": (
        lambda dev, stats, n: read_block_retrying(dev, 1, stats, n),
        lambda dev: dev.read_block(1), False),
    "read_blocks": (
        lambda dev, stats, n: read_blocks_retrying(dev, 0, 2, stats, n),
        lambda dev: dev.read_blocks(0, 2), False),
    "write_block": (
        lambda dev, stats, n: write_block_retrying(dev, 3, block(3), stats, n),
        lambda dev: dev.write_block(3, block(3)), True),
    "write_blocks": (
        lambda dev, stats, n: write_blocks_retrying(dev, 4, block(4) + block(5), stats, n),
        lambda dev: dev.write_blocks(4, block(4) + block(5)), True),
    "trim": (
        lambda dev, stats, n: trim_retrying(dev, 0, 2, stats, n),
        lambda dev: dev.trim(0, 2), True),
}


def _fault_scripts(name):
    """``k`` consecutive faults for every ``k`` in ``0..RETRY_ATTEMPTS``:
    transient ones for every helper; torn, and torn mixed with transient,
    for ``write_blocks``; a torn fault a read must not absorb."""
    kinds = [[TransientIOError]]
    if name == "write_blocks":
        kinds += [[TornWriteError], [TornWriteError, TransientIOError]]
    if name == "read_block":
        kinds += [[TransientIOError, TornWriteError]]
    for cycle in kinds:
        for k in range(RETRY_ATTEMPTS + 1):
            yield [cycle[i % len(cycle)] for i in range(k)]


def _outcome(call, device, stats):
    try:
        result = ("returned", call())
    except (TransientIOError, TornWriteError) as exc:
        result = ("raised", type(exc))
    return result, asdict(stats), device.ops, device.inner.stats


@pytest.mark.parametrize("name", sorted(_HELPERS))
def test_retry_helpers_match_the_loop_oracle(name):
    """Every helper retries exactly as the closure-per-attempt loop does:
    same result or fault raised, same counters, same device op count, for
    ``k`` consecutive scripted faults and budgets of 1 and
    :data:`RETRY_ATTEMPTS`."""
    helper, device_call, writes = _HELPERS[name]
    for script in _fault_scripts(name):
        for attempts in (1, RETRY_ATTEMPTS):
            device, stats = _FaultScript(script), FaultStats()
            got = _outcome(lambda: helper(device, stats, attempts), device, stats)
            device, stats = _FaultScript(script), FaultStats()
            want = _outcome(
                lambda: _loop_retrying(lambda: device_call(device), stats, attempts, writes),
                device, stats,
            )
            assert got == want, (script, attempts)
