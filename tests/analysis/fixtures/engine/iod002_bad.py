"""IOD002 fixture: device bytes bypassing the sanctioned csd write path.

Lives outside a ``csd/`` path segment, so the discipline rule applies.
"""


def sneak(device) -> bytes:
    device._stable[3] = b"\x00" * 4096  # IOD002: private stable store
    device._pending.pop(3, None)  # IOD002: private pending journal
    device._journal_put(3, None)  # IOD002: private journal mutator
    device._check_range(3, 1)  # IOD002: internal validation helper
    device.ftl.record_write(3, 100)  # IOD002: direct FTL accounting
    return device.read_block(3)


def sanctioned(device, lba: int, data: bytes) -> bytes:
    device.write_block(lba, data)
    device.flush()  # also keeps the trim flush-dominated (CRS008 scope)
    device.trim(lba + 1)
    return device.read_block(lba)
