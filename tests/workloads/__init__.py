"""Workload tests, and the one helper they share."""


def decode_key(key: bytes) -> int:
    """The record index of a workload key (the inverse of
    :func:`repro.workloads.records.encode_key`)."""
    return int.from_bytes(key, "big")
