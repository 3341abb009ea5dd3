"""Computational storage drive (CSD) simulator.

This package stands in for the ScaleFlux drive used in the paper: a block
device that transparently compresses every 4KB block with a hardware zlib
engine directly on the I/O path, maps the resulting variable-length extents
through an FTL, and reports the amount of post-compression data physically
written to flash (the quantity the paper's write-amplification numbers are
computed from).

:mod:`repro.csd.faults` layers programmable fault injection on top: a
:class:`FaultInjectingDevice` wrapper driven by a seeded :class:`FaultPlan`
(latent corruption, transient I/O errors, torn writes, dropped TRIMs,
misdirected writes, scripted crash points).
"""

from repro.csd.arena import ScratchArena
from repro.csd.compression import (
    Compressor,
    NullCompressor,
    ZeroRunEstimator,
    ZlibCompressor,
)
from repro.csd.device import (
    BLOCK_SIZE,
    BlockDevice,
    CompressedBlockDevice,
    PlainSSD,
)
from repro.csd.faults import (
    RETRY_ATTEMPTS,
    FaultInjectingDevice,
    FaultPlan,
    InjectionStats,
    ScriptedFault,
    read_block_retrying,
    read_blocks_retrying,
    trim_retrying,
    write_block_retrying,
    write_blocks_retrying,
)
from repro.csd.ftl import FlashTranslationLayer
from repro.csd.latency import DeviceLatencyModel, HostCostModel
from repro.csd.stats import DeviceStats

__all__ = [
    "BLOCK_SIZE",
    "BlockDevice",
    "CompressedBlockDevice",
    "Compressor",
    "DeviceLatencyModel",
    "DeviceStats",
    "FaultInjectingDevice",
    "FaultPlan",
    "FlashTranslationLayer",
    "HostCostModel",
    "InjectionStats",
    "NullCompressor",
    "PlainSSD",
    "RETRY_ATTEMPTS",
    "ScratchArena",
    "ScriptedFault",
    "ZeroRunEstimator",
    "ZlibCompressor",
    "read_block_retrying",
    "read_blocks_retrying",
    "trim_retrying",
    "write_block_retrying",
    "write_blocks_retrying",
]
