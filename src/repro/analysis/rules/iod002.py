"""IOD002 — I/O discipline: device bytes move only through the public path.

Scope: everywhere *outside* ``csd/`` (the device implementation itself).

Every byte that reaches simulated flash must flow through the sanctioned
:class:`repro.csd.device.BlockDevice` surface — ``write_block``,
``write_blocks``, ``trim``, ``flush``, ``read_block(s)`` — because that is
where write amplification, IOPS, and compression accounting live.  Code
that pokes the device's private state (the stable store, the pending write
journal, the latent-corruption masks) or drives the FTL's accounting
directly produces bytes the WA ledger never sees — the exact silent
accounting drift the differential tests exist to catch.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.framework import FileContext, Finding, Rule, register

#: Private members of the device layer that only ``csd/`` may touch.
DEVICE_PRIVATE_ATTRS = frozenset(
    {
        "_stable",       # durable block store
        "_pending",      # ordered pending write journal
        "_journal_put",  # pending-journal mutator
        "_check_range",  # internal validation helper
        "_masks",        # latent-corruption masks (FaultInjectingDevice)
    }
)

#: FTL accounting mutators; calling them outside ``csd/`` double-counts or
#: hides write volume.
FTL_MUTATORS = frozenset({"record_write", "record_writes", "record_trim"})


@register
class IoDiscipline(Rule):
    id = "IOD002"
    title = "device bytes bypassing the sanctioned csd write path"
    severity = "error"
    invariant = (
        "All device I/O flows through write_block(s)/trim/flush/read_block(s) "
        "so WA/IOPS accounting sees every byte."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.has_path_segment("csd")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in DEVICE_PRIVATE_ATTRS:
                yield self.make(
                    ctx, node,
                    f"access to device-private `.{node.attr}` outside csd/; "
                    f"use the public BlockDevice API "
                    f"(write_block(s)/trim/flush/read_block(s))",
                )
            elif node.attr in FTL_MUTATORS and self._receiver_is_ftl(node):
                yield self.make(
                    ctx, node,
                    f"direct FTL accounting call `.ftl.{node.attr}(...)` outside "
                    f"csd/; write through the BlockDevice API instead",
                )

    @staticmethod
    def _receiver_is_ftl(node: ast.Attribute) -> bool:
        value = node.value
        return (isinstance(value, ast.Attribute) and value.attr == "ftl") or (
            isinstance(value, ast.Name) and value.id == "ftl"
        )
