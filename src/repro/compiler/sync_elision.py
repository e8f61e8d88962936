"""The sync-coalescing transformation: remove provably-redundant syncs.

Given the sync-sets computed by :class:`~repro.compiler.sync_analysis.SyncSetAnalysis`,
a ``sync h`` instruction can be removed when ``h`` is already in the sync-set
at that program point — the handler is guaranteed to be parked on this
client's queue, so the round trip is pure overhead (Section 3.4.2, Fig. 14).

The pass walks each block with a running sync-set seeded from the block's
entry set, deleting redundant sync instructions and applying the Fig. 13
transfer function to everything it keeps.  It returns a *new* function (the
input is never mutated) together with an :class:`ElisionReport` that the
benchmarks use to count how many round trips the static optimization saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.compiler.alias import AliasInfo
from repro.compiler.ir import (
    AsyncCallInstr,
    BasicBlock,
    CallInstr,
    Function,
    QueryInstr,
    SyncInstr,
)
from repro.compiler.sync_analysis import SyncSetAnalysis, SyncSets


@dataclass
class ElisionReport:
    """What the static pass did to one function."""

    function_name: str
    total_syncs: int = 0
    removed_syncs: int = 0
    removed_by_block: Dict[str, int] = field(default_factory=dict)
    sync_sets: Optional[SyncSets] = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ElisionReport({self.function_name!r}: removed {self.removed_syncs}"
            f"/{self.total_syncs} syncs)"
        )


class SyncElisionPass:
    """Remove sync instructions whose handler is already synced."""

    name = "sync-coalescing"

    def __init__(self, aliases: Optional[AliasInfo] = None, optimistic: bool = True) -> None:
        self.aliases = aliases or AliasInfo.worst_case()
        self.analysis = SyncSetAnalysis(self.aliases, optimistic=optimistic)

    def run(self, function: Function) -> tuple[Function, ElisionReport]:
        sync_sets = self.analysis.run(function)
        universe = function.handlers()
        report = ElisionReport(function.name, sync_sets=sync_sets)

        new_blocks: List[BasicBlock] = []
        for name, block in function.blocks.items():
            if name not in sync_sets.entry_sets:
                # unreachable block: keep verbatim
                new_blocks.append(BasicBlock(name, list(block.instructions), list(block.successors)))
                report.total_syncs += sum(isinstance(i, SyncInstr) for i in block.instructions)
                continue
            current = set(sync_sets.entry(name))
            kept = []
            removed_here = 0
            for instr in block.instructions:
                if isinstance(instr, SyncInstr):
                    report.total_syncs += 1
                    if instr.handler in current:
                        removed_here += 1
                        continue  # redundant: drop it
                    current.add(instr.handler)
                    kept.append(instr)
                    continue
                if isinstance(instr, QueryInstr):
                    current.add(instr.handler)
                elif isinstance(instr, AsyncCallInstr):
                    current -= set(self.aliases.aliases_of(instr.handler, universe | {instr.handler}))
                elif isinstance(instr, CallInstr) and instr.clobbers:
                    current.clear()
                kept.append(instr)
            if removed_here:
                report.removed_by_block[name] = removed_here
                report.removed_syncs += removed_here
            new_blocks.append(BasicBlock(name, kept, list(block.successors)))

        optimized = Function(function.name, new_blocks, function.entry)
        return optimized, report
