"""Whole-program container: a module of IR functions plus its call graph.

The static pass of the paper operates on LLVM bitcode, where a function call
either carries ``readonly``/``readnone`` attributes (added automatically by
LLVM "when it can determine that they hold", Section 3.4.2) or must be
treated as clobbering the whole sync-set.  To reproduce that pipeline the IR
needs a notion of *module*: several functions, the calls between them, and a
place to hang interprocedural facts.

:class:`Program` keeps the functions and derives the call graph from their
:class:`~repro.compiler.ir.CallInstr` instructions (a call to a name that is
not defined in the module is an *external* call).  The attribute inference
of :mod:`repro.compiler.attributes` and the CLI's ``ir`` command both work on
programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.compiler.ir import CallInstr, Function
from repro.errors import CompilerError


@dataclass
class CallSite:
    """One call instruction inside a function of the program."""

    caller: str
    block: str
    index: int
    instr: CallInstr

    @property
    def callee(self) -> str:
        return self.instr.callee

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CallSite({self.caller}:{self.block}[{self.index}] -> {self.callee})"


@dataclass
class Program:
    """A named collection of IR functions."""

    name: str = "module"
    functions: Dict[str, Function] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_functions(cls, functions: Iterable[Function], name: str = "module") -> "Program":
        program = cls(name=name)
        for function in functions:
            program.add(function)
        return program

    def add(self, function: Function) -> Function:
        if function.name in self.functions:
            raise CompilerError(f"function {function.name!r} already defined in program {self.name!r}")
        self.functions[function.name] = function
        return function

    def replace(self, function: Function) -> Function:
        """Swap in a new body for an existing function (after a pass ran)."""
        if function.name not in self.functions:
            raise CompilerError(f"cannot replace unknown function {function.name!r}")
        self.functions[function.name] = function
        return function

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError as exc:
            raise CompilerError(f"no function named {name!r} in program {self.name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __len__(self) -> int:
        return len(self.functions)

    # ------------------------------------------------------------------
    # call graph
    # ------------------------------------------------------------------
    def call_sites(self, caller: Optional[str] = None) -> List[CallSite]:
        """Every :class:`CallInstr` in the program (or in one function)."""
        names = [caller] if caller is not None else list(self.functions)
        sites: List[CallSite] = []
        for name in names:
            function = self.function(name)
            for block_name, block in function.blocks.items():
                for index, instr in enumerate(block.instructions):
                    if isinstance(instr, CallInstr):
                        sites.append(CallSite(name, block_name, index, instr))
        return sites

    def callers_of(self, callee: str) -> Set[str]:
        return {site.caller for site in self.call_sites() if site.callee == callee}

    def external_callees(self) -> Set[str]:
        """Callee names that have no definition in this program."""
        return {site.callee for site in self.call_sites() if site.callee not in self.functions}

    def call_graph(self) -> Dict[str, Set[str]]:
        """``caller -> set of callees`` (including external names)."""
        graph: Dict[str, Set[str]] = {name: set() for name in self.functions}
        for site in self.call_sites():
            graph[site.caller].add(site.callee)
        return graph

    # ------------------------------------------------------------------
    # traversal orders
    # ------------------------------------------------------------------
    def bottom_up_order(self) -> List[str]:
        """Functions ordered callees-before-callers (cycles broken arbitrarily).

        This is the order interprocedural attribute inference wants: by the
        time a caller is visited, the facts about (non-recursive) callees are
        already final.
        """
        graph = self.call_graph()
        visited: Set[str] = set()
        on_stack: Set[str] = set()
        order: List[str] = []

        def visit(name: str) -> None:
            stack: List[Tuple[str, Iterator[str]]] = [(name, iter(sorted(graph.get(name, ()))))]
            on_stack.add(name)
            visited.add(name)
            while stack:
                node, callees = stack[-1]
                advanced = False
                for callee in callees:
                    if callee in self.functions and callee not in visited:
                        visited.add(callee)
                        on_stack.add(callee)
                        stack.append((callee, iter(sorted(graph.get(callee, ())))))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    on_stack.discard(node)
                    order.append(node)

        for name in sorted(self.functions):
            if name not in visited:
                visit(name)
        return order

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def dump(self) -> str:
        parts = [f"program {self.name} ({len(self.functions)} functions)"]
        for name in sorted(self.functions):
            parts.append(self.functions[name].dump())
        return "\n\n".join(parts)

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-function instruction statistics (used by the CLI)."""
        from repro.compiler.ir import AsyncCallInstr, LocalInstr, QueryInstr, SyncInstr

        out: Dict[str, Dict[str, int]] = {}
        for name, function in self.functions.items():
            out[name] = {
                "blocks": len(function.blocks),
                "syncs": function.count_instructions(SyncInstr),
                "queries": function.count_instructions(QueryInstr),
                "async_calls": function.count_instructions(AsyncCallInstr),
                "locals": function.count_instructions(LocalInstr),
                "calls": function.count_instructions(CallInstr),
            }
        return out
