"""Execute IR functions against a live SCOOP/Qs runtime.

The interpreter is the bridge between the compiler substrate and the
threaded runtime: a workload expresses its communication loop as IR, the
configured optimizations are applied (query lowering, static sync
coalescing) and the result is executed through the normal client API so that
every remaining operation is really performed — and really counted.

Control flow is driven either by an explicit *trace* (a sequence of block
names, which is how the data-transfer loops execute a body block ``n``
times) or by a *controller* callback deciding which successor to take.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from repro.compiler.alias import AliasInfo
from repro.compiler.ir import (
    AsyncCallInstr,
    CallInstr,
    Function,
    LocalInstr,
    QueryInstr,
    SyncInstr,
)
from repro.compiler.lowering import lower_queries
from repro.compiler.sync_elision import ElisionReport, SyncElisionPass
from repro.core.region import SeparateRef
from repro.core.runtime import QsRuntime
from repro.errors import CompilerError

Controller = Callable[[str, Dict[str, Any]], Optional[str]]


def _noop_handler_action(obj: Any, env: Dict[str, Any]) -> None:
    return None


def _noop_local_action(env: Dict[str, Any]) -> None:
    return None


class IRInterpreter:
    """Run IR functions through a runtime's client API."""

    def __init__(
        self,
        runtime: QsRuntime,
        bindings: Dict[str, SeparateRef],
        aliases: Optional[AliasInfo] = None,
    ) -> None:
        self.runtime = runtime
        self.bindings = dict(bindings)
        # Handler variables bound to distinct runtime handlers genuinely do
        # not alias; give the static pass that knowledge, mirroring what the
        # paper says about supplying more aliasing information (Section 3.4.3).
        if aliases is None:
            aliases = AliasInfo.worst_case()
            by_handler: Dict[Any, list[str]] = {}
            for name, ref in self.bindings.items():
                by_handler.setdefault(ref.handler, []).append(name)
            names = list(self.bindings)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    if self.bindings[a].handler is not self.bindings[b].handler:
                        aliases.declare_distinct(a, b)
        self.aliases = aliases
        self.last_report: Optional[ElisionReport] = None

    # ------------------------------------------------------------------
    # compilation pipeline
    # ------------------------------------------------------------------
    def prepare(self, function: Function) -> Function:
        """Apply the configured lowering and optimization passes."""
        config = self.runtime.config
        prepared = function
        if config.client_executed_queries:
            prepared = lower_queries(prepared)
        if config.static_sync_coalescing:
            prepared, report = SyncElisionPass(self.aliases).run(prepared)
            self.last_report = report
        else:
            self.last_report = None
        return prepared

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        function: Function,
        trace: Optional[Sequence[str]] = None,
        controller: Optional[Controller] = None,
        env: Optional[Dict[str, Any]] = None,
        max_blocks: int = 1_000_000,
        prepared: bool = False,
    ) -> Dict[str, Any]:
        """Execute ``function``; returns the (mutated) environment dict."""
        env = env if env is not None else {}
        fn = function if prepared else self.prepare(function)

        if trace is not None:
            for name in trace:
                self._run_block(fn, name, env)
            return env

        current: Optional[str] = fn.entry
        executed = 0
        while current is not None:
            executed += 1
            if executed > max_blocks:
                raise CompilerError(f"execution of {fn.name!r} exceeded {max_blocks} blocks")
            block = fn.block(current)
            self._run_block(fn, current, env)
            if controller is not None:
                current = controller(current, env)
            elif not block.successors:
                current = None
            elif len(block.successors) == 1:
                current = block.successors[0]
            else:
                raise CompilerError(
                    f"block {current!r} has several successors; provide a trace or controller"
                )
        return env

    def _run_block(self, fn: Function, name: str, env: Dict[str, Any]) -> None:
        client = self.runtime.current_client()
        for instr in fn.block(name).instructions:
            if isinstance(instr, SyncInstr):
                client.sync(self._ref(instr.handler))
            elif isinstance(instr, QueryInstr):
                action = instr.action or _noop_handler_action
                env["__last__"] = client.query(self._ref(instr.handler), action, env)
            elif isinstance(instr, AsyncCallInstr):
                action = instr.action or _noop_handler_action
                client.call(self._ref(instr.handler), action, env)
            elif isinstance(instr, LocalInstr):
                if instr.handler is not None:
                    action = instr.action or _noop_handler_action
                    env["__last__"] = client.presynced_query(self._ref(instr.handler), action, env)
                elif instr.action is not None:
                    env["__last__"] = instr.action(env)
            elif isinstance(instr, CallInstr):
                if instr.action is not None:
                    env["__last__"] = instr.action(env)
            else:  # pragma: no cover - defensive
                raise CompilerError(f"cannot execute unknown instruction {instr!r}")

    def _ref(self, handler_var: str) -> SeparateRef:
        try:
            return self.bindings[handler_var]
        except KeyError as exc:
            raise CompilerError(f"no binding for handler variable {handler_var!r}") from exc
