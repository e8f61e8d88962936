"""Command-line interface to the SCOOP/Qs reproduction.

``python -m repro <command>`` gives terminal access to the library's main
entry points without writing a script:

=================  ==========================================================
command            what it does
=================  ==========================================================
``levels``         show the optimization levels and the feature flags behind
                   each paper column (Section 4)
``experiment``     run one of the table/figure drivers
                   (``table1`` .. ``table5``, ``summary``, ``eve``)
``figures``        render Fig. 16 / Fig. 17 as text bar charts from a fresh
                   run of the corresponding experiment
``ir``             print, analyse and optimize IR functions (the paper's
                   Figs. 12–15 pipeline): sync-sets, dominators, loops,
                   sync coalescing and hoisting
``explore``        concurrency testing, two modes: with a workload argument
                   (``bank-transfers``, ``sharded-counter``,
                   ``dining-philosophers``), schedule-fuzz it on the
                   simulator under seeded scheduling policies,
                   saving/replaying failing schedules
                   (``repro explore dining-philosophers --policy random
                   --seeds 200``); without one, run the operational-semantics
                   explorer on a paper program plus the static wait-for
                   graph deadlock analysis (Section 2.5)
``trace``          run a small traced workload on the runtime, dump the
                   instrumentation events and check the reasoning
                   guarantees on the actual execution
``run``            run one of the built-in end-to-end examples from the
                   :mod:`repro.workloads.runnable` registry
                   (``bank-transfers``, ``dining-philosophers``,
                   ``sharded-bank --shards N``)
``serve``          serve the case/allegation portal over HTTP on a sharded
                   runtime (``repro --backend process serve --port 8080``,
                   see ``docs/serving.md``)
=================  ==========================================================

The global ``--backend {threads,sim,process,async,process+async}`` option
selects the execution backend for the commands that run the runtime
(``run``, ``trace``, ``serve``): OS threads in wall-clock time, the deterministic
virtual-time simulator, one OS process per handler, asyncio event loops
hosting every handler (and any coroutine clients), or the hybrid composite
(handlers in worker processes, clients as coroutine tasks) — e.g. ``repro
--backend sim run bank-transfers`` or ``repro --backend async run
dining-philosophers``.  Full specs work too: ``process:4:bin`` caps the
worker pool at four and selects the compact binary wire codec, ``async:4``
spreads handlers over four event loops, ``process+async:4:2`` is four
worker processes with clients across two loops (see ``docs/backends.md``).

Every sub-command prints plain text only; exit status 0 means success, 1 is
used for analysis results that found problems (deadlock cycles, guarantee
violations) so the CLI is usable from shell scripts and CI.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.config import LEVEL_ORDER, QsConfig
from repro.core.api import command, query
from repro.core.region import SeparateObject

EXPERIMENTS = ("table1", "table2", "table3", "table4", "table5", "summary", "eve")


# ----------------------------------------------------------------------------
# sub-command implementations
# ----------------------------------------------------------------------------
def cmd_levels(_args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table

    rows = []
    for level in LEVEL_ORDER:
        config = QsConfig.from_level(level)
        rows.append(
            {
                "level": level.value,
                "qoq": config.use_qoq,
                "dyn-sync": config.dynamic_sync_coalescing,
                "static-sync": config.static_sync_coalescing,
                "client-query": config.client_executed_queries,
                "pq-cache": config.private_queue_cache,
                "handoff": config.direct_handoff,
            }
        )
    print(format_table(rows, title="Optimization levels (Section 4)"))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.name}")
    saved_argv = sys.argv
    sys.argv = [f"repro.experiments.{args.name}", *args.args]
    try:
        module.main()
    finally:
        sys.argv = saved_argv
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import figures, table1, table2
    from repro.workloads.params import concurrent_preset, parallel_preset

    if args.figure == "fig16":
        rows = table1.collect(parallel_preset(args.preset))
        print(figures.fig16(rows))
    elif args.figure == "fig17":
        rows = table2.collect(concurrent_preset(args.preset))
        print(figures.fig17(rows))
    elif args.figure == "fig18":
        from repro.experiments import table4

        print(figures.fig18(table4.fig18_rows()))
    elif args.figure == "fig19":
        from repro.experiments import table4

        print(figures.fig19(table4.fig19_rows()))
    else:  # fig20
        from repro.experiments import table5

        print(figures.fig20(table5.collect()))
    return 0


def _demo_function(name: str):
    from repro.compiler.builder import fig14_loop, fig15_loop, straightline_queries

    demos = {
        "fig14": fig14_loop,
        "fig15": fig15_loop,
        "straightline": lambda: straightline_queries("h_p", 4),
    }
    if name not in demos:
        raise SystemExit(f"unknown demo {name!r}; choose from {sorted(demos)}")
    return demos[name]()


def cmd_ir(args: argparse.Namespace) -> int:
    from repro.compiler.alias import AliasInfo
    from repro.compiler.dominators import compute_dominators, dominator_tree_lines
    from repro.compiler.loops import find_loops
    from repro.compiler.lowering import lower_queries
    from repro.compiler.parser import parse_function
    from repro.compiler.printer import print_function
    from repro.compiler.sync_analysis import SyncSetAnalysis
    from repro.compiler.sync_elision import SyncElisionPass
    from repro.compiler.sync_hoisting import SyncHoistingPass
    from repro.compiler.verify import verify_function

    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            function = parse_function(handle.read())
    else:
        function = _demo_function(args.demo)

    aliases = AliasInfo.worst_case()
    if args.distinct:
        aliases = AliasInfo.no_aliasing([v.strip() for v in args.distinct.split(",") if v.strip()])

    problems = verify_function(function)
    if problems:
        print("verifier problems:")
        for problem in problems:
            print(" ", problem)
        return 1

    print(print_function(function))
    print()
    if args.lower:
        function = lower_queries(function)
        print("after query lowering (Section 3.2):")
        print(print_function(function))
        print()

    sync_sets = SyncSetAnalysis(aliases).run(function)
    print("sync-sets (Fig. 12/13):")
    for name in function.reachable_blocks():
        entry = ",".join(sorted(sync_sets.entry(name))) or "{}"
        exit_ = ",".join(sorted(sync_sets.exit(name))) or "{}"
        print(f"  {name}: entry {{{entry}}} exit {{{exit_}}}")
    print()

    print("dominator tree:")
    for line in dominator_tree_lines(compute_dominators(function)):
        print(" ", line)
    loops = find_loops(function)
    print(f"natural loops: {', '.join(str(loop) for loop in loops.loops) or '(none)'}")
    print()

    if args.opt == "elide":
        optimized, report = SyncElisionPass(aliases).run(function)
        print(f"sync coalescing removed {report.removed_syncs}/{report.total_syncs} syncs")
    elif args.opt == "hoist":
        optimized, hoist_report = SyncHoistingPass(aliases).run(function)
        removed = hoist_report.elision.removed_syncs if hoist_report.elision else 0
        print(f"hoisted {hoist_report.hoisted_count} sync(s); elision then removed {removed}")
    else:
        return 0
    print()
    print(print_function(optimized))
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    if args.workload:
        return _explore_schedules(args)
    # the semantics mode has no notion of schedule traces; silently ignoring
    # these flags would make a forgotten workload argument look like a pass
    for flag, value in (("--replay", args.replay), ("--save-trace", args.save_trace),
                        ("--clients", args.clients), ("--iterations", args.iterations)):
        if value is not None:
            raise SystemExit(
                f"repro explore: {flag} requires a workload argument "
                f"(e.g. repro explore dining-philosophers {flag} ...)"
            )
    return _explore_semantics(args)


def _explore_schedules(args: argparse.Namespace) -> int:
    """Concurrency fuzzing: run a workload under many simulated schedules."""
    from repro.explore import explore, get_workload, replay
    from repro.explore.workloads import DEFAULT_CLIENTS, DEFAULT_ITERATIONS
    from repro.sched.policy import ScheduleTrace

    workload = get_workload(args.workload)

    if args.replay:
        # keep the *recorded* metadata before run_once attaches fresh
        # metadata (describing the replay itself) to the outcome's trace
        trace = ScheduleTrace.load(args.replay)
        recorded = dict(trace.meta or {})
        outcome = replay(workload, trace, clients=args.clients,
                         iterations=args.iterations)
        print(f"replaying recorded schedule {args.replay!r} for {workload.name!r}:")
        print(outcome.summary())
        expected = recorded.get("status")
        if expected is not None:
            match = (outcome.status == expected
                     and list(outcome.stuck_tasks) == recorded.get("stuck_tasks", [])
                     and outcome.virtual_time == recorded.get("virtual_time"))
            print(f"matches recording: {'yes' if match else 'NO'}")
            if not match:
                return 1
        return 0 if outcome.ok else 1

    clients = args.clients if args.clients is not None else DEFAULT_CLIENTS
    iterations = args.iterations if args.iterations is not None else DEFAULT_ITERATIONS
    print(f"exploring {workload.name!r} under policy {args.policy!r}: "
          f"{args.seeds} seeds, {clients} clients x {iterations} iterations")
    save_path = args.save_trace or f"{workload.name}.{args.policy}.trace.json"
    report = explore(workload, seeds=range(args.seed, args.seed + args.seeds),
                     policy=args.policy, clients=clients,
                     iterations=iterations, save_trace=save_path)
    print(f"ran {report.seeds_run} seeds ({report.distinct_schedules} distinct schedules)")
    if report.failure is None:
        print("no failures: every explored schedule satisfied the oracles")
        return 0
    print(f"minimal failing {report.failure.summary()}")
    print(f"schedule trace saved to {save_path}")
    print(f"replay with: repro explore {workload.name} --replay {save_path}")
    return 1


def _explore_semantics(args: argparse.Namespace) -> int:
    from repro.semantics.explorer import Explorer
    from repro.semantics.generator import ProgramSpec, random_configuration, random_programs
    from repro.semantics.programs import paper_programs
    from repro.semantics.waitgraph import build_wait_graph, explain, potential_deadlock_cycles

    if args.random is not None:
        spec = ProgramSpec()
        config = random_configuration(args.random, spec)
        programs = random_programs(args.random, spec)
        print(f"random configuration (seed {args.random}):")
    else:
        registry = paper_programs()
        if args.program not in registry:
            raise SystemExit(f"unknown program {args.program!r}; choose from {sorted(registry)}")
        config = registry[args.program]
        programs = {h.name: h.program for h in config.handlers if not h.idle}
        print(f"program {args.program!r}:")
    for name, program in programs.items():
        print(f"  {name}: {program}")
    print()

    graph = build_wait_graph(programs)
    cycles = potential_deadlock_cycles(graph)
    print(explain(graph, cycles))
    print()

    explorer = Explorer(max_states=args.max_states)
    result = explorer.explore(config)
    print(
        f"explored {result.states_visited} states: "
        f"{len(result.terminal_states)} terminal, {len(result.deadlock_states)} deadlocked"
        + (" (truncated)" if result.truncated else "")
    )
    if result.deadlock_states:
        print("first deadlocked configuration:")
        print(" ", result.deadlock_states[0])
        return 1
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run a built-in example end to end (on the selected backend).

    The examples come from the :mod:`repro.workloads.runnable` registry;
    all of them are deterministic (seeded RNGs), so the printed balances /
    meal counts are identical under ``--backend threads``, ``sim``,
    ``process``, ``async`` and ``process+async`` — which is exactly the
    backend-parity claim.
    """
    from repro.workloads.runnable import get_example

    if args.clients < 0 or args.iterations < 0:
        raise SystemExit("repro run: --clients and --iterations must be non-negative")
    if args.shards < 1:
        raise SystemExit("repro run: --shards must be >= 1")
    example = get_example(args.example)
    if args.clients < example.min_clients:
        raise SystemExit(
            f"repro run: {example.name} needs at least {example.min_clients} clients "
            f"({example.min_clients_reason})")
    return example.run(args)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro import QsRuntime
    from repro.core.guarantees import check_runtime

    # normalise the effective spec (flag, else environment) through the same
    # parser create_backend uses, so aliases ("PROCESS") and full specs
    # ("process:4:pickle") cannot sneak past the guard
    from repro.backends import BackendSpec

    effective = args.backend or os.environ.get("REPRO_BACKEND") or None
    if effective is not None:
        try:
            effective_name = BackendSpec.parse(effective).name
        except Exception:
            effective_name = None  # let the runtime raise its own spec error
        if effective_name in ("process", "process+async"):
            raise SystemExit(
                "repro trace: handler-side trace events are recorded in the handler's "
                "process, which the parent's tracer cannot see; use --backend threads or sim")

    class Account(SeparateObject):
        def __init__(self, balance=0):
            self.balance = balance

        @command
        def deposit(self, amount):
            self.balance += amount

        @command
        def withdraw(self, amount):
            self.balance -= amount

        @query
        def current(self):
            return self.balance

    with QsRuntime(args.level, trace=True, backend=args.backend) as rt:
        account = rt.new_handler("account").create(Account, 100)

        def client(n: int) -> None:
            for i in range(args.iterations):
                with rt.separate(account) as acc:
                    acc.deposit(n + i)
                    acc.withdraw(n)
                    acc.current()

        for n in range(args.clients):
            rt.client(client, n, name=f"client-{n}")
        rt.join_clients()
        rt.handler("account").shutdown()

        events = rt.trace_events()
        print(f"recorded {len(events)} events at level {args.level!r}; last {args.tail}:")
        for event in events[-args.tail:]:
            print(" ", event)
        print()
        print("counters:", {k: v for k, v in rt.stats().as_dict().items() if v})
        report = check_runtime(rt)
        if report.ok:
            print(f"reasoning guarantees hold on this execution "
                  f"({len(report.service_order.get('account', []))} blocks served in FIFO order)")
            return 0
        print("guarantee violations:")
        for violation in report.violations:
            print(" ", violation)
        return 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve the case portal until ``--duration`` elapses or Ctrl-C."""
    import time

    from repro import QsRuntime
    from repro.errors import ScoopError
    from repro.serve import serve_cases

    if args.shards < 1:
        raise SystemExit("repro serve: --shards must be >= 1")

    with QsRuntime(backend=args.backend) as rt:
        try:
            gateway = serve_cases(rt, shards=args.shards, host=args.host,
                                  port=args.port, watermark=args.watermark,
                                  cache=not args.no_cache)
        except ScoopError as exc:
            raise SystemExit(f"repro serve: {exc}") from None
        host, port = gateway.address
        print(f"serving cases on http://{host}:{port} "
              f"(backend {rt.backend.name}, {gateway.mode} dispatch, "
              f"{args.shards} shards, watermark {gateway.admission.watermark})")
        try:
            if args.duration is not None:
                time.sleep(args.duration)
            else:  # pragma: no cover - interactive serving loop
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            print("\ninterrupted")
        finally:
            gateway.stop()
    return 0


# ----------------------------------------------------------------------------
# parser wiring
# ----------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    from repro.backends import BACKEND_NAMES, SPEC_GRAMMAR, BackendSpec

    def backend_spec(text: str) -> str:
        # validate eagerly (so typos fail at the parser with the grammar in
        # hand) but pass the original spec string through to the runtime
        try:
            BackendSpec.parse(text)
        except Exception as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--backend", type=backend_spec, default=None,
                        metavar="{" + ",".join(BACKEND_NAMES) + "}[:...]",
                        help="execution backend for commands that run the runtime: "
                             f"a name or full spec, {SPEC_GRAMMAR} "
                             "(default: threads, or the REPRO_BACKEND environment variable)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("levels", help="show the optimization-level feature matrix").set_defaults(func=cmd_levels)

    p_exp = sub.add_parser("experiment", help="run a table/figure driver")
    p_exp.add_argument("name", choices=EXPERIMENTS)
    p_exp.add_argument("args", nargs=argparse.REMAINDER,
                       help="arguments forwarded to the driver (e.g. --preset tiny)")
    p_exp.set_defaults(func=cmd_experiment)

    p_fig = sub.add_parser("figures", help="render a paper figure as a text chart")
    p_fig.add_argument("figure", choices=["fig16", "fig17", "fig18", "fig19", "fig20"])
    p_fig.add_argument("--preset", default="tiny", choices=["tiny", "small", "paper"])
    p_fig.set_defaults(func=cmd_figures)

    p_ir = sub.add_parser("ir", help="analyse/optimize an IR function")
    p_ir.add_argument("--file", help="textual IR file to load")
    p_ir.add_argument("--demo", default="fig14", help="built-in demo: fig14, fig15, straightline")
    p_ir.add_argument("--opt", choices=["none", "elide", "hoist"], default="elide")
    p_ir.add_argument("--lower", action="store_true", help="lower queries to sync + local first")
    p_ir.add_argument("--distinct", help="comma-separated handler variables known not to alias")
    p_ir.set_defaults(func=cmd_ir)

    # both runnable registries drive their sub-command's choices, so a new
    # workload/example registers once and appears in --help automatically
    from repro.explore.workloads import WORKLOAD_NAMES as explore_workloads
    from repro.sched.policy import POLICY_NAMES

    p_explore = sub.add_parser(
        "explore",
        help="explore interleavings: schedule-fuzz a runtime workload, or "
             "enumerate a semantics program's state space")
    p_explore.add_argument("workload", nargs="?", choices=list(explore_workloads),
                           help="runtime workload to schedule-fuzz on the sim backend "
                                "(omit to explore a semantics program instead)")
    p_explore.add_argument("--seeds", type=int, default=20,
                           help="number of scheduling seeds to explore")
    p_explore.add_argument("--seed", type=int, default=0,
                           help="first scheduling seed (seeds run ascending from here)")
    p_explore.add_argument("--policy", default="random", choices=list(POLICY_NAMES),
                           help="scheduling policy for the exploration")
    p_explore.add_argument("--clients", type=int, default=None,
                           help="workload clients (philosophers / transferrers); "
                                "with --replay, defaults to the recorded value")
    p_explore.add_argument("--iterations", type=int, default=None,
                           help="rounds per client; with --replay, defaults to "
                                "the recorded value")
    p_explore.add_argument("--save-trace", metavar="PATH",
                           help="where to save the failing schedule "
                                "(default: <workload>.<policy>.trace.json)")
    p_explore.add_argument("--replay", metavar="PATH",
                           help="re-execute a saved schedule trace instead of exploring")
    p_explore.add_argument("--program", default="fig6-queries",
                           help="paper program name (fig1, fig5, fig5-nested, fig6, fig6-queries)")
    p_explore.add_argument("--random", type=int, default=None, metavar="SEED",
                           help="explore a randomly generated semantics program instead")
    p_explore.add_argument("--max-states", type=int, default=200_000)
    p_explore.set_defaults(func=cmd_explore)

    from repro.workloads.runnable import EXAMPLES

    p_run = sub.add_parser(
        "run", help="run a built-in end-to-end example",
        description="examples:\n" + "\n".join(
            f"  {example.name:<22} {example.help}" for example in EXAMPLES.values()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_run.add_argument("example", choices=list(EXAMPLES))
    p_run.add_argument("--clients", type=int, default=4,
                       help="transferring clients / philosophers")
    p_run.add_argument("--iterations", type=int, default=20,
                       help="transfers per client / rounds per philosopher")
    p_run.add_argument("--shards", type=int, default=4,
                       help="shard count for sharded examples (sharded-bank)")
    p_run.set_defaults(func=cmd_run)

    from repro.serve.admission import DEFAULT_WATERMARK

    p_serve = sub.add_parser(
        "serve",
        help="serve the case/allegation portal over HTTP on a sharded runtime")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="listen port (0 picks a free one)")
    p_serve.add_argument("--shards", type=int, default=4,
                         help="shard count for the case table")
    p_serve.add_argument("--watermark", type=int, default=DEFAULT_WATERMARK,
                         help="per-shard queue-depth watermark for 503 shedding")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the read-path cache")
    p_serve.add_argument("--duration", type=float, default=None,
                         help="seconds to serve (default: forever)")
    p_serve.set_defaults(func=cmd_serve)

    p_trace = sub.add_parser("trace", help="run a traced workload and check the guarantees")
    p_trace.add_argument("--level", default="all", choices=[level.value for level in LEVEL_ORDER])
    p_trace.add_argument("--clients", type=int, default=3)
    p_trace.add_argument("--iterations", type=int, default=4)
    p_trace.add_argument("--tail", type=int, default=20, help="how many trailing events to print")
    p_trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
