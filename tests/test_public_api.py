"""Golden test for the curated top-level public API.

``repro.__all__`` is the supported surface (see ``docs/api.md``): this
test pins the exact set of names, so adding or removing an export is a
deliberate, reviewed act — update GOLDEN_SURFACE, ``docs/api.md`` and the
package docstring together.  It also checks the hygiene properties the
curation promises: every exported name resolves, the list is duplicate-
free, and star-import brings in exactly the surface.
"""

import repro
from repro.serve import __all__ as serve_all

GOLDEN_SURFACE = [
    # runtime + configuration
    "LEVEL_ORDER",
    "LockBasedRuntime",
    "OptimizationLevel",
    "QsConfig",
    "QsRuntime",
    "lock_based_runtime",
    "qs_runtime",
    # execution backends
    "AsyncBackend",
    "BackendSpec",
    "ExecutionBackend",
    "ProcessBackend",
    "SimBackend",
    "ThreadedBackend",
    "create_backend",
    # the blocking client surface
    "Handler",
    "ReservedProxy",
    "SeparateObject",
    "SeparateRef",
    "command",
    "query",
    # the awaitable client surface
    "AsyncClient",
    "AsyncReservedProxy",
    "AsyncSeparateBlock",
    # sharding
    "AsyncShardedProxy",
    "ReshardPlan",
    "ShardTopology",
    "ShardedGroup",
    "ShardedProxy",
    # expanded (by-value) types
    "Expanded",
    "ExpandedView",
    "expanded_view",
    "register_expanded",
    # wait conditions, tracing, guarantee checking
    "TraceEvent",
    "Tracer",
    "WaitOutcome",
    "WaitStrategy",
    "assert_guarantees",
    "check_runtime",
    # error types
    "DeadlockError",
    "NotReservedError",
    "QueryFailedError",
    "ReservationError",
    "ScoopError",
    "SeparateAccessError",
    "WaitConditionTimeout",
    # metadata
    "__version__",
]

GOLDEN_SERVE_SURFACE = [
    "AdmissionController",
    "BadRequest",
    "CaseStore",
    "DEFAULT_WATERMARK",
    "Gateway",
    "HttpRequest",
    "MISS",
    "Match",
    "ReadCache",
    "Route",
    "Router",
    "Ticket",
    "case_router",
    "create_case_group",
    "serve_cases",
]


class TestTopLevelSurface:
    def test_surface_matches_the_golden_list_exactly(self):
        assert sorted(repro.__all__) == sorted(GOLDEN_SURFACE), (
            "repro.__all__ drifted from the golden surface; if the change is "
            "intentional, update GOLDEN_SURFACE, docs/api.md and the repro "
            "package docstring in the same commit")

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, f"{name} does not resolve"

    def test_star_import_brings_in_exactly_the_surface(self):
        namespace = {}
        exec("from repro import *", namespace)  # noqa: S102 - the point of the test
        imported = {name for name in namespace if not name.startswith("__")}
        expected = {name for name in repro.__all__ if not name.startswith("__")}
        assert imported == expected

    def test_error_types_are_scoop_errors(self):
        for name in ("SeparateAccessError", "NotReservedError", "ReservationError",
                     "QueryFailedError", "DeadlockError", "WaitConditionTimeout"):
            assert issubclass(getattr(repro, name), repro.ScoopError)


class TestServeSurface:
    def test_serve_surface_matches_the_golden_list(self):
        assert sorted(serve_all) == sorted(GOLDEN_SERVE_SURFACE)

    def test_every_serve_export_resolves(self):
        import repro.serve as serve

        for name in serve_all:
            assert hasattr(serve, name), f"repro.serve.{name} does not resolve"
