"""The case/allegation portal: domain objects + REST routes.

Modeled on the public-accountability-portal shape from the related work:
**cases** are created and amended rarely, their pages and allegation lists
are read constantly.  Each case lives on the shard its id hashes to; one
:class:`CaseStore` replica per shard holds the cases that shard owns.

Every store method is an explicit ``@query`` — including the writes.  That
is deliberate, not an oversight: a write as a *command* would be logged
asynchronously and the gateway would answer 200 while the mutation still
sat in a private queue, so a subsequent GET (possibly over a different
connection, hitting a different gateway worker) could miss it.  As queries,
the HTTP response is only written after the shard has executed the
mutation — the read-your-writes guarantee the load oracle checks leans on
the QoQ protocol's per-client FIFO plus the query's synchronous round trip.

Routes (``{case_id}`` is the sharded entity; ``cache=True`` marks the
read-path-cacheable GETs):

====== ================================ ===========================
GET    ``/cases/{case_id}``             case document        (cache)
PUT    ``/cases/{case_id}``             create/replace case
GET    ``/cases/{case_id}/allegations`` allegation list      (cache)
POST   ``/cases/{case_id}/allegations`` append an allegation
GET    ``/healthz``                     liveness + topology
GET    ``/metrics``                     runtime counters
GET    ``/routes``                      this table, as JSON
====== ================================ ===========================
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.api import query
from repro.serve.router import Router

#: shard count the CLI and benchmarks default to
DEFAULT_SHARDS = 4


class CaseStore:
    """One shard's slice of the case table (plain object; handlers wrap it)."""

    def __init__(self) -> None:
        self._cases: Dict[str, Dict[str, Any]] = {}

    @query
    def put_case(self, case_id: str, data: Dict[str, Any]) -> int:
        """Create or replace a case document; returns the new version."""
        case = self._cases.get(case_id)
        version = (case["version"] + 1) if case else 1
        allegations = case["allegations"] if case else []
        self._cases[case_id] = {
            "id": case_id,
            "data": data,
            "version": version,
            "allegations": allegations,
        }
        return version

    @query
    def get_case(self, case_id: str) -> Optional[Dict[str, Any]]:
        case = self._cases.get(case_id)
        if case is None:
            return None
        return {"id": case["id"], "data": case["data"], "version": case["version"],
                "allegations": len(case["allegations"])}

    @query
    def add_allegation(self, case_id: str, allegation: Dict[str, Any]) -> int:
        """Append an allegation; auto-creates the case; returns its index."""
        case = self._cases.get(case_id)
        if case is None:
            self.put_case(case_id, {})
            case = self._cases[case_id]
        case["allegations"].append(dict(allegation))
        case["version"] += 1
        return len(case["allegations"]) - 1

    @query
    def list_allegations(self, case_id: str) -> List[Dict[str, Any]]:
        case = self._cases.get(case_id)
        return list(case["allegations"]) if case is not None else []


# ----------------------------------------------------------------------
# route handlers: async def handler(ctx, request, **params) -> (status, payload)
#
# ``ctx`` is the gateway's ops facade: ``await ctx.ask(key, method, *args)``
# performs one sharded query (routed by key) through whichever dispatch
# path the backend supports; ``ctx.gateway`` reaches gateway-level info.
# ----------------------------------------------------------------------
async def get_case(ctx: Any, request: Any, case_id: str) -> Any:
    case = await ctx.ask(case_id, "get_case", case_id)
    if case is None:
        return 404, {"error": "no such case", "id": case_id}
    return 200, case


async def put_case(ctx: Any, request: Any, case_id: str) -> Any:
    data = request.json()
    if not isinstance(data, dict):
        return 400, {"error": "case body must be a JSON object"}
    version = await ctx.ask(case_id, "put_case", case_id, data)
    return 200, {"id": case_id, "version": version}


async def get_allegations(ctx: Any, request: Any, case_id: str) -> Any:
    allegations = await ctx.ask(case_id, "list_allegations", case_id)
    return 200, {"id": case_id, "allegations": allegations}


async def post_allegation(ctx: Any, request: Any, case_id: str) -> Any:
    allegation = request.json()
    if not isinstance(allegation, dict):
        return 400, {"error": "allegation body must be a JSON object"}
    index = await ctx.ask(case_id, "add_allegation", case_id, allegation)
    return 201, {"id": case_id, "index": index}


async def healthz(ctx: Any, request: Any) -> Any:
    return 200, ctx.gateway.health()


async def metrics(ctx: Any, request: Any) -> Any:
    return 200, ctx.gateway.runtime.counters.nonzero()


async def routes(ctx: Any, request: Any) -> Any:
    return 200, ctx.gateway.router.describe()


def case_router() -> Router:
    """The portal's routing table (fresh instance; callers may extend it)."""
    router = Router()
    router.add("GET", "/cases/{case_id}", get_case, entity="case_id", cache=True)
    router.add("PUT", "/cases/{case_id}", put_case, entity="case_id")
    router.add("GET", "/cases/{case_id}/allegations", get_allegations,
               entity="case_id", cache=True)
    router.add("POST", "/cases/{case_id}/allegations", post_allegation,
               entity="case_id")
    router.add("GET", "/healthz", healthz)
    router.add("GET", "/metrics", metrics)
    router.add("GET", "/routes", routes)
    return router


def create_case_group(runtime: Any, shards: int = DEFAULT_SHARDS,
                      name: str = "cases") -> Any:
    """Create the sharded case table (one CaseStore replica per shard)."""
    return runtime.sharded(name, shards=shards).create(CaseStore)
