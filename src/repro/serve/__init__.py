"""``repro.serve``: an HTTP gateway over sharded QoQ handlers.

The first end-to-end scenario: REST traffic in, sharded handler dispatch
out, with a read-path cache and per-shard admission control.  See
``docs/serving.md`` for the design and ``repro serve --help`` for the CLI;
load is driven from outside the library, by ``ledger/run.py``.

Public surface::

    from repro.serve import Gateway, Router, serve_cases

    with QsRuntime(backend="process") as rt:
        gateway = serve_cases(rt, shards=4)
        host, port = gateway.address        # speak HTTP/1.1 to it
        gateway.stop()
"""

from repro.serve.admission import DEFAULT_WATERMARK, AdmissionController, Ticket
from repro.serve.app import CaseStore, case_router, create_case_group
from repro.serve.cache import MISS, ReadCache
from repro.serve.gateway import Gateway, serve_cases
from repro.serve.http import BadRequest, HttpRequest
from repro.serve.router import Match, Route, Router

__all__ = [
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
