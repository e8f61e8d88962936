#!/usr/bin/env python3
"""High fan-in on the asyncio backend: thousands of coroutine clients.

Run with::

    python examples/async_fan_in.py [--clients 2000] [--handlers 4] [--rounds 2]
                                    [--backend async|process+async[:n:m]]

The thread-per-client model caps realistic fan-in at a few hundred clients;
this example spawns *thousands* of concurrent clients as asyncio tasks
(``runtime.aclient``) against a small set of service handlers.
Each client opens awaitable separate blocks (``async with
runtime.aclient().separate(...)``), logs commands with ``await svc.record(...)``
and reads its own tally back with an awaited query — the full SCOOP/Qs
protocol (reservations, FIFO queue-of-queues service order, sync
coalescing), just with coroutines where threads would be.

The final audit shows why the reasoning guarantees matter at this scale:
every one of the N clients' requests executed, in per-client program order,
without a single lock in user code.

With ``--backend process+async:4:2`` the same coroutine clients fan into
handlers hosted in *worker processes* (the hybrid backend): identical
code, identical audit, but the service handlers drain on real cores while
the clients stay cheap asyncio tasks.
"""

import argparse
import time

from repro import QsRuntime, SeparateObject, command, query


class TallyService(SeparateObject):
    """A service handler keeping one tally per client."""

    def __init__(self) -> None:
        self.tallies = {}
        self.requests = 0

    @command
    def record(self, client_id: int, amount: int) -> None:
        self.requests += 1
        self.tallies[client_id] = self.tallies.get(client_id, 0) + amount

    @query
    def tally_of(self, client_id: int) -> int:
        return self.tallies.get(client_id, 0)

    @query
    def totals(self) -> tuple:
        return (len(self.tallies), self.requests, sum(self.tallies.values()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=2_000,
                        help="concurrent coroutine clients to spawn")
    parser.add_argument("--handlers", type=int, default=4,
                        help="service handlers the clients fan in on")
    parser.add_argument("--rounds", type=int, default=2,
                        help="separate blocks each client opens")
    parser.add_argument("--backend", default="async",
                        help="any backend spec that runs coroutine clients: "
                             "'async[:nloops]' (default) or the hybrid "
                             "'process+async[:nproc[:nloops[:codec]]]'")
    args = parser.parse_args()

    start = time.perf_counter()
    with QsRuntime("all", backend=args.backend) as rt:
        services = [rt.new_handler(f"svc-{i}").create(TallyService)
                    for i in range(args.handlers)]

        async def client(client_id: int) -> None:
            ref = services[client_id % args.handlers]
            for round_no in range(args.rounds):
                async with rt.aclient().separate(ref) as svc:
                    await svc.record(client_id, 1)
                    await svc.record(client_id, round_no)
            # one awaited query at the end: my tally must reflect exactly
            # my own requests, in order — guarantee 1 at 10k-task scale
            async with rt.aclient().separate(ref) as svc:
                expected = args.rounds + sum(range(args.rounds))
                actual = await svc.tally_of(client_id)
                assert actual == expected, (client_id, actual, expected)

        for i in range(args.clients):
            rt.aclient(client, i, name=f"client-{i}")
        rt.join_clients()

        clients_seen = requests = total = 0
        for ref in services:
            with rt.separate(ref) as svc:  # blocking API interoperates freely
                seen, reqs, tally_sum = svc.totals()
                clients_seen += seen
                requests += reqs
                total += tally_sum
    elapsed = time.perf_counter() - start

    expected_requests = args.clients * args.rounds * 2
    print(f"{args.clients} coroutine clients x {args.rounds} rounds over "
          f"{args.handlers} handlers [{args.backend}] in {elapsed:.2f}s")
    print(f"clients served: {clients_seen}, requests executed: {requests}, "
          f"tally total: {total}")
    if clients_seen != args.clients or requests != expected_requests:
        print("audit FAILED")
        return 1
    print("audit ok: every client's requests executed in order")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
