"""Child-process side of the :class:`~repro.backends.process.ProcessBackend`.

A worker process hosts one or more *handler servers*.  Each is the backend
of a real :class:`~repro.core.handler.Handler` whose Fig. 7 loop runs on a
thread of this process, so ``Handler.drain_batch`` applies *call*, *sync*
and *end* here exactly as it does on every other backend:

* every client connection is one socket-backed private queue: ``open``
  (with a parent-assigned *ticket*), then ``calls`` / ``sync`` / ``invoke``
  / ``query`` frames, then ``end``.  A ``calls`` frame is a burst of up to
  :data:`~repro.queues.wire_queue.MAX_BURST_CALLS` logged calls, decoded
  once.  The thread that accepted the connection turns each frame into the
  requests an in-memory client would have logged — each ``[oid, fn, args,
  kwargs]`` entry of a burst, and each ``query`` or ``invoke``, into the
  ``CallRequest`` its client built, with the hosted object as its target —
  on one ``PrivateQueue`` per connection, so a client bursting requests
  never blocks on a busy handler;
* each ``open`` files the connection's private queue in the handler's
  :class:`~repro.queues.qoq.QueueOfQueues` under the block's *ticket*, which
  the parent issued at reservation time (under the same spinlocks that make
  multi-handler reservations atomic).  The handler drains it through the
  stock ``ThreadedBackend.handler_next_queue``, which hands the queues out
  strictly in ticket order, so the FIFO-of-private-queues order, and with it
  both reasoning guarantees, survive the process hop even though frames
  from different clients race on the wire.

Replies (results, sync releases, errors) go back on the same connection,
sent by the requests' own completions, and piggyback the non-zero counters
(``calls_executed``, ``qoq_batch_*``) the parent folds into its totals.

The same replies carry **checkpoints**: every so many drained requests the
``handler_next_queue`` hook pickles everything the handler would lose with
this process (hosted objects, counters, recorded failures) *between two
blocks*, tagged with the ticket of the last block handed out.  The parent's
journal for the handler keeps the newest one and drops its frames up to
that ticket; a replacement worker is created from it (``handler`` op) and
re-executes only the blocks above it.

The worker is started as ``python -c "from repro.backends.process_worker
import main; main()"`` with a JSON spec in the ``REPRO_PROCESS_WORKER``
environment variable; it connects back to the parent's control listener,
reports the data port it chose, and then obeys control ops (``handler``,
``host``, ``restore``, ``close``, ``exit``).  The control channel always
speaks pickle; hosted objects and a checkpoint's state travel on it as the
bytes the parent or a dead worker pickled them to, and are unpickled here.
Data connections use the codec the backend was configured with.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import socket
import sys
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.backends.threaded import ThreadedBackend
from repro.config import QsConfig
from repro.core.handler import Handler
from repro.core.region import SeparateObject
from repro.errors import ScoopError
from repro.queues.codec import CODECS
from repro.queues.private_queue import END, CallRequest, PrivateQueue, SyncRequest
from repro.queues.qoq import QueueOfQueues
from repro.queues.socket_queue import FrameStream, SocketQueueClosed

#: how long ``close`` waits for a missing ticket before skipping it (a client
#: that crashed between reserving and opening its block)
_ABANDONED_TICKET_GRACE = 5.0

#: A handler checkpoints after a block once it has drained this many
#: requests since the last checkpoint, or one per this many bytes of the last
#: snapshot if that is more.  By work done, not by time: the parent's journal
#: (and so its memory) is then bounded whatever the throughput, and the
#: second term keeps the cost per request constant however large the state.
CHECKPOINT_MIN_FRAMES = 1024
CHECKPOINT_BYTES_PER_FRAME = 64


class _Replies:
    """Where one connection's replies go, shaped as a query's result box.

    A ``query`` frame's request (or an ``invoke``'s body) hands its outcome
    to ``set``, and a ``sync``'s release calls :meth:`release`.  Every
    reply carries the non-zero counters (the parent reads an absent name as
    unchanged) and the unsent checkpoint, if there is one.  ``stream`` is
    ``None`` for blocks restored after a failover: their clients had every reply.
    """

    __slots__ = ("server", "stream")

    def __init__(self, server: "HandlerServer", stream: Optional[FrameStream]) -> None:
        self.server = server
        self.stream = stream

    def release(self) -> None:
        self.send({"kind": "release"})

    def set(self, value: Any) -> None:
        try:
            self.send({"kind": "result", "value": value})
        except Exception as exc:  # noqa: BLE001 - a value the codec refuses
            self.set_error(exc)

    def set_error(self, error: BaseException) -> None:
        try:
            self.send({"kind": "error", "error": error, "message": repr(error)})
        except Exception:  # noqa: BLE001 - the exception itself does not encode
            self.send({"kind": "error", "message": repr(error)})

    def send(self, payload: Dict[str, Any]) -> None:
        """A reply that cannot leave is dropped; it leaves the checkpoint for the next."""
        if self.stream is None:
            return
        server = self.server
        payload["counters"] = server.handler.counters.nonzero()
        if server._unsent is not None:
            payload["checkpoint"] = server._unsent
        try:
            self.stream.send(payload)
        except OSError:
            return  # client gone; nothing to tell it
        server._unsent = None


class _Release:
    """A marker's release that runs ``action`` when the handler reaches it."""

    __slots__ = ("set",)

    def __init__(self, action: Callable[[], Any]) -> None:
        self.set = action


class HandlerServer(ThreadedBackend):
    """One handler transplanted into this process: the backend of its loop.

    ``qoq_batch`` is the parent's ``QsConfig.qoq_batch``.  ``text_state``
    ships the periodic snapshots base64-encoded, for a reply codec that
    cannot carry ``bytes``.  ``restored_from`` is the checkpoint of a dead
    worker's handler to continue from: its objects, counters and failures,
    with the queue-of-queues starting right above its ticket.
    """

    def __init__(self, name: str, text_state: bool = False,
                 restored_from: Optional[Dict[str, Any]] = None,
                 qoq_batch: int = QsConfig.qoq_batch) -> None:
        super().__init__()
        self.handler = Handler(name, QsConfig(qoq_batch=qoq_batch), backend=self)
        self.targets: Dict[int, Any] = {}
        self._text_state = text_state
        #: (repr, traceback) pairs a dead worker recorded before this one
        self._inherited: List[tuple] = []
        #: ``qoq_batch_size_sum`` at the last checkpoint, and the gap to the next
        self._checkpointed = 0
        self._threshold = CHECKPOINT_MIN_FRAMES
        #: the newest checkpoint no reply has carried yet (handler thread only)
        self._unsent: Optional[Dict[str, Any]] = None
        if restored_from is not None:
            targets, counters, self._inherited = pickle.loads(restored_from["state"])
            for oid, obj in targets.items():
                self.host(oid, obj)
            # it re-executes only the blocks above the ticket: start from their counts
            for key, value in counters.items():
                self.handler.counters.add(key, value)
            self._checkpointed = counters.get("qoq_batch_size_sum", 0)
            self.handler.qoq = QueueOfQueues(self.handler.counters,
                                             first_ticket=int(restored_from["ticket"]) + 1)
        self.handler.start()

    # -- control ops --------------------------------------------------------
    def host(self, oid: int, obj: Any) -> None:
        if isinstance(obj, SeparateObject):
            obj._scoop_bind(self.handler.owner)
        self.targets[oid] = obj

    def close(self, tickets: int, timeout: float) -> bool:
        """No more blocks will open (``tickets`` were issued); True once all are served.

        A ticket the handler still waits for after the grace belongs to a
        client that died between reserving and opening its block: skipped.
        """
        qoq, thread = self.handler.qoq, self.handler.thread
        qoq.close(tickets)
        deadline = time.monotonic() + timeout
        while thread.is_alive() and time.monotonic() < deadline:
            waiting_for = qoq.next_ticket
            thread.join(min(_ABANDONED_TICKET_GRACE, deadline - time.monotonic()))
            if thread.is_alive() and qoq.next_ticket == waiting_for:
                qoq.skip(waiting_for)
        return not thread.is_alive()

    def restore(self, blocks: "list[tuple[int, list]]") -> None:
        """Pre-file journaled blocks from before a failover (ticket order).

        The parent replays every *ended* block above the last checkpoint
        here; the handler then re-executes them against the restored
        objects, reconstructing the state the dead process took with it.
        Their replies are dropped (their clients already got them); in-flight
        blocks are not restored — their owning clients re-send them on their
        own reconnected private queues.
        """
        replies = _Replies(self, None)
        for ticket, frames in blocks:
            queue = PrivateQueue(self.handler)
            for frame in frames:
                for request in self._requests(frame, replies):
                    queue._queue.put(request)
            self.handler.qoq.file(int(ticket), queue)

    # -- the wire side: frames become requests --------------------------------
    def add_connection(self, stream: FrameStream, client: str) -> None:
        """Read one client connection until it closes (on the accepting thread).

        Every frame goes, as requests, onto one private queue reused across
        the connection's blocks; ``open`` files the queue under the block's
        ticket.  Nothing is counted here: the parent counted each request
        when its client's burst was taken out.
        """
        queue = PrivateQueue(self.handler)
        queue.client_name = client
        put = queue._queue.put
        replies = _Replies(self, stream)
        in_block = False
        try:
            while True:
                try:
                    frame = stream.recv(None)
                except (SocketQueueClosed, OSError):
                    # the client vanished; a block left open must not wedge the
                    # handler forever (as a client crash without END in memory)
                    if in_block:
                        put(END)
                    return
                kind = frame.get("kind")
                if kind == "open":
                    in_block = True
                    self.handler.qoq.file(int(frame["ticket"]), queue)
                elif in_block:  # a frame outside a block is a protocol violation: dropped
                    in_block = kind != "end"
                    for request in self._requests(frame, replies):
                        put(request)
        finally:
            stream.close()

    def _requests(self, frame: Dict[str, Any], replies: _Replies) -> List[Any]:
        """The requests an in-memory client logs for ``frame``, in order:
        one per call of a ``calls`` burst, else one."""
        kind = frame.get("kind")
        if kind == "calls":
            return [self._call(*entry, None) for entry in frame["calls"]]
        if kind == "query" or kind == "invoke":
            request = self._call(frame.get("oid", 0), frame.get("fn"),
                                 frame.get("args") or (), frame.get("kwargs") or {}, replies)
            if kind == "invoke":
                # a client-executed body runs as its marker's release, so
                # (as in memory) it is not an executed call
                return [SyncRequest(_Release(request.execute))]
            return [request]
        if kind == "end":
            return [END]
        if kind == "sync":
            return [SyncRequest(_Release(replies.release))]
        error = ScoopError(f"unknown request kind {kind!r}")
        return [SyncRequest(_Release(lambda: self.handler.failures.append(error)))]

    def _call(self, oid: int, fn: Any, args: Any, kwargs: dict,
              result: Optional[_Replies]) -> CallRequest:
        """The packaged call of ``fn`` on hosted object ``oid``, as its client logged it."""
        return CallRequest(fn, self.targets.get(oid), args, kwargs, result)

    def handler_next_batch(self, handler: Handler, private_queue: PrivateQueue,
                           max_items: int) -> list:
        # a block always ends (a vanished client's reader appends END), so the
        # wait needs none of the threaded backend's shutdown polling
        return private_queue.dequeue_batch(max_items)

    def handler_next_queue(self, handler: Handler) -> Optional[PrivateQueue]:
        """The next ticket's private queue, after a checkpoint if one is due
        (between two blocks, a snapshot holds exactly the tickets handed out)."""
        if handler.counters.get("qoq_batch_size_sum") - self._checkpointed >= self._threshold:
            self._take_checkpoint()
        return super().handler_next_queue(handler)

    def _take_checkpoint(self) -> None:
        """Snapshot the handler between two blocks (handler thread only).

        The handler thread is the only one that mutates hosted state, so the
        snapshot is consistent without a lock.  ONE pickle of all the
        objects keeps what they share shared.
        """
        counters = self.handler.counters.nonzero()
        self._checkpointed = counters.get("qoq_batch_size_sum", 0)
        targets = dict(self.targets)  # ``host`` runs on the control thread
        try:
            state = pickle.dumps((targets, counters, self._failure_pairs()),
                                 protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - an object stopped being picklable
            # the previous checkpoint stays in force and the parent's journal
            # keeps growing: say so, and try less and less often
            self.handler.counters.bump("journal_checkpoint_errors")
            self._threshold *= 2
            return
        self._threshold = max(CHECKPOINT_MIN_FRAMES, len(state) // CHECKPOINT_BYTES_PER_FRAME)
        self._unsent = {
            "ticket": self.handler.qoq.next_ticket - 1, "oids": sorted(targets),
            "state": base64.b64encode(state).decode("ascii") if self._text_state else state}

    # -- replies and reports ---------------------------------------------------
    def _failure_pairs(self) -> List[tuple]:
        """The recorded failures as ``(repr, traceback)`` pairs, which pickle."""
        return self._inherited + [(repr(exc), "".join(traceback.format_exception(exc)))
                                  for exc in list(self.handler.failures)]

    def report(self) -> Dict[str, Any]:
        return {"counters": self.handler.counters.nonzero(), "failures": self._failure_pairs()}


class Worker:
    """A worker process: accepts data connections, obeys control ops."""

    def __init__(self, token: str, codec: str) -> None:
        self.token = token
        self.codec = codec
        self.servers: Dict[str, HandlerServer] = {}

    # -- data connections ----------------------------------------------------
    def accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # listener closed at exit
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._register, args=(conn,), daemon=True).start()

    def _register(self, conn: socket.socket) -> None:
        stream = FrameStream(conn, self.codec)
        try:
            hello = stream.recv(timeout=10.0)
        except SocketQueueClosed:
            hello = None
        if (hello is None or hello.get("kind") != "hello"
                or hello.get("token") != self.token
                or hello.get("handler") not in self.servers):
            stream.close()
            return
        self.servers[hello["handler"]].add_connection(stream, hello.get("client", "?"))

    # -- control channel -----------------------------------------------------
    def control_loop(self, ctrl: FrameStream, listener: socket.socket) -> None:
        while True:
            try:
                op = ctrl.recv(None)
            except (SocketQueueClosed, OSError):
                return  # parent died: exit with it
            except Exception as exc:  # noqa: BLE001 - a frame that does not decode
                # the frame was consumed whole, so the stream is still in
                # sync; report the decode failure instead of dying silently
                ctrl.send({"ok": False, "error": repr(exc),
                           "traceback": traceback.format_exc()})
                continue
            try:
                reply = self._dispatch(op)
            except BaseException as exc:  # noqa: BLE001 - shipped to the parent
                reply = {"ok": False, "error": repr(exc), "traceback": traceback.format_exc()}
            try:
                ctrl.send(reply)
            except Exception:  # pragma: no cover - parent gone mid-reply
                return
            if op.get("op") == "exit":
                listener.close()
                return

    def _dispatch(self, op: Dict[str, Any]) -> Dict[str, Any]:
        name = op.get("op")
        if name == "handler":
            # idempotent: a failover re-pin may re-announce a handler this
            # worker already serves (replacing it would discard restored state)
            if op["name"] not in self.servers:
                self.servers[op["name"]] = HandlerServer(
                    op["name"], text_state=not CODECS[self.codec].faithful,
                    restored_from=op.get("checkpoint"), qoq_batch=op["qoq_batch"])
            return {"ok": True}
        if name == "host":
            self.servers[op["handler"]].host(int(op["oid"]), pickle.loads(op["obj"]))
            return {"ok": True}
        if name == "restore":
            self.servers[op["handler"]].restore(op.get("blocks") or [])
            return {"ok": True}
        if name == "close":
            server = self.servers[op["handler"]]
            drained = server.close(int(op["tickets"]), float(op.get("timeout", 30.0)))
            return {"ok": True, "drained": drained, **server.report()}
        if name == "exit":
            return {"ok": True}
        return {"ok": False, "error": f"unknown control op {name!r}"}


def _fixup_main(main_path: Optional[str]) -> None:
    """Import the parent's ``__main__`` script so its classes unpickle here.

    Mirrors what :mod:`multiprocessing.spawn` does for the ``spawn`` start
    method: the script is imported under the name ``__mp_main__`` (so its
    ``if __name__ == "__main__"`` guard does not fire) and aliased as
    ``__main__``, letting pickles that reference ``__main__.SomeClass``
    resolve.  Best effort — a script that cannot be imported simply leaves
    ``__main__`` classes unpicklable, which surfaces as a clear host error.
    """
    if not main_path or not main_path.endswith(".py"):
        return
    try:
        import importlib.util

        spec = importlib.util.spec_from_file_location("__mp_main__", main_path)
        if spec is None or spec.loader is None:
            return
        module = importlib.util.module_from_spec(spec)
        sys.modules["__mp_main__"] = module
        spec.loader.exec_module(module)
        sys.modules["__main__"] = module
    except Exception:  # noqa: BLE001 - never let the fixup kill the worker
        sys.modules.pop("__mp_main__", None)


def main() -> None:
    """Entry point: connect back to the parent and serve until told to exit."""
    spec = json.loads(os.environ["REPRO_PROCESS_WORKER"])
    _fixup_main(spec.get("main_path"))
    ctrl_sock = socket.create_connection((spec["host"], int(spec["port"])))
    ctrl_sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    ctrl = FrameStream(ctrl_sock, "pickle")

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    # deep backlog: a hybrid fan-in connects thousands of coroutine clients
    # in a burst, and a refused connection there means a lost private queue
    listener.listen(1024)

    ctrl.send({"op": "ready", "token": spec["token"],
               "port": listener.getsockname()[1], "pid": os.getpid()})

    worker = Worker(spec["token"], spec.get("codec", "pickle"))
    threading.Thread(target=worker.accept_loop, args=(listener,), daemon=True).start()
    worker.control_loop(ctrl, listener)


if __name__ == "__main__":  # pragma: no cover - spawned via -c in production
    sys.exit(main())
