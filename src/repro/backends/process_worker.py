"""Child-process side of the :class:`~repro.backends.process.ProcessBackend`.

A worker process hosts one or more *handler servers*.  Each handler server
is the Fig. 7 handler loop transplanted across a process boundary:

* every client connection is one socket-backed private queue: the client
  sends ``open`` (with a parent-assigned *ticket*), then ``call`` / ``sync``
  / ``invoke`` / ``query`` frames, then ``end``;
* a per-connection reader thread parses frames off the wire and files them
  into in-memory per-block queues, so a client bursting requests never
  blocks on a busy handler (the unbounded-queue semantics of the in-memory
  runtime are preserved, and reads never stall the drain);
* a single drain thread serves blocks strictly in **ticket order** — the
  ticket is assigned by the parent at reservation time (under the same
  spinlocks that make multi-handler reservations atomic), so the FIFO-of-
  private-queues order, and with it both reasoning guarantees, survive the
  process hop even though frames from different clients race on the wire.

Results, sync releases and error reports travel back on the same framed
connection; every reply piggybacks the non-zero worker-local counters so
the parent can fold handler-side work (``calls_executed``) into the
runtime's totals without an extra channel.

The same replies carry **checkpoints** when the backend runs with failover:
every so many served frames the drain thread pickles everything the handler
would lose with this process (hosted objects, counters, recorded failures)
*between two blocks*, tagged with the ticket of the last block served.  The
parent keeps the newest one and drops its frame journal up to that ticket;
a replacement worker is created from it (``handler`` op) and re-executes
only the blocks above it.

The worker is started as ``python -c "from repro.backends.process_worker
import main; main()"`` with a JSON spec in the ``REPRO_PROCESS_WORKER``
environment variable; it connects back to the parent's control listener,
reports the data port it chose, and then obeys control ops (``handler``,
``host``, ``restore``, ``close``, ``exit``).  The control channel always
speaks pickle (it ships live objects at ``host`` time and a checkpoint's
state with a restoring ``handler`` op); data connections use the codec the
backend was configured with.
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
from collections import deque
from typing import Any, Deque, Dict, Optional

from repro.core.region import HandlerOwner, SeparateObject
from repro.queues.codec import CODECS
from repro.queues.socket_queue import FrameStream, SocketQueueClosed
from repro.util.counters import Counters

#: how long the drain tolerates a missing ticket after close before skipping
#: it (a client that crashed between reserving and opening its block)
_ABANDONED_TICKET_GRACE = 5.0

#: A handler checkpoints after a block once it has served this many frames
#: since the last checkpoint, or one frame per this many bytes of the last
#: snapshot if that is more.  By work done, not by time: the parent's journal
#: (and so its memory) is then bounded whatever the throughput, and the
#: second term keeps the cost per frame constant however large the state.
CHECKPOINT_MIN_FRAMES = 1024
CHECKPOINT_BYTES_PER_FRAME = 64


class _Block:
    """One separate block in flight: its frames and its reply connection."""

    __slots__ = ("ticket", "stream", "items", "ended")

    def __init__(self, ticket: int, stream: FrameStream) -> None:
        self.ticket = ticket
        self.stream = stream
        self.items: Deque[Dict[str, Any]] = deque()
        self.ended = False


class _NullStream:
    """Reply sink for blocks restored after a failover.

    A restored block's original client already consumed its replies from the
    dead worker, so the re-execution (which only rebuilds handler state and
    counters) drops them: ``send`` raises ``BrokenPipeError``, which the
    reply paths already treat as "client gone".
    """

    def send(self, payload: Dict[str, Any]) -> None:
        raise BrokenPipeError("restored block: replies already delivered")

    def close(self) -> None:  # pragma: no cover - interface parity
        pass


class HandlerServer:
    """One handler transplanted into this process: objects + ticketed drain.

    ``checkpointing`` turns the periodic snapshots on (the backend runs
    with failover); ``text_state`` ships them base64-encoded, for a reply
    codec that cannot carry ``bytes``.  ``restored_from`` is the checkpoint
    of a dead worker's handler to continue from: its objects, counters and
    failures, with the ticket-ordered drain starting right above its ticket.
    """

    def __init__(self, name: str, checkpointing: bool = False, text_state: bool = False,
                 restored_from: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.targets: Dict[int, Any] = {}
        self.owner = HandlerOwner(name)
        self.counters = Counters()
        #: (repr, traceback-text) pairs of asynchronous calls that raised
        self.failures: list = []
        self._cond = threading.Condition()
        self._blocks: Dict[int, _Block] = {}
        self._expected = 0
        self._tickets_total: Optional[int] = None
        self._checkpointing = checkpointing
        self._text_state = text_state
        #: frames served since the last checkpoint, and how many trigger one
        self._served = 0
        self._threshold = CHECKPOINT_MIN_FRAMES
        #: the newest checkpoint no reply has carried yet (drain thread only)
        self._unsent: Optional[Dict[str, Any]] = None
        if restored_from is not None:
            targets, counters, failures = pickle.loads(restored_from["state"])
            for oid, obj in targets.items():
                self.host(oid, obj)
            # the replacement re-executes only the blocks above the
            # watermark, so it starts from the counts below it
            for key, value in counters.items():
                self.counters.add(key, value)
            self.failures = failures
            self._expected = int(restored_from["ticket"]) + 1
        self.drained = threading.Event()
        self._thread = threading.Thread(target=self._drain, name=f"drain:{name}", daemon=True)
        self._thread.start()

    # -- control ops --------------------------------------------------------
    def host(self, oid: int, obj: Any) -> None:
        if isinstance(obj, SeparateObject):
            obj._scoop_bind(self.owner)
        self.targets[oid] = obj

    def close(self, tickets: int) -> None:
        """No more blocks will ever be opened; ``tickets`` were issued."""
        with self._cond:
            self._tickets_total = tickets
            self._cond.notify_all()

    def restore(self, blocks: "list[tuple[int, list]]") -> None:
        """Pre-file journaled blocks from before a failover (ticket order).

        The parent replays every *ended* block above the last checkpoint
        here; the drain then re-executes them against the restored objects,
        reconstructing the handler state the dead process took with it.
        Replies go to a :class:`_NullStream` (their clients already got
        them); in-flight blocks are not restored — their owning clients
        re-send them on their own reconnected private queues.
        """
        with self._cond:
            for ticket, frames in blocks:
                block = _Block(int(ticket), _NullStream())  # type: ignore[arg-type]
                block.items.extend(frames)
                block.ended = True
                self._blocks[int(ticket)] = block
            self._cond.notify_all()

    # -- the wire side ------------------------------------------------------
    def add_connection(self, stream: FrameStream, client: str) -> None:
        thread = threading.Thread(target=self._reader, args=(stream,),
                                  name=f"reader:{self.name}:{client}", daemon=True)
        thread.start()

    def _reader(self, stream: FrameStream) -> None:
        """Parse frames off one client connection into its current block."""
        current: Optional[_Block] = None
        while True:
            try:
                frame = stream.recv(None)
            except (SocketQueueClosed, OSError):
                # the client vanished; a block left open must not wedge the
                # drain forever (mirrors the threaded backend's defensive
                # handling of a client crash without END)
                if current is not None and not current.ended:
                    with self._cond:
                        current.items.append({"kind": "end"})
                        self._cond.notify_all()
                return
            if frame is None:  # pragma: no cover - recv(None) never times out
                continue
            kind = frame.get("kind")
            if kind == "open":
                block = _Block(int(frame["ticket"]), stream)
                with self._cond:
                    current = block
                    self._blocks[block.ticket] = block
                    self._cond.notify_all()
                continue
            with self._cond:
                if current is None:
                    continue  # protocol violation; drop rather than crash
                if kind == "end":
                    current.ended = True
                current.items.append(frame)
                self._cond.notify_all()

    # -- the drain (Fig. 7 across the process boundary) ---------------------
    def _drain(self) -> None:
        self.owner.bind_thread(threading.current_thread())
        stall_started: Optional[float] = None
        while True:
            with self._cond:
                while True:
                    block = self._blocks.pop(self._expected, None)
                    if block is not None:
                        stall_started = None
                        break
                    if self._tickets_total is not None and self._expected >= self._tickets_total:
                        self.drained.set()
                        return
                    self._cond.wait(timeout=0.25)
                    if self._tickets_total is not None and self._expected not in self._blocks:
                        # closing, but a reserved block never arrived: its
                        # client died before sending ``open``.  Skip it after
                        # a grace period of *elapsed time* (waits can return
                        # early under notify traffic) instead of hanging
                        # shutdown.
                        now = time.monotonic()
                        if stall_started is None:
                            stall_started = now
                        elif now - stall_started >= _ABANDONED_TICKET_GRACE:
                            self._expected += 1
                            stall_started = None
            self._served += self._serve(block)
            self._expected += 1
            if self._checkpointing and self._served >= self._threshold:
                self._take_checkpoint()

    def _take_checkpoint(self) -> None:
        """Snapshot the handler between two blocks (drain thread only).

        The drain thread is the only one that mutates hosted state, so the
        snapshot is consistent without a lock: it holds the effects of
        exactly the blocks up to ``_expected - 1``.  ONE pickle of all the
        objects keeps what they share shared.
        """
        self._served = 0
        targets = dict(self.targets)  # ``host`` runs on the control thread
        try:
            state = pickle.dumps((targets, self._counter_values(), self.failures),
                                 protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - an object stopped being picklable
            # the previous checkpoint stays in force and the parent's journal
            # keeps growing: say so, and try less and less often
            self.counters.bump("journal_checkpoint_errors")
            self._threshold *= 2
            return
        self._threshold = max(CHECKPOINT_MIN_FRAMES, len(state) // CHECKPOINT_BYTES_PER_FRAME)
        self._unsent = {
            "ticket": self._expected - 1, "oids": sorted(targets),
            "state": base64.b64encode(state).decode("ascii") if self._text_state else state}

    def _serve(self, block: _Block) -> int:
        """Serve one block to its ``end``; returns the frames it took."""
        served = 0
        while True:
            with self._cond:
                while not block.items:
                    self._cond.wait()
                frame = block.items.popleft()
            served += 1
            kind = frame.get("kind")
            if kind == "end":
                return served
            if kind == "sync":
                self._reply(block, {"kind": "release", "counters": self._counter_values()})
                continue
            if kind == "call":
                self.counters.bump("calls_executed")
                try:
                    self._apply(frame)
                except BaseException as exc:  # recorded like Handler.failures
                    self.failures.append((repr(exc), traceback.format_exc()))
                continue
            if kind in ("invoke", "query"):
                # "query" is the unoptimized packaged-query protocol (counted
                # as an executed call, like the in-memory handler loop);
                # "invoke" is a client-executed query body shipped to the
                # parked handler, which the in-memory runtime does not count.
                if kind == "query":
                    self.counters.bump("calls_executed")
                try:
                    value = self._apply(frame)
                except BaseException as exc:
                    self._reply_error(block, exc)
                    continue
                self._reply(block, {"kind": "result", "value": value,
                                    "counters": self._counter_values()},
                            on_encode_error=True)
                continue
            self.failures.append((f"unknown request kind {kind!r}", ""))

    def _apply(self, frame: Dict[str, Any]) -> Any:
        target = self.targets[frame.get("oid", 0)]
        args = tuple(frame.get("args") or ())
        kwargs = dict(frame.get("kwargs") or {})
        fn = frame.get("fn")
        if fn is not None:
            return fn(target, *args, **kwargs)
        return getattr(target, frame["feature"])(*args, **kwargs)

    # -- replies -------------------------------------------------------------
    def _counter_values(self) -> Dict[str, int]:
        """The non-zero counters: the parent reads an absent name as unchanged."""
        return {name: value for name, value in self.counters.snapshot().as_dict().items()
                if value}

    def _send(self, block: _Block, payload: Dict[str, Any]) -> None:
        """One reply, carrying the unsent checkpoint if there is one.

        A reply that does not leave (client gone, restored block, a value
        the codec refuses) leaves the checkpoint for the next one.
        """
        checkpoint = self._unsent
        if checkpoint is not None:
            payload["checkpoint"] = checkpoint
        block.stream.send(payload)
        self._unsent = None

    def _reply(self, block: _Block, payload: Dict[str, Any],
               on_encode_error: bool = False) -> None:
        try:
            self._send(block, payload)
        except (BrokenPipeError, OSError):
            pass  # client gone; nothing to tell it
        except Exception as exc:  # noqa: BLE001 - unencodable result value
            if not on_encode_error:
                raise
            self._reply_error(block, exc)

    def _reply_error(self, block: _Block, exc: BaseException) -> None:
        payload = {"kind": "error", "error": exc, "message": repr(exc),
                   "counters": self._counter_values()}
        try:
            self._send(block, payload)
        except (BrokenPipeError, OSError):
            pass
        except Exception:  # noqa: BLE001 - exception itself unencodable
            self._reply(block, {"kind": "error", "message": repr(exc),
                                "counters": self._counter_values()})

    def report(self) -> Dict[str, Any]:
        return {"counters": self._counter_values(), "failures": list(self.failures)}


class Worker:
    """A worker process: accepts data connections, obeys control ops."""

    def __init__(self, token: str, codec: str, failover: bool = False) -> None:
        self.token = token
        self.codec = codec
        #: handlers checkpoint only for a parent that keeps a failover journal
        self.failover = failover
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
            except Exception as exc:  # noqa: BLE001 - e.g. an unpicklable host op
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
                    op["name"], checkpointing=self.failover,
                    text_state=not CODECS[self.codec].faithful,
                    restored_from=op.get("checkpoint"))
            return {"ok": True}
        if name == "host":
            self.servers[op["handler"]].host(int(op["oid"]), op["obj"])
            return {"ok": True}
        if name == "restore":
            self.servers[op["handler"]].restore(op.get("blocks") or [])
            return {"ok": True}
        if name == "close":
            server = self.servers[op["handler"]]
            server.close(int(op["tickets"]))
            drained = server.drained.wait(timeout=float(op.get("timeout", 30.0)))
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

    worker = Worker(spec["token"], spec.get("codec", "pickle"),
                    bool(spec.get("failover", False)))
    threading.Thread(target=worker.accept_loop, args=(listener,), daemon=True).start()
    worker.control_loop(ctrl, listener)


if __name__ == "__main__":  # pragma: no cover - spawned via -c in production
    sys.exit(main())
