"""The framed socket transport under the process backend's private queues.

The conclusion of the paper proposes "further explor[ing] the utility of the
private queue design, in particular the usage of sockets as the underlying
implementation" (Section 7) — the private queue is an SPSC channel, so
nothing stops it from running over a byte stream between processes or
machines.  This module is the byte-stream half of that:

* :class:`FrameBuffers` is the sync-agnostic framing core: 4-byte
  big-endian length-prefixed frames whose payloads go through a pluggable
  :class:`~repro.queues.codec.Codec` (JSON by default, pickle or the
  compact ``bin`` codec for full-fidelity same-trust links), plus the
  send-side burst assembly that coalescing is built on.  It never touches
  a socket — it only turns payloads into bytes and bytes back into
  payloads — so the exact same framing (and the exact same burst
  sizes) drives both I/O bindings below.
* :class:`FrameStream` is the blocking binding over a stream socket.  Each
  stream keeps a per-connection receive buffer, so a timeout in the middle
  of a frame *never* desyncs the stream: the bytes already received wait in
  the buffer and the next read resumes where the last one stopped.  Frames
  can be *coalesced*: ``feed`` buffers encoded frames and ``flush`` ships
  them in one ``sendall``; when is the caller's decision (the process
  backend's wire queue flushes whatever its core hands out, which already
  carries a burst of calls as one frame).  On the receiving side one buffer
  fill can hold several frames, and the ``recv`` calls that follow decode
  them without another syscall.
* :class:`AsyncFrameStream` is the asyncio binding over the same core:
  ``feed``/``flush``/``send`` are non-blocking (bursts land in the
  transport's write buffer, or in a pre-connection outbox that the
  ``connect`` flushes in order) and ``recv`` is awaited.  Frame layout, codec
  behaviour and the coalescing accounting (``flush`` returns the burst
  size) are bit-identical to the blocking binding because both delegate
  to the one :class:`FrameBuffers` implementation.

What travels in the frames — the private-queue protocol itself — is
:mod:`repro.queues.wire_queue` (client side) and
:mod:`repro.backends.process_worker` (handler side); this module stays
runtime-agnostic so it can also be used standalone (see
``benchmarks/bench_ablations.py``).
"""

from __future__ import annotations

import asyncio
import select
import socket
import struct
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.errors import ScoopError
from repro.queues.codec import Codec, get_codec

#: wire header: 4-byte big-endian payload length
_HEADER = struct.Struct(">I")

#: exceptions meaning "nothing (more) to read right now": a blocking socket
#: past its timeout raises ``socket.timeout``; a non-blocking one
#: (``timeout=0``) raises ``BlockingIOError`` immediately.  Both must be
#: treated as a timeout, not as an error — see ``FrameStream._fill``.
_WOULD_BLOCK = (socket.timeout, BlockingIOError)


def _wait_readable(sock: socket.socket, timeout: Optional[float]) -> bool:
    """Wait for readability without ``select.select``'s FD_SETSIZE cap.

    ``select`` rejects any fd >= 1024 with ``ValueError`` — a limit a
    10k-client fan-in blows straight through on the worker side, where
    every framed connection holds a descriptor.  ``poll`` has no fd
    ceiling, so readiness waits use it wherever the platform provides it
    (everywhere but Windows, which keeps the old ``select`` path and its
    cap).  ``timeout=None`` blocks; returns True when the socket is
    readable, False on timeout.
    """
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        # poll() takes milliseconds (None blocks); round up so a tiny
        # remaining slice cannot degrade into a zero-timeout busy poll
        ms = None if timeout is None else max(0, -(-int(timeout * 1_000_000) // 1000))
        return bool(poller.poll(ms))
    ready, _, _ = select.select([sock], [], [], timeout)
    return bool(ready)


class SocketQueueClosed(ScoopError):
    """The peer closed the connection (EOF on the underlying socket)."""


class FrameBuffers:
    """The framing/coalescing core shared by both I/O bindings.

    Owns the three things framing actually is — encode/decode through the
    codec, the length-prefix parse state, and the send-side burst buffer —
    and none of the I/O.  :class:`FrameStream` (blocking sockets) and
    :class:`AsyncFrameStream` (asyncio streams) both delegate here, so the
    wire format and the coalescing accounting cannot drift between them:
    a burst assembled on one side decodes identically on the other no
    matter which binding carried it.

    Not thread-safe by itself; the blocking binding serialises senders with
    its own lock, the asyncio binding is confined to one event loop.
    """

    __slots__ = ("codec", "_recv_buf", "_send_buf", "_send_pending")

    def __init__(self, codec: "str | Codec" = "json") -> None:
        self.codec: Codec = get_codec(codec)
        self._recv_buf = bytearray()
        self._send_buf = bytearray()
        self._send_pending = 0

    # -- send side: frame encode + burst assembly ---------------------------
    def add_frame(self, payload: Dict[str, Any]) -> None:
        """Encode ``payload`` into the pending burst."""
        data = self.codec.encode(payload)
        self._send_buf += _HEADER.pack(len(data))
        self._send_buf += data
        self._send_pending += 1

    def take_burst(self) -> Tuple[bytes, int]:
        """Detach every buffered frame as ``(bytes, frame_count)``.

        The buffer is cleared *before* the caller performs any I/O: if the
        write fails (dead peer), the failover path replays from its journal
        — it must not also find the frames still pending here and
        double-send them.
        """
        count = self._send_pending
        if not count:
            return b"", 0
        data = bytes(self._send_buf)
        self._send_buf.clear()
        self._send_pending = 0
        return data, count

    @property
    def pending_frames(self) -> int:
        """Frames added but not yet taken (introspection for tests)."""
        return self._send_pending

    # -- receive side: length-prefix parse over an accumulating buffer ------
    def extend(self, data: bytes) -> None:
        """Append raw bytes read from the transport."""
        self._recv_buf += data

    @property
    def buffered_bytes(self) -> int:
        return len(self._recv_buf)

    def needed_bytes(self) -> int:
        """Bytes still missing before :meth:`pop_frame` can decode one.

        ``0`` means a complete frame is already buffered.  The blocking
        binding uses this to wait for exactly one frame's worth of data.
        """
        if len(self._recv_buf) < _HEADER.size:
            return _HEADER.size - len(self._recv_buf)
        (length,) = _HEADER.unpack(bytes(self._recv_buf[: _HEADER.size]))
        missing = _HEADER.size + length - len(self._recv_buf)
        return missing if missing > 0 else 0

    def pop_frame(self) -> Optional[Dict[str, Any]]:
        """Decode one frame purely from the buffer; ``None`` if incomplete.

        A partial frame stays buffered untouched — this is the invariant
        that keeps the length-prefixed stream in sync across timeouts.
        """
        if len(self._recv_buf) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack(bytes(self._recv_buf[: _HEADER.size]))
        if len(self._recv_buf) < _HEADER.size + length:
            return None
        body = bytes(self._recv_buf[_HEADER.size: _HEADER.size + length])
        del self._recv_buf[: _HEADER.size + length]
        return self.codec.decode(body)


class FrameStream:
    """One side of a framed, codec-encoded connection over a stream socket.

    ``recv`` returns ``None`` on timeout and raises :class:`SocketQueueClosed`
    on EOF; the distinction matters to callers that poll (timeout = try
    again) versus callers that own a peer's lifecycle (EOF = it is gone).

    Partial reads are kept in a per-stream buffer: a frame interrupted by a
    timeout — after the header, or half-way through a large body — is
    resumed by the next ``recv``, so timeouts are always safe to interleave
    with traffic of any size.  (The original prototype discarded partial
    reads, permanently desyncing the length-prefixed stream.)

    Receive deadlines are enforced with a readiness poll on the receiver's side
    only — the socket's blocking mode is never touched — so a concurrent
    ``send``/``flush`` from another thread can never inherit a receiver's
    deadline and spuriously raise ``socket.timeout`` mid-``sendall``.  (The
    previous implementation set ``settimeout`` on the shared socket for the
    duration of the deadline window.)
    """

    def __init__(self, sock: socket.socket, codec: "str | Codec" = "json") -> None:
        self.sock = sock
        self._core = FrameBuffers(codec)
        self._send_lock = threading.Lock()

    @property
    def codec(self) -> Codec:
        return self._core.codec

    # -- sending -----------------------------------------------------------
    def send(self, payload: Dict[str, Any]) -> None:
        """Encode and send one frame (atomic with respect to other senders).

        Any frames still sitting in the coalescing buffer are flushed first,
        so ``feed``/``send`` interleavings preserve enqueue order.
        """
        with self._send_lock:
            self._core.add_frame(payload)
            self._flush_locked()

    def feed(self, payload: Dict[str, Any]) -> None:
        """Buffer one encoded frame for the next ``flush`` (or ``send``)."""
        with self._send_lock:
            self._core.add_frame(payload)

    def flush(self) -> int:
        """Ship all buffered frames in one ``sendall``; returns the count."""
        with self._send_lock:
            return self._flush_locked()

    def _flush_locked(self) -> int:
        # the core detaches the burst before the sendall, so a dead-peer
        # failure cannot leave the frames pending for a double-send
        data, count = self._core.take_burst()
        if not count:
            return 0
        self.sock.sendall(data)
        return count

    @property
    def pending_frames(self) -> int:
        """Frames fed but not yet flushed (introspection for tests)."""
        return self._core.pending_frames

    def peer_closed(self) -> bool:
        """True if the peer's EOF (or reset) is already queued locally.

        A coalesced burst ``sendall``-ed into a freshly dead peer can
        *succeed* — the kernel accepts the bytes before the peer's RST
        lands — so a fire-and-forget sender would never learn the frames
        were lost.  A zero-timeout readiness poll plus ``MSG_PEEK`` surfaces
        the queued EOF without consuming any real reply data; pending
        (e.g. stale-reply) bytes read as "alive".
        """
        try:
            ready = _wait_readable(self.sock, 0)
        except (OSError, ValueError):
            return True  # socket already closed locally
        if not ready:
            return False
        try:
            return self.sock.recv(1, socket.MSG_PEEK) == b""
        except BlockingIOError:  # pragma: no cover - readability raced away
            return False
        except OSError:
            return True  # ECONNRESET and friends: definitely gone

    # -- receiving ---------------------------------------------------------
    def recv(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Receive one frame; ``None`` on timeout, raises on closed peer.

        ``timeout`` bounds the wait for the *whole* frame: a deadline is
        computed up front and every underlying read gets only the remaining
        slice.  ``timeout=0`` is a non-blocking poll (consume whatever the
        kernel already has; return ``None`` if that is not a full frame yet).
        """
        deadline = None
        if timeout is not None and timeout > 0:
            deadline = time.monotonic() + timeout
        while True:
            frame = self._core.pop_frame()
            if frame is not None:
                return frame
            if not self._fill(self._core.needed_bytes(), timeout, deadline):
                return None

    def _fill(self, missing: int, timeout: Optional[float], deadline: Optional[float]) -> bool:
        """Read at least ``missing`` more bytes; False on timeout.

        On timeout the bytes read so far *stay in the core's buffer* — this
        is the invariant that keeps the length-prefixed stream in sync
        across timeouts.  Readiness waits use :func:`_wait_readable` so the
        deadline never leaks into the socket's blocking mode (concurrent
        senders would inherit it).
        """
        target = self._core.buffered_bytes + missing
        while self._core.buffered_bytes < target:
            if timeout is not None:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                else:
                    # timeout=0 (or negative): non-blocking poll
                    remaining = 0
                if not _wait_readable(self.sock, remaining):
                    return False
            try:
                chunk = self.sock.recv(65536)
            except _WOULD_BLOCK:
                # the socket itself may carry a timeout set by its owner;
                # honour it as "nothing to read" rather than an error
                return False
            if not chunk:
                raise SocketQueueClosed("the peer closed the connection")
            self._core.extend(chunk)
        return True

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"FrameStream(codec={self.codec.name!r}, "
                f"buffered={self._core.buffered_bytes}, "
                f"pending={self._core.pending_frames})")


class AsyncFrameStream:
    """The asyncio binding of :class:`FrameBuffers`: same frames, no blocking.

    The send surface mirrors :class:`FrameStream` — ``feed`` buffers one
    frame, ``flush`` ships the pending burst and returns its size, ``send``
    is add-then-flush —
    but every operation completes without touching the event loop: bursts
    land in the asyncio transport's write buffer or, before ``connect``
    has finished, in an *outbox* that the connection flushes first, in
    order.  The return values (and with them the caller's
    ``wire_frames_coalesced`` accounting) are therefore bit-identical to
    the blocking binding: the burst counts when it leaves the framing
    core, regardless of which buffer carries it next.

    Receiving is the awaited half: ``recv`` resolves one frame at a time
    from the shared core, reading from the stream only when the buffer has
    no complete frame.  EOF raises :class:`SocketQueueClosed` — an asyncio
    consumer is expected to keep a reader task parked in ``recv``, so a
    dead peer is noticed promptly instead of via the blocking binding's
    send-time probe.

    Confined to one event loop (no internal locking), which is exactly the
    discipline of a per-(client, handler) private queue.
    """

    def __init__(self, codec: "str | Codec" = "json") -> None:
        self._core = FrameBuffers(codec)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._outbox = bytearray()
        self._closed = False

    @property
    def codec(self) -> Codec:
        return self._core.codec

    async def connect(self, host: str, port: int, timeout: float = 10.0) -> None:
        """Open the connection and ship everything the outbox accumulated."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=timeout)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader, self._writer = reader, writer
        if self._outbox:
            writer.write(bytes(self._outbox))
            self._outbox.clear()
        if self._closed:
            # closed while still connecting: the outbox had to go out first
            writer.close()

    # -- sending (never blocks; mirrors FrameStream's accounting) -----------
    def send(self, payload: Dict[str, Any]) -> int:
        """Frame and ship one payload (plus any pending burst); the count."""
        self._core.add_frame(payload)
        return self.flush()

    def feed(self, payload: Dict[str, Any]) -> None:
        """Buffer one frame for the next ``flush`` (or ``send``)."""
        self._core.add_frame(payload)

    def flush(self) -> int:
        """Move the pending burst to the wire (or outbox); returns the count."""
        data, count = self._core.take_burst()
        if not count:
            return 0
        if self._writer is not None:
            self._writer.write(data)
        else:
            self._outbox += data
        return count

    # -- receiving ----------------------------------------------------------
    async def recv(self) -> Dict[str, Any]:
        """Await one frame; raises :class:`SocketQueueClosed` on EOF."""
        while True:
            frame = self._core.pop_frame()
            if frame is not None:
                return frame
            if self._reader is None:
                raise ScoopError("AsyncFrameStream.recv before connect")
            chunk = await self._reader.read(65536)
            if not chunk:
                raise SocketQueueClosed("the peer closed the connection")
            self._core.extend(chunk)

    def close(self) -> None:
        self._closed = True
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:  # noqa: BLE001 - loop may already be gone
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "connected" if self._writer is not None else "connecting"
        return (f"AsyncFrameStream(codec={self.codec.name!r}, {state}, "
                f"pending={self._core.pending_frames})")
