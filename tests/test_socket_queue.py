"""Tests for the framed socket transport (the paper's Section 7 direction).

Includes the regression suite for the transport bugs the first prototype
shipped with — a ``timeout=0`` receive leaking ``BlockingIOError``, a
timeout in the middle of a frame desyncing the length-prefixed stream, a
receive deadline leaking into concurrent sends, the JSON wire silently
turning argument tuples into lists — all driven on a bare
``socket.socketpair()`` + :class:`FrameStream`.
"""

import socket
import struct
import threading
import time

import pytest

from repro.errors import ScoopError
from repro.queues.codec import get_codec
from repro.queues.socket_queue import COALESCE_MAX_FRAMES, FrameStream, SocketQueueClosed


@pytest.fixture
def pair():
    """(raw client socket, client stream, handler stream) over a socketpair."""
    made = []

    def make(codec="json"):
        a, b = socket.socketpair()
        streams = (a, FrameStream(a, codec), FrameStream(b, codec))
        made.append(streams)
        return streams

    yield make
    for _, left, right in made:
        left.close()
        right.close()


def _frame(payload, codec="json"):
    body = get_codec(codec).encode(payload)
    return struct.pack(">I", len(body)) + body


class TestTimeoutRegressions:
    """The transport bugs of the original prototype, pinned."""

    def test_recv_timeout_returns_none(self, pair):
        _, _, handler = pair()
        assert handler.recv(timeout=0.05) is None

    def test_recv_timeout_zero_returns_none_on_an_empty_stream(self, pair):
        # regression: timeout=0 made the socket non-blocking and the
        # resulting BlockingIOError escaped to the caller
        _, _, handler = pair()
        assert handler.recv(timeout=0) is None

    def test_recv_timeout_zero_still_sees_ready_frames(self, pair):
        _, client, handler = pair()
        client.send({"kind": "call", "feature": "increment", "args": [1], "kwargs": {}})
        time.sleep(0.05)  # let the socketpair deliver
        frame = handler.recv(timeout=0)
        assert frame is not None and frame["feature"] == "increment"
        assert handler.recv(timeout=0) is None

    def test_partial_frame_survives_timeouts(self, pair):
        # regression: a timeout after a partial header/body read discarded
        # the received bytes and permanently desynced the framed stream
        sock, client, handler = pair()
        frame = _frame({"kind": "call", "feature": "increment", "args": [7], "kwargs": {}})
        # drip the frame in: header byte-by-byte, then body in two cuts
        sock.sendall(frame[:3])
        assert handler.recv(timeout=0.02) is None        # mid-header
        sock.sendall(frame[3:10])
        assert handler.recv(timeout=0.02) is None        # mid-body
        sock.sendall(frame[10:])
        got = handler.recv(timeout=1.0)
        assert (got["feature"], got["args"]) == ("increment", [7])
        # and the stream is still in sync for the next normal frame
        client.send({"kind": "call", "feature": "increment", "args": [8], "kwargs": {}})
        assert handler.recv(timeout=1.0)["args"] == [8]

    def test_short_timeouts_interleaved_with_large_payloads(self, pair):
        # a large frame trickled through a throttled sender must assemble
        # across many timed-out receives without corruption
        sock, _, handler = pair()
        big = "x" * 300_000

        def slow_send():
            frame = _frame({"kind": "call", "feature": "store", "args": [big], "kwargs": {}})
            for i in range(0, len(frame), 20_000):
                sock.sendall(frame[i:i + 20_000])
                time.sleep(0.002)

        sender = threading.Thread(target=slow_send, daemon=True)
        sender.start()
        tries = 0
        while True:
            got = handler.recv(timeout=0.005)
            if got is not None:
                break
            tries += 1
            assert tries < 10_000, "frame never assembled"
        assert (got["feature"], got["args"]) == ("store", [big])
        assert tries > 0, "throttling should force at least one timeout"
        sender.join(timeout=5)
        assert not sender.is_alive()

    def test_closed_peer_distinguished_from_timeout(self, pair):
        # regression: a receive reported a timeout and a closed peer the
        # same way, so pollers could not tell a quiet interval from
        # end-of-stream; now timeout -> None, EOF -> SocketQueueClosed
        _, client, handler = pair()
        assert handler.recv(timeout=0.05) is None
        client.close()
        with pytest.raises(SocketQueueClosed):
            handler.recv(timeout=0.05)

    def test_concurrent_sends_never_inherit_a_recv_deadline(self):
        # regression: FrameStream.recv's deadline path set settimeout() on
        # the shared socket, so a concurrent sendall from another thread
        # could spuriously raise socket.timeout once the kernel buffer
        # filled inside the deadline window
        a, b = socket.socketpair()
        left, right = FrameStream(a), FrameStream(b)
        big = "z" * 500_000  # several times a socketpair's kernel buffer
        errors = []
        sent = threading.Event()

        def sender():
            try:
                for _ in range(4):
                    left.send({"kind": "result", "value": big})
            except Exception as exc:  # noqa: BLE001 - the regression itself
                errors.append(exc)
            finally:
                sent.set()

        def receiver():
            # timed recvs poll left's socket while its sender blocks in
            # sendall on the very same socket
            got = 0
            while got < 4:
                frame = right.recv(timeout=0.01)
                if frame is not None:
                    got += 1
            sent.wait(timeout=5)

        try:
            send_thread = threading.Thread(target=sender, daemon=True)
            recv_thread = threading.Thread(target=receiver, daemon=True)
            # left ALSO polls for replies with a deadline while sending:
            # this is the exact interleaving that used to poison sendall
            send_thread.start()
            for _ in range(50):
                assert left.recv(timeout=0.005) is None
            recv_thread.start()
            send_thread.join(timeout=10)
            recv_thread.join(timeout=10)
            assert not send_thread.is_alive(), "sender wedged"
            assert errors == [], f"send raised under a concurrent timed recv: {errors}"
        finally:
            left.close()
            right.close()


class TestCodecs:
    CALL = {"kind": "call", "feature": "place", "args": [(1, 2), [(3, 4)]],
            "kwargs": {"corners": {"a": (5, 6)}}}

    def test_json_carries_flat_arguments_as_lists(self, pair):
        # JSON has no tuple type: arguments travel as a list (the worker
        # normalises ``args`` back to a tuple when it applies the call)
        _, client, handler = pair("json")
        client.send({"kind": "call", "feature": "move", "args": [1, 2], "kwargs": {"speed": 3}})
        got = handler.recv(timeout=1.0)
        assert got["args"] == [1, 2] and got["kwargs"] == {"speed": 3}

    @pytest.mark.parametrize("codec", ["pickle", "bin"])
    def test_faithful_codecs_round_trip_tuples(self, pair, codec):
        _, client, handler = pair(codec)
        client.send(self.CALL)
        got = handler.recv(timeout=1.0)
        assert got == self.CALL
        assert isinstance(got["args"][0], tuple)
        assert isinstance(got["args"][1][0], tuple)
        assert isinstance(got["kwargs"]["corners"]["a"], tuple)

    @pytest.mark.parametrize("codec", ["pickle", "bin"])
    def test_faithful_codecs_round_trip_a_query_result(self, pair, codec):
        _, client, handler = pair(codec)
        client.send({"kind": "query", "feature": "diagonal", "args": [(3, 4)], "kwargs": {}})
        corner = handler.recv(timeout=1.0)["args"][0]
        handler.send({"kind": "result", "value": (corner[0] * 2, corner[1] * 2)})
        value = client.recv(timeout=1.0)["value"]
        assert value == (6, 8) and isinstance(value, tuple)

    def test_unknown_codec_rejected(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(ValueError, match="unknown wire codec"):
                FrameStream(a, "yaml")
        finally:
            a.close()
            b.close()

    def test_json_codec_refuses_nested_tuples_instead_of_mutating(self, pair):
        # regression: JSON silently decoded nested tuples as lists; now the
        # mismatch is a pointed error naming the codecs that can carry them
        _, client, _ = pair("json")
        with pytest.raises(ScoopError, match="pickle.*bin|bin.*pickle"):
            client.send({"kind": "call", "feature": "place", "args": [[(1, 2)]], "kwargs": {}})


class TestCoalescing:
    """feed/flush (send side) and recv_many (receive side) batching."""

    def _pair(self, codec="json"):
        a, b = socket.socketpair()
        return FrameStream(a, codec), FrameStream(b, codec)

    def test_feed_buffers_until_flush(self):
        left, right = self._pair()
        try:
            for n in range(3):
                assert left.feed({"kind": "call", "n": n}) == 0
            assert left.pending_frames == 3
            # nothing on the wire yet
            assert right.recv(timeout=0.05) is None
            assert left.flush() == 3
            assert left.pending_frames == 0
            frames = right.recv_many(timeout=1.0)
            assert [f["n"] for f in frames] == [0, 1, 2]
        finally:
            left.close()
            right.close()

    def test_feed_auto_flushes_at_the_batch_limit(self):
        left, right = self._pair()
        try:
            flushed = []
            for n in range(COALESCE_MAX_FRAMES + 5):
                flushed.append(left.feed({"kind": "call", "n": n}))
            assert flushed.count(COALESCE_MAX_FRAMES) == 1
            assert left.pending_frames == 5
            assert left.flush() == 5
            got = []
            while len(got) < COALESCE_MAX_FRAMES + 5:
                got.extend(right.recv_many(timeout=1.0))
            assert [f["n"] for f in got] == list(range(COALESCE_MAX_FRAMES + 5))
        finally:
            left.close()
            right.close()

    def test_send_flushes_pending_frames_first(self):
        # feed/send interleavings must preserve enqueue order
        left, right = self._pair()
        try:
            left.feed({"kind": "call", "n": 0})
            left.send({"kind": "sync", "n": 1})
            frames = right.recv_many(timeout=1.0)
            assert [f["n"] for f in frames] == [0, 1]
        finally:
            left.close()
            right.close()

    def test_recv_many_respects_max_frames(self):
        left, right = self._pair()
        try:
            for n in range(6):
                left.feed({"kind": "call", "n": n})
            left.flush()
            first = right.recv_many(timeout=1.0, max_frames=4)
            assert [f["n"] for f in first] == [0, 1, 2, 3]
            rest = right.recv_many(timeout=1.0)
            assert [f["n"] for f in rest] == [4, 5]
        finally:
            left.close()
            right.close()

    def test_flush_on_empty_buffer_is_a_no_op(self):
        left, right = self._pair()
        try:
            assert left.flush() == 0
        finally:
            left.close()
            right.close()

    def test_recv_many_timeout_returns_empty_list(self):
        left, right = self._pair()
        try:
            assert right.recv_many(timeout=0.02) == []
        finally:
            left.close()
            right.close()

    def test_peer_closed_false_on_a_live_connection_even_with_pending_data(self):
        left, right = self._pair()
        try:
            assert not left.peer_closed()
            right.send({"kind": "reply"})  # queued bytes are not EOF
            time.sleep(0.05)
            assert not left.peer_closed()
            assert left.recv(timeout=1.0) == {"kind": "reply"}
        finally:
            left.close()
            right.close()

    def test_peer_closed_surfaces_a_dead_peer_despite_a_successful_flush(self):
        # Over TCP the first sendall after the peer dies *succeeds* — the
        # kernel buffers the burst before the RST lands — so a
        # fire-and-forget sender would never see an error.  The queued FIN
        # must still be visible through peer_closed().
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = socket.create_connection(listener.getsockname())
        server, _ = listener.accept()
        stream = FrameStream(client)
        try:
            assert not stream.peer_closed()
            server.close()  # the "worker" dies with the connection open
            stream.feed({"kind": "call", "n": 0})
            stream.feed({"kind": "end"})
            try:
                stream.flush()  # typically succeeds into the kernel buffer
            except (OSError, SocketQueueClosed):
                pass  # the RST may also land first; either way:
            deadline = time.monotonic() + 2.0
            while not stream.peer_closed():
                assert time.monotonic() < deadline, "EOF never surfaced"
                time.sleep(0.01)
        finally:
            stream.close()
            listener.close()


class TestFrameStream:
    def test_send_recv_over_socketpair(self):
        a, b = socket.socketpair()
        left, right = FrameStream(a), FrameStream(b)
        try:
            left.send({"kind": "ping", "n": 1})
            assert right.recv(timeout=1.0) == {"kind": "ping", "n": 1}
            right.send({"kind": "pong", "n": 2})
            assert left.recv(timeout=1.0) == {"kind": "pong", "n": 2}
        finally:
            left.close()
            right.close()

    def test_recv_timeout_bounds_the_whole_frame(self):
        a, b = socket.socketpair()
        stream = FrameStream(b)
        try:
            a.sendall(struct.pack(">I", 100))  # header promises 100 bytes
            start = time.monotonic()
            assert stream.recv(timeout=0.1) is None  # body never arrives
            assert time.monotonic() - start < 2.0
        finally:
            a.close()
            stream.close()

    def test_recv_raises_on_eof(self):
        a, b = socket.socketpair()
        stream = FrameStream(b)
        a.close()
        with pytest.raises(SocketQueueClosed):
            stream.recv(timeout=0.5)
        stream.close()

    def test_timed_recv_restores_blocking_mode(self):
        # regression: a timed (or timeout=0) recv left the socket
        # non-blocking, making a later large send on the same socket raise
        # BlockingIOError once the kernel buffer filled
        a, b = socket.socketpair()
        left, right = FrameStream(a), FrameStream(b)
        try:
            assert right.recv(timeout=0) is None
            assert right.sock.gettimeout() is None
            assert right.recv(timeout=0.01) is None
            assert right.sock.gettimeout() is None
            # a reply far larger than the socketpair buffer must not raise
            drained = {}

            def drain():
                drained["frame"] = left.recv(timeout=5.0)

            reader = threading.Thread(target=drain, daemon=True)
            reader.start()
            right.send({"kind": "result", "value": "y" * 2_000_000})
            reader.join(timeout=5)
            assert drained["frame"]["value"] == "y" * 2_000_000
        finally:
            left.close()
            right.close()
