"""Property tests for the wire framing layer (hypothesis).

The framing invariant the process backend rests on: *any* sequence of
payloads, encoded through a :class:`~repro.queues.socket_queue.FrameStream`
and delivered through a real socketpair in arbitrary chunkings — including
frames larger than a single ``recv`` — decodes to the identical sequence,
regardless of how receive timeouts interleave with delivery.
"""

from __future__ import annotations

import socket
import struct
import threading

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.queues.codec import get_codec
from repro.queues.socket_queue import FrameStream

# JSON-native scalars whose decode is the identity (finite floats only:
# NaN breaks equality, and ints within double precision survive json)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)

_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

#: frame payloads are dicts (the transport contract)
_json_payloads = st.dictionaries(st.text(max_size=8), _json_values, max_size=5)

# pickle payloads may additionally carry tuples, sets and bytes — the types
# the pickle codec exists to round-trip faithfully
_pickle_values = st.recursive(
    st.one_of(_json_scalars, st.binary(max_size=20),
              st.frozensets(st.integers(), max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

_pickle_payloads = st.dictionaries(st.text(max_size=8), _pickle_values, max_size=5)

# bin payloads: everything pickle carries, plus big ints (past the native
# 64-bit tag) and protocol-shaped dicts exercising the kind/key tables
_bin_values = st.recursive(
    st.one_of(
        _json_scalars,
        st.integers(min_value=-(2**80), max_value=2**80),
        st.binary(max_size=20),
        st.frozensets(st.integers(), max_size=4),
        st.sets(st.integers(), max_size=4),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

#: keys mix table-coded protocol names with arbitrary (escaped) strings
_bin_keys = st.one_of(
    st.sampled_from(["kind", "feature", "args", "kwargs", "value", "ticket"]),
    st.text(max_size=8),
)

_bin_payloads = st.dictionaries(_bin_keys, _bin_values, max_size=5)


def _pump(codec_name: str, payloads, chunk_sizes, recv_timeout=1.0):
    """Send ``payloads`` as raw bytes in odd chunkings; decode them back."""
    codec = get_codec(codec_name)
    blob = b"".join(
        struct.pack(">I", len(data)) + data
        for data in (codec.encode(p) for p in payloads)
    )
    a, b = socket.socketpair()
    received = []
    try:
        stream = FrameStream(b, codec_name)

        def send():
            offset = 0
            i = 0
            while offset < len(blob):
                size = chunk_sizes[i % len(chunk_sizes)] if chunk_sizes else len(blob)
                a.sendall(blob[offset:offset + size])
                offset += size
                i += 1
            a.close()

        sender = threading.Thread(target=send, daemon=True)
        sender.start()
        for _ in payloads:
            frame = None
            attempts = 0
            while frame is None:
                frame = stream.recv(timeout=recv_timeout)
                attempts += 1
                assert attempts < 1000, "frame never arrived"
            received.append(frame)
        sender.join(timeout=5)
    finally:
        a.close()
        b.close()
    return received


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payloads=st.lists(_json_payloads, min_size=1, max_size=6),
       chunk_sizes=st.lists(st.integers(min_value=1, max_value=37),
                            min_size=1, max_size=5))
def test_json_sequences_round_trip_across_chunkings(payloads, chunk_sizes):
    assert _pump("json", payloads, chunk_sizes) == payloads


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payloads=st.lists(_pickle_payloads, min_size=1, max_size=6),
       chunk_sizes=st.lists(st.integers(min_value=1, max_value=37),
                            min_size=1, max_size=5))
def test_pickle_sequences_round_trip_faithfully(payloads, chunk_sizes):
    received = _pump("pickle", payloads, chunk_sizes)
    assert received == payloads
    for sent, got in zip(payloads, received):
        for key, value in sent.items():
            assert type(got[key]) is type(value)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payloads=st.lists(_bin_payloads, min_size=1, max_size=6),
       chunk_sizes=st.lists(st.integers(min_value=1, max_value=37),
                            min_size=1, max_size=5))
def test_bin_sequences_round_trip_faithfully(payloads, chunk_sizes):
    received = _pump("bin", payloads, chunk_sizes)
    assert received == payloads
    for sent, got in zip(payloads, received):
        for key, value in sent.items():
            assert type(got[key]) is type(value)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(size=st.integers(min_value=70_000, max_value=200_000),
       tail=st.lists(_json_payloads, max_size=2))
def test_frames_larger_than_one_recv(size, tail):
    """A body bigger than the 64 KiB read chunk needs several recv calls —
    and whatever follows it in the pipe must still decode cleanly."""
    payloads = [{"big": "x" * size}, *tail]
    assert _pump("json", payloads, chunk_sizes=[50_000]) == payloads


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(size=st.integers(min_value=70_000, max_value=200_000),
       tail=st.lists(_bin_payloads, max_size=2))
def test_bin_frames_larger_than_one_recv(size, tail):
    payloads = [{"big": "x" * size, "blob": b"\x00" * 1000}, *tail]
    assert _pump("bin", payloads, chunk_sizes=[50_000]) == payloads


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payloads=st.lists(_bin_payloads, min_size=1, max_size=10),
       codec_name=st.sampled_from(["bin", "pickle"]))
def test_coalesced_bursts_decode_to_the_identical_sequence(payloads, codec_name):
    """The coalescing contract: a burst of frames fed and flushed as ONE
    sendall decodes — one ``recv`` per frame, however many of them a single
    buffer fill carried — to exactly the fed sequence."""
    a, b = socket.socketpair()
    try:
        left, right = FrameStream(a, codec_name), FrameStream(b, codec_name)
        for payload in payloads:
            left.feed(payload)
        assert left.flush() == len(payloads)
        received = [right.recv(timeout=1.0) for _ in payloads]
        assert None not in received, "burst never fully arrived"
        assert received == payloads
        assert right.recv(timeout=0.01) is None  # nothing trailing
    finally:
        a.close()
        b.close()


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payloads=st.lists(_json_payloads, min_size=1, max_size=4),
       cut=st.integers(min_value=1, max_value=10**6))
def test_interleaved_timeouts_never_desync(payloads, cut):
    """Deliver a prefix, let receives time out, then deliver the rest."""
    codec = get_codec("json")
    blob = b"".join(
        struct.pack(">I", len(data)) + data
        for data in (codec.encode(p) for p in payloads)
    )
    cut = min(cut, max(len(blob) - 1, 1))
    a, b = socket.socketpair()
    try:
        stream = FrameStream(b, "json")
        a.sendall(blob[:cut])
        received = []
        while True:  # drain whatever the prefix completes
            frame = stream.recv(timeout=0.01)
            if frame is None:
                break
            received.append(frame)
        a.sendall(blob[cut:])
        while len(received) < len(payloads):
            frame = stream.recv(timeout=1.0)
            assert frame is not None, "desynced after timeout at a frame boundary"
            received.append(frame)
        assert received == payloads
    finally:
        a.close()
        b.close()
