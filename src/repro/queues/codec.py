"""Wire codecs: the pluggable payload-encoding seam of the socket transport.

The socket-backed private queue (and the process execution backend built on
top of it) frames every message as a 4-byte big-endian length followed by an
encoded payload.  *What* the payload encoding is, is a policy decision:

* :class:`JsonCodec` -- the original prototype encoding.  Human-readable,
  language-agnostic, safe to decode from an untrusted peer — but it only
  carries JSON types.  Rather than silently mutating nested tuples into
  lists (the prototype's documented-lossy behaviour), it now *refuses*
  payloads it cannot carry faithfully with :class:`CodecFidelityError`.
* :class:`PickleCodec` -- full Python-object fidelity: tuples stay tuples,
  sets stay sets, exceptions and (importable) callables round-trip.  Never
  use it across a trust boundary: unpickling executes arbitrary code by
  design.
* :class:`BinCodec` -- a compact binary encoding for the hot path: a
  ``struct``-packed header plus type-tagged fields, with a small key
  table for the protocol's common keys (``kind``/``fn``/``args``/...).
  Common call/sync/result payloads encode without touching pickle *or*
  JSON; payloads carrying arbitrary objects fall back to pickle, so it
  has the same fidelity as pickle — and the same trust requirements
  (decode will unpickle fallback frames).

Codecs are intentionally tiny — ``encode``/``decode`` over ``dict`` payloads,
plus ``check`` for values that travel later, inside a larger frame — so
adding another (msgpack, CBOR, a schema'd protobuf) means implementing those
and registering the instance in :data:`CODECS`.
"""

from __future__ import annotations

import json
import marshal
import pickle
import struct
from abc import ABC, abstractmethod
from typing import Any, Dict, Iterable, Tuple

from repro.errors import ScoopError


class CodecFidelityError(ScoopError):
    """A payload contains values the selected codec cannot carry faithfully."""


class Codec(ABC):
    """Encode/decode one framed payload (a ``dict``) to/from bytes."""

    #: short name used in backend specs (``process:json``) and constructors
    name: str = "abstract"

    #: True when the codec round-trips arbitrary Python values without
    #: changing their types (tuples stay tuples, sets stay sets, objects
    #: survive).  Codecs that are not faithful must raise
    #: :class:`CodecFidelityError` instead of silently mutating payloads.
    faithful: bool = False

    @abstractmethod
    def encode(self, payload: Dict[str, Any]) -> bytes:  # pragma: no cover
        raise NotImplementedError

    @abstractmethod
    def decode(self, data: bytes) -> Dict[str, Any]:  # pragma: no cover
        raise NotImplementedError

    @abstractmethod
    def check(self, values: Iterable[Any], where: str) -> None:  # pragma: no cover
        """Raise what encoding ``values`` inside a payload would raise.

        For values framed later than they are handed over (a logged call
        travels in its burst's frame): the refusal comes at the hand-over.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"


def _check_json_value(value: Any, where: str) -> None:
    """Recursively verify ``value`` survives a JSON round-trip unchanged."""
    t = type(value)
    if t in (type(None), bool, int, float, str):
        return
    if t is list:
        for item in value:
            _check_json_value(item, where)
        return
    if t is dict:
        for key, item in value.items():
            if type(key) is not str:
                raise CodecFidelityError(
                    f"the 'json' wire codec cannot faithfully carry a "
                    f"{type(key).__name__} dict key in {where} (JSON keys are "
                    f"strings); use a full-fidelity codec: 'pickle' or 'bin' "
                    f"(e.g. backend='process:bin')")
            _check_json_value(item, where)
        return
    raise CodecFidelityError(
        f"the 'json' wire codec cannot faithfully carry a "
        f"{type(value).__name__} in {where} (it carries None, bools, numbers, "
        f"strings, lists and str-keyed dicts); use a full-fidelity codec: "
        f"'pickle' or 'bin' (e.g. backend='process:bin')")


class JsonCodec(Codec):
    """UTF-8 JSON payloads: portable, readable, JSON types only.

    The transport normalises the *top-level* argument tuple, so flat
    JSON-typed arguments are fine; anything JSON cannot represent (nested
    tuples, sets, bytes, arbitrary objects) raises
    :class:`CodecFidelityError` at encode time instead of arriving mutated.
    """

    name = "json"
    faithful = False

    def encode(self, payload: Dict[str, Any]) -> bytes:
        for key, value in payload.items():
            # top-level "args" arrives as a list the decoder re-tuples, so
            # only its *elements* need to be JSON-faithful
            _check_json_value(value, f"payload field {key!r}")
        return json.dumps(payload).encode("utf-8")

    def decode(self, data: bytes) -> Dict[str, Any]:
        return json.loads(data.decode("utf-8"))

    def check(self, values: Iterable[Any], where: str) -> None:
        for value in values:
            _check_json_value(value, where)


#: values every full-fidelity codec carries as they are: checked for free
_ATOMS = frozenset({type(None), bool, int, float, complex, str, bytes})


class PickleCodec(Codec):
    """Pickled payloads: faithful Python round-trips, same-trust peers only."""

    name = "pickle"
    faithful = True

    def encode(self, payload: Dict[str, Any]) -> bytes:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, data: bytes) -> Dict[str, Any]:
        return pickle.loads(data)

    def check(self, values: Iterable[Any], where: str) -> None:
        for value in values:
            if type(value) not in _ATOMS:
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


# ---------------------------------------------------------------------------
# BinCodec: struct-packed header + type-tagged body
# ---------------------------------------------------------------------------

#: bin wire format version (first byte of every frame); 2 since kind code 1
#: is ``calls`` (a burst of logged calls), no longer the single ``call``
_BIN_VERSION = 2

#: protocol message kinds with a one-byte code (0 = "kind" not in the table,
#: in which case it is encoded as an ordinary dict entry).  Appending to this
#: tuple is wire-compatible; reordering is not.
_WIRE_KINDS: Tuple[str, ...] = (
    "", "calls", "sync", "end", "result", "error", "query", "invoke",
    "open", "hello", "release",
)
_KIND_CODE = {kind: i for i, kind in enumerate(_WIRE_KINDS) if i}

#: common payload keys with a small integer code (1-based).  Appending is
#: wire-compatible; reordering is not.
_WIRE_KEYS: Tuple[str, ...] = (
    "kind", "feature", "args", "kwargs", "oid", "value", "counters",
    "message", "error", "ticket", "block", "client", "token", "handler",
    "fn", "op", "name", "ok", "port", "pid", "tickets", "blocks", "obj",
    "timeout", "traceback", "drained", "failures", "calls",
)
_KEY_CODE = {key: i + 1 for i, key in enumerate(_WIRE_KEYS)}

#: header: version, kind code, body format
_HDR = struct.Struct(">BBB")
_BODY_TAGGED, _BODY_PICKLE = 1, 2
_MARSHAL_VERSION = 4


class BinCodec(Codec):
    """Compact binary payloads: tagged fields, pickle fallback, same trust.

    Frame layout: a ``>BBB`` struct header (format version, kind code, body
    format) followed by the body.  The common body format is *tagged*: the
    payload's remaining entries with table-coded keys, serialised through
    :mod:`marshal` — a C-speed, type-byte-tagged binary encoding that keeps
    exact types (tuples stay tuples, sets stay sets, ints are unbounded)
    for every container/scalar composition the protocol ships.  A request
    that names its feature (``{kind, oid, fn, args, kwargs}`` with a string
    ``fn``) therefore never touches pickle *or* JSON and encodes several times faster than either, in
    fewer bytes.

    ``marshal`` *refuses* (with ``ValueError``) exactly what it cannot
    carry faithfully — arbitrary objects, scalar subclasses (whose exact
    type a native tag would flatten), self-referential containers — and
    those payloads fall back to a whole-frame pickle body, preserving full
    fidelity.  Because decode unpickles fallback frames, ``bin`` shares
    pickle's trust model: same-machine, same-user peers only.
    """

    name = "bin"
    faithful = True

    def encode(self, payload: Dict[str, Any]) -> bytes:
        kind = payload.get("kind")
        kind_code = _KIND_CODE.get(kind, 0) if type(kind) is str else 0
        coded: "Dict[Any, Any] | None" = {}
        for key, value in payload.items():
            if type(key) is not str:
                # a non-str top-level key could collide with a key code;
                # such payloads (never produced by the protocol) take the
                # pickle body
                coded = None
                break
            if kind_code and key == "kind":
                continue
            coded[_KEY_CODE.get(key, key)] = value
        if coded is not None:
            try:
                body = marshal.dumps(coded, _MARSHAL_VERSION)
            except ValueError:
                pass  # something only pickle can carry faithfully
            else:
                return _HDR.pack(_BIN_VERSION, kind_code, _BODY_TAGGED) + body
        return (_HDR.pack(_BIN_VERSION, 0, _BODY_PICKLE)
                + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def decode(self, data: bytes) -> Dict[str, Any]:
        if len(data) < 4 or data[0] != _BIN_VERSION:
            version = data[0] if data else None
            raise ValueError(f"bad bin frame (version byte {version!r})")
        kind_code, fmt = data[1], data[2]
        if fmt == _BODY_PICKLE:
            return pickle.loads(data[3:])
        if fmt != _BODY_TAGGED:
            raise ValueError(f"bad bin frame (unknown body format {fmt})")
        raw = marshal.loads(data[3:])
        payload: Dict[str, Any] = {}
        if kind_code:
            payload["kind"] = _WIRE_KINDS[kind_code]
        for key, value in raw.items():
            payload[_WIRE_KEYS[key - 1] if type(key) is int else key] = value
        return payload

    def check(self, values: Iterable[Any], where: str) -> None:
        for value in values:
            if type(value) not in _ATOMS:
                try:
                    marshal.dumps(value, _MARSHAL_VERSION)
                except ValueError:  # the frame's pickle fallback must take it
                    pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


#: registered codec instances, keyed by name (codecs are stateless)
CODECS: Dict[str, Codec] = {
    JsonCodec.name: JsonCodec(),
    PickleCodec.name: PickleCodec(),
    BinCodec.name: BinCodec(),
}

#: canonical codec names, for error messages and CLI help
CODEC_NAMES = tuple(CODECS)


def get_codec(codec: "str | Codec") -> Codec:
    """Resolve a codec name (or pass an instance through) to a codec."""
    if isinstance(codec, Codec):
        return codec
    resolved = CODECS.get(str(codec).lower())
    if resolved is None:
        valid = ", ".join(CODEC_NAMES)
        raise ValueError(f"unknown wire codec {codec!r}; expected one of {valid}")
    return resolved
