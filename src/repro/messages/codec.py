"""Message <-> bytes codec and the type registry.

The wire format is declared, not hand-written: a message is its type id
byte followed by its dataclass fields in declaration order, each encoded
by the rule its annotation selects.

=========================== ===========================================
Annotation                  Wire form
=========================== ===========================================
``IPv6Address``             16 bytes
``int``                     u64
``bool``                    u8 (0 or 1)
``str``                     u16-prefixed UTF-8
``bytes``                   u16-prefixed blob
``PublicKey``               backend name (str) + key bytes (bytes)
``tuple[X, ...]``           u16 count + each item by X's rule
a dataclass (``SRREntry``)  its own fields, by these same rules
``Annotated[T, Wire(...)]`` that :class:`~repro.messages.base.Wire`
                            (``HopLimit`` u8, ``SegmentIndex`` u16 with
                            -1 as 0xFFFF, ``Timestamp`` u64 nanoseconds)
=========================== ===========================================

Everything else -- ``float``, ``PrivateKey`` (its material is opaque) --
has no wire form, and :func:`register_message_type` rejects the class
naming ``Class.field``.  A value that does not fit its field (a hop limit
of 300, a negative sequence number) and any malformed input both raise
:class:`~repro.messages.base.CodecError` naming the field.

Sizes from :func:`wire_size` back the "overhead in bytes" numbers of the
benchmarks; they include every field that would travel on the air
(signatures, public keys, route records) but no link-layer framing.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Annotated, Type, get_args, get_origin, get_type_hints

from repro.crypto.keys import PublicKey
from repro.ipv6.address import IPv6Address
from repro.messages.base import CodecError, Message, Reader, Wire, Writer
from repro.messages.bootstrap import AREQ, AREP, DREP
from repro.messages.data import AckPacket, DataPacket
from repro.messages.dns import (
    DNSQuery,
    DNSResponse,
    DNSUpdateChallenge,
    DNSUpdateReply,
    DNSUpdateRequest,
)
from repro.messages.ndp import NeighborAdvertisement, NeighborSolicitation
from repro.messages.routing import CREP, RERR, RREP, RREQ

#: The rule for each plain field annotation.
_DEFAULT_WIRE = {
    IPv6Address: Wire(Writer.address, Reader.address),
    int: Wire(Writer.u64, Reader.u64),
    bool: Wire(Writer.flag, Reader.flag),
    str: Wire(Writer.text, Reader.text),
    bytes: Wire(Writer.blob, Reader.blob),
    PublicKey: Wire(Writer.public_key, Reader.public_key),
}

#: A record's ``(field name, rule)`` pairs in declaration order.
Layout = tuple[tuple[str, Wire], ...]


def _layout(cls: type) -> Layout:
    """Resolve every field's rule; TypeError names a field without one."""
    hints = get_type_hints(cls, include_extras=True)
    steps = []
    for f in fields(cls):
        wire = _wire_for(hints[f.name])
        if wire is None:
            raise TypeError(
                f"{cls.__name__}.{f.name}: no wire form for {hints[f.name]!r}"
            )
        steps.append((f.name, wire))
    return tuple(steps)


def _wire_for(hint) -> Wire | None:
    """The rule for one annotation (see the module table), or None."""
    if get_origin(hint) is Annotated:
        return next((m for m in hint.__metadata__ if isinstance(m, Wire)), None)
    if hint in _DEFAULT_WIRE:
        return _DEFAULT_WIRE[hint]
    if get_origin(hint) is tuple:
        args = get_args(hint)
        item = _wire_for(args[0]) if len(args) == 2 and args[1] is Ellipsis else None
        return None if item is None else _sequence(item)
    if is_dataclass(hint):
        try:
            return _record(hint, _layout(hint))
        except TypeError:
            return None
    return None


def _sequence(item: Wire) -> Wire:
    def put(w: Writer, items: tuple) -> None:
        w.u16(len(items))
        for x in items:
            item.put(w, x)

    def get(r: Reader) -> tuple:
        return tuple(item.get(r) for _ in range(r.u16()))

    return Wire(put, get)


def _record(cls: type, layout: Layout) -> Wire:
    """A dataclass as its fields in order; failures name ``Class.field``."""
    def put(w: Writer, rec) -> None:
        try:
            for name, wire in layout:
                wire.put(w, getattr(rec, name))
        except (OverflowError, ValueError) as exc:  # a value its field cannot hold
            raise CodecError(f"{cls.__name__}.{name}: {exc}") from exc

    def get(r: Reader):
        values = []
        try:
            for name, wire in layout:
                values.append(wire.get(r))
        except Exception as exc:
            # The readers end in parsers with error types of their own
            # (UTF-8 decoding, each crypto backend's key decoder); on wire
            # input any failure means a malformed field.
            raise CodecError(f"{cls.__name__}.{name}: {exc}") from exc
        return cls(*values)

    return Wire(put, get)


#: All wire-registered message classes, keyed by type id.
MESSAGE_TYPES: dict[int, Type[Message]] = {}
#: Each registered class's rule, resolved once at registration.
_WIRES: dict[type, Wire] = {}


def register_message_type(cls: Type[Message]) -> Type[Message]:
    """Add a message class to the wire registry and resolve its layout.

    An id collision raises ValueError; a field type with no wire form
    raises TypeError naming ``Class.field``.
    """
    type_id = cls.META.type_id
    existing = MESSAGE_TYPES.get(type_id)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"type id {type_id} already used by {existing.__name__}"
        )
    _WIRES[cls] = _record(cls, _layout(cls))
    MESSAGE_TYPES[type_id] = cls
    return cls


for _cls in (
    NeighborSolicitation,
    NeighborAdvertisement,
    AREQ,
    AREP,
    DREP,
    RREQ,
    RREP,
    CREP,
    RERR,
    DataPacket,
    AckPacket,
    DNSQuery,
    DNSResponse,
    DNSUpdateChallenge,
    DNSUpdateRequest,
    DNSUpdateReply,
):
    register_message_type(_cls)


#: Process-wide count of actual encode executions.  Cache hits through
#: ``Message.wire_bytes`` do not increment it, so the delta across a
#: simulation round measures exactly how many times the codec really ran
#: (MetricsCollector snapshots it per run as ``encode_calls``).
_encode_calls = 0


def encode_call_count() -> int:
    """Cumulative number of :func:`encode_message` executions so far."""
    return _encode_calls


def encode_message(msg: Message) -> bytes:
    """Serialise ``msg`` to its wire form (type id byte + fields).

    This always runs the encoder; callers that may touch the same
    message more than once should go through ``msg.wire_bytes()``, which
    caches the result on the (immutable) message.
    """
    global _encode_calls
    cls = type(msg)
    wire = _WIRES.get(cls)
    if wire is None:
        raise CodecError(f"{cls.__name__} is not wire-registered")
    _encode_calls += 1
    w = Writer()
    w.u8(cls.META.type_id)
    wire.put(w, msg)
    return w.getvalue()


def decode_message(data: bytes) -> Message:
    """Inverse of :func:`encode_message`.

    Returns a message or raises :class:`CodecError` -- never anything
    else, whatever ``data`` holds.
    """
    if not data:
        raise CodecError("empty message")
    r = Reader(data)
    type_id = r.u8()
    cls = MESSAGE_TYPES.get(type_id)
    if cls is None:
        raise CodecError(f"unknown message type id {type_id}")
    msg = _WIRES[cls].get(r)
    r.expect_exhausted()
    return msg


def wire_size(msg: Message) -> int:
    """Encoded size of ``msg`` in bytes (served from the wire cache)."""
    return msg.wire_size()


def table1_rows() -> list[tuple[str, str, str]]:
    """(Type, Function, Parameters) rows reproducing Table 1 of the paper.

    Only the seven paper control messages, in Table 1's order.
    """
    order = [AREQ, AREP, DREP, RREQ, RREP, CREP, RERR]
    return [(c.META.name, c.META.function, c.META.parameters) for c in order]
