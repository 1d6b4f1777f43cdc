"""Message base class, binary primitives and the fixed-width field aliases.

A :class:`Message` is an immutable record; mutation patterns like
"append my identity to the route record and rebroadcast" produce new
objects (``dataclasses.replace`` under the hood), which prevents an
intermediate node from accidentally sharing state with queued copies of
the same flood.

A message's wire form is its dataclass fields in declaration order, each
written by the :class:`Wire` rule its annotation selects (the table lives
in :mod:`repro.messages.codec`).  Most fields take their type's default
rule; a field with a width of its own says so with one of the annotated
aliases below (:data:`HopLimit`, :data:`SegmentIndex`, :data:`Timestamp`),
so the annotation is the only place that width is stated.

:class:`Writer`/:class:`Reader` are the big-endian builders every rule is
made of.  They and the aliases live here, not in the codec, so message
modules can use them without importing the codec (which imports the
message modules to register them).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Annotated, Any, Callable, ClassVar

from repro.crypto.backend import get_backend
from repro.crypto.keys import PublicKey
from repro.ipv6.address import IPv6Address


class CodecError(ValueError):
    """Raised on malformed wire data or a value that does not fit its field."""


@dataclass(frozen=True)
class MessageMeta:
    """Per-type metadata used by the codec registry and Table 1 printer."""

    type_id: int
    name: str
    function: str  # the "Function" column of Table 1
    parameters: str  # the "Parameters" column of Table 1, paper notation


@dataclass(frozen=True)
class Message:
    """Base class of every protocol message.

    Subclasses set ``META`` and declare their fields; the codec derives
    the wire layout from those fields, so a subclass writes no encoder.
    ``hop_limit`` is a simulator-level TTL shared by all messages (IPv6
    hop limit); it is intentionally *not* covered by any signature,
    exactly as in real IP.
    """

    META: ClassVar[MessageMeta]

    def replace(self, **changes) -> "Message":
        """Functional update (fields are immutable).

        The new object starts with a cold wire cache: changed fields mean
        changed bytes, and :meth:`wire_bytes` re-encodes lazily.
        """
        return replace(self, **changes)

    # Wire cache ---------------------------------------------------------
    def wire_bytes(self) -> bytes:
        """This message's wire encoding, computed at most once.

        Messages are immutable wire objects, so the first encode (type id
        byte + fields, via the codec) is cached on the instance; every
        later consumer -- send-path size accounting, signing, tracing,
        flood re-forwarding of the same copy -- reuses the same bytes.
        The codec's ``encode_call_count()`` counts actual encodes, which
        is how benchmarks prove "encode once per distinct message".
        """
        cached = self.__dict__.get("_wire_cache")
        if cached is None:
            from repro.messages.codec import encode_message

            cached = encode_message(self)
            # Frozen dataclass: bypass the immutability guard for the memo
            # (not a field -- invisible to __eq__/__repr__/replace()).
            object.__setattr__(self, "_wire_cache", cached)
        return cached

    def wire_size(self) -> int:
        """Encoded size in bytes (cached via :meth:`wire_bytes`)."""
        return len(self.wire_bytes())

    def summary(self) -> str:
        """One-line human-readable form for traces."""
        parts = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bytes):
                v = v.hex()[:12] + ".."
            elif isinstance(v, (list, tuple)) and len(repr(v)) > 40:
                v = f"<{len(v)} items>"
            parts.append(f"{f.name}={v}")
        return f"{self.META.name}({', '.join(parts)})"


class Writer:
    """Append-only big-endian binary builder."""

    __slots__ = ("_chunks",)

    def __init__(self):
        self._chunks: list[bytes] = []

    def u8(self, v: int) -> None:
        self._chunks.append(v.to_bytes(1, "big"))

    def u16(self, v: int) -> None:
        self._chunks.append(v.to_bytes(2, "big"))

    def u64(self, v: int) -> None:
        self._chunks.append(v.to_bytes(8, "big"))

    def flag(self, v: bool) -> None:
        self.u8(1 if v else 0)

    def blob(self, b: bytes) -> None:
        """Length-prefixed (u16) byte string."""
        if len(b) > 0xFFFF:
            raise CodecError(f"blob too long ({len(b)} bytes)")
        self.u16(len(b))
        self._chunks.append(b)

    def text(self, s: str) -> None:
        """Length-prefixed UTF-8 string (domain names)."""
        self.blob(s.encode("utf-8"))

    def address(self, a: IPv6Address) -> None:
        self._chunks.append(a.packed)

    def public_key(self, k: PublicKey) -> None:
        """Backend-name-tagged public key."""
        self.text(k.backend)
        self.blob(k.encode())

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class Reader:
    """Sequential big-endian binary reader with bounds checking."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CodecError(
                f"truncated message: wanted {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self._take(2), "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def flag(self) -> bool:
        v = self.u8()
        if v > 1:
            raise CodecError(f"flag byte {v} is neither 0 nor 1")
        return v == 1

    def blob(self) -> bytes:
        return self._take(self.u16())

    def text(self) -> str:
        return self.blob().decode("utf-8")

    def address(self) -> IPv6Address:
        return IPv6Address(self._take(16))

    def public_key(self) -> PublicKey:
        backend_name = self.text()
        key_bytes = self.blob()
        return get_backend(backend_name).decode_public_key(key_bytes)

    def expect_exhausted(self) -> None:
        if self._pos != len(self._data):
            raise CodecError(
                f"{len(self._data) - self._pos} trailing bytes after message"
            )


@dataclass(frozen=True)
class Wire:
    """How one field travels: ``put(writer, value)`` and ``get(reader)``."""

    put: Callable[[Writer, Any], None]
    get: Callable[[Reader], Any]


def _put_cursor(w: Writer, v: int) -> None:
    w.u16(0xFFFF if v == -1 else v)


def _get_cursor(r: Reader) -> int:
    v = r.u16()
    return -1 if v == 0xFFFF else v


def _put_ns(w: Writer, seconds: float) -> None:
    w.u64(int(seconds * 1e9))


def _get_ns(r: Reader) -> float:
    return r.u64() / 1e9


#: IPv6 hop limit: one byte.
HopLimit = Annotated[int, Wire(Writer.u8, Reader.u8)]
#: Source-route cursor: u16, with -1 (still at the source) sent as 0xFFFF.
SegmentIndex = Annotated[int, Wire(_put_cursor, _get_cursor)]
#: Seconds, sent as u64 nanoseconds.
Timestamp = Annotated[float, Wire(_put_ns, _get_ns)]
