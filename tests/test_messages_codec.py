"""Codec round-trip and robustness tests for every message type (Table 1)."""

import pytest

from repro.crypto.backend import get_backend
from repro.crypto.keys import PrivateKey
from repro.ipv6.address import IPv6Address
from repro.messages.base import CodecError
from repro.messages.bootstrap import AREP, AREQ, DREP
from repro.messages.codec import (
    MESSAGE_TYPES,
    decode_message,
    encode_message,
    register_message_type,
    table1_rows,
    wire_size,
)
from repro.messages.data import AckPacket, DataPacket
from repro.messages.dns import (
    DNSQuery,
    DNSResponse,
    DNSUpdateChallenge,
    DNSUpdateReply,
    DNSUpdateRequest,
)
from repro.messages.ndp import NeighborAdvertisement, NeighborSolicitation
from repro.messages.routing import CREP, RERR, RREP, RREQ, SRREntry

KEY = get_backend("simsig").generate_keypair(b"codec-tests").public
A1 = IPv6Address("fec0::1")
A2 = IPv6Address("fec0::2")
A3 = IPv6Address("fec0::3")


def sample_messages():
    """One representative instance of every wire-registered message."""
    entry = SRREntry(ip=A2, signature=b"\x01" * 16, public_key=KEY, rn=42)
    return [
        NeighborSolicitation(target=A1, domain_name="a.manet"),
        NeighborAdvertisement(target=A1, domain_name="a.manet", duplicate_name=True),
        AREQ(sip=A1, seq=9, domain_name="host.manet", ch=777, route_record=(A2, A3)),
        AREP(sip=A1, route_record=(A2,), signature=b"\x05" * 16,
             public_key=KEY, rn=3, ch=777, to_dns=True),
        DREP(sip=A1, route_record=(A2, A3), domain_name="host.manet",
             signature=b"\x06" * 16),
        RREQ(sip=A1, dip=A3, seq=5, srr=(entry, entry),
             source_signature=b"\x07" * 16, source_public_key=KEY, source_rn=1),
        RREP(sip=A1, dip=A3, seq=5, route=(A2,), signature=b"\x08" * 16,
             public_key=KEY, rn=2),
        CREP(sprime_ip=A1, sip=A2, dip=A3, fresh_seq=6, fresh_route=(),
             fresh_signature=b"\x09" * 16, fresh_public_key=KEY, fresh_rn=4,
             cached_seq=2, cached_route=(A1,), cached_signature=b"\x0a" * 16,
             cached_public_key=KEY, cached_rn=5),
        RERR(reporter_ip=A2, broken_next_hop=A3, signature=b"\x0b" * 16,
             public_key=KEY, rn=6, sip=A1, return_route=(A2,)),
        DataPacket(sip=A1, dip=A3, seq=11, route=(A2,), payload=b"hello",
                   segment_index=0, sent_at=1.5),
        AckPacket(sip=A1, dip=A3, seq=11, route=(A2,), signature=b"\x0c" * 16,
                  public_key=KEY, rn=7),
        DNSQuery(sip=A1, domain_name="host.manet", ch=33),
        DNSResponse(domain_name="host.manet", ip=A3, found=True, ch=33,
                    signature=b"\x0d" * 16),
        DNSUpdateChallenge(domain_name="host.manet", ch=44),
        DNSUpdateRequest(domain_name="host.manet", old_ip=A1, new_ip=A2,
                         old_rn=1, new_rn=2, public_key=KEY,
                         signature=b"\x0e" * 16),
        DNSUpdateReply(domain_name="host.manet", new_ip=A2, accepted=True,
                       ch=44, signature=b"\x0f" * 16),
    ]


@pytest.mark.parametrize("msg", sample_messages(), ids=lambda m: type(m).__name__)
def test_roundtrip(msg):
    data = encode_message(msg)
    decoded = decode_message(data)
    assert decoded == msg
    assert wire_size(msg) == len(data)


@pytest.mark.parametrize("msg", sample_messages(), ids=lambda m: type(m).__name__)
def test_truncation_raises(msg):
    data = encode_message(msg)
    for cut in (1, len(data) // 2, len(data) - 1):
        with pytest.raises(CodecError):
            decode_message(data[:cut])


@pytest.mark.parametrize("msg", sample_messages(), ids=lambda m: type(m).__name__)
def test_trailing_garbage_raises(msg):
    with pytest.raises(CodecError):
        decode_message(encode_message(msg) + b"\x00")


def test_empty_and_unknown_type_rejected():
    with pytest.raises(CodecError):
        decode_message(b"")
    with pytest.raises(CodecError):
        decode_message(bytes([250]))


def test_all_type_ids_unique():
    ids = [cls.META.type_id for cls in MESSAGE_TYPES.values()]
    assert len(ids) == len(set(ids))


def test_register_duplicate_id_rejected():
    from dataclasses import dataclass
    from typing import ClassVar

    from repro.messages.base import Message, MessageMeta

    @dataclass(frozen=True)
    class Imposter(Message):
        META: ClassVar[MessageMeta] = MessageMeta(10, "IMP", "imposter", "()")

    with pytest.raises(ValueError):
        register_message_type(Imposter)


def test_unregistered_message_cannot_encode():
    from dataclasses import dataclass
    from typing import ClassVar

    from repro.messages.base import Message, MessageMeta

    @dataclass(frozen=True)
    class Stranger(Message):
        META: ClassVar[MessageMeta] = MessageMeta(200, "STR", "stranger", "()")

    with pytest.raises(CodecError):
        encode_message(Stranger())


def test_table1_rows_match_paper():
    rows = table1_rows()
    assert [r[0] for r in rows] == ["AREQ", "AREP", "DREP", "RREQ", "RREP", "CREP", "RERR"]
    # Spot-check the parameter columns against Table 1.
    by_type = {r[0]: r[2] for r in rows}
    assert by_type["AREQ"] == "(SIP, seq, DN, ch, RR)"
    assert by_type["RREQ"] == "(SIP, DIP, seq, SRR, [SIP, seq]SSK, SPK, Srn)"
    assert by_type["RERR"] == "(IIP, I'IP, [IIP, I'IP]ISK, IPK, Irn)"


def test_rsa_public_key_roundtrips_in_message():
    rsa_key = get_backend("rsa").generate_keypair(b"codec-rsa").public
    msg = RREP(sip=A1, dip=A3, seq=1, route=(), signature=b"\x01" * 64,
               public_key=rsa_key, rn=0)
    assert decode_message(encode_message(msg)) == msg


def test_data_packet_negative_segment_roundtrip():
    msg = DataPacket(sip=A1, dip=A2, seq=1, route=(), segment_index=-1)
    assert decode_message(encode_message(msg)).segment_index == -1


def test_wire_size_scales_with_route_length():
    short = AREQ(sip=A1, seq=1, domain_name="", ch=0, route_record=())
    long = AREQ(sip=A1, seq=1, domain_name="", ch=0, route_record=(A2,) * 10)
    assert wire_size(long) == wire_size(short) + 10 * 16


def test_private_key_never_in_encoded_form():
    """No message field can carry a PrivateKey -- the codec has no encoder."""
    from repro.crypto.keys import PrivateKey
    from repro.messages.base import Writer

    w = Writer()
    with pytest.raises(AttributeError):
        w.public_key(PrivateKey("simsig", b"secret"))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Golden wire vectors: the exact bytes of one sample of every registered
# type.  The layout is derived from field declarations, so reordering a
# field or changing an annotation shows up here as a changed hex string.
# ---------------------------------------------------------------------------

RSA_KEY = get_backend("rsa").generate_keypair(b"codec-golden-rsa").public


def golden_samples() -> dict:
    """The samples of :func:`sample_messages`, varied to reach every form:
    a 3-entry SRR, an RSA key, a route of length 2, a DATA packet still at
    its source with a non-zero timestamp, and both ``bool`` values."""
    by_type = {type(m).__name__: m for m in sample_messages()}
    entries = tuple(SRREntry(ip=a, signature=bytes([i]) * 16, public_key=KEY, rn=i)
                    for i, a in enumerate((A1, A2, A3), start=1))
    by_type["RREQ"] = by_type["RREQ"].replace(srr=entries)
    by_type["RREP"] = by_type["RREP"].replace(route=(A2, A1), public_key=RSA_KEY)
    by_type["DataPacket"] = by_type["DataPacket"].replace(
        segment_index=-1, sent_at=12.345678901)
    by_type["NeighborAdvertisement"] = by_type["NeighborAdvertisement"].replace(
        duplicate_name=False)
    by_type["DNSResponse"] = by_type["DNSResponse"].replace(found=False)
    return by_type


GOLDEN_HEX = {
    "NeighborSolicitation": "01fec000000000000000000000000000010007612e6d616e657401",
    "NeighborAdvertisement": "02fec000000000000000000000000000010007612e6d616e65740001",
    "AREQ": (
        "0afec000000000000000000000000000010000000000000009000a686f73742e"
        "6d616e657400000000000003090002fec00000000000000000000000000002fe"
        "c0000000000000000000000000000340"
    ),
    "AREP": (
        "0bfec000000000000000000000000000010001fec00000000000000000000000"
        "000002001005050505050505050505050505050505000673696d73696700106d"
        "73793d5507e5022d3848049ff69a560000000000000003000000000000030901"
        "40"
    ),
    "DREP": (
        "0cfec000000000000000000000000000010002fec00000000000000000000000"
        "000002fec00000000000000000000000000003000a686f73742e6d616e657400"
        "100606060606060606060606060606060640"
    ),
    "RREQ": (
        "14fec00000000000000000000000000001fec000000000000000000000000000"
        "0300000000000000050003fec000000000000000000000000000010010010101"
        "01010101010101010101010101000673696d73696700106d73793d5507e5022d"
        "3848049ff69a560000000000000001fec0000000000000000000000000000200"
        "1002020202020202020202020202020202000673696d73696700106d73793d55"
        "07e5022d3848049ff69a560000000000000002fec00000000000000000000000"
        "000003001003030303030303030303030303030303000673696d73696700106d"
        "73793d5507e5022d3848049ff69a560000000000000003001007070707070707"
        "070707070707070707000673696d73696700106d73793d5507e5022d3848049f"
        "f69a56000000000000000140"
    ),
    "RREP": (
        "15fec00000000000000000000000000001fec000000000000000000000000000"
        "0300000000000000050002fec00000000000000000000000000002fec0000000"
        "0000000000000000000001001008080808080808080808080808080808000372"
        "73610044e6f0f239b2622afd38e89cb9a041539ba35d412451ab039e7bcb341f"
        "4cadfd36695f9db8029d7cd2bf942afffedad3ab3f1f2f703b6a5ce150fd6cf9"
        "44c7069d00010001000000000000000240"
    ),
    "CREP": (
        "16fec00000000000000000000000000001fec000000000000000000000000000"
        "02fec00000000000000000000000000003000000000000000600000010090909"
        "09090909090909090909090909000673696d73696700106d73793d5507e5022d"
        "3848049ff69a56000000000000000400000000000000020001fec00000000000"
        "00000000000000000100100a0a0a0a0a0a0a0a0a0a0a0a0a0a0a0a000673696d"
        "73696700106d73793d5507e5022d3848049ff69a56000000000000000540"
    ),
    "RERR": (
        "17fec00000000000000000000000000002fec000000000000000000000000000"
        "0300100b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b000673696d73696700106d7379"
        "3d5507e5022d3848049ff69a560000000000000006fec0000000000000000000"
        "00000000010001fec0000000000000000000000000000240"
    ),
    "DataPacket": (
        "1efec00000000000000000000000000001fec000000000000000000000000000"
        "03000000000000000b0001fec00000000000000000000000000002000568656c"
        "6c6fffff00000002dfdc1c3540"
    ),
    "AckPacket": (
        "1ffec00000000000000000000000000001fec000000000000000000000000000"
        "03000000000000000b0001fec0000000000000000000000000000200100c0c0c"
        "0c0c0c0c0c0c0c0c0c0c0c0c0c000673696d73696700106d73793d5507e5022d"
        "3848049ff69a56000000000000000740"
    ),
    "DNSQuery": (
        "28fec00000000000000000000000000001000a686f73742e6d616e6574000000"
        "000000002140"
    ),
    "DNSResponse": (
        "29000a686f73742e6d616e6574fec00000000000000000000000000003000000"
        "00000000002100100d0d0d0d0d0d0d0d0d0d0d0d0d0d0d0d40"
    ),
    "DNSUpdateChallenge": "2a000a686f73742e6d616e6574000000000000002c40",
    "DNSUpdateRequest": (
        "2b000a686f73742e6d616e6574fec00000000000000000000000000001fec000"
        "0000000000000000000000000200000000000000010000000000000002000673"
        "696d73696700106d73793d5507e5022d3848049ff69a5600100e0e0e0e0e0e0e"
        "0e0e0e0e0e0e0e0e0e40"
    ),
    "DNSUpdateReply": (
        "2c000a686f73742e6d616e6574fec00000000000000000000000000002010000"
        "00000000002c00100f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f40"
    ),
}


def test_golden_vectors_cover_every_registered_type():
    assert set(GOLDEN_HEX) == {cls.__name__ for cls in MESSAGE_TYPES.values()}


@pytest.mark.parametrize("name", sorted(GOLDEN_HEX))
def test_golden_wire_vector(name):
    msg = golden_samples()[name]
    assert encode_message(msg).hex() == GOLDEN_HEX[name]
    assert decode_message(bytes.fromhex(GOLDEN_HEX[name])) == msg


# ---------------------------------------------------------------------------
# Field-driven layout: registration and fixed widths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("annotation,name", [
    (PrivateKey, "secret"),  # private keys never travel
    (float, "when"),  # a float has no default width (cf. Timestamp)
])
def test_field_without_wire_form_rejected_at_registration(annotation, name):
    from dataclasses import make_dataclass

    from repro.messages.base import Message, MessageMeta

    cls = make_dataclass("Leaky", [(name, annotation)], bases=(Message,), frozen=True,
                         namespace={"META": MessageMeta(201, "LEAK", "leaky", "()")})
    with pytest.raises(TypeError, match=rf"^Leaky\.{name}: no wire form"):
        register_message_type(cls)
    assert 201 not in MESSAGE_TYPES


@pytest.mark.parametrize("msg,field", [
    (DNSQuery(sip=A1, domain_name="x", ch=1, hop_limit=300), "hop_limit"),
    (DNSQuery(sip=A1, domain_name="x", ch=1, hop_limit=-1), "hop_limit"),
    (DNSQuery(sip=A1, domain_name="x", ch=-5), "ch"),
    (DNSQuery(sip=A1, domain_name="x", ch=1 << 64), "ch"),
    (DataPacket(sip=A1, dip=A2, seq=1, route=(), segment_index=-2), "segment_index"),
    (DataPacket(sip=A1, dip=A2, seq=1, route=(), segment_index=1 << 16), "segment_index"),
    (DataPacket(sip=A1, dip=A2, seq=1, route=(), sent_at=-1.0), "sent_at"),
    (DataPacket(sip=A1, dip=A2, seq=1, route=(), payload=b"x" * 0x10000), "payload"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_value_that_does_not_fit_raises_codec_error_naming_field(msg, field):
    with pytest.raises(CodecError, match=rf"^{type(msg).__name__}\.{field}: "):
        encode_message(msg)


# ---------------------------------------------------------------------------
# Malformed input: decode_message returns a message or raises CodecError
# ---------------------------------------------------------------------------

def _u16(n: int) -> bytes:
    return n.to_bytes(2, "big")


def _dns_update_with_key(backend: bytes, key: bytes) -> bytes:
    """A DNSUpdateRequest encoding carrying the given raw key fields."""
    return (bytes([43]) + _u16(1) + b"h" + bytes(32) + bytes(16)
            + _u16(len(backend)) + backend + _u16(len(key)) + key
            + _u16(0) + b"\x01")


@pytest.mark.parametrize("data,where", [
    # NS whose domain name is not UTF-8.
    (bytes([1]) + bytes(16) + b"\0\1\xff" + b"\1", "NeighborSolicitation.domain_name"),
    # A public key tagged with a backend nobody registered.
    (_dns_update_with_key(b"nope", bytes(16)), "DNSUpdateRequest.public_key"),
    # A simsig key of the wrong length.
    (_dns_update_with_key(b"simsig", b"abc"), "DNSUpdateRequest.public_key"),
    # A flag byte that is neither 0 nor 1.
    (bytes([2]) + bytes(16) + _u16(0) + b"\x07" + b"\x01",
     "NeighborAdvertisement.duplicate_name"),
], ids=["bad-utf8", "unknown-backend", "short-simsig-key", "bad-flag"])
def test_malformed_field_raises_codec_error_naming_field(data, where):
    with pytest.raises(CodecError, match=rf"^{where}: "):
        decode_message(data)

