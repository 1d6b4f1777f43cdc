"""Canonical byte encodings of everything that gets signed.

The paper writes constructions like ``[SIP, ch]_RSK``: a tuple of fields
"encrypted" (signed) under a private key.  Signer and verifier must agree
byte-for-byte on the encoding of that tuple; these functions are the
single source of truth for both sides.  Each payload starts with a
distinct domain-separation tag, so a signature over an AREP tuple can
never be replayed as, say, an SRR entry even if the field values happen
to coincide -- a cross-protocol replay the paper implicitly assumes away
and we enforce explicitly.
"""

from __future__ import annotations

from repro.ipv6.address import IPv6Address


def _u64(v: int) -> bytes:
    return v.to_bytes(8, "big")


def _route(route: tuple[IPv6Address, ...]) -> bytes:
    """A signed route record: u16 hop count + each hop's 16 bytes."""
    return len(route).to_bytes(2, "big") + b"".join(hop.packed for hop in route)


def arep_payload(sip: IPv6Address, ch: int) -> bytes:
    """``[SIP, ch]_RSK`` -- AREP: the duplicate-holder answers S's challenge."""
    return b"AREP|" + sip.packed + _u64(ch)


def drep_payload(domain_name: str, ch: int) -> bytes:
    """``[DN, ch]_NSK`` -- DREP: the DNS server reports a name conflict."""
    return b"DREP|" + domain_name.encode("utf-8") + b"|" + _u64(ch)


def rreq_source_payload(sip: IPv6Address, seq: int) -> bytes:
    """``[SIP, seq]_SSK`` -- RREQ: the source's identity proof."""
    return b"RREQ-S|" + sip.packed + _u64(seq)


def srr_entry_payload(iip: IPv6Address, seq: int) -> bytes:
    """``[IIP, seq]_ISK`` -- the per-hop identity proof appended to the SRR.

    Binding ``seq`` (the source's per-RREQ sequence number) into each hop
    signature is what prevents splicing a hop proof from one discovery
    into another.
    """
    return b"SRR-I|" + iip.packed + _u64(seq)


def rrep_payload(sip: IPv6Address, seq: int, route: tuple[IPv6Address, ...]) -> bytes:
    """``[SIP, seq, RR]_DSK`` -- RREP: the destination signs the full route.

    Covering RR means no intermediate node can shorten/alter the path on
    the way back without invalidating D's signature.
    """
    return b"RREP|" + sip.packed + _u64(seq) + _route(route)


def crep_cached_leg_payload(sip: IPv6Address, seq: int, route: tuple[IPv6Address, ...]) -> bytes:
    """The cached ``[SIP, seq, RR(S->D)]_DSK`` leg inside a CREP.

    Identical structure to :func:`rrep_payload` -- it *is* the original
    RREP signature that S cached, re-presented verbatim to S'.
    """
    return rrep_payload(sip, seq, route)


def crep_fresh_leg_payload(sprime_ip: IPv6Address, seq: int, route: tuple[IPv6Address, ...]) -> bytes:
    """The fresh ``[S'IP, seq', RR(S'->S)]_SSK`` leg: S vouches for its path to S'."""
    return b"CREP-F|" + sprime_ip.packed + _u64(seq) + _route(route)


def rerr_payload(iip: IPv6Address, next_ip: IPv6Address) -> bytes:
    """``[IIP, I'IP]_ISK`` -- RERR: reporter I proves it claims link I->I' broke."""
    return b"RERR|" + iip.packed + next_ip.packed


def dns_response_payload(domain_name: str, ip: IPv6Address, ch: int) -> bytes:
    """DNS answer signed by the server: binds (DN, IP) to the client's challenge."""
    return b"DNSR|" + domain_name.encode("utf-8") + b"|" + ip.packed + _u64(ch)


def dns_update_payload(old_ip: IPv6Address, new_ip: IPv6Address, ch: int) -> bytes:
    """``[XIP, X'IP, ch]_XSK`` -- Section 3.2's authenticated IP change."""
    return b"DNSU|" + old_ip.packed + new_ip.packed + _u64(ch)


def ack_payload(src: IPv6Address, dst: IPv6Address, seq: int) -> bytes:
    """End-to-end ACK signed by the destination; drives credit rewards.

    Not in Table 1 (the paper only says packets are "correctly
    acknowledged by D"); signing the ACK keeps a black hole from minting
    credit for itself by forging acknowledgements.
    """
    return b"ACK|" + src.packed + dst.packed + _u64(seq)
