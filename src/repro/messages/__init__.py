"""Protocol messages (Table 1) and their wire codec.

Every control message from Table 1 of the paper is a frozen dataclass:

====== ==================== ==========================================
Type   Function             Parameters (paper notation)
====== ==================== ==========================================
AREQ   Address REQuest      (SIP, seq, DN, ch, RR)
AREP   Address REPly        (SIP, RR, [SIP, ch]RSK, RPK, Rrn)
DREP   DNS server REPly     (SIP, RR, [DN, ch]NSK)
RREQ   Route REQuest        (SIP, DIP, seq, SRR, [SIP, seq]SSK, SPK, Srn)
RREP   Route REPly          (SIP, DIP, [SIP, seq, RR]DSK, DPK, Drn)
CREP   Cached route REPly   (S'IP, SIP, DIP, RR(S'->S), [S'...]S'SK, ...)
RERR   Route ERRor          (IIP, I'IP, [IIP, I'IP]ISK, IPK, Irn)
====== ==================== ==========================================

plus the RFC 2461 NS/NA pair (one-hop DAD baseline), DATA/ACK packets,
and the DNS query/response/update messages of Section 3.2.

A message's wire form is its type id byte followed by its fields in
declaration order, each encoded by the rule its type annotation selects
(the table in :mod:`repro.messages.codec`; the three fields with widths
of their own use the aliases in :mod:`repro.messages.base`).  The
message modules therefore hold only fields, ``META`` and protocol
helpers; the declarations *are* the format.  Encodings are length-exact,
so "routing overhead in bytes" in the benchmarks reflects real field
sizes.  The byte strings that get *signed* are canonicalised in
:mod:`repro.messages.signing`; both signer and verifier go through the
same functions, which is what makes forgery checks meaningful.
"""

from repro.messages.base import Message, MessageMeta
from repro.messages.ndp import NeighborSolicitation, NeighborAdvertisement
from repro.messages.bootstrap import AREQ, AREP, DREP
from repro.messages.routing import SRREntry, RREQ, RREP, CREP, RERR
from repro.messages.data import DataPacket, AckPacket
from repro.messages.dns import DNSQuery, DNSResponse, DNSUpdateChallenge, DNSUpdateRequest, DNSUpdateReply
from repro.messages.codec import encode_message, decode_message, wire_size

__all__ = [
    "Message",
    "MessageMeta",
    "NeighborSolicitation",
    "NeighborAdvertisement",
    "AREQ",
    "AREP",
    "DREP",
    "SRREntry",
    "RREQ",
    "RREP",
    "CREP",
    "RERR",
    "DataPacket",
    "AckPacket",
    "DNSQuery",
    "DNSResponse",
    "DNSUpdateChallenge",
    "DNSUpdateRequest",
    "DNSUpdateReply",
    "encode_message",
    "decode_message",
    "wire_size",
]
