"""Replay attacks (Section 4).

The replayer records every AREP, DREP, RREP and CREP it overhears and
fires each distinct reply, once per fresh request, back when an
AREQ/RREQ with matching addresses appears.  The paper's defence is
challenge/sequence binding: the stored signature covers the *old*
challenge or sequence number, so the victim's verification finds a
mismatch every time.  The experiment asserts the acceptance count is
exactly zero.

One stale copy per fresh request tests that defence fully, so the agent
stores a reply only if its bytes are new (its own replays, heard again
as they are relayed, are not) and answers each request once, not once
per flooded copy of it.
"""

from __future__ import annotations

from repro.core.node import Node
from repro.messages.base import Message
from repro.messages.bootstrap import AREP, AREQ, DREP
from repro.messages.routing import CREP, RERR, RREP, RREQ
from repro.phy.medium import Frame


class ReplayAgent:
    """Record-and-replay component; attach alongside any router.

    The host it rides on otherwise behaves normally -- replaying is a
    passive-then-active attack needing no routing misbehaviour.
    """

    def __init__(self, node: Node):
        self.node = node
        # "Adversary nodes may ... listen to others": monitor mode lets the
        # replayer record unicast replies it is not a party to.
        node.ctx.medium.set_promiscuous(node.link_id, True)
        self.recorded_areps: list[AREP] = []
        self.recorded_dreps: list[DREP] = []
        self.recorded_rreps: list[RREP] = []
        self.recorded_creps: list[CREP] = []
        self.recorded_rerrs: list[RERR] = []
        self.replays_fired = 0
        # Wire bytes of every recording: the sender already encoded the
        # overheard message object, so the key costs no encode.
        self._recorded: set[bytes] = set()
        # Requests already answered: AREQs by (sip, seq, ch), RREQs by
        # (sip, dip, seq).
        self._answered: set[tuple] = set()

        self._stores: dict[type, list] = {
            AREP: self.recorded_areps,
            DREP: self.recorded_dreps,
            RREP: self.recorded_rreps,
            CREP: self.recorded_creps,
            RERR: self.recorded_rerrs,
        }
        for msg_cls in self._stores:
            node.register_handler(msg_cls, self._record, overheard=True)
        node.register_handler(AREQ, self._maybe_replay_bootstrap)
        node.register_handler(RREQ, self._maybe_replay_routing)

    # -- recording ------------------------------------------------------------
    def _record(self, frame: Frame, msg: Message) -> None:
        """Store ``msg`` unless a byte-identical copy is already stored."""
        wire = msg.wire_bytes()
        if wire not in self._recorded:
            self._recorded.add(wire)
            self._stores[type(msg)].append(msg)

    def _fresh(self, key: tuple) -> bool:
        """True the first time a request ``key`` is heard."""
        if key in self._answered:
            return False
        self._answered.add(key)
        return True

    # -- replaying ---------------------------------------------------------------
    def _maybe_replay_bootstrap(self, frame: Frame, msg: AREQ) -> None:
        """A new joiner probes: replay any stored reply about that address.

        A stale AREP carries a signature over an *old* challenge; if it
        were accepted the joiner would needlessly give up its address (a
        denial-of-service on bootstrap).
        """
        if not self._fresh((msg.sip, msg.seq, msg.ch)):
            return
        for old in self.recorded_areps:
            if old.sip == msg.sip and not old.to_dns:
                self.replays_fired += 1
                self.node.broadcast(old.replace(route_record=()))
        for old in self.recorded_dreps:
            if old.domain_name == msg.domain_name and msg.domain_name:
                self.replays_fired += 1
                self.node.broadcast(old.replace(route_record=()))

    def _maybe_replay_routing(self, frame: Frame, msg: RREQ) -> None:
        """A new discovery starts: replay stored replies for that destination.

        The stored RREP's signature covers the old sequence number; the
        source's stale-seq / signature check rejects it.
        """
        if not self._fresh((msg.sip, msg.dip, msg.seq)):
            return
        for old in self.recorded_rreps:
            if old.dip == msg.dip and old.sip == msg.sip:
                self.replays_fired += 1
                # Deliver straight to the victim if adjacent, else flood.
                self.node.broadcast(old)
        for old in self.recorded_rerrs:
            if old.sip == msg.sip:
                self.replays_fired += 1
                self.node.broadcast(old.replace(return_route=()))

    def replay_everything(self) -> int:
        """Fire every recording at once (stress variant used in tests)."""
        count = 0
        for msg in (
            self.recorded_areps + self.recorded_dreps
            + self.recorded_rreps + self.recorded_creps + self.recorded_rerrs
        ):
            self.node.broadcast(msg)
            count += 1
        self.replays_fired += count
        return count
