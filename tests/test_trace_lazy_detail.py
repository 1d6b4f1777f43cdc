"""Lazy trace detail: the strings equal those formatted at record time.

Production records the message and the unicast target and formats
``TraceEvent.detail`` on first read.  Each scenario here runs twice --
once with the production recorder, once with the eager oracle of
``tests/trace_oracles.py`` -- and every event string, the transcript and
the sequence chart must match byte for byte.  The full transcripts of
the Figure 2 duplicate-address scenario and the Figure 3 route
discovery are also pinned as golden text under ``tests/golden/``.

Regenerate the golden files (only for a deliberate change of trace
text) with::

    PYTHONPATH=src python -m tests.test_trace_lazy_detail --write
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.messages.bootstrap import AREQ
from repro.trace.sequence import render_sequence_chart, transcript
from tests import trace_oracles
from tests.conftest import chain_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"


def _bootstrapped(seed: int, recorder=None):
    """A bootstrapped 5-host chain (as in the Figure 2/3 benchmarks)."""
    sc = chain_scenario(n=5, seed=seed).build()
    if recorder is not None:  # every node and the medium write to it
        sc.ctx.trace = sc.medium.trace = recorder
    sc.bootstrap_all(names={})
    sc.run(duration=8.0)
    return sc


def fig2_duplicate_address(recorder=None):
    """A joiner 4 hops away floods an AREQ for an address already held."""
    sc = _bootstrapped(151, recorder)
    victim, joiner = sc.hosts[0], sc.hosts[4]
    boot = joiner.bootstrap
    joiner.abandon_identity()
    boot.state = "probing"
    boot.round = 0
    boot.requested_name = ""
    boot.tentative_ip = victim.ip
    boot._tentative_params = victim.cga_params
    boot.pending_ch = 4242
    boot.pending_seq = joiner.next_seq()
    areq = AREQ(sip=victim.ip, seq=boot.pending_seq, domain_name="", ch=4242)
    boot._seen_areqs.add((areq.sip, areq.seq))
    boot._timer.start(joiner.config.dad_timeout)
    joiner.broadcast(areq, claimed_src=victim.ip)
    sc.run(duration=10.0)
    return sc


def fig3_route_discovery(recorder=None):
    """Secure route discovery across a 4-hop chain."""
    sc = _bootstrapped(173, recorder)
    s, d = sc.hosts[0], sc.hosts[4]
    s.router.discover(d.ip)
    sc.run(duration=5.0)
    return sc


SCENARIOS = {
    "fig2_duplicate_address": fig2_duplicate_address,
    "fig3_route_discovery": fig3_route_discovery,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_lazy_detail_matches_eager_oracle(name):
    sc = SCENARIOS[name]()
    oracle = trace_oracles.EagerRecorder()
    SCENARIOS[name](oracle)

    assert [str(e) for e in sc.trace.events] == [str(e) for e in oracle.events]
    assert transcript(sc.trace) == transcript(oracle)
    columns = sorted({e.node for e in oracle.events})
    assert (render_sequence_chart(sc.trace, columns, max_rows=10_000)
            == render_sequence_chart(oracle, columns, max_rows=10_000))
    # The unicast "->target" rows are among those compared.
    unicasts = [e for e in sc.trace.events if e.target is not None]
    assert unicasts and all(" ->" in e.detail for e in unicasts)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_transcript_matches_golden(name):
    sc = SCENARIOS[name]()
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert transcript(sc.trace) + "\n" == golden


def test_detail_is_formatted_once_on_first_read(monkeypatch):
    from repro.messages.base import Message

    sc = fig3_route_discovery()
    calls = []
    real = Message.summary
    monkeypatch.setattr(Message, "summary",
                        lambda self: calls.append(self) or real(self))
    sends = sc.trace.sends()
    first = [e.detail for e in sends]
    assert len(calls) == len(sends)
    assert [e.detail for e in sends] == first
    assert len(calls) == len(sends)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.mkdir(exist_ok=True)
    for name, build in SCENARIOS.items():
        text = transcript(build().trace) + "\n"
        (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name}.txt ({text.count(chr(10))} lines)")
