"""Unit tests for the trace recorder, sequence rendering, and one-hop DAD."""

from repro.trace.recorder import TraceRecorder
from repro.trace.sequence import render_sequence_chart, transcript
from tests.conftest import chain_scenario


def test_recorder_basic_and_filters():
    tr = TraceRecorder()
    tr.record(0.0, "a", "send", "RREQ", "x")
    tr.record(1.0, "b", "recv", "RREQ", "x")
    tr.record(2.0, "b", "verdict", "-", "rreq.accepted")
    assert len(tr.events) == 3
    assert len(tr.sends()) == 1
    assert len(tr.receipts("RREQ")) == 1
    assert len(tr.filter(node="b")) == 2
    assert "RREQ" in tr.dump()


def test_recorder_disabled():
    tr = TraceRecorder(enabled=False)
    tr.record(0.0, "a", "send", "X", "d")
    assert tr.events == []


def test_recorder_clear():
    tr = TraceRecorder()
    tr.record(0.0, "a", "send", "X", "d")
    tr.clear()
    assert tr.events == []


def test_sequence_chart_renders_columns_and_arrows():
    tr = TraceRecorder()
    tr.record(0.5, "S", "send", "AREQ", "flood")
    tr.record(1.0, "R", "send", "AREP", "reply ->S ok")
    chart = render_sequence_chart(tr, ["S", "I", "R"])
    assert "S" in chart.splitlines()[0]
    assert "*AREQ*" in chart       # broadcast row
    assert "AREP" in chart         # directed arrow row


def test_sequence_chart_filters_by_type():
    tr = TraceRecorder()
    tr.record(0.5, "S", "send", "AREQ", "x")
    tr.record(1.0, "S", "send", "RREQ", "x")
    chart = render_sequence_chart(tr, ["S"], msg_types={"RREQ"})
    assert "RREQ" in chart and "AREQ" not in chart


def test_transcript_lines():
    tr = TraceRecorder()
    tr.record(0.5, "S", "send", "AREQ", "x")
    tr.record(0.6, "R", "recv", "AREQ", "x")
    tr.record(0.7, "R", "verdict", "-", "y")  # excluded from transcript
    out = transcript(tr)
    assert out.count("\n") == 1
    assert "SEND" in out and "RECV" in out


# ---------------------------------------------------------------------------
# one-hop NDP DAD baseline
# ---------------------------------------------------------------------------

def test_one_hop_dad_configures_when_unopposed():
    from repro.ndp.neighbor_discovery import OneHopDAD

    sc = chain_scenario(n=2, seed=7).build()
    a = sc.hosts[0]
    dad = OneHopDAD(a)
    dad.start()
    sc.run(duration=5.0)
    assert dad.state == "configured"
    assert a.configured


def test_one_hop_dad_detects_adjacent_duplicate():
    from repro.ndp.neighbor_discovery import OneHopDAD

    sc = chain_scenario(n=2, seed=7).build()
    sc.bootstrap_all()
    victim, joiner = sc.hosts[0], sc.hosts[1]
    OneHopDAD(victim)  # victim must speak NS/NA to defend
    # Re-join n1 via one-hop DAD, rigged to probe the victim's address.
    joiner.abandon_identity()
    dad = OneHopDAD(joiner)
    dad.state = "probing"
    dad.round = 0
    dad._domain_name = ""
    dad.tentative_ip = victim.ip
    dad._tentative_params = victim.cga_params
    from repro.messages.ndp import NeighborSolicitation

    joiner.broadcast(NeighborSolicitation(target=victim.ip),
                     claimed_src=victim.ip)
    dad._timer.start(dad.timeout)
    sc.run(duration=5.0)
    # Victim (1 hop away) defended with NA; the joiner moved to a new address.
    assert dad.state == "configured"
    assert joiner.ip != victim.ip


def test_one_hop_dad_misses_multi_hop_duplicate():
    """The gap the paper's extended DAD closes (Section 2.2)."""
    from repro.ndp.neighbor_discovery import OneHopDAD

    sc = chain_scenario(n=4, seed=7).build()
    sc.bootstrap_all()
    victim = sc.hosts[3]  # 3 hops from n0
    joiner = sc.hosts[0]
    joiner.abandon_identity()
    dad = OneHopDAD(joiner)
    dad.state = "probing"
    dad.round = 0
    dad._domain_name = ""
    dad.tentative_ip = victim.ip
    dad._tentative_params = victim.cga_params
    from repro.messages.ndp import NeighborSolicitation

    joiner.broadcast(NeighborSolicitation(target=victim.ip),
                     claimed_src=victim.ip)
    dad._timer.start(dad.timeout)
    sc.run(duration=5.0)
    # One-hop DAD wrongly concludes the address is free: DUPLICATE EXISTS.
    assert dad.state == "configured"
    assert joiner.ip == victim.ip  # collision undetected!
