"""Replay and forgery attack experiments (Section 4) as tests."""

import math

import pytest

from repro.campaign import runner
from repro.campaign.spec import CampaignSpec
from repro.ipv6.prefixes import UNSPECIFIED
from repro.messages.bootstrap import AREP, AREQ
from repro.messages.routing import RREQ
from repro.phy.medium import BROADCAST_LINK, Frame
from repro.routing.bsar_like import EndpointOnlyRouter
from repro.scenarios.attacks import add_forger, add_replayer
from tests.conftest import chain_scenario, two_path_scenario


def test_replayed_rreps_never_accepted():
    """The replayer records RREPs then fires them at later discoveries."""
    sc = chain_scenario(n=4, seed=47).build()
    rep = add_replayer(sc, (300.0, 120.0))
    sc.bootstrap_all()
    a, b = sc.hosts[0], sc.hosts[3]

    accepted_baseline = 0
    # Round 1: legitimate discovery (replayer records the RREP it hears).
    a.router.send_data(b.ip, b"one")
    sc.run(duration=10.0)
    accepted_baseline = sc.metrics.verdicts["rrep.accepted"]
    assert rep.component("replayer").recorded_rreps

    # Expire the cache, then rediscover: the replayer races the real reply.
    a.router.cache.clear()
    a.router._recent_discoveries.clear()
    a.router.send_data(b.ip, b"two")
    sc.run(duration=10.0)
    assert rep.component("replayer").replays_fired >= 1
    # Replays carry the OLD sequence number: every one rejected as stale.
    assert sc.metrics.verdicts["rrep.rejected.stale_seq"] >= 1
    assert sc.metrics.delivered(a.ip, b.ip) == 2  # real traffic unharmed


def test_replay_everything_is_fully_rejected():
    sc = chain_scenario(n=4, seed=53).build()
    rep = add_replayer(sc, (300.0, 120.0))
    sc.bootstrap_all()
    a, b = sc.hosts[0], sc.hosts[3]
    a.router.send_data(b.ip, b"one")
    sc.run(duration=10.0)

    accepted_before = {
        k: v for k, v in sc.metrics.verdicts.items()
        if k.endswith(".accepted") and k.split(".")[0] in ("rrep", "crep", "arep")
    }
    fired = rep.component("replayer").replay_everything()
    sc.run(duration=10.0)
    accepted_after = {
        k: v for k, v in sc.metrics.verdicts.items()
        if k.endswith(".accepted") and k.split(".")[0] in ("rrep", "crep", "arep")
    }
    assert fired > 0
    assert accepted_after == accepted_before  # zero replays accepted


def hear(node, msg, dst_link=BROADCAST_LINK):
    """Hand ``node`` one frame carrying ``msg`` (addressed or overheard).

    The unspecified source address keeps the frame out of the ND cache.
    """
    node._on_frame(Frame(src_link=-1, dst_link=dst_link, src_ip=UNSPECIFIED,
                         payload=msg, size=msg.wire_size()))


def recorded_replayer(seed=47):
    """A chain whose replayer has recorded the RREPs of one discovery."""
    sc = chain_scenario(n=4, seed=seed).build()
    rep = add_replayer(sc, (300.0, 120.0))
    sc.bootstrap_all()
    a, b = sc.hosts[0], sc.hosts[3]
    a.router.send_data(b.ip, b"one")
    sc.run(duration=10.0)
    return sc, rep, a, b


def test_rreq_heard_twice_fires_replays_once():
    sc, rep, a, b = recorded_replayer()
    agent = rep.component("replayer")
    matching = sum(r.sip == a.ip and r.dip == b.ip for r in agent.recorded_rreps)
    matching += sum(r.sip == a.ip for r in agent.recorded_rerrs)
    assert matching >= 1
    rreq = RREQ(sip=a.ip, dip=b.ip, seq=a.next_seq(), srr=(),
                source_signature=b"", source_public_key=a.public_key,
                source_rn=0)
    before = agent.replays_fired
    hear(rep, rreq)
    assert agent.replays_fired == before + matching
    # Later flood copies of the same request (relayed, so their hop limit
    # differs) find it already answered.
    hear(rep, rreq)
    hear(rep, rreq.replace(hop_limit=rreq.hop_limit - 1))
    assert agent.replays_fired == before + matching


def test_areq_heard_twice_fires_replays_once():
    sc, rep, a, b = recorded_replayer()
    agent = rep.component("replayer")
    arep = AREP(sip=b.ip, route_record=(), signature=b"old", ch=7,
                public_key=b.public_key, rn=0)
    hear(rep, arep)
    areq = AREQ(sip=b.ip, seq=b.next_seq(), domain_name="", ch=8)
    before = agent.replays_fired
    hear(rep, areq)
    assert agent.replays_fired == before + 1
    hear(rep, areq)
    hear(rep, areq.replace(route_record=(a.ip,), hop_limit=63))
    assert agent.replays_fired == before + 1
    # A fresh challenge is a fresh request: the stale AREP goes out again.
    hear(rep, areq.replace(ch=9))
    assert agent.replays_fired == before + 2


def test_reply_heard_twice_is_stored_once():
    sc, rep, a, b = recorded_replayer()
    agent = rep.component("replayer")
    rrep = agent.recorded_rreps[0]
    stored = list(agent.recorded_rreps)
    hear(rep, rrep)
    hear(rep, rrep.replace())  # another object with the same bytes
    hear(rep, rrep, dst_link=a.link_id)  # overheard on its way to A
    assert agent.recorded_rreps == stored


def test_overheard_reply_reaches_only_the_recorder():
    """The replayer's own router drops unicasts addressed to other links."""
    sc, rep, a, b = recorded_replayer()
    agent = rep.component("replayer")
    neighbour = sc.hosts[1]
    rrep = agent.recorded_rreps[0].replace(route=(neighbour.ip, rep.ip),
                                           seq=a.next_seq())

    def relayed():
        return sum(e.node == rep.name and e.kind == "send"
                   and e.msg_type == "RREP" for e in sc.trace.events)

    sent = relayed()
    hear(rep, rrep, dst_link=sc.hosts[2].link_id)
    sc.run(duration=1.0)
    assert agent.recorded_rreps[-1] is rrep
    assert relayed() == sent
    hear(rep, rrep.replace(hop_limit=9), dst_link=rep.link_id)
    sc.run(duration=1.0)
    assert relayed() == sent + 1  # addressed to it: relayed to the neighbour


#: The campaign_mix cell with the replayer and a crash plus a partition:
#: N = 30 uniform_density hosts, the replayer at the centre of the square.
CENTRE = math.sqrt(30 * math.pi * 250.0 ** 2 / 10.0) / 2
REPLAYER_CELL = {
    "name": "replayer-cell",
    "seed": 1,
    "replicates": 4,
    "base": {
        "topology": {"kind": "uniform_density", "n": 30, "density": 10.0},
        "radio": {"range": 250.0, "loss_rate": 0.02},
        "dns": {},
    },
    "axes": {"adversaries": [
        [{"kind": "replayer", "position": [CENTRE, CENTRE]}],
    ], "faults": [
        {"events": [
            {"kind": "crash", "at": 2.0, "node": 3, "recover_after": 4.0},
            {"kind": "partition", "at": 8.0, "duration": 3.0,
             "members": [list(range(0, 30, 2)), list(range(1, 30, 2))]},
        ]},
    ]},
    "workload": {"kind": "cbr", "flows": 4},
    "bootstrap": {"stagger": 0.25},
    "duration": 30.0,
    "timeout": 60.0,
}


def test_replayer_campaign_cell_is_bounded(monkeypatch):
    """Recordings stay distinct and replays stay one per fresh request.

    Replaying every recording on every flood copy, and recording the
    agent's own relayed replays, feeds back on itself: that model spends
    about 205k simulator events on this run (about 14k without it) and
    over a million on other replicates of the cell.
    """
    scenarios = []
    add_adversary = runner._add_adversary

    def capture(scenario, spec):
        scenarios.append(scenario)
        add_adversary(scenario, spec)

    monkeypatch.setattr(runner, "_add_adversary", capture)
    run = CampaignSpec.from_dict(REPLAYER_CELL).expand()[1].to_dict()
    record = runner.execute_run(run)
    assert record["status"] == "ok", record.get("error")

    sc = scenarios[0]
    agent = sc.hosts[-1].component("replayer")
    recordings = (agent.recorded_areps + agent.recorded_dreps
                  + agent.recorded_rreps + agent.recorded_creps
                  + agent.recorded_rerrs)
    assert recordings
    assert len({m.wire_bytes() for m in recordings}) == len(recordings)
    assert agent.replays_fired >= 1
    assert agent.replays_fired <= len(agent._answered) * len(recordings)
    assert sc.sim.events_executed < 30_000, sc.sim.events_executed


def test_spoofed_hop_rejected_by_full_protocol():
    """A relay splicing a fake hop identity is caught by per-hop checks."""
    sc = two_path_scenario(seed=59).build()
    victim_ip_holder = sc.hosts[2]
    sc.bootstrap_all()
    forger = add_forger(sc, (200.0, 0.0), spoof_hop_ip=victim_ip_holder.ip)
    forger.bootstrap.start("")
    sc.run(duration=5.0)

    a, b = sc.hosts[0], sc.hosts[1]
    a.router.send_data(b.ip, b"x")
    sc.run(duration=15.0)
    assert forger.router.hops_spoofed >= 1
    assert sc.metrics.verdicts["rreq.rejected.hop_bad_cga"] >= 1
    # Traffic still flows via the honest path.
    assert sc.metrics.delivered(a.ip, b.ip) == 1


def test_spoofed_hop_accepted_by_endpoint_only_baseline():
    """The BSAR-like baseline cannot see the spoofed hop (the paper's gap)."""
    sc = two_path_scenario(seed=59).router(EndpointOnlyRouter).build()
    victim_ip_holder = sc.hosts[2]
    sc.bootstrap_all()
    forger = add_forger(sc, (200.0, 0.0), spoof_hop_ip=victim_ip_holder.ip)
    forger.bootstrap.start("")
    sc.run(duration=5.0)

    a, b = sc.hosts[0], sc.hosts[1]
    a.router.send_data(b.ip, b"x")
    sc.run(duration=15.0)
    assert forger.router.hops_spoofed >= 1
    # No hop rejection verdict exists -- the forged SRR sailed through.
    assert sc.metrics.verdicts["rreq.rejected.hop_bad_cga"] == 0
    # The poisoned route (containing the victim's spoofed address) may be
    # cached at the destination side; the attack went undetected.


def test_forged_acks_rejected_and_forger_cannot_mask_drops():
    sc = two_path_scenario(seed=61, hostile_mode=True).build()
    sc.bootstrap_all()
    forger = add_forger(sc, (200.0, 0.0), forge_acks=True, drop_data=True)
    forger.bootstrap.start("")
    sc.run(duration=5.0)

    a, b = sc.hosts[0], sc.hosts[1]
    from repro.scenarios.workloads import CBRTraffic

    traffic = CBRTraffic(a, b.ip, interval=1.0, count=15)
    sc.run(duration=60.0)
    if forger.router.acks_forged:
        assert sc.metrics.rejected("ack") >= 1
    # Forged ACKs bought the forger nothing: delivery still completes via
    # the honest detour after detection.
    assert traffic.delivered == traffic.count


def test_forger_gains_no_credit_from_forged_acks():
    sc = two_path_scenario(seed=61, hostile_mode=True).build()
    sc.bootstrap_all()
    forger = add_forger(sc, (200.0, 0.0), forge_acks=True, drop_data=True)
    forger.bootstrap.start("")
    sc.run(duration=5.0)
    a, b = sc.hosts[0], sc.hosts[1]
    from repro.scenarios.workloads import CBRTraffic

    CBRTraffic(a, b.ip, interval=1.0, count=10)
    sc.run(duration=40.0)
    # Credit can only have gone down (penalty) or stayed at initial.
    assert a.router.credits.credit(forger.ip) <= a.config.credit_initial
