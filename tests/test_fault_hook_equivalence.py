"""Fault windows on the batched broadcast pipeline vs the scalar oracle.

While a fault window is open, the medium runs ``fault_hook`` inside the
batched pipeline: one hook call per in-range receiver in ascending id
order, before the loss draws; a suppressed copy counts in
``suppressed_frames`` and takes no ``phy/loss`` draw; survivors get one
batched loss draw and each receives the frame the hook returned, which
may be a corrupted copy.  The per-receiver scalar loop
(``phy_oracles.ScalarBroadcastMedium``) interleaves hook call and loss
draw instead.  The hook draws only from ``faults/*`` streams, so every
stream must see the same sequence either way -- these tests demand
byte-identical runs under partition, link flap, loss surge, corruption
and crash, with base loss switched on.
"""

from phy_oracles import fingerprint, installed, make_medium
from repro.ipv6.address import IPv6Address
from repro.phy.medium import BROADCAST_LINK, Frame
from repro.scenarios import ScenarioBuilder
from repro.scenarios.workloads import CBRTraffic
from repro.sim.kernel import Simulator

SRC_IP = IPv6Address("fec0::aa")

#: Every frame-level fault kind, overlapping, plus a crash whose cold
#: boot floods AREQs while the windows are open.
FAULTS = {"events": [
    {"kind": "corrupt", "at": 0.0, "duration": 9.0, "rate": 0.2},
    {"kind": "partition", "at": 0.5, "duration": 3.0, "groups": 2},
    {"kind": "link_flap", "at": 1.0, "a": 0, "b": 1, "duration": 4.0},
    {"kind": "crash", "at": 1.5, "node": 3, "recover_after": 1.0},
    {"kind": "loss_surge", "at": 2.0, "duration": 5.0, "loss": 0.3},
]}


def run_faulted(scalar_broadcast: bool) -> dict:
    with installed(scalar_broadcast=scalar_broadcast):
        sc = (
            ScenarioBuilder(seed=13)
            .uniform(12, (600.0, 600.0))
            .radio(250.0, loss_rate=0.05)
            .with_dns()
            .faults(FAULTS)
            .build()
        )
    sc.bootstrap_all()
    hosts = sc.hosts
    for i in range(4):
        CBRTraffic(hosts[i], hosts[-1 - i].ip, interval=0.5, count=12)
    sc.run(duration=12.0)
    return fingerprint(sc)


def test_fault_windows_match_scalar_oracle():
    batched = run_faulted(scalar_broadcast=False)
    scalar = run_faulted(scalar_broadcast=True)
    for key in batched:
        assert batched[key] == scalar[key], f"diverges on {key!r}"
    # the windows really bit: frames were suppressed and corrupted
    summary = batched["summary"]
    assert summary["frames_suppressed"] > 0
    assert summary["frames_corrupted"] > 0
    assert summary["fault_crashes"] == 1


def test_hook_suppression_and_replacement_frames_match_scalar_oracle():
    """A synthetic hook that suppresses some copies, replaces others and
    draws from its own stream: same deliveries (time, receiver, payload),
    same counters, same hook-call order, same stream positions."""

    def run(scalar_broadcast):
        sim = Simulator(seed=17)
        medium = make_medium(
            sim, scalar_broadcast=scalar_broadcast,
            radio_range=100.0, loss_rate=0.25,
        )
        hook_rng = sim.rng("faults/test")
        calls, log = [], []

        def hook(src, dst, frame):
            calls.append((src, dst))
            u = hook_rng.random()
            if u < 0.3:
                return None
            if u < 0.5:
                return Frame(frame.src_link, frame.dst_link, frame.src_ip,
                             f"{frame.payload}*", frame.size)
            return frame

        radios = [
            medium.attach(
                (i * 30.0, (i % 3) * 20.0),
                lambda f, i=i: log.append((sim.now, i, f.payload)),
            )
            for i in range(8)
        ]
        for k in range(40):
            medium.fault_hook = hook if k % 4 else None
            medium.broadcast(
                Frame(radios[k % 8].link_id, BROADCAST_LINK, SRC_IP, f"b{k}", 30)
            )
        sim.run()
        counters = (medium.total_frames, medium.dropped_frames,
                    medium.suppressed_frames)
        return log, calls, counters, medium._rng.random(), hook_rng.random()

    batched, scalar = run(False), run(True)
    assert batched == scalar
    log, calls, (_, dropped, suppressed), _, _ = batched
    assert suppressed > 0 and dropped > 0
    assert any(payload.endswith("*") for _, _, payload in log)
    # the hook saw each broadcast's receivers in ascending id order
    assert calls and all(
        a[1] < b[1] for a, b in zip(calls, calls[1:]) if a[0] == b[0]
    )
