"""Crypto equivalence: production against every oracle corner.

The crypto path (scenario-wide shared verify cache, batched SRR
verification, process-wide keypair pool) must not change *anything*
observable: same seed + same scenario must yield identical metrics
summaries, identical traces, identical medium counters, and the same
number of kernel events as the plain computations in
``tests/crypto_oracles.py``.  Each scenario runs in production and under
all 8 ``(shared_cache, batch_verify, keypair_pool)`` oracle corners
(the all-True corner is production again, a determinism check) under
loss, random-waypoint mobility, churn -- and, critically, under active
adversaries: a cached *negative* verdict must never mask a forged
signature, and a cached *positive* verdict must never launder a
replayed or impersonated message.
"""

from crypto_oracles import CORNERS, installed
from repro.phy.mobility import ChurnModel
from repro.scenarios import ScenarioBuilder
from repro.scenarios.attacks import add_dns_impersonator, add_forger, add_replayer
from tests.conftest import chain_scenario, two_path_scenario


def fingerprint(scenario) -> dict:
    """Everything observable about a finished run."""
    return {
        "summary": scenario.metrics.summary(),
        "verdicts": dict(scenario.metrics.verdicts),
        "trace": [
            (e.time, e.node, e.kind, e.msg_type, e.detail)
            for e in scenario.trace.events
        ],
        "medium": (
            scenario.medium.total_frames,
            scenario.medium.total_bytes,
            scenario.medium.dropped_frames,
        ),
        "events": scenario.sim.events_executed,
    }


def against_oracles(run) -> dict:
    """Production's fingerprint, checked against all 8 oracle corners."""
    production = run()
    for corner in CORNERS:
        with installed(*corner):
            fp = run()
        for key in production:
            assert fp[key] == production[key], (
                f"oracle corner {corner} diverges from production on {key!r}"
            )
    return production


def run_lossy_grid() -> dict:
    """Static grid under loss with per-hop verification: multi-entry SRRs
    exercise the batched verify path at both relays and destinations."""
    sc = (
        ScenarioBuilder(seed=42)
        .grid(12, spacing=180.0)
        .radio(250.0, loss_rate=0.1)
        .with_dns()
        .config(verify_at_intermediate=True)
        .build()
    )
    sc.bootstrap_all()
    a, z = sc.hosts[0], sc.hosts[-1]
    for k in range(5):
        sc.sim.schedule(k * 1.0, sc.send_data, a, z.ip, b"x" * 32)
    sc.run(duration=20.0)
    return fingerprint(sc)


def run_mobile_with_churn() -> dict:
    sc = (
        ScenarioBuilder(seed=7)
        .uniform(10, (700.0, 700.0))
        .radio(250.0, loss_rate=0.05)
        .with_dns()
        .random_waypoint(speed=(2.0, 8.0), pause=2.0)
        .build()
    )
    churn = ChurnModel(
        sc.sim, sc.medium, [h.link_id for h in sc.hosts],
        interval=5.0, min_present=4,
    )
    churn.start()
    sc.bootstrap_all()
    a, z = sc.hosts[0], sc.hosts[1]
    for k in range(4):
        sc.sim.schedule(k * 2.0, sc.send_data, a, z.ip, b"y" * 48)
    sc.run(duration=25.0)
    return fingerprint(sc)


def run_forger() -> dict:
    """Hop-identity forgery: the spoofed SRR entry must be rejected with
    ``hop_bad_cga`` everywhere -- a shared cache or batch pass may never
    let the forged hop through."""
    sc = two_path_scenario(seed=59, verify_at_intermediate=True).build()
    victim = sc.hosts[2]
    sc.bootstrap_all()
    forger = add_forger(sc, (200.0, 0.0), spoof_hop_ip=victim.ip)
    forger.bootstrap.start("")
    sc.run(duration=5.0)
    a, b = sc.hosts[0], sc.hosts[1]
    a.router.send_data(b.ip, b"x")
    sc.run(duration=15.0)
    return fingerprint(sc)


def run_replayer() -> dict:
    """Replayed RREPs carry valid signatures over stale sequence numbers:
    a cached *positive* verdict must still be rejected as stale."""
    sc = chain_scenario(n=4, seed=47).build()
    add_replayer(sc, (300.0, 120.0))
    sc.bootstrap_all()
    a, b = sc.hosts[0], sc.hosts[3]
    a.router.send_data(b.ip, b"one")
    sc.run(duration=10.0)
    a.router.cache.clear()
    a.router._recent_discoveries.clear()
    a.router.send_data(b.ip, b"two")
    sc.run(duration=10.0)
    return fingerprint(sc)


def run_dns_impersonator() -> dict:
    """A rogue resolver answers name lookups with a forged binding; the
    impersonated answer fails verification identically everywhere."""
    from repro.ipv6.cga import cga_address

    sc = chain_scenario(n=4, seed=67).build()
    sc.bootstrap_all(names={"n3": "bob.manet"})
    sc.run(duration=8.0)
    mallory_answer = cga_address(sc.hosts[1].public_key, rn=123)
    imp = add_dns_impersonator(sc, (300.0, 30.0), fake_answer=mallory_answer,
                               drop_real_query=False)
    imp.bootstrap.start("")
    sc.run(duration=5.0)
    results = []
    sc.hosts[0].dns_client.resolve("bob.manet", results.append)
    sc.run(duration=15.0)
    assert results == [sc.hosts[3].ip]  # never the poison, in any corner
    return fingerprint(sc)


def test_lossy_grid_is_byte_identical():
    against_oracles(run_lossy_grid)


def test_mobile_churn_is_byte_identical():
    against_oracles(run_mobile_with_churn)


def test_forger_rejected_identically_across_matrix():
    production = against_oracles(run_forger)
    # the attack actually fired and was caught, in production and (by
    # byte-identity) under every oracle corner
    assert production["verdicts"]["rreq.rejected.hop_bad_cga"] >= 1


def test_replayer_rejected_identically_across_matrix():
    production = against_oracles(run_replayer)
    assert production["verdicts"]["rrep.rejected.stale_seq"] >= 1


def test_dns_impersonator_rejected_identically_across_matrix():
    against_oracles(run_dns_impersonator)


def run_rsa_per_hop() -> dict:
    """RSA with per-hop verification on a 6-host chain: every discovery
    carries a 4-entry SRR, and RSA verifies batches through the base
    class's per-item ``verify_batch``."""
    sc = chain_scenario(n=6, seed=13, crypto_backend="rsa",
                        verify_at_intermediate=True).build()
    sc.bootstrap_all()
    a, z = sc.hosts[0], sc.hosts[-1]
    for k in range(3):
        sc.sim.schedule(k * 1.0, sc.send_data, a, z.ip, b"r" * 16)
    sc.run(duration=15.0)
    fp = fingerprint(sc)
    fp["longest_srr_at_dest"] = max(
        (len(e.payload.srr) for e in sc.trace.events
         if e.node == z.name and e.kind == "recv" and e.msg_type == "RREQ"),
        default=0,
    )
    return fp


def test_rsa_per_hop_matches_all_off_oracle():
    production = run_rsa_per_hop()
    with installed(shared_cache=False, batch_verify=False, keypair_pool=False):
        oracle = run_rsa_per_hop()
    assert oracle == production
    assert production["longest_srr_at_dest"] >= 4
    assert production["verdicts"]["rreq.accepted"] >= 1
    assert production["summary"]["crypto_verify_ops"] > 0
