"""Fault injection (PR 8 tentpole): plan validation, injector behaviour,
graceful degradation metrics, and the determinism matrix.

The two contracts everything here leans on:

* a fault run is byte-identical for a given seed across worker counts
  and batch sizes (all fault randomness lives in dedicated ``faults/*``
  RNG streams, all actions are simulator events);
* a plan with no events is byte-identical to no plan at all -- the
  medium hook is never installed, no stream is consumed, and the
  metrics summary carries no fault columns.
"""

from __future__ import annotations

import pytest

from conftest import campaign_artifacts, chain_scenario, streaming_campaign_dict
from repro.campaign.runner import execute_run, run_campaign
from repro.campaign.spec import CampaignSpec
from repro.faults import FaultInjector, FaultPlan
from repro.scenarios.builder import ScenarioBuilder


# -- plan validation ---------------------------------------------------------

def test_plan_accepts_every_kind_and_round_trips():
    events = [
        {"kind": "crash", "at": 1.0, "node": 0, "recover_after": 2.0},
        {"kind": "link_flap", "at": 0.5, "a": 0, "b": 1, "duration": 1.0},
        {"kind": "partition", "at": 2.0, "duration": 3.0, "groups": 2},
        {"kind": "partition", "at": 2.0, "duration": 3.0,
         "members": [[0], [1, 2]], "reprobe_stagger": 0.1},
        {"kind": "loss_surge", "at": 0.0, "duration": 1.0, "loss": 0.5},
        {"kind": "corrupt", "at": 0.0, "duration": 1.0, "rate": 1.0},
    ]
    plan = FaultPlan.from_spec({"events": events})
    assert len(plan.events) == 6 and bool(plan)
    assert FaultPlan.from_spec(plan.to_spec()).to_spec() == plan.to_spec()
    assert not FaultPlan.from_spec({"events": []})


@pytest.mark.parametrize("bad", [
    {"kind": "meteor", "at": 0.0},                          # unknown kind
    {"kind": "crash"},                                       # missing at
    {"kind": "crash", "at": -1.0, "node": 0},                # negative at
    {"kind": "crash", "at": 0.0},                            # missing node
    {"kind": "crash", "at": 0.0, "node": 0, "x": 1},         # unknown key
    {"kind": "partition", "at": 0.0, "duration": 1.0, "groups": 1},
    {"kind": "partition", "at": 0.0, "duration": 1.0, "members": [[0]]},
    {"kind": "loss_surge", "at": 0.0, "duration": 1.0, "loss": 1.0},
    {"kind": "corrupt", "at": 0.0, "duration": 1.0, "rate": 1.5},
    {"kind": "link_flap", "at": 0.0, "a": 0, "b": 1, "duration": -0.1},
])
def test_plan_rejects_malformed_events(bad):
    with pytest.raises(ValueError):
        FaultPlan.from_spec({"events": [bad]})


def test_builder_spec_round_trips_fault_plans():
    spec = chain_scenario(3).faults({"events": [
        {"kind": "crash", "at": 1.0, "node": 1, "recover_after": 2.0},
    ]}).to_spec()
    assert ScenarioBuilder.from_spec(spec).to_spec() == spec
    # an event-free plan is dropped from the spec entirely
    assert "faults" not in chain_scenario(3).faults({"events": []}).to_spec()


# -- crash / recover ---------------------------------------------------------

def test_crash_without_recovery_degrades_availability():
    scenario = chain_scenario(4).faults({"events": [
        {"kind": "crash", "at": 0.5, "node": 1},
    ]}).build()
    scenario.bootstrap_all()
    assert scenario.faults is not None and scenario.faults.armed
    scenario.run(duration=10.0)
    stats = scenario.faults.stats()
    assert stats["fault_crashes"] == 1 and stats["fault_recoveries"] == 0
    assert stats["availability"] < 1.0
    assert scenario.hosts[1].bootstrap.state == "idle"  # still dark
    summary = scenario.metrics.summary()
    assert summary["fault_crashes"] == 1  # columns merged into the summary


def test_crash_then_recover_re_dads_and_measures_recovery_time():
    scenario = chain_scenario(4).faults({"events": [
        {"kind": "crash", "at": 0.5, "node": 1, "recover_after": 2.0},
    ]}).build()
    scenario.bootstrap_all()
    crashed = scenario.hosts[1]
    old_ip = crashed.ip
    scenario.run(duration=15.0)
    assert crashed.bootstrap.state == "configured"  # cold boot completed
    assert crashed.ip is not None and crashed.ip != old_ip  # fresh identity
    stats = scenario.faults.stats()
    assert stats["fault_crashes"] == 1 and stats["fault_recoveries"] == 1
    assert stats["re_dad_count"] >= 1
    assert stats["recovery_time_mean"] > 0.0
    assert stats["recovery_time_max"] >= stats["recovery_time_mean"]
    assert 0.0 < stats["availability"] < 1.0


# -- partition / heal --------------------------------------------------------

def test_partition_suppresses_cross_group_traffic_then_reprobes_on_heal():
    scenario = chain_scenario(3).faults({"events": [
        {"kind": "partition", "at": 0.5, "duration": 4.0,
         "members": [[0], [1, 2]]},
    ]}).build()
    scenario.bootstrap_all()
    n0, n1 = scenario.hosts[0], scenario.hosts[1]
    # inside the window: n0 and n1 are in different groups, so route
    # discovery across the cut dies in the medium hook
    scenario.run(duration=1.0)
    scenario.send_data(n0, n1.ip, b"across the cut")
    scenario.run(duration=2.0)
    assert scenario.medium.suppressed_frames > 0
    # after the heal every configured host re-probes its address
    scenario.run(duration=10.0)
    stats = scenario.faults.stats()
    assert stats["re_dad_count"] == 3
    assert all(h.bootstrap.state == "configured" for h in scenario.hosts)
    # healed network carries traffic again
    before = scenario.metrics.summary()["data_delivered"]
    scenario.send_data(n0, n1.ip, b"after the heal")
    scenario.run(duration=5.0)
    assert scenario.metrics.summary()["data_delivered"] == before + 1


def test_seeded_partition_assignment_is_deterministic():
    def group_sizes():
        scenario = chain_scenario(4).faults({"events": [
            {"kind": "partition", "at": 0.5, "duration": 2.0, "groups": 2,
             "reprobe": False},
        ]}).build()
        scenario.bootstrap_all()
        scenario.run(duration=1.0)  # inside the window
        groups = scenario.faults._groups
        assert groups is not None
        return sorted(groups.values())

    assert group_sizes() == group_sizes()


# -- corruption --------------------------------------------------------------

def test_corruption_flips_signatures_and_the_crypto_layer_rejects_them():
    scenario = chain_scenario(3).faults({"events": [
        {"kind": "corrupt", "at": 0.5, "duration": 5.0, "rate": 1.0},
    ]}).build()
    scenario.bootstrap_all()
    rejected_before = scenario.metrics.summary()["verdicts_rejected"]
    scenario.run(duration=1.0)
    scenario.send_data(scenario.hosts[0], scenario.hosts[1].ip, b"x")
    scenario.run(duration=3.0)
    stats = scenario.faults.stats()
    assert stats["frames_corrupted"] > 0
    assert scenario.metrics.summary()["verdicts_rejected"] > rejected_before


# -- faults-off byte-identity ------------------------------------------------

def test_event_free_plan_is_identical_to_no_plan():
    def run(plan):
        builder = chain_scenario(3)
        if plan is not None:
            builder = builder.faults(plan)
        scenario = builder.build()
        scenario.bootstrap_all()
        scenario.send_data(scenario.hosts[0], scenario.hosts[2].ip, b"pkt")
        scenario.run(duration=5.0)
        return scenario, scenario.metrics.summary()

    bare_scenario, bare = run(None)
    empty_scenario, empty = run({"events": []})
    assert empty_scenario.faults is None  # not even constructed
    assert bare == empty  # summaries identical, no fault columns in either
    assert "faults_injected" not in bare


# -- determinism matrix ------------------------------------------------------

def faulted_campaign_dict(**overrides) -> dict:
    """Streaming harness campaign with a faults on/off axis: every run
    matrix point executes once with no faults and once under a
    crash + partition-and-heal plan."""
    data = streaming_campaign_dict(
        name="chaos",
        replicates=2,
        duration=9.0,
        axes={
            "router": ["secure"],
            "faults": [
                {"events": []},
                {"events": [
                    {"kind": "crash", "at": 0.5, "node": 1,
                     "recover_after": 2.0},
                    {"kind": "partition", "at": 4.0, "duration": 1.5,
                     "members": [[0], [1, 2]]},
                ]},
            ],
        },
    )
    data.update(overrides)
    return data


@pytest.mark.parametrize("workers,batch_size", [(4, 2), (1, 3)])
def test_fault_campaigns_are_byte_identical_across_execution(
    tmp_path, workers, batch_size
):
    """workers=1/batch=1 is the reference; every other execution shape
    must produce byte-identical artifacts, faults and all."""
    spec = CampaignSpec.from_dict(faulted_campaign_dict())
    ref_dir, alt_dir = tmp_path / "ref", tmp_path / "alt"
    ref_records = run_campaign(spec, workers=1, batch_size=1, out_dir=ref_dir)
    run_campaign(spec, workers=workers, batch_size=batch_size, out_dir=alt_dir)
    assert campaign_artifacts(ref_dir) == campaign_artifacts(alt_dir)
    # the faulted half of the matrix really degraded and really recovered
    faulted = [r for r in ref_records if r["params"]["faults"]["events"]]
    assert faulted and all(r["status"] == "ok" for r in ref_records)
    for record in faulted:
        summary = record["summary"]
        assert summary["fault_crashes"] == 1
        assert summary["availability"] < 1.0
        assert summary["re_dad_count"] >= 1
    # the fault-free half carries no fault columns at all
    for record in ref_records:
        if not record["params"]["faults"]["events"]:
            assert "faults_injected" not in record["summary"]


# -- crashed traffic sources -------------------------------------------------

@pytest.mark.parametrize("kind", ["cbr", "poisson", "request_response"])
def test_crashed_traffic_source_fails_its_packets_not_the_run(kind):
    """A flow whose source crashes (and stays down) keeps ticking: each
    packet due while the source is down counts as failed instead of
    killing the run with "cannot send before bootstrap"."""
    data = streaming_campaign_dict(
        name="crashed-source", replicates=1, duration=8.0, axes={},
        workload={"kind": kind, "pairs": [[0, 2]], "interval": 0.5,
                  "count": 10} if kind != "poisson" else
                 {"kind": kind, "pairs": [[0, 2]], "rate": 4.0, "count": 10},
    )
    data["base"]["faults"] = {"events": [
        {"kind": "crash", "at": 1.0, "node": 0, "recover_after": 60.0},
    ]}
    record = execute_run(CampaignSpec.from_dict(data).expand()[0].to_dict())
    assert record["status"] == "ok", record.get("error")
    summary = record["summary"]
    assert summary["fault_crashes"] == 1
    assert summary["data_sent"] < 10  # the down source sent nothing


def test_crashed_cbr_source_counts_skipped_packets_as_failed():
    from repro.scenarios.workloads import CBRTraffic

    scenario = chain_scenario(3).faults({"events": [
        {"kind": "crash", "at": 1.0, "node": 0, "recover_after": 60.0},
    ]}).build()
    scenario.bootstrap_all()
    src, dst = scenario.hosts[0], scenario.hosts[2]
    flow = CBRTraffic(src, dst.ip, interval=0.5, count=10)
    scenario.run(duration=8.0)
    assert flow.sent == 10
    assert flow.done  # every tick ended delivered or failed
    assert flow.failed >= 8  # ticks at t >= 1.0 found the source down
