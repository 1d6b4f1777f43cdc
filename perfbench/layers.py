"""Per-layer metrics: what each one counts and what it should move.

``TABLE`` is the benchmark's written prediction, made before any
optimisation: for each layer, the end-to-end metrics a change to that
layer should move, the workloads where it should show most, and the
workloads where it should change next to nothing.  ``run.py`` prints it
next to the measured layer split, and BENCHMARK.json lists the same
metric names.
"""

from __future__ import annotations

from perfbench.spans import LAYERS

#: layer -> (extra metrics as (name, unit, better), moves, mostly on,
#: ~nothing on).  Every layer also reports ``<layer>.self_share``.
TABLE = {
    "sim": ([("sim.events", "count", "lower")],
            ["events_per_s", "run_s"], ["flood_n200"], []),
    "phy": ([("phy.broadcasts", "count", "lower"),
             ("phy.unicasts", "count", "lower"),
             ("phy.unicast_attempts", "count", "lower"),
             ("phy.frames_delivered", "count", "lower")],
            ["bootstrap_s", "traffic_s"],
            ["flood_n200", "secure_routing_rsa"], []),
    "core": ([("core.frames_in", "count", "lower")],
             ["bootstrap_s"], ["flood_n200"], []),
    "messages": ([("messages.encodes", "count", "lower"),
                  ("messages.encodes_per_send", "ratio", "lower")],
                 ["bootstrap_s"], ["flood_n200"], []),
    "ipv6": ([("ipv6.hash_calls", "count", "lower")],
             ["run_s"], ["flood_n200"], []),
    "trace": ([("trace.records", "count", "lower"),
               ("trace.summary_calls", "count", "lower"),
               ("trace.on_off_ratio", "ratio", "lower")],
              ["run_s", "peak_rss_mb", "campaign_s"], ["flood_n200"], []),
    "crypto": ([("crypto.signs", "count", "lower"),
                ("crypto.verifies", "count", "lower"),
                ("crypto.verify_cache_hit_ratio", "ratio", "higher"),
                ("crypto.keygen_s", "s", "lower")],
               ["traffic_s", "setup_s"], ["secure_routing_rsa"],
               ["flood_n200"]),
    "bootstrap": ([("bootstrap.areq_handled", "count", "lower"),
                   ("bootstrap.dad_rounds", "count", "lower"),
                   ("bootstrap.configured_ratio", "ratio", "higher")],
                  ["bootstrap_s"], ["flood_n200"], ["secure_routing_rsa"]),
    "dns": ([("dns.areq_handled", "count", "lower"),
             ("dns.registrations", "count", "higher")],
            ["bootstrap_s"], ["flood_n200"], ["secure_routing_rsa"]),
    "routing": ([("routing.discoveries", "count", "lower"),
                 ("routing.discovery_retries", "count", "lower"),
                 ("routing.rreq_relays", "count", "lower"),
                 ("routing.data_forwards", "count", "lower"),
                 ("routing.pdr", "ratio", "higher")],
                ["traffic_s"], ["secure_routing_rsa"], ["flood_n200"]),
    "metrics": ([("metrics.summary_s", "s", "lower")],
                ["run_s"], ["flood_n200", "secure_routing_rsa",
                            "campaign_mix"], []),
    "faults": ([("faults.injected", "count", "lower"),
                ("faults.re_dad_count", "count", "lower")],
               ["campaign_s"], ["campaign_mix"],
               ["flood_n200", "secure_routing_rsa"]),
    "adversary": ([("adversary.frames_out", "count", "lower")],
                  ["campaign_s"], ["campaign_mix"],
                  ["flood_n200", "secure_routing_rsa"]),
    "campaign": ([("campaign.worker_busy_ratio", "ratio", "higher"),
                  ("campaign.tail_idle_s", "s", "lower"),
                  ("campaign.ingest_s", "s", "lower"),
                  ("campaign.finalize_s", "s", "lower"),
                  ("campaign.timeouts", "count", "lower"),
                  ("campaign.errors", "count", "lower")],
                 ["campaign_s", "runs_per_s"], ["campaign_mix"],
                 ["flood_n200", "secure_routing_rsa"]),
    "scenarios": ([], ["setup_s"], ["secure_routing_rsa"], []),
    "spans": ([("spans.overhead_ratio", "ratio", "lower"),
               ("spans.coverage", "share", "higher")], [], [], []),
}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in table order."""
    specs = [(f"{layer}.self_share", "share", "lower") for layer in LAYERS]
    for extras, *_ in TABLE.values():
        specs.extend(extras)
    return specs


def _calls(spans: dict, *names: str, suffix: str | None = None) -> int:
    if suffix is not None:
        names = tuple(n for n in spans if n.endswith(suffix))
    return sum(spans[n][1] for n in names if n in spans)


def _inclusive(spans: dict, *names: str) -> float:
    return sum(spans[n][3] for n in names if n in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(traced: dict, untraced: dict, trace_off: dict) -> dict:
    """Per-layer metric values from the three rounds of a traced run.

    Each argument is a round summary built by ``run.py``: ``spans`` (name
    -> ``[layer, calls, self_s, inclusive_s]`` merged over every process),
    ``busy_s`` (the round's work time: run wall times plus coordinator
    spans), ``wall_s``, the per-run probe ``lines`` and the ``records``.
    """
    spans = traced["spans"]
    busy = traced["busy_s"]
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for layer, _calls_n, self_s, _incl in spans.values():
        if layer in self_by_layer:
            self_by_layer[layer] += self_s
    out = {f"{layer}.self_share": _ratio(self_by_layer[layer], busy)
           for layer in LAYERS}
    lines = traced["lines"]
    ok = [r["summary"] for r in traced["records"] if r["status"] == "ok"]

    def total(key):
        return sum(line.get(key) or 0 for line in lines)

    def summed(key):
        return sum(s.get(key, 0) for s in ok)

    out.update({
        "sim.events": total("events"),
        "phy.broadcasts": _calls(spans, "WirelessMedium.broadcast"),
        "phy.unicasts": _calls(spans, "WirelessMedium.unicast"),
        "phy.unicast_attempts": _calls(spans, "WirelessMedium._attempt_unicast"),
        "phy.frames_delivered": _calls(spans, "WirelessMedium._deliver"),
        "core.frames_in": _calls(spans, "Node._on_frame"),
        "messages.encodes": _calls(spans, "encode_message"),
        "messages.encodes_per_send": _ratio(
            _calls(spans, "encode_message"), _calls(spans, "Node._trace_send")),
        "ipv6.hash_calls": total("hash_calls"),
        "trace.records": _calls(spans, "TraceRecorder.record"),
        "trace.summary_calls": _calls(spans, "Message.summary"),
        "trace.on_off_ratio": _ratio(untraced["wall_s"], trace_off["wall_s"]),
        "crypto.signs": _calls(spans, "SimSigBackend.sign", "RSABackend.sign"),
        "crypto.verifies": _calls(spans, "SimSigBackend.verify",
                                  "RSABackend.verify"),
        "crypto.verify_cache_hit_ratio": _ratio(
            total("verify_cache_hits"), total("verify_cache_lookups")),
        "crypto.keygen_s": _inclusive(spans, "SimSigBackend.generate_keypair",
                                      "RSABackend.generate_keypair"),
        "bootstrap.areq_handled": _calls(spans, "BootstrapManager._on_areq"),
        "bootstrap.dad_rounds": _calls(spans,
                                       "BootstrapManager._new_address_round"),
        "bootstrap.configured_ratio": _ratio(summed("configured_hosts"),
                                             summed("hosts")),
        "dns.areq_handled": _calls(spans, "DNSServer._on_areq"),
        "dns.registrations": _calls(spans, "DNSServer._finalize_registration"),
        "routing.discoveries": _calls(spans, "SecureDSRRouter._flood_rreq"),
        "routing.discovery_retries": _calls(
            spans, "SecureDSRRouter._discovery_timeout"),
        "routing.rreq_relays": _calls(spans, suffix="._relay_rreq"),
        "routing.data_forwards": _calls(spans, suffix="._forward_data"),
        "routing.pdr": _ratio(summed("data_delivered"), summed("data_sent")),
        "metrics.summary_s": _inclusive(spans, "MetricsCollector.summary"),
        "faults.injected": summed("faults_injected"),
        "faults.re_dad_count": summed("re_dad_count"),
        "adversary.frames_out": total("adversary_frames"),
        "campaign.worker_busy_ratio": untraced.get("busy_ratio", 0.0),
        "campaign.tail_idle_s": untraced.get("tail_idle_s", 0.0),
        "campaign.ingest_s": _inclusive(spans, "CampaignRunner._ingest"),
        "campaign.finalize_s": _inclusive(spans, "CampaignRunner._finalize"),
        "campaign.timeouts": sum(r["status"] == "timeout"
                                 for r in untraced["records"]),
        "campaign.errors": sum(r["status"] == "error"
                               for r in untraced["records"]),
        "spans.overhead_ratio": _ratio(traced["wall_s"], untraced["wall_s"]),
        "spans.coverage": _ratio(sum(self_by_layer.values()), busy),
    })
    return out
