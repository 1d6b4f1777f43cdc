"""The three benchmark workloads, built from a seed as campaign specs.

The program under test only ever sees the run specs these functions
return.  ``flood_n200`` and ``secure_routing_rsa`` are one-run jobs: each
timed round runs one replicate through ``repro.campaign.runner.execute_run``.
``campaign_mix`` is a 40-run sweep driven through ``run_campaign``.
"""

from __future__ import annotations

import math

RADIO_RANGE = 250.0
DENSITY = 10.0

#: Why each workload exists (printed with the results and mirrored in
#: BENCHMARK.json).
WHY = {
    "flood_n200": "N=200 secure DAD: O(N^2) AREQ floods put the work on "
                  "sim, phy fan-out, frame dispatch, codec, bootstrap/DNS "
                  "and the trace",
    "secure_routing_rsa": "N=50 RSA secure DSR under mobility and loss: the "
                          "work is route discovery, MAC retries and RSA "
                          "sign/verify",
    "campaign_mix": "40-run sweep of adversaries x faults on 2 workers: the "
                    "only workload through the campaign, fault and "
                    "adversary layers",
}

WORKLOADS = tuple(WHY)

#: Seed kept out of every tuning run, for later before/after claims.
HELD_OUT_SEED = 90210


def _side(n: int) -> float:
    """Side of the uniform_density square (same formula as the builder)."""
    return math.sqrt(n * math.pi * RADIO_RANGE ** 2 / DENSITY)


def _base(n: int, loss_rate: float, **extra) -> dict:
    return {
        "topology": {"kind": "uniform_density", "n": n, "density": DENSITY},
        "radio": {"range": RADIO_RANGE, "loss_rate": loss_rate},
        "dns": {},  # no position: the builder puts the DNS at the centroid
        **extra,
    }


def flood_n200(seed: int) -> dict:
    return {
        "name": "flood_n200",
        "seed": seed,
        "base": _base(200, 0.0),
        "workload": {"kind": "cbr", "flows": 10, "count": 20, "interval": 1.0},
        "bootstrap": {"stagger": 0.25},
        "duration": 30.0,
        "timeout": 170.0,
    }


def secure_routing_rsa(seed: int) -> dict:
    return {
        "name": "secure_routing_rsa",
        "seed": seed,
        "base": _base(
            50, 0.05,
            config={"crypto_backend": "rsa", "verify_at_intermediate": True},
            mobility={"kind": "rwp", "speed": [1.0, 5.0], "pause": 5.0},
        ),
        "workload": {"kind": "cbr", "flows": 20, "count": 60, "interval": 0.5},
        "bootstrap": {"stagger": 0.25},
        "duration": 40.0,
        "timeout": 170.0,
    }


def campaign_mix(seed: int) -> dict:
    n = 30
    centre = [_side(n) / 2, _side(n) / 2]
    adversaries = [
        [],
        [{"kind": "blackhole", "position": centre, "forge_rreps": True}],
        [{"kind": "forger", "position": centre}],
        [{"kind": "replayer", "position": centre}],
        [{"kind": "rerr_spammer", "position": centre}],
    ]
    faults = [
        {"events": []},
        {"events": [
            {"kind": "crash", "at": 2.0, "node": 3, "recover_after": 4.0},
            {"kind": "partition", "at": 8.0, "duration": 3.0,
             "members": [list(range(0, n, 2)), list(range(1, n, 2))]},
        ]},
    ]
    return {
        "name": "campaign_mix",
        "seed": seed,
        "replicates": 4,
        "base": _base(n, 0.02),
        "axes": {"adversaries": adversaries, "faults": faults},
        "workload": {"kind": "cbr", "flows": 4},
        "bootstrap": {"stagger": 0.25},
        "duration": 30.0,
        "timeout": 10.0,
    }


def campaign_dict(workload: str, seed: int) -> dict:
    """The campaign spec dict of ``workload`` for ``seed``."""
    builders = {"flood_n200": flood_n200,
                "secure_routing_rsa": secure_routing_rsa,
                "campaign_mix": campaign_mix}
    return builders[workload](seed)
