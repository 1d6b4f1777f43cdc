"""One measured round, run in a fresh interpreter by ``run.py``.

    python3 perfbench/round.py WORKLOAD SEED MODE INDEX REPLICATES OUT_DIR

MODE is ``timed`` (untraced), ``off`` (untraced, trace recorder
disabled), ``traced`` (span tracer installed) or ``setup`` (one cold
``build()`` only).  INDEX picks the run of a single-run workload's
REPLICATES runs.  The round prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), os.path.dirname(HERE)]

from perfbench import probe  # noqa: E402
from perfbench.workloads import campaign_dict  # noqa: E402

#: Workers of the campaign sweep: fixed, so the input never depends on
#: the machine.
CAMPAIGN_WORKERS = 2


def main(argv: list[str]) -> None:
    workload, seed, mode, index, replicates, out_dir = argv
    seed, index, replicates = int(seed), int(index), int(replicates)
    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import CampaignSpec
    from repro.scenarios.builder import ScenarioBuilder

    data = campaign_dict(workload, seed)
    campaign = workload == "campaign_mix"
    if not campaign:
        data["replicates"] = replicates
    spec = CampaignSpec.from_dict(data)
    runs = [r.to_dict() for r in spec.expand()]

    tracer = None
    if mode == "traced":
        from perfbench.spans import SpanTracer

        tracer = SpanTracer(out_dir)
    probe.install(out_dir, trace_off=(mode == "off"), tracer=tracer)

    out = {"workload": workload, "seed": seed, "mode": mode, "index": index}
    if mode == "setup":
        run = runs[(index * 7) % len(runs)]
        ScenarioBuilder.from_spec(run["scenario"]).build()
        out["setup_s"] = probe.state["setup_s"]
    elif campaign:
        started = time.perf_counter()
        records = run_campaign(spec, workers=CAMPAIGN_WORKERS,
                               out_dir=os.path.join(out_dir, "campaign"),
                               telemetry=True)
        out["campaign_s"] = time.perf_counter() - started
        out["workers_maxrss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
        out["records"] = records
    else:
        from repro.campaign import runner

        out["records"] = [runner.execute_run(runs[index])]
    if tracer is not None and campaign:
        out["coordinator_layers"], _ = tracer.dump(f"{os.getpid()}-coordinator")
    if mode != "setup":
        out["runs"] = probe.read_runs(out_dir)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
