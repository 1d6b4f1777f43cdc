"""Per-run probes installed in the measured process (and its workers).

:func:`install` wraps ``ScenarioBuilder.build``, ``Scenario.bootstrap_all``,
``Scenario.run`` and ``repro.campaign.runner.execute_run`` with wall-clock
timers -- four calls per run, so an untraced run pays nothing measurable.
When ``execute_run`` returns, the probe appends one JSON line describing
that run to ``runs-<pid>.jsonl`` in the output directory.  Campaign
workers are forked from the process that called :func:`install`, so they
inherit the probes and write their own files.
"""

from __future__ import annotations

import json
import os
import resource
import time

#: Phase timings and the scenario of the run in progress in this process.
state: dict = {}


def _timed(fn, key: str):
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            state[key] = state.get(key, 0.0) + time.perf_counter() - started

    wrapper.__wrapped__ = fn
    return wrapper


def _run_facts(scenario, record: dict) -> dict:
    """Deterministic counters read from the finished scenario."""
    facts = {"events": scenario.sim.events_executed}
    stats = scenario.crypto_stats()
    cache = stats.get("shared_verify_cache") or {}
    facts["verify_cache_hits"] = int(cache.get("hits", 0))
    facts["verify_cache_lookups"] = int(cache.get("hits", 0)) + int(cache.get("misses", 0))
    honest = record.get("summary", {}).get("hosts", len(scenario.hosts))
    radios = scenario.medium._radios
    facts["adversary_frames"] = sum(
        radios[n.link_id].frames_sent
        for n in scenario.hosts[honest:] if n.link_id in radios
    )
    return facts


def install(out_dir: str, trace_off: bool = False, tracer=None) -> None:
    """Wrap the phase boundaries; ``trace_off`` disables the recorder."""
    from repro.campaign import runner
    from repro.scenarios.builder import Scenario, ScenarioBuilder

    if tracer is not None:
        tracer.install()  # first: the probes below must wrap the spans
    orig_build = ScenarioBuilder.build

    def build(builder):
        started = time.perf_counter()
        scenario = orig_build(builder)
        state["setup_s"] = time.perf_counter() - started
        if trace_off:
            scenario.ctx.trace.enabled = False
        state["scenario"] = scenario
        return scenario

    ScenarioBuilder.build = build
    Scenario.bootstrap_all = _timed(Scenario.bootstrap_all, "bootstrap_s")
    Scenario.run = _timed(Scenario.run, "traffic_s")

    orig_run = runner.execute_run

    def execute_run(run: dict) -> dict:
        state.clear()
        if tracer is not None and tracer.pid != os.getpid():
            tracer.reset()  # a freshly forked worker
        started, cpu_started = time.perf_counter(), time.process_time()
        record = orig_run(run)
        ended = time.perf_counter()
        cpu_s = time.process_time() - cpu_started
        line = {
            "run_id": run["run_id"],
            "pid": os.getpid(),
            "status": record["status"],
            "start": started,
            "end": ended,
            "run_s": ended - started,
            "cpu_s": cpu_s,
            "setup_s": state.get("setup_s"),
            "bootstrap_s": state.get("bootstrap_s"),
            "traffic_s": state.get("traffic_s"),
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        scenario = state.pop("scenario", None)
        if scenario is not None:
            line.update(_run_facts(scenario, record))
        if tracer is not None:
            line["hash_calls"] = tracer.hash_calls[0]
            line["layers"], line["spans_file"] = tracer.dump(
                f"{os.getpid()}-{run['run_id']}")
            tracer.reset()
        path = os.path.join(out_dir, f"runs-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        return record

    runner.execute_run = execute_run


def read_runs(out_dir: str) -> list[dict]:
    """Every per-run line written under ``out_dir``, in run-id order."""
    lines = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("runs-") and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                lines.extend(json.loads(line) for line in fh if line.strip())
    return sorted(lines, key=lambda line: line["run_id"])
