"""End-to-end and per-layer benchmark of the secure-MANET simulator.

    python3 perfbench/run.py --workload flood_n200 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics: every timed round runs in
a fresh interpreter (``round.py``), untraced, and each metric is the
median over its samples.  ``--trace 1`` runs the same seed three more
times -- span-traced, untraced, and with the trace recorder off -- and
reports the per-layer split.  ``--workload all`` does both for every
workload.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Every run's record is checked: status ``ok``, ``0 <= pdr <= 1``, and
every honest host configured on fault-free runs.  Runs that fail a
check are counted in ``failed`` (the program's known defects show up
there); ``correct`` is false only when the benchmark cannot vouch for
its own numbers -- a round crashed, or traced and untraced runs of the
same seed produced different records.
"""

from __future__ import annotations

import argparse
import datetime
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
sys.dont_write_bytecode = True

from perfbench import layers  # noqa: E402
from perfbench.workloads import HELD_OUT_SEED, WHY, WORKLOADS  # noqa: E402

#: Nominal wall time of one timed round; the round count is
#: ``seconds / NOMINAL_ROUND_S`` so it never depends on machine speed.
NOMINAL_ROUND_S = {"flood_n200": 10.0, "secure_routing_rsa": 7.5,
                   "campaign_mix": 30.0}
#: Cold ``build()`` samples per run for ``setup_s``: single-run rounds
#: give one each, cold-build-only rounds make up the rest.
SETUP_SAMPLES = 7
#: A run must end within this many seconds.
RUN_BUDGET_S = 175.0

#: End-to-end metrics declared in BENCHMARK.json: name -> (unit, better).
#: They are the ones steady from seed to seed on every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "campaign_s": ("s", "lower"),
}
#: Printed and saved with the same statistics, but not declared: the
#: phase times swing with the seed on campaign_mix (which attack cells
#: run away or fail early), and runs_per_s is the run count over
#: campaign_s, so it adds no information and only doubles the noise risk.
PHASES = {
    "runs_per_s": ("1/s", "higher"),
    "run_s": ("s", "lower"),
    "bootstrap_s": ("s", "lower"),
    "traffic_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
}


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


# -- rounds -----------------------------------------------------------------
def run_round(workload, seed, mode, index, replicates, tmp, deadline) -> dict:
    """One round in a fresh interpreter; returns its JSON plus wall time."""
    out_dir = os.path.join(tmp, f"{mode}-{index}")
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "round.py"), workload,
           str(seed), mode, str(index), str(replicates), out_dir]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} round {index} overran the run budget") from None
    finally:
        # Also stops campaign workers a crashed round left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} round {index} exited {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["round_wall_s"] = time.perf_counter() - started
    result["out_dir"] = out_dir
    return result


# -- checks -----------------------------------------------------------------
def check_record(record: dict) -> str | None:
    """Why ``record`` fails the output checks, or None if it passes."""
    if record["status"] != "ok":
        return f"status {record['status']}: {record.get('error', '')}"
    summary = record["summary"]
    if not 0.0 <= summary["pdr"] <= 1.0:
        return f"pdr {summary['pdr']:.4f} outside [0, 1]"
    fault_free = not record["params"].get("faults", {}).get("events")
    if fault_free and summary["configured_hosts"] != summary["hosts"]:
        return (f"{summary['configured_hosts']} of {summary['hosts']} "
                "honest hosts configured")
    return None


def digest(records: list[dict]) -> str:
    """Hash of the deterministic records.

    Timeout records are left out: whether a run hits its wall-clock
    budget depends on the host, not on the seed.
    """
    kept = sorted((r for r in records if r["status"] != "timeout"),
                  key=lambda r: r["run_id"])
    blob = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def counters(records: list[dict]) -> dict:
    """Deterministic counters summed over the ok records."""
    keys = ("msgs_sent_total", "encode_calls", "crypto_sign_ops",
            "crypto_verify_ops", "dad_rounds_total", "configured_nodes",
            "data_sent", "data_delivered", "discoveries_started")
    ok = [r["summary"] for r in records if r["status"] == "ok"]
    return {k: sum(s.get(k, 0) for s in ok) for k in keys}


# -- statistics -------------------------------------------------------------
def describe(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                                 recursive=True)):
        with open(path, "rb") as fh:
            source.update(os.path.relpath(path, ROOT).encode() + fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
                     .isoformat(timespec="seconds"),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "held_out_seed": HELD_OUT_SEED,
    }


# -- end-to-end -------------------------------------------------------------
def end_to_end(workload, seed, seconds, tmp, deadline) -> dict:
    campaign = workload == "campaign_mix"
    rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
    timed = [run_round(workload, seed, "timed", i, rounds, tmp, deadline)
             for i in range(rounds)]
    cold = 0 if campaign else rounds
    setups = [run_round(workload, seed, "setup", i, rounds, tmp, deadline)
              for i in range(max(0, SETUP_SAMPLES - cold))]

    samples = {name: [] for name in {**END_TO_END, **PHASES}}
    samples["setup_s"] = [r["setup_s"] for r in setups]
    for r in timed:
        lines = r["runs"]
        ok = [line for line in lines if line["status"] == "ok"]
        for x in ok:
            samples["run_s"].append(x["run_s"])
            samples["bootstrap_s"].append(x["bootstrap_s"])
            samples["traffic_s"].append(x["traffic_s"])
            samples["events_per_s"].append(
                x["events"] / (x["bootstrap_s"] + x["traffic_s"]))
        # On campaign_mix this is a worker's high-water mark as each run
        # ended: the largest worker's peak depends on how far a runaway
        # run got before its timeout, which is host speed.
        samples["peak_rss_mb"].extend(x["maxrss_mb"] for x in lines)
        if campaign:
            wall = r["campaign_s"]
        else:
            # The build inside a fresh-interpreter round is cold, too.
            samples["setup_s"].extend(x["setup_s"] for x in lines)
            # A one-run job lasts from interpreter start to its record.
            wall = r["round_wall_s"]
        samples["campaign_s"].append(wall)
        samples["runs_per_s"].append(len(r["records"]) / wall)
    records = [rec for r in timed for rec in r["records"]]
    return {"samples": samples, "records": records, "rounds": len(timed),
            "setup_rounds": len(setups),
            "largest_worker_rss_mb": [r["workers_maxrss_mb"] for r in timed
                                      if campaign]}


# -- per-layer --------------------------------------------------------------
def _merge_round(result: dict) -> dict:
    """Merge a round's per-process span aggregates into one summary."""
    spans: dict = {}
    parts = [line.get("layers", {}) for line in result["runs"]]
    parts.append(result.get("coordinator_layers", {}))
    coordinator_s = sum(v[2] for v in result.get("coordinator_layers", {}).values())
    for part in parts:
        for name, (layer, calls, self_s, incl) in part.items():
            cur = spans.setdefault(name, [layer, 0, 0.0, 0.0])
            cur[1] += calls
            cur[2] += self_s
            cur[3] += incl
    lines = result["runs"]
    merged = {
        "spans": spans,
        "lines": lines,
        "records": result["records"],
        "busy_s": sum(line["run_s"] for line in lines) + coordinator_s,
        "wall_s": result.get("campaign_s", lines[0]["run_s"] if lines else 0.0),
    }
    if "campaign_s" in result and lines:
        pids = {}
        for line in lines:
            pids[line["pid"]] = max(pids.get(line["pid"], 0.0), line["end"])
        workers = max(len(pids), 1)
        merged["busy_ratio"] = (sum(line["run_s"] for line in lines)
                                 / (workers * result["campaign_s"]))
        merged["tail_idle_s"] = max(pids.values()) - min(pids.values())
    return merged


def per_layer(workload, seed, tmp, deadline, keep_dir) -> dict:
    traced = run_round(workload, seed, "traced", 0, 1, tmp, deadline)
    untraced = run_round(workload, seed, "timed", 0, 1, tmp, deadline)
    off = run_round(workload, seed, "off", 0, 1, tmp, deadline)
    metrics = layers.compute(_merge_round(traced), _merge_round(untraced),
                             _merge_round(off))
    # Keep the latest traced spans of this workload for inspection.
    shutil.rmtree(keep_dir, ignore_errors=True)
    os.makedirs(keep_dir)
    for name in os.listdir(traced["out_dir"]):
        if name.startswith("spans-"):
            shutil.move(os.path.join(traced["out_dir"], name), keep_dir)
    records = {m: r["records"] for m, r in
               (("traced", traced), ("untraced", untraced), ("off", off))}
    # Compare the runs that finished within budget in every mode: a run
    # near its wall-clock timeout may hit it only under the tracer.
    finished = set.intersection(*(
        {r["run_id"] for r in recs if r["status"] != "timeout"}
        for recs in records.values()))
    digests = {m: digest([r for r in recs if r["run_id"] in finished])
               for m, recs in records.items()}
    return {"metrics": metrics, "records": records, "digests": digests}


# -- reporting --------------------------------------------------------------
def _fmt(value: float) -> str:
    if isinstance(value, int) or (abs(value) >= 1000 and float(value).is_integer()):
        return f"{int(value):d}"
    return f"{value:.4g}"


def check_summary(records: list[dict]) -> dict:
    reasons = [(r["run_id"], check_record(r)) for r in records]
    failed = sum(why is not None for _, why in reasons)
    failed_status = sum(r["status"] != "ok" for r in records)
    return {
        "attempted": len(records),
        "failed": failed,
        "failed_ratio": failed_status / len(records),
        "invalid_ratio": (failed - failed_status) / len(records),
        # Rounds of one seed repeat run ids; each failure is listed once.
        "failures": {run_id: why for run_id, why in reasons if why},
    }


def bench_one(workload, seed, seconds, trace, tmp, deadline) -> dict:
    """Measure one workload; returns the result and prints its tables."""
    print(f"== {workload} (seed {seed}): {WHY[workload]}")
    if trace == 0:
        e2e = end_to_end(workload, seed, seconds, tmp, deadline)
        samples = {**e2e["samples"],
                   "largest_worker_rss_mb": e2e["largest_worker_rss_mb"]}
        # A phase with no ok run has no samples (every run failed).
        stats = {name: describe(v) for name, v in samples.items() if v}
        records = e2e["records"]
        print(f"   {e2e['rounds']} timed rounds + {e2e['setup_rounds']} "
              "cold-build rounds, each in a fresh interpreter")
        rows = {**END_TO_END, **PHASES, "largest_worker_rss_mb": ("MB", "lower")}
        print(f"   {'metric':<21} {'unit':<5} {'median':>10} {'q1':>10} "
              f"{'q3':>10} {'min':>10} {'max':>10} {'n':>4}")
        for name, (unit, better) in rows.items():
            if name not in stats:
                continue
            s = stats[name]
            print(f"   {name:<21} {unit:<5} {_fmt(s['value']):>10} "
                  f"{_fmt(s['q1']):>10} {_fmt(s['q3']):>10} "
                  f"{_fmt(s['min']):>10} {_fmt(s['max']):>10} {s['n']:>4}"
                  f"  ({better} is better)")
        metrics = {name: {"value": stats[name]["value"], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
        agree = True
    else:
        keep = os.path.join(ROOT, ".perfbench_out", "spans", workload)
        layer = per_layer(workload, seed, tmp, deadline, keep)
        records = [r for rs in layer["records"].values() for r in rs]
        stats = {}
        units = {name: unit for name, unit, _ in layers.metric_specs()}
        print(f"   {'layer':<10} {'self_share':>10}  {'should move':<28} "
              f"{'mostly on':<32} ~nothing on")
        for name in layers.LAYERS:
            moves, mostly, nothing = layers.TABLE[name][1:]
            print(f"   {name:<10} {layer['metrics'][name + '.self_share']:>10.2%}"
                  f"  {', '.join(moves):<28} {', '.join(mostly):<32} "
                  f"{', '.join(nothing) or '-'}")
        print(f"   {'other':<10} {1 - layer['metrics']['spans.coverage']:>10.2%}")
        for name, _unit, _better in layers.metric_specs():
            if not name.endswith(".self_share"):
                print(f"   {name:<30} {_fmt(layer['metrics'][name]):>14} "
                      f"{units[name]}")
        metrics = {name: {"value": layer["metrics"][name], "unit": unit}
                   for name, unit, _ in layers.metric_specs()}
        agree = len(set(layer["digests"].values())) == 1
        print("   record digests: " + ", ".join(
            f"{mode} {d}" for mode, d in layer["digests"].items())
            + f"; equal: {agree}")

    checks = check_summary(records)
    print(f"   runs attempted {checks['attempted']}, failed checks "
          f"{checks['failed']} (failed_ratio {checks['failed_ratio']:.4f}, "
          f"invalid_ratio {checks['invalid_ratio']:.4f})")
    for run_id, why in sorted(checks["failures"].items()):
        print(f"     {run_id}: {why}")
    print(f"   record digest {digest(records)}  counters "
          f"{json.dumps(counters(records), sort_keys=True)}")
    return {
        "correct": agree,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
        "detail": {
            "provenance": provenance(workload, seed, seconds, trace),
            "stats": stats,
            "failed_ratio": checks["failed_ratio"],
            "invalid_ratio": checks["invalid_ratio"],
            "failures": checks["failures"],
            "digest": digest(records),
            "counters": counters(records),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2

    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
        budget = RUN_BUDGET_S * len(jobs)
    else:
        jobs = [(args.workload, args.trace)]
        budget = RUN_BUDGET_S
    deadline = time.monotonic() + budget
    out_root = os.path.join(ROOT, ".perfbench_out")
    tmp = os.path.join(out_root, f"tmp-{os.getpid()}")
    results = []
    try:
        for workload, trace in jobs:
            job_tmp = os.path.join(tmp, f"{workload}-{trace}")
            os.makedirs(job_tmp)
            results.append(bench_one(workload, args.seed, args.seconds, trace,
                                     job_tmp, deadline))
            shutil.rmtree(job_tmp, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for (workload, trace), result in zip(jobs, results):
        path = os.path.join(out_root,
                            f"{workload}-seed{args.seed}-trace{trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        print(json.dumps({"workload": workload, "trace": trace,
                          **result["detail"]}, sort_keys=True))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{w}.{t}.{name}": m for (w, t), r in zip(jobs, results)
                   for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
