"""Campaign engine: sharded parallel scenario sweeps.

The paper's evaluation is a *grid* of scenarios (topology x mobility x
attacker mix x traffic load); this subsystem makes that grid a
first-class artifact:

* :class:`~repro.campaign.spec.CampaignSpec` declares sweeps (cartesian
  axes + random samples over :class:`~repro.scenarios.ScenarioBuilder`
  knobs, replicate counts, workloads, adversary mixes, batch size);
* :class:`~repro.campaign.runner.CampaignRunner` (and the
  :func:`~repro.campaign.runner.run_campaign` wrapper) executes the
  expanded run matrix in-process (one worker) or on a multiprocessing
  pool (more) -- batching runs per worker task to amortise dispatch
  overhead, streaming completed records to ``results.jsonl`` as they
  arrive, and resuming an interrupted campaign from that checkpoint --
  with per-run deterministic seeds (:func:`repro.sim.rng.spawn_seed`)
  and timeout/failure isolation.  Worker count, batch size, resume
  interruption points, and shard splits never change results;
* :mod:`~repro.campaign.shard` partitions the matrix deterministically
  across hosts (``campaign run --shard i/N``), each shard writing a
  crash-safe checkpoint with a provenance manifest, and
  :mod:`~repro.campaign.merge` fuses those checkpoints back into one
  artifact byte-identical to a single-host run (conflicts quarantined,
  gaps resumable);
* :mod:`~repro.campaign.aggregate` persists per-run summaries as JSONL
  (with a recovery parser for in-flight/crashed files) and reduces
  them to a grouped report;
* :mod:`~repro.campaign.baseline` diffs two result sets to catch
  PDR/latency regressions across PRs;
* ``python -m repro.campaign run|resume|merge|report|compare`` drives
  it all from the shell.
"""

from repro.campaign.aggregate import (
    SUMMARY_MODES,
    StreamingAggregator,
    aggregate,
    load_results,
    load_results_partial,
    read_jsonl_partial,
    report_text,
    tail_jsonl,
    write_json_artifact,
    write_jsonl,
    write_report_artifacts,
)
from repro.campaign.baseline import compare, comparison_text
from repro.campaign.merge import (
    MergeError,
    discover_shard_dirs,
    merge_shards,
    validate_merge_conflicts_file,
)
from repro.campaign.runner import (
    CampaignRunner,
    InlineExecutor,
    LocalExecutor,
    auto_batch_size,
    execute_batch,
    execute_run,
    run_campaign,
)
from repro.campaign.shard import (
    fingerprint_digest,
    load_shard_manifest,
    parse_shard,
    shard_payloads,
    spec_fingerprint,
    write_shard_manifest,
)
from repro.campaign.spec import CampaignSpec, RunSpec

__all__ = [
    "CampaignRunner",
    "CampaignSpec",
    "InlineExecutor",
    "LocalExecutor",
    "MergeError",
    "RunSpec",
    "SUMMARY_MODES",
    "StreamingAggregator",
    "aggregate",
    "auto_batch_size",
    "compare",
    "comparison_text",
    "discover_shard_dirs",
    "execute_batch",
    "execute_run",
    "fingerprint_digest",
    "load_results",
    "load_results_partial",
    "load_shard_manifest",
    "merge_shards",
    "parse_shard",
    "read_jsonl_partial",
    "report_text",
    "run_campaign",
    "shard_payloads",
    "spec_fingerprint",
    "tail_jsonl",
    "validate_merge_conflicts_file",
    "write_json_artifact",
    "write_jsonl",
    "write_report_artifacts",
    "write_shard_manifest",
]
