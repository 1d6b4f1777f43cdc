"""Runner telemetry: the fsync'd ``telemetry.jsonl`` sidecar.

When a campaign runs with telemetry enabled, the runner appends one
JSON object per event to ``telemetry.jsonl`` next to ``results.jsonl``:
a ``start`` record when execution begins, a ``batch`` record as each
worker batch lands (wall time, worker pid, runs/sec, retry marker), and
a ``finish`` record with campaign-level totals (overall rate, retry and
timeout counts).  Every line is fsync'd, so a crash loses at most the
record in flight -- the same durability contract as the results stream.

Telemetry records carry wall-clock measurements and are therefore *not*
deterministic; they live strictly outside the byte-compared artifacts
(``results.jsonl``, ``report.json``) and enabling them never changes
those files.  :func:`validate_telemetry_record` /
:func:`validate_telemetry_file` define the schema contract CI checks.
"""

from __future__ import annotations

import json
import os

from repro.obs.schema import check_fields, jsonl_objects

#: Bumped whenever the record layout changes incompatibly; every record
#: carries it as ``"v"`` so consumers can reject files they don't speak.
#: v2: batch records gained fault counters (faults_injected,
#: re_dad_count); new ``abandoned`` kind written on graceful shutdown.
#: v3: start records carry the shard assignment (shard_index,
#: shard_count -- 0/1 for an unsharded run); new ``merge`` kind written
#: by ``campaign merge`` with per-shard run counts and conflict totals.
#: Validation accepts v2 *and* v3 files, so sidecars written before the
#: shard work keep validating.
TELEMETRY_SCHEMA_VERSION = 3

#: Required fields per v2 record kind (beyond the ``v``/``kind`` envelope).
_SCHEMA_V2 = {
    "start": {
        "campaign": str,
        "total_runs": int,
        "pending_runs": int,
        "workers": int,
        "batch_size": int,
        "resumed": bool,
    },
    "batch": {
        "seq": int,
        "runs": int,
        "ok": int,
        "failed": int,
        "wall_s": float,
        "runs_per_sec": float,
        "worker_pid": int,
        "retried": bool,
        "done": int,
        "total": int,
        # Crypto work summed over the batch's ok runs (from their frozen
        # summaries): logical sign/verify ops and LRU verify-cache hits.
        # Deterministic per run -- they ride along here so operators can
        # watch crypto load per batch without touching results.jsonl.
        "crypto_sign_ops": int,
        "crypto_verify_ops": int,
        "crypto_verify_cache_hits": int,
        # Fault-injection work over the batch's ok runs, same contract.
        "faults_injected": int,
        "re_dad_count": int,
    },
    # Written on SIGINT/SIGTERM graceful shutdown, after the last
    # ingested batch: the runs that were dispatched but never landed.
    # Distinguishes a torn tail (in_flight non-empty) from a campaign
    # that was stopped between batches -- `campaign resume` diagnostics
    # read this.  An interrupted file ends with `abandoned` instead of
    # `finish`.
    "abandoned": {
        "signal": str,
        "in_flight": list,
        "done": int,
        "total": int,
    },
    "finish": {
        "runs": int,
        "ok": int,
        "failed": int,
        "timeouts": int,
        "retries": int,
        "wall_s": float,
        "runs_per_sec": float,
    },
}

#: v3 extends v2: sharded provenance on ``start`` plus the ``merge``
#: summary record ``campaign merge`` emits (per-shard run counts and
#: conflict totals, so a fused campaign's telemetry names what each
#: shard contributed and what was quarantined on the way in).
_SCHEMA_V3 = {kind: dict(fields) for kind, fields in _SCHEMA_V2.items()}
_SCHEMA_V3["start"].update({"shard_index": int, "shard_count": int})
_SCHEMA_V3["merge"] = {
    "campaign": str,
    "shards": int,
    "per_shard_runs": list,
    "conflicts": int,
    "gaps": int,
    "runs": int,
    "total": int,
    "complete": bool,
}

#: Schema versions this validator speaks; the writer always emits the
#: newest one.
_SCHEMAS = {2: _SCHEMA_V2, 3: _SCHEMA_V3}


def validate_telemetry_record(record: dict) -> None:
    """Raise ``ValueError`` unless ``record`` matches its version's schema."""
    if not isinstance(record, dict):
        raise ValueError(f"telemetry record must be an object, got {type(record).__name__}")
    schema = _SCHEMAS.get(record.get("v"))
    if schema is None:
        raise ValueError(
            f"telemetry schema version {record.get('v')!r} "
            f"(expected one of {sorted(_SCHEMAS)})"
        )
    kind = record.get("kind")
    fields = schema.get(kind)
    if fields is None:
        raise ValueError(
            f"unknown telemetry record kind {kind!r} for schema "
            f"v{record['v']} (expected one of {sorted(schema)})"
        )
    check_fields(record, fields, f"telemetry {kind!r} record")


def validate_telemetry_file(path) -> int:
    """Validate every record in a ``telemetry.jsonl``; returns the count.

    Checks the schema of each line (v2 and v3 files both validate) plus
    the envelope invariants a whole file must satisfy: the first record
    is ``start`` (an execution narration) or ``merge`` (a ``campaign
    merge`` narration), ``start`` appears at most once, and nothing
    follows a ``finish`` record.  Raises ``ValueError`` on the first
    violation.
    """
    count = 0
    finished = False
    for where, record in jsonl_objects(path, "telemetry record"):
        try:
            validate_telemetry_record(record)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        if finished:
            raise ValueError(f"{where}: record after 'finish'")
        if count == 0 and record["kind"] not in ("start", "merge"):
            raise ValueError(
                f"{where}: first record must be 'start' "
                f"or 'merge', got {record['kind']!r}"
            )
        if count > 0 and record["kind"] == "start":
            raise ValueError(f"{where}: duplicate 'start'")
        if record["kind"] == "finish":
            finished = True
        count += 1
    if count == 0:
        raise ValueError(f"{path}: empty telemetry file")
    return count


class TelemetryTracker:
    """Append-only, fsync'd writer for the ``telemetry.jsonl`` sidecar.

    One tracker per campaign execution; ``start``/``batch``/``finish``
    emit the corresponding record.  The file is truncated on open (a
    resume starts a fresh telemetry story -- the results checkpoint is
    the durable artifact, telemetry narrates one execution).  Safe to
    ``close()`` twice; every record hits the disk before the emitting
    call returns.
    """

    def __init__(self, path):
        self._path = os.fspath(path)
        self._fh = open(self._path, "w", encoding="utf-8")
        self._seq = 0

    @property
    def path(self) -> str:
        return self._path

    def _emit(self, record: dict) -> None:
        record["v"] = TELEMETRY_SCHEMA_VERSION
        validate_telemetry_record(record)
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def start(self, campaign: str, total_runs: int, pending_runs: int,
              workers: int, batch_size: int, resumed: bool,
              shard_index: int = 0, shard_count: int = 1) -> None:
        self._emit({
            "kind": "start",
            "campaign": str(campaign),
            "total_runs": int(total_runs),
            "pending_runs": int(pending_runs),
            "workers": int(workers),
            "batch_size": int(batch_size),
            "resumed": bool(resumed),
            "shard_index": int(shard_index),
            "shard_count": int(shard_count),
        })

    def batch(self, runs: int, ok: int, failed: int, wall_s: float,
              worker_pid: int, done: int, total: int,
              retried: bool = False, crypto_sign_ops: int = 0,
              crypto_verify_ops: int = 0,
              crypto_verify_cache_hits: int = 0,
              faults_injected: int = 0, re_dad_count: int = 0) -> None:
        self._seq += 1
        self._emit({
            "kind": "batch",
            "seq": self._seq,
            "runs": int(runs),
            "ok": int(ok),
            "failed": int(failed),
            "wall_s": round(float(wall_s), 6),
            "runs_per_sec": round(runs / wall_s, 3) if wall_s > 0 else 0.0,
            "worker_pid": int(worker_pid),
            "retried": bool(retried),
            "done": int(done),
            "total": int(total),
            "crypto_sign_ops": int(crypto_sign_ops),
            "crypto_verify_ops": int(crypto_verify_ops),
            "crypto_verify_cache_hits": int(crypto_verify_cache_hits),
            "faults_injected": int(faults_injected),
            "re_dad_count": int(re_dad_count),
        })

    def merge(self, campaign: str, shards: int, per_shard_runs,
              conflicts: int, gaps: int, runs: int, total: int,
              complete: bool) -> None:
        """Summary of one ``campaign merge``: what each shard contributed."""
        self._emit({
            "kind": "merge",
            "campaign": str(campaign),
            "shards": int(shards),
            "per_shard_runs": [int(n) for n in per_shard_runs],
            "conflicts": int(conflicts),
            "gaps": int(gaps),
            "runs": int(runs),
            "total": int(total),
            "complete": bool(complete),
        })

    def abandoned(self, signal_name: str, in_flight, done: int, total: int) -> None:
        """Graceful-shutdown marker: dispatched runs that never landed."""
        self._emit({
            "kind": "abandoned",
            "signal": str(signal_name),
            "in_flight": sorted(int(i) for i in in_flight),
            "done": int(done),
            "total": int(total),
        })

    def finish(self, runs: int, ok: int, failed: int, timeouts: int,
               retries: int, wall_s: float) -> None:
        self._emit({
            "kind": "finish",
            "runs": int(runs),
            "ok": int(ok),
            "failed": int(failed),
            "timeouts": int(timeouts),
            "retries": int(retries),
            "wall_s": round(float(wall_s), 6),
            "runs_per_sec": round(runs / wall_s, 3) if wall_s > 0 else 0.0,
        })

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()
