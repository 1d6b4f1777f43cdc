"""``campaign merge``: fuse shard checkpoints into one campaign artifact.

The contract is byte-identity: merging any shard split of a campaign
produces ``results.jsonl`` / ``report.json`` / ``report.txt`` identical
to a single-host run of the same spec, because every shard's records
are validated against the *same* full-matrix expansion the single-host
runner uses, then sorted by run index and written with the same
serializers (:func:`~repro.campaign.aggregate.write_jsonl`,
:func:`~repro.campaign.aggregate.write_report_artifacts`).

Validation is layered, reusing the resume machinery per record and
adding cross-shard checks on top:

* **Provenance** -- a shard whose ``spec.json`` / ``shard.json``
  fingerprint does not match the merge spec refuses the whole merge
  (mixing matrices would silently produce garbage), as do manifests
  that disagree on the shard count.
* **Per record** -- torn final lines are discarded
  (:func:`~repro.campaign.aggregate.read_jsonl_partial`), and records
  whose run_id/seed/params drifted from the expansion are dropped with
  a warning, exactly like ``campaign resume``.
* **Cross shard** -- the same run index appearing in several shards is
  deduplicated when the copies are byte-identical; copies that *differ*
  are a conflict: every copy is quarantined to
  ``merge-conflicts.jsonl`` (schema checked by
  :func:`validate_merge_conflicts_file`) and the index becomes a gap.
* **Gaps** -- missing runs (a lost host, a conflict) refuse the merge
  unless ``allow_partial=True``, which instead writes the merged
  records as a *resumable checkpoint* plus a ``merge-gaps.json``
  manifest; ``campaign resume`` then executes exactly the holes (with
  the runner's own retry/backoff/quarantine machinery) and finalizes
  byte-identical artifacts.  A lost host costs its unfinished runs,
  never the campaign.

Merging is idempotent and order-independent: any shard order, repeated
merges, and re-merging an already-merged directory (a plain campaign
directory is accepted as a degenerate "shard") all yield the same
bytes.
"""

from __future__ import annotations

import json
import os

from repro.campaign.aggregate import (
    aggregate,
    read_jsonl_partial,
    write_json_artifact,
    write_jsonl,
    write_report_artifacts,
)
from repro.campaign.shard import (
    fingerprint_digest,
    load_shard_manifest,
    parse_shard_dir_name,
    spec_fingerprint,
)
from repro.campaign.spec import CampaignSpec
from repro.obs.schema import check_fields, jsonl_objects

#: Conflict quarantine sidecar written into the merge output directory.
MERGE_CONFLICTS = "merge-conflicts.jsonl"

#: Gap manifest written by a partial merge.
MERGE_GAPS = "merge-gaps.json"

#: Bumped when the gap-manifest layout changes incompatibly.
MERGE_GAPS_SCHEMA_VERSION = 1

#: Required fields of one ``merge-conflicts.jsonl`` line.
_CONFLICT_FIELDS = {
    "index": int,
    "run_id": str,
    "shard": str,
    "reason": str,
    "record": dict,
}


class MergeError(ValueError):
    """A merge that must not proceed (mismatched or incomplete shards)."""


def discover_shard_dirs(parent) -> list[str]:
    """The ``shard-i-of-N`` checkpoint directories under ``parent``, sorted.

    Sorting is by (shard_count, shard_index) so e.g. ``shard-2-of-12``
    never lands between ``shard-0-of-3`` and ``shard-1-of-3``; mixed
    shard counts are then caught by the manifest check with a clear
    error instead of an arbitrary ordering.
    """
    parent = os.fspath(parent)
    if not os.path.isdir(parent):
        return []
    found = []
    for name in os.listdir(parent):
        parsed = parse_shard_dir_name(name)
        if parsed is not None and os.path.isdir(os.path.join(parent, name)):
            found.append((parsed[1], parsed[0], os.path.join(parent, name)))
    return [path for _count, _index, path in sorted(found)]


def validate_merge_conflicts_file(path) -> int:
    """Validate every line of a ``merge-conflicts.jsonl``; returns the count.

    Each line quarantines one *copy* of a conflicted run index (all
    copies are kept -- the evidence for diagnosing which host computed
    garbage).  Raises ``ValueError`` on the first malformed line.
    """
    count = 0
    for where, entry in jsonl_objects(path, "conflict entry"):
        check_fields(entry, _CONFLICT_FIELDS, where)
        count += 1
    return count


def _collect_shard_records(spec_dict: dict, payloads: dict, shard_dirs,
                           say) -> tuple[dict, dict]:
    """Validated candidate records per run index, plus per-shard counts.

    Returns ``(candidates, per_shard_kept)`` where ``candidates`` maps
    run index to a list of ``(shard_name, record, canonical_json)`` and
    ``per_shard_kept`` maps shard name to how many records survived
    validation.  Raises :class:`MergeError` on provenance violations.
    """
    expected_digest = fingerprint_digest(spec_dict)
    want = spec_fingerprint(spec_dict)
    candidates: dict[int, list] = {}
    per_shard_kept: dict[str, int] = {}
    shard_counts: dict[str, int] = {}
    for shard_dir in shard_dirs:
        name = os.path.basename(os.path.normpath(os.fspath(shard_dir)))
        if name in per_shard_kept:
            raise MergeError(f"shard directory {name!r} given twice")
        per_shard_kept[name] = 0

        spec_path = os.path.join(shard_dir, "spec.json")
        if os.path.exists(spec_path):
            with open(spec_path, "r", encoding="utf-8") as fh:
                saved = json.load(fh)
            if spec_fingerprint(saved) != want:
                raise MergeError(
                    f"{shard_dir}: spec.json was written by a different "
                    "campaign spec; merging it would mix matrices"
                )
        manifest = load_shard_manifest(shard_dir)
        if manifest is not None:
            if manifest["fingerprint"] != expected_digest:
                raise MergeError(
                    f"{shard_dir}: shard manifest fingerprint "
                    f"{manifest['fingerprint'][:12]}... does not match this "
                    f"spec ({expected_digest[:12]}...); refusing to merge"
                )
            shard_counts[name] = manifest["shard_count"]
            if manifest["status"] != "complete":
                say(f"warning: {shard_dir}: shard is marked "
                    f"{manifest['status']!r} -- merging its partial "
                    "checkpoint")

        results_path = os.path.join(shard_dir, "results.jsonl")
        if not os.path.exists(results_path):
            say(f"warning: {shard_dir}: no results.jsonl; "
                "treating as an empty shard")
            continue
        records, warnings = read_jsonl_partial(results_path)
        for warning in warnings:
            say(f"warning: {warning}")
        for position, record in enumerate(records, 1):
            index = record.get("index")
            payload = payloads.get(index)
            if payload is None:
                say(f"warning: {name}: discarding record {position}: index "
                    f"{index!r} is not in this campaign's run matrix")
                continue
            if (
                record.get("run_id") != payload["run_id"]
                or record.get("seed") != payload["seed"]
                or record.get("params") != payload["params"]
            ):
                say(f"warning: {name}: discarding record for index {index}: "
                    "run_id/seed/params do not match the spec (drifted?)")
                continue
            per_shard_kept[name] += 1
            candidates.setdefault(index, []).append(
                (name, record, json.dumps(record, sort_keys=True))
            )
    if len(set(shard_counts.values())) > 1:
        raise MergeError(
            "shard manifests disagree on the shard count: "
            + ", ".join(f"{n}={c}" for n, c in sorted(shard_counts.items()))
        )
    return candidates, per_shard_kept


def merge_shards(
    spec: CampaignSpec,
    shard_dirs,
    out_dir,
    allow_partial: bool = False,
    echo=None,
    telemetry: bool = False,
) -> dict:
    """Fuse shard checkpoints into ``out_dir``; returns a merge summary.

    See the module docstring for the validation layers.  On a complete
    merge the output directory holds the full single-host artifact set
    (``results.jsonl``, ``report.json``, ``report.txt``, ``spec.json``)
    byte-identical to an unsharded run.  On a partial merge (only with
    ``allow_partial``) it holds the merged records as a resumable
    checkpoint plus ``merge-gaps.json``; finish with ``campaign
    resume``.  Raises :class:`MergeError` when the merge must not
    proceed.

    The summary dict: ``shards``, ``per_shard_runs`` (kept records per
    shard, in the order the dirs were processed after sorting),
    ``runs`` (merged), ``total`` (expected), ``conflicts`` (conflicted
    indices), ``gaps`` (missing indices, conflicts included),
    ``complete``.
    """
    say = echo or (lambda _msg: None)
    shard_dirs = [os.fspath(d) for d in shard_dirs]
    if not shard_dirs:
        raise MergeError("no shard directories to merge")
    out_dir = os.fspath(out_dir)
    spec_dict = spec.to_dict()
    payloads = {r.index: r.to_dict() for r in spec.expand()}

    candidates, per_shard_kept = _collect_shard_records(
        spec_dict, payloads, shard_dirs, say
    )

    merged: dict[int, dict] = {}
    conflicts: list[dict] = []
    for index in sorted(candidates):
        entries = candidates[index]
        if len({canonical for _, _, canonical in entries}) == 1:
            merged[index] = entries[0][1]
            continue
        # Differing payloads for the same run index: with deterministic
        # runs this means a corrupted checkpoint or a mis-provenanced
        # file -- no copy can be trusted, so all of them are quarantined
        # (sorted for order-independent output) and the index is re-run
        # via resume.
        for shard_name, record, canonical in sorted(
            entries, key=lambda e: (e[0], e[2])
        ):
            conflicts.append({
                "index": index,
                "run_id": record.get("run_id", ""),
                "shard": shard_name,
                "reason": "overlapping run index with differing payloads",
                "record": record,
            })
        say(f"conflict: index {index} has {len(entries)} differing copies; "
            f"quarantining all of them to {MERGE_CONFLICTS}")

    conflict_indices = sorted({c["index"] for c in conflicts})
    missing = sorted(set(payloads) - set(merged))
    complete = not missing
    if not complete and not allow_partial:
        preview = ", ".join(str(i) for i in missing[:8])
        if len(missing) > 8:
            preview += ", ..."
        raise MergeError(
            f"merge incomplete: {len(missing)} of {len(payloads)} runs "
            f"missing (indices {preview})"
            + (f"; {len(conflict_indices)} conflicted"
               if conflict_indices else "")
            + " -- re-run the missing shards, or pass --allow-partial to "
            "write a resumable checkpoint plus a gap manifest"
        )

    os.makedirs(out_dir, exist_ok=True)
    conflicts_path = os.path.join(out_dir, MERGE_CONFLICTS)
    if conflicts:
        with open(conflicts_path, "a", encoding="utf-8") as fh:
            for entry in conflicts:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        say(f"quarantined {len(conflicts)} conflicting record copies "
            f"({len(conflict_indices)} run indices) -> {conflicts_path}")

    # The merged spec provenance is the *unsharded* spec: the merge
    # output is a plain campaign directory, resumable and re-mergeable.
    normalized = dict(spec_dict)
    normalized["shards"] = None
    normalized["shard_index"] = None
    write_json_artifact(os.path.join(out_dir, "spec.json"), normalized)

    records = [merged[index] for index in sorted(merged)]
    results_path = os.path.join(out_dir, "results.jsonl")
    tmp = results_path + ".tmp"
    write_jsonl(tmp, records, fsync=True)
    os.replace(tmp, results_path)

    gaps_path = os.path.join(out_dir, MERGE_GAPS)
    if complete:
        report = aggregate(records, mode=spec.summary_mode)
        report["campaign"] = spec.name
        write_report_artifacts(out_dir, report)
        if os.path.exists(gaps_path):
            # a previous partial merge's manifest: the holes are filled
            os.remove(gaps_path)
        say(f"merged {len(shard_dirs)} shard(s): {len(records)}/"
            f"{len(payloads)} runs -> {results_path}")
    else:
        # Partial: the merged records are a valid resume checkpoint; a
        # stale report from an earlier life of this directory would
        # misrepresent it, so drop reports until resume re-finalizes.
        for stale in ("report.json", "report.txt"):
            stale_path = os.path.join(out_dir, stale)
            if os.path.exists(stale_path):
                os.remove(stale_path)
        write_json_artifact(gaps_path, {
            "v": MERGE_GAPS_SCHEMA_VERSION,
            "campaign": spec.name,
            "total_runs": len(payloads),
            "merged_runs": len(records),
            "missing_indices": missing,
            "conflict_indices": conflict_indices,
            "resume": "python -m repro.campaign resume <spec.json> "
                      f"--out {out_dir}",
        })
        say(f"partial merge: {len(records)}/{len(payloads)} runs, "
            f"{len(missing)} gap(s) -> {gaps_path}; finish with "
            "'campaign resume'")

    summary = {
        "campaign": spec.name,
        "shards": len(shard_dirs),
        "per_shard_runs": [per_shard_kept[os.path.basename(
            os.path.normpath(d))] for d in shard_dirs],
        "conflicts": len(conflict_indices),
        "gaps": len(missing),
        "runs": len(records),
        "total": len(payloads),
        "complete": complete,
    }
    if telemetry:
        from repro.obs.telemetry import TelemetryTracker

        tracker = TelemetryTracker(os.path.join(out_dir, "telemetry.jsonl"))
        try:
            tracker.merge(
                campaign=summary["campaign"],
                shards=summary["shards"],
                per_shard_runs=summary["per_shard_runs"],
                conflicts=summary["conflicts"],
                gaps=summary["gaps"],
                runs=summary["runs"],
                total=summary["total"],
                complete=summary["complete"],
            )
        finally:
            tracker.close()
    return summary
