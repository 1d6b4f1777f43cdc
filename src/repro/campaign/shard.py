"""Sharded campaign execution: deterministic partitioning + provenance.

A campaign shard is one slice of a campaign's run matrix, executed on
its own host (or CI matrix job) with its own crash-safe checkpoint.
The split is a pure function of the *full* expansion: run ``index``
belongs to shard ``index % shard_count``, and seeds/run_ids are derived
before the split, so no shard count or assignment can ever change what
a run computes -- only where it executes.  ``campaign merge``
(:mod:`repro.campaign.merge`) fuses the shard checkpoints back into one
artifact byte-identical to an unsharded run.

Each shard writes its checkpoint under ``<out>/shard-<i>-of-<N>/``:

* ``results.jsonl`` -- the fsync'd streaming checkpoint (same format
  and recovery semantics as a single-host run's);
* ``spec.json`` -- the spec as executed (including this shard's
  ``shards``/``shard_index``, which are folded *out* of the resume
  fingerprint like the retry knobs);
* ``shard.json`` -- the provenance manifest validated here: schema
  version, campaign name, spec fingerprint digest, shard assignment,
  run counts, and a coarse liveness signal (the manifest's mtime is
  touched every time a record lands, so an operator -- or a future
  work-stealing scheduler -- can spot a shard whose host died mid-run
  without parsing its checkpoint).

Fingerprinting lives here too: :func:`spec_fingerprint` strips the
execution/reporting-only spec keys (batch size, summary mode, retry
knobs, shard assignment) so that resume and merge compare only the keys
that determine results.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

from repro.obs.schema import check_fields

#: Manifest filename inside a shard directory.
SHARD_MANIFEST = "shard.json"

#: Bumped when the manifest layout changes incompatibly.
SHARD_SCHEMA_VERSION = 1

#: Spec keys that never change what a run computes: execution strategy
#: (how hard/where the matrix is executed) and report reduction.  They
#: are removed before any fingerprint comparison, so changing them
#: never blocks a resume or a merge.
EXECUTION_ONLY_KEYS = (
    "batch_size",
    "summary_mode",
    "retry_max_attempts",
    "retry_backoff",
    "shards",
    "shard_index",
)

_SHARD_DIR_RE = re.compile(r"^shard-(\d+)-of-(\d+)$")

#: Required manifest fields and their types.
_MANIFEST_FIELDS = {
    "v": int,
    "campaign": str,
    "fingerprint": str,
    "shard_index": int,
    "shard_count": int,
    "total_runs": int,
    "assigned_runs": int,
    "status": str,
}

_MANIFEST_STATUSES = ("running", "complete")


# -- fingerprints --------------------------------------------------------
def spec_fingerprint(data: dict) -> dict:
    """Spec dict minus execution/reporting-only keys.

    The keys in :data:`EXECUTION_ONLY_KEYS` govern how a matrix is
    executed or reported, never what a run computes, so none of them may
    block a resume or a merge.
    """
    data = dict(data)
    for key in EXECUTION_ONLY_KEYS:
        data.pop(key, None)
    return data


def fingerprint_digest(data: dict) -> str:
    """Stable hex digest of a spec's result-determining content.

    Canonical JSON (sorted keys) of :func:`spec_fingerprint`, hashed so
    a shard manifest can carry provenance in one short field.
    """
    canonical = json.dumps(spec_fingerprint(data), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- shard arithmetic ----------------------------------------------------
def parse_shard(text: str) -> tuple[int, int]:
    """Parse an ``i/N`` shard spec into ``(shard_index, shard_count)``.

    Rejects malformed input (``"3/2"``, ``"0/0"``, ``"x/y"``) with a
    one-line ``ValueError`` so the CLI can exit 2 instead of letting a
    bad split traceback deep in the runner.
    """
    match = re.fullmatch(r"(\d+)/(\d+)", str(text).strip())
    if match is None:
        raise ValueError(
            f"shard spec must be i/N (e.g. 0/3), got {text!r}"
        )
    shard_index, shard_count = int(match.group(1)), int(match.group(2))
    if shard_count < 1:
        raise ValueError(f"shard count must be >= 1, got {text!r}")
    if shard_index >= shard_count:
        raise ValueError(
            f"shard index must be in [0, {shard_count}), got {text!r}"
        )
    return shard_index, shard_count


def shard_dir_name(shard_index: int, shard_count: int) -> str:
    """Canonical checkpoint directory name for one shard."""
    return f"shard-{int(shard_index)}-of-{int(shard_count)}"


def parse_shard_dir_name(name: str) -> tuple[int, int] | None:
    """Inverse of :func:`shard_dir_name`; ``None`` for other names."""
    match = _SHARD_DIR_RE.match(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def assigned_to_shard(index: int, shard_index: int, shard_count: int) -> bool:
    """Whether run ``index`` of the full matrix belongs to this shard."""
    return index % shard_count == shard_index


def shard_payloads(payloads: list[dict], shard_index: int,
                   shard_count: int) -> list[dict]:
    """The slice of an expanded matrix assigned to one shard.

    Partitioning is by run index modulo shard count: deterministic,
    disjoint, and (for grids, where neighbouring indices share axis
    values) roughly load-balanced.  The payloads must come from the
    *full* expansion so run_ids and seeds are split-independent.
    """
    return [p for p in payloads
            if assigned_to_shard(p["index"], shard_index, shard_count)]


# -- the provenance manifest --------------------------------------------
def write_shard_manifest(out_dir, spec_dict: dict, shard_index: int,
                         shard_count: int, total_runs: int,
                         assigned_runs: int, status: str = "running") -> str:
    """Write (fsync'd) ``shard.json`` into a shard's checkpoint dir."""
    manifest = {
        "v": SHARD_SCHEMA_VERSION,
        "campaign": str(spec_dict.get("name", "campaign")),
        "fingerprint": fingerprint_digest(spec_dict),
        "shard_index": int(shard_index),
        "shard_count": int(shard_count),
        "total_runs": int(total_runs),
        "assigned_runs": int(assigned_runs),
        "status": str(status),
    }
    validate_shard_manifest(manifest)
    path = os.path.join(os.fspath(out_dir), SHARD_MANIFEST)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_shard_manifest(out_dir) -> dict | None:
    """The validated ``shard.json`` of a directory, or ``None`` if absent."""
    path = os.path.join(os.fspath(out_dir), SHARD_MANIFEST)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    validate_shard_manifest(manifest, source=path)
    return manifest


def validate_shard_manifest(manifest: dict, source: str = "shard manifest") -> None:
    """Raise ``ValueError`` unless ``manifest`` matches the schema."""
    if not isinstance(manifest, dict):
        raise ValueError(
            f"{source}: must be an object, got {type(manifest).__name__}"
        )
    if manifest.get("v") != SHARD_SCHEMA_VERSION:
        raise ValueError(
            f"{source}: schema version {manifest.get('v')!r} "
            f"(expected {SHARD_SCHEMA_VERSION})"
        )
    check_fields(manifest, _MANIFEST_FIELDS, source)
    if manifest["shard_count"] < 1:
        raise ValueError(f"{source}: shard_count must be >= 1")
    if not 0 <= manifest["shard_index"] < manifest["shard_count"]:
        raise ValueError(
            f"{source}: shard_index {manifest['shard_index']} out of range "
            f"for shard_count {manifest['shard_count']}"
        )
    if manifest["status"] not in _MANIFEST_STATUSES:
        raise ValueError(
            f"{source}: status must be one of {_MANIFEST_STATUSES}, "
            f"got {manifest['status']!r}"
        )


def touch_heartbeat(out_dir) -> None:
    """Bump the manifest mtime: the shard's coarse liveness signal.

    Called by the runner as each record lands, so a stalled mtime on a
    ``"running"`` manifest marks a shard whose host likely died.  Best
    effort -- a missing manifest is ignored, not an error.
    """
    path = os.path.join(os.fspath(out_dir), SHARD_MANIFEST)
    try:
        os.utime(path)
    except OSError:
        pass
