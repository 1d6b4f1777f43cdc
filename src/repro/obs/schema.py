"""Field checks shared by the JSON / JSONL sidecar validators.

Telemetry records, quarantine lines, merge-conflict lines and shard
manifests all declare their schema as ``{field name: type}``;
:func:`check_fields` enforces one such map and :func:`jsonl_objects`
reads a JSONL sidecar line by line with a ``path: line N`` prefix for
every error.
"""

from __future__ import annotations

import json


def _type_ok(value, expected: type) -> bool:
    # bools are not acceptable ints (or floats); ints are acceptable
    # floats (JSON round-trips 1.0 -> 1 sometimes); lists hold run
    # counts/indices, so their items must be ints.
    if isinstance(value, bool) and expected is not bool:
        return False
    if expected is float:
        return isinstance(value, (int, float))
    if expected is list:
        return isinstance(value, list) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        )
    return isinstance(value, expected)


def check_fields(entry: dict, fields: dict[str, type], where: str) -> None:
    """Raise ``ValueError`` naming ``where`` unless every field in
    ``fields`` is present in ``entry`` with the declared type."""
    for name, expected in fields.items():
        if name not in entry:
            raise ValueError(f"{where}: missing field {name!r}")
        value = entry[name]
        if not _type_ok(value, expected):
            raise ValueError(
                f"{where}: field {name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}"
            )


def jsonl_objects(path, what: str):
    """Yield ``(where, entry)`` for each non-blank line of a JSONL file.

    ``where`` is the ``"<path>: line <N>"`` prefix for the caller's own
    errors.  A line that is not JSON, or not a JSON object (``what``
    names the expected entry), raises ``ValueError`` with that prefix.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {lineno}"
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            if not isinstance(entry, dict):
                raise ValueError(
                    f"{where}: {what} must be an object, "
                    f"got {type(entry).__name__}"
                )
            yield where, entry
