"""Checkpoint directories: rolling snapshots plus a coordinator manifest.

A checkpoint *directory* is what the CLI (and the sharded runtime) roll
forward as a stream is processed:

* one binary engine snapshot per shard, named
  ``ckpt-<sequence>-shard-<worker_id>.bin`` (an in-process run is
  "shard 0" of a one-shard layout);
* ``manifest.json`` — small, human-readable coordinator metadata: the
  stream cursor, the shard → snapshot-file map, the query placement and
  the runtime configuration needed to resume with an identical layout.

Writes are crash-safe in the usual rename dance: snapshot files for the
*new* sequence are written first, then the manifest is atomically
replaced, then stale snapshot files from older sequences are pruned. A
crash at any point leaves the directory resumable from the manifest's
sequence (the worst case is a few orphaned ``ckpt-*`` files, which the
next successful checkpoint removes).

Every checkpoint is written by
:meth:`~repro.runtime.sharded.ShardedEngine.checkpoint` (or re-cut by
:func:`~repro.persistence.migrate.migrate_checkpoint`) as a ``sharded``
manifest. Older builds also wrote ``single`` manifests for an in-process
run; :func:`read_manifest` reads those as the one-shard layout they are.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import CheckpointError
from . import durable

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro-graph-checkpoint"
#: Version 2 adds the per-query slice index: every ``queries`` entry
#: carries the ``shard`` (worker id) whose snapshot file holds that
#: query's state slice, so shard-layout migration can locate each slice
#: without decoding snapshots.
MANIFEST_VERSION = 2
READABLE_MANIFEST_VERSIONS = (2,)

#: Checkpoint directory modes. Every write is ``sharded``; ``single`` is
#: only read, from directories older builds wrote for an in-process run.
MODE_SINGLE = "single"
MODE_SHARDED = "sharded"
#: ``ShardedEngine``'s default batch size, for a ``single`` manifest
#: that recorded none.
_LEGACY_BATCH_SIZE = 256


def shard_filename(sequence: int, worker_id: int) -> str:
    """Snapshot file name for one shard of one checkpoint sequence."""
    return f"ckpt-{sequence:06d}-shard-{worker_id}.bin"


def window_to_json(width: float) -> Optional[float]:
    """JSON has no ``inf``; an unbounded window is stored as ``null``."""
    return None if math.isinf(width) else width


def window_from_json(value: Optional[float]) -> float:
    return math.inf if value is None else float(value)


def write_manifest(directory: Union[str, Path], manifest: Dict) -> None:
    """Durably publish ``manifest`` and prune snapshots it orphans.

    The snapshot files a manifest references were each fsynced before
    their own rename (:func:`~repro.persistence.snapshot.write_snapshot_bytes`),
    so by the time the manifest rename is fsynced here the whole
    checkpoint — data blocks and directory entries — has reached the
    disk. A power cut at any point leaves the directory resumable from
    whichever manifest generation last completed this dance.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    manifest = dict(manifest)
    manifest.setdefault("format", MANIFEST_FORMAT)
    manifest.setdefault("version", MANIFEST_VERSION)
    target = root / MANIFEST_NAME
    tmp = root / (MANIFEST_NAME + ".tmp")
    durable.write_durable_bytes(
        tmp, (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
    )
    durable.durable_replace(tmp, target)
    _prune(root, {shard["file"] for shard in manifest.get("shards", ())})


def _prune(root: Path, keep: set) -> None:
    # Stale snapshots from older sequences, plus any *.tmp left by a
    # crash between write and rename (their embedded sequence numbers
    # never recur, so nothing else would ever clean them up).
    stale = [p for p in root.glob("ckpt-*.bin") if p.name not in keep]
    stale.extend(root.glob("*.tmp"))
    for path in stale:
        try:
            path.unlink()
        except OSError:
            pass  # best effort; a stale file never wins over the manifest


def read_manifest(directory: Union[str, Path]) -> Dict:
    """Load and validate ``manifest.json`` from a checkpoint directory.

    A legacy ``single`` manifest already has the one-shard layout; it is
    returned as a ``sharded`` one, its missing partitioner read as
    ``"cost"`` and its missing batch size as the engine default.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"no checkpoint manifest at {path}: {exc}") from exc
    try:
        manifest = json.loads(text)
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise CheckpointError(f"{path} is not a {MANIFEST_FORMAT!r} manifest")
    version = manifest.get("version")
    if version not in READABLE_MANIFEST_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint manifest version {version!r}; this "
            f"build reads versions {READABLE_MANIFEST_VERSIONS}"
        )
    for key in ("mode", "sequence", "cursor", "shards", "queries"):
        if key not in manifest:
            raise CheckpointError(
                f"checkpoint manifest {path} is missing the {key!r} field"
            )
    if manifest["mode"] == MODE_SINGLE:
        manifest["mode"] = MODE_SHARDED
        manifest["partitioner"] = manifest.get("partitioner") or "cost"
        manifest["batch_size"] = manifest.get("batch_size") or _LEGACY_BATCH_SIZE
    return manifest


def query_entries(specs) -> List[Dict]:
    """Manifest ``queries`` section from an iterable of objects carrying
    ``position`` / ``name`` / ``strategy`` / ``query`` (:class:`QuerySpec`
    shaped); the edge signature pins the structural identity. The
    version-2 per-query slice index (``shard``) is stamped by
    :func:`sharded_manifest`."""
    from ..sjtree.serialize import edge_signature

    return [
        {
            "position": spec.position,
            "name": spec.name,
            "strategy": spec.strategy,
            "signature": edge_signature(spec.query),
        }
        for spec in specs
    ]


def sharded_manifest(
    *,
    sequence: int,
    cursor: int,
    events_streamed: int,
    window: Optional[float],
    workers: int,
    batch_size: Optional[int],
    partitioner: Optional[str],
    queries: List[Dict],
    shards: List[Dict],
) -> Dict:
    """Assemble a ``sharded``-mode manifest dict.

    The single construction site for both writers
    (:meth:`ShardedEngine.checkpoint` and
    :func:`~repro.persistence.migrate.migrate_checkpoint`), so the key
    set cannot drift between a rolling checkpoint and a migrated one.
    Every ``queries`` entry gets its version-2 ``shard`` slice index
    stamped from the ``shards`` placement.
    """
    shard_of = {
        position: entry["worker_id"]
        for entry in shards
        for position in entry["positions"]
    }
    return {
        "mode": MODE_SHARDED,
        "sequence": sequence,
        "cursor": cursor,
        "events_streamed": events_streamed,
        "window": window,
        "workers": workers,
        "batch_size": batch_size,
        "partitioner": partitioner,
        "queries": [
            {**entry, "shard": shard_of.get(entry["position"], 0)}
            for entry in queries
        ],
        "shards": shards,
    }


def query_shard_index(manifest: Dict) -> Dict[str, Optional[int]]:
    """Per-query slice index: query name → worker id holding its slice
    (``None`` where an entry lacks it, which migration rejects)."""
    return {entry["name"]: entry.get("shard") for entry in manifest["queries"]}


def match_queries(manifest: Dict, queries) -> List:
    """Order caller-provided query graphs by manifest position.

    Validates name coverage and edge signatures; raises
    :class:`CheckpointError` on any mismatch so a resume against the
    wrong query files fails loudly before touching worker state.
    """
    from ..sjtree.serialize import edge_signature

    by_name = {}
    for query in queries:
        if not query.name:
            raise CheckpointError(
                "every query passed to resume must carry a name "
                "(checkpoint state is matched to queries by name)"
            )
        if query.name in by_name:
            raise CheckpointError(f"duplicate query name {query.name!r}")
        by_name[query.name] = query
    entries = sorted(manifest["queries"], key=lambda entry: entry["position"])
    ordered = []
    for entry in entries:
        query = by_name.pop(entry["name"], None)
        if query is None:
            raise CheckpointError(
                f"checkpoint contains query {entry['name']!r} but it was "
                "not provided for resume"
            )
        actual = edge_signature(query)
        if actual != entry["signature"]:
            raise CheckpointError(
                f"query {entry['name']!r} does not match the checkpoint: "
                f"checkpoint has edges {entry['signature']!r}, provided "
                f"query has {actual!r}"
            )
        ordered.append(query)
    if by_name:
        raise CheckpointError(
            f"queries {sorted(by_name)} were provided for resume but are "
            "not in the checkpoint; the query set must match exactly"
        )
    return ordered
