"""Shard-layout migration: re-cut a checkpoint for a new worker count.

A checkpoint directory written at N workers pins a shard layout — each
snapshot file holds one worker's graph window plus the state slices of
the queries placed on it. This module is the bridge that makes those
checkpoints **layout-independent**: :func:`migrate_checkpoint` takes the
per-shard snapshots apart (:func:`~repro.persistence.snapshot.split_snapshot`),
repartitions the queries over ``M`` workers with the greedy
cost-balanced policy fed by the *live* statistics the checkpoint carries
(warmup estimator plus the live window mix — not the launch-time
estimate), and recombines the per-query slices into ``M`` fresh shard
snapshots plus a new manifest
(:func:`~repro.persistence.snapshot.merge_shard_slices` /
:func:`~repro.persistence.snapshot.compose_snapshot`).

The rewritten directory is a first-class checkpoint: resuming it at the
new layout emits records byte-identical to an uninterrupted
single-process run (the bar ``tests/test_migration.py`` enforces for
N→M at multiple cut points). ``M=1`` re-cuts a checkpoint into one
shard, which :class:`~repro.runtime.sharded.ShardedEngine` runs
in-process; a ``single``-mode directory from an older build reads as
the one-shard layout it is (:func:`~repro.persistence.manifest.read_manifest`).

Used by :meth:`~repro.runtime.sharded.ShardedEngine.resume` (``workers=``)
and :meth:`~repro.runtime.sharded.ShardedEngine.rebalance`, and exposed
directly as the ``repro-graph rebalance`` CLI subcommand.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import CheckpointError
from ..graph.types import Edge
from ..runtime.partition import (
    ShardPlan,
    estimate_query_cost,
    greedy_balanced,
    round_robin,
)
from ..search.engine import algorithm_class
from ..stats.estimator import SelectivityEstimator
from . import manifest as manifest_mod
from .snapshot import (
    SnapshotSlices,
    compose_snapshot,
    estimator_from_section,
    merge_shard_slices,
    read_snapshot_bytes,
    split_snapshot,
    write_snapshot_bytes,
)

PARTITIONERS = ("cost", "round-robin")


def combined_alphabet(strategies, queries) -> Optional[frozenset]:
    """Edge-type alphabet of one shard's queries; ``None`` = every edge.

    Mirrors :meth:`ShardedEngine.shard_alphabet`, computed from strategy
    names (via each strategy's algorithm class) so no live algorithm
    instance is needed.
    """
    combined: set = set()
    for strategy, query in zip(strategies, queries):
        alphabet = algorithm_class(strategy).static_relevant_etypes(query)
        if alphabet is None:
            return None
        combined |= alphabet
    return frozenset(combined)


def live_estimator(parts: List[SnapshotSlices]) -> SelectivityEstimator:
    """The statistics to repartition by: warmup estimator + live window.

    Every shard snapshot carries the launch-time warmup estimator (they
    are identical copies unless ``update_statistics`` was enabled); on
    top of it the union of the live graph windows is folded in, so a
    stream whose edge-type mix has drifted since warmup repartitions by
    what the window holds *now*, not by the launch-time distribution.
    """
    estimator = estimator_from_section(parts[0].estimator)
    seen: set = set()
    for part in parts:
        for edge_id, src, dst, etype, timestamp in part.graph.edges:
            if edge_id in seen:
                continue
            seen.add(edge_id)
            estimator.observe(
                Edge(
                    edge_id=edge_id,
                    src=src,
                    dst=dst,
                    etype=etype,
                    timestamp=timestamp,
                )
            )
    return estimator


def plan_layout(costs: List[float], workers: int, partitioner: str) -> List[ShardPlan]:
    """Partition query positions over ``workers`` shards."""
    if partitioner not in PARTITIONERS:
        raise CheckpointError(
            f"unknown partitioner {partitioner!r}; expected one of "
            f"{PARTITIONERS}"
        )
    if partitioner == "round-robin":
        return round_robin(len(costs), workers)
    return greedy_balanced(costs, workers)


def migrate_checkpoint(
    directory: Union[str, Path],
    queries,
    *,
    workers: int,
    partitioner: Optional[str] = None,
    out: Optional[Union[str, Path]] = None,
) -> Dict:
    """Re-cut the checkpoint at ``directory`` for ``workers`` shards.

    ``queries`` must be the checkpoint's query set (matched by name,
    validated by edge signature). ``partitioner`` defaults to the policy
    recorded in the manifest. With ``out=None`` the directory is
    rewritten in place — new shard files first, then the manifest is
    atomically replaced and the old layout's files are pruned, the same
    crash-safety dance as a rolling checkpoint; with ``out`` set the
    source directory is left untouched and a fresh checkpoint directory
    is created. Returns the new manifest.
    """
    if workers < 1:
        raise CheckpointError(f"workers must be >= 1, got {workers}")
    root = Path(directory)
    manifest = manifest_mod.read_manifest(root)
    ordered = manifest_mod.match_queries(manifest, queries)
    entries = sorted(manifest["queries"], key=lambda entry: entry["position"])
    strategy_of = {entry["name"]: entry["strategy"] for entry in entries}
    slice_index = manifest_mod.query_shard_index(manifest)

    shards = sorted(manifest["shards"], key=lambda entry: entry["worker_id"])
    part_slot = {entry["worker_id"]: slot for slot, entry in enumerate(shards)}
    parts = [
        split_snapshot(read_snapshot_bytes(root / entry["file"])) for entry in shards
    ]
    owner: Dict[str, int] = {}
    for query in ordered:
        worker_id = slice_index.get(query.name)
        if worker_id is None or worker_id not in part_slot:
            raise CheckpointError(
                f"checkpoint manifest does not place query {query.name!r} "
                "on any shard; checkpoint is inconsistent"
            )
        owner[query.name] = part_slot[worker_id]

    partitioner = partitioner or manifest["partitioner"]
    estimator = live_estimator(parts)
    costs = [estimate_query_cost(query, estimator) for query in ordered]
    plan = plan_layout(costs, workers, partitioner)

    sequence = manifest["sequence"] + 1
    out_root = Path(out) if out is not None else root
    out_root.mkdir(parents=True, exist_ok=True)
    shards_entry = []
    for shard in plan:
        names = [ordered[position].name for position in shard.positions]
        alphabet = combined_alphabet(
            [strategy_of[name] for name in names],
            [ordered[position] for position in shard.positions],
        )
        merged = merge_shard_slices(
            parts,
            names,
            owner,
            alphabet=alphabet,
            next_edge_id=manifest["events_streamed"],
            cursor=manifest["cursor"],
        )
        filename = manifest_mod.shard_filename(sequence, shard.worker_id)
        write_snapshot_bytes(compose_snapshot(merged), out_root / filename)
        shards_entry.append(
            {
                "worker_id": shard.worker_id,
                "file": filename,
                "positions": list(shard.positions),
            }
        )

    new_manifest = manifest_mod.sharded_manifest(
        sequence=sequence,
        cursor=manifest["cursor"],
        events_streamed=manifest["events_streamed"],
        window=manifest["window"],
        workers=workers,
        batch_size=manifest["batch_size"],
        partitioner=partitioner,
        queries=[
            {
                "position": entry["position"],
                "name": entry["name"],
                "strategy": entry["strategy"],
                "signature": entry["signature"],
            }
            for entry in entries
        ],
        shards=shards_entry,
    )
    manifest_mod.write_manifest(out_root, new_manifest)
    return new_manifest
