"""Durable engine state — checkpoint/restore for long-running streams.

Two layers:

* :mod:`repro.persistence.snapshot` — versioned, compact binary
  snapshots of one :class:`~repro.search.engine.ContinuousQueryEngine`'s
  full live state (vocabulary, graph window, SJ-Tree match tables,
  bitmap/baseline state, selectivity statistics, stream cursor), built
  on the codec in :mod:`repro.persistence.binary`.
* :mod:`repro.persistence.manifest` — rolling checkpoint *directories*:
  per-shard snapshot files plus an atomically-replaced ``manifest.json``
  that the CLI ``resume`` subcommand and
  :meth:`~repro.runtime.sharded.ShardedEngine.resume` read back.

The user-facing entry points are
:meth:`ContinuousQueryEngine.checkpoint` / ``.restore`` and
:meth:`ShardedEngine.checkpoint` / ``.resume``; everything here is the
mechanism behind them.
"""

from .binary import BinaryReader, BinaryWriter
from .manifest import (
    MANIFEST_NAME,
    MODE_SHARDED,
    MODE_SINGLE,
    query_shard_index,
    read_manifest,
    shard_filename,
    window_from_json,
    window_to_json,
    write_manifest,
)
from .migrate import migrate_checkpoint
from .snapshot import (
    SNAPSHOT_VERSION,
    SnapshotSlices,
    compose_snapshot,
    engine_from_bytes,
    engine_to_bytes,
    engine_to_slices,
    load_engine,
    merge_shard_slices,
    save_engine,
    split_snapshot,
)

__all__ = [
    "BinaryReader",
    "BinaryWriter",
    "MANIFEST_NAME",
    "MODE_SHARDED",
    "MODE_SINGLE",
    "SNAPSHOT_VERSION",
    "SnapshotSlices",
    "compose_snapshot",
    "engine_from_bytes",
    "engine_to_bytes",
    "engine_to_slices",
    "load_engine",
    "merge_shard_slices",
    "migrate_checkpoint",
    "query_shard_index",
    "read_manifest",
    "save_engine",
    "shard_filename",
    "split_snapshot",
    "window_from_json",
    "window_to_json",
    "write_manifest",
]
