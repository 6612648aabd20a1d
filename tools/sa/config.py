"""Repo-specific configuration for the invariant checkers.

Everything a checker knows about *this* codebase — which modules are
emission-order-sensitive, which functions are hot, where the codec and
the env-knob registry live — is declared here, so the checkers
themselves stay generic AST machinery and the fixture tests can point
the same checkers at synthetic trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple


@dataclass
class Config:
    # -- determinism ----------------------------------------------------
    #: path fragments of emission-order-sensitive packages: iterating a
    #: set there can leak the interpreter hash seed into emission order.
    order_sensitive_dirs: Tuple[str, ...] = (
        "isomorphism/",
        "sjtree/",
        "search/",
    )
    #: methods known to return sets — calling code cannot see the type,
    #: so the checker must (Match.data_vertices is the PR 5 incident).
    set_returning_methods: FrozenSet[str] = frozenset(
        {
            "data_vertices",
            "query_edge_ids",
            "intersection",
            "union",
            "difference",
            "symmetric_difference",
        }
    )

    # -- typed errors ---------------------------------------------------
    #: packages whose raises must come from the repro.errors hierarchy.
    typed_error_dirs: Tuple[str, ...] = ("src/repro/",)
    #: exception names whose direct raise is always a finding there.
    banned_raises: FrozenSet[str] = frozenset(
        {"RuntimeError", "Exception", "BaseException"}
    )

    # -- hot-path hygiene -----------------------------------------------
    #: (path suffix, function-name prefix) pairs naming the hot functions.
    #: A name ending in ``*`` is a prefix match.
    hot_functions: Tuple[Tuple[str, str], ...] = (
        ("search/engine.py", "_process_chunk*"),
        ("search/engine.py", "process_events"),
        ("search/engine.py", "process_rows"),
        ("search/engine.py", "_process_stream"),
        ("isomorphism/plan.py", "execute_plan*"),
        ("isomorphism/plan.py", "execute_vertex_plan"),
        ("search/lazy.py", "_enable_and_backfill"),
        ("isomorphism/plan.py", "_descend"),
        ("isomorphism/plan.py", "_run"),
        ("isomorphism/plan.py", "_emit"),
        ("isomorphism/match.py", "join*"),
        ("sjtree/tree.py", "insert*"),
        ("sjtree/tree.py", "join_siblings"),
        ("sjtree/node.py", "insert"),
        ("sjtree/node.py", "probe"),
        ("sjtree/node.py", "expire"),
        ("runtime/wire.py", "encode_records"),
    )
    #: string-keyed graph API calls that have interned-code twins; hot
    #: functions must use the ``*_code`` variants.
    string_keyed_graph_calls: Dict[str, str] = field(
        default_factory=lambda: {
            "out_edges": "out_edges_code",
            "in_edges": "in_edges_code",
            "vertex_type": "vertex_type_code",
            "edges_of_type": "edges_of_type_code",
        }
    )
    #: attribute chains of this depth (dots) repeated inside one loop of
    #: a hot function should be hoisted to locals.
    hoist_min_depth: int = 2
    hoist_min_uses: int = 2

    # -- codec tags -----------------------------------------------------
    #: module holding the ``_TAG_*`` constants + encoder/decoder.
    codec_module: str = "persistence/binary.py"
    #: module holding the paired snapshot section writers/readers.
    snapshot_module: str = "persistence/snapshot.py"
    #: prefixes of writer function names and of their reader twins.
    section_writer_prefix: str = "_dump_"
    section_reader_prefixes: Tuple[str, ...] = ("_read_", "_load_", "_restore_")
    #: irregularly named writer -> reader pairs.
    section_pairs: Dict[str, str] = field(
        default_factory=lambda: {
            "_dump_query_state": "_restore_query",
            "_dump_tree_state": "_load_tree",
        }
    )

    # -- env knobs ------------------------------------------------------
    #: the one module allowed to read REPRO_* keys from the environment.
    env_registry_module: str = "envknobs.py"
    #: only keys with this prefix are governed.
    env_prefix: str = "REPRO_"


DEFAULT_CONFIG = Config()
