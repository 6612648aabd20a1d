"""SJ-Tree nodes and their match tables.

Each non-root node stores the partial matches for its query subgraph in a
hash table keyed by the projection of the match onto the parent's *cut
subgraph* (Properties 3 and 4). The table supports:

* O(1) insert — with duplicate suppression where the driving algorithm
  asks for it: Lazy Search's retrospective pass may rediscover a match
  the normal pass already stored, and a window replay rediscovers a
  multi-edge leaf match once per constituent edge. Everywhere else a
  duplicate cannot be offered — each left/right pair of an eager tree is
  joined exactly once, by whichever side arrives later — so the table
  keeps no identity set at all;
* O(1) bucket probe (the hash-join of ``UPDATE-SJ-TREE``) returning the
  live bucket **without copying**. Iterating it while the join recursion
  inserts is safe because the tree is left-deep: a nested insert, and a
  Lazy backfill fired by one, only ever touches tables strictly above
  the node whose sibling bucket is being iterated;
* exact expiry of matches whose earliest edge has left the time window —
  once an edge is evicted from the graph no new join partner can contain
  it, and retrospective searches can no longer rediscover it, so keeping
  the partial match would only leak memory.

Storage layout: ``dict key -> list`` of matches in insertion order, the
only order a probe observes (record identity across the sharded runtime
relies on it — workers expire at different stream positions). Interior
matches do not arrive in ``min_time`` order, so expiry is a sweep: every
bucket holding a stale entry is rebuilt, in order, without it. The
engine sweeps on stream time, once per quarter window, not per insert;
between sweeps stale entries stay invisible to joins (``UPDATE-SJ-TREE``
filters probed candidates by the cutoff), and they are at most a quarter
window old. After ``expire(cutoff)`` the table holds exactly the matches
with ``min_time >= cutoff``.

When the graph window is infinite nothing can ever expire and
``track_expiry=False`` makes ``expire`` a no-op; a list-bucket table
keeps no per-insert expiry state either way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..isomorphism.match import (
    JoinPlan,
    Match,
    MatchShape,
    compile_key_plan,
    shape_for_fragment,
)
from ..isomorphism.plan import (
    MatchPlan,
    VertexPlan,
    compile_fragment_plans,
    compile_vertex_plan,
)
from ..query.query_graph import QueryGraph

JoinKey = Tuple  # tuple of data vertex ids (possibly empty)

#: Shared empty probe result. Callers only iterate (or compare) it.
_EMPTY_BUCKET: List[Match] = []


class MatchTable:
    """Hash table of partial matches: list buckets, exact sweep expiry."""

    __slots__ = (
        "_buckets",
        "_seen",
        "_live",
        "inserted_total",
        "probes_total",
        "expired_total",
        "track_expiry",
        "dedup",
    )

    def __init__(self, track_expiry: bool = True, dedup: bool = True) -> None:
        self._buckets: Dict[JoinKey, List[Match]] = {}
        # packed identities (data-edge-id tuples; qeids are constant per
        # table) of live entries — maintained only when ``dedup``
        self._seen: set = set()
        self._live = 0
        #: lifetime insert count (the space-complexity measure of §5.2 uses it)
        self.inserted_total = 0
        #: lifetime probe count — general-path probes only; the fused
        #: trivial-leaf kernels in tree.py bypass this method by design
        self.probes_total = 0
        #: lifetime expired-match count (telemetry)
        self.expired_total = 0
        #: False makes ``expire`` a no-op (infinite-window engines)
        self.track_expiry = track_expiry
        #: False skips duplicate suppression; set (before the first
        #: insert) by algorithms that can never offer a duplicate
        self.dedup = dedup

    def empty_copy(self) -> "MatchTable":
        """A fresh table with this one's configuration."""
        return type(self)(self.track_expiry, self.dedup)

    def insert(self, key: JoinKey, match: Match) -> bool:
        """Store a match under ``key``; False if it is already present."""
        if self.dedup:
            ident = tuple([edge.edge_id for edge in match.edges])
            seen = self._seen
            if ident in seen:
                return False
            seen.add(ident)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [match]
        else:
            bucket.append(match)
        self._live += 1
        self.inserted_total += 1
        return True

    def probe(self, key: JoinKey) -> List[Match]:
        """All matches stored under ``key``, in insertion order.

        Returns the live bucket list (zero-copy; callers only iterate).
        May include entries older than the window cutoff that no sweep
        has reclaimed yet — ``UPDATE-SJ-TREE`` filters candidates by
        ``min_time`` anyway (and so must any other caller joining against
        a finite window).
        """
        self.probes_total += 1
        return self._buckets.get(key, _EMPTY_BUCKET)

    def expire(self, cutoff: float) -> int:
        """Drop matches whose ``min_time`` is strictly below ``cutoff``.

        The cutoff is the graph's edge-eviction cutoff (``t_last − tW``):
        a partial match is retained exactly as long as all its edges are
        still live, which Lazy Search's retrospective joins rely on.
        One pass over the table; only buckets holding a stale entry are
        rebuilt (survivors keep their order), emptied buckets are dropped.
        """
        if not self.track_expiry or not self._live:
            return 0
        buckets = self._buckets
        stale = []
        for key, bucket in buckets.items():
            for match in bucket:
                if match.min_time < cutoff:
                    stale.append(key)
                    break
        dedup = self.dedup
        discard = self._seen.discard
        dropped = 0
        for key in stale:
            bucket = buckets[key]
            kept = []
            for match in bucket:
                if match.min_time >= cutoff:
                    kept.append(match)
                elif dedup:
                    discard(tuple([edge.edge_id for edge in match.edges]))
            dropped += len(bucket) - len(kept)
            if kept:
                buckets[key] = kept
            else:
                del buckets[key]
        self._live -= dropped
        self.expired_total += dropped
        return dropped

    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator[Match]:
        for bucket in self._buckets.values():
            yield from bucket

    def num_buckets(self) -> int:
        return len(self._buckets)


class FIFOLeafTable:
    """Append-only match table for eager single-edge leaf matches.

    :class:`~repro.search.dynamic.DynamicGraphSearch` stores, at a leaf
    covering one query edge, exactly one match per arriving data edge,
    built at the arrival instant — so ``min_time`` equals the stream
    clock and insertion order is globally sorted by ``min_time``. Expiry
    is then strictly front-first, both in the table-wide ring and inside
    every bucket (a bucket is a subsequence of the ring): expiring an
    entry is two ``popleft``\\ s, O(expired) where :class:`MatchTable`
    sweeps the whole table — what leaf insert volume needs. No duplicate
    is ever offered (a data edge reaches a leaf exactly once per stream
    position), so there is no identity set.

    **Not** valid for ``LazySearch``: its retrospective backfill inserts
    matches *older* than the stream clock (breaking the ring order) and
    can rediscover matches the normal pass already stored (needing the
    dedup set). Lazy trees keep the general table.

    ``probe`` returns an immutable snapshot of the bucket deque —
    leaf-sibling probes overwhelmingly miss, so the occasional copy is
    cheap.

    Duck-types the :class:`MatchTable` surface (insert / probe / expire /
    iteration / ``num_buckets`` / ``empty_copy`` / ``inserted_total`` /
    ``track_expiry``). The ring is split into two parallel deques (keys /
    matches) so an insert allocates no entry tuple; the checkpoint writer
    reads the match ring.
    """

    __slots__ = (
        "_buckets",
        "_ring_keys",
        "_ring_matches",
        "_live",
        "inserted_total",
        "probes_total",
        "expired_total",
        "track_expiry",
    )

    def __init__(self, track_expiry: bool = True) -> None:
        self._buckets: Dict[JoinKey, "deque[Match]"] = {}
        # parallel rings in insertion order == ascending min_time
        self._ring_keys: deque = deque()
        self._ring_matches: "deque[Match]" = deque()
        self._live = 0  # maintained only when not track_expiry
        self.inserted_total = 0
        # general-path counters; the fused trivial-leaf kernel in tree.py
        # reads sibling buckets directly and bypasses both by design
        self.probes_total = 0
        self.expired_total = 0
        self.track_expiry = track_expiry

    def empty_copy(self) -> "FIFOLeafTable":
        """A fresh table with this one's configuration."""
        return type(self)(self.track_expiry)

    def insert(self, key: JoinKey, match: Match) -> bool:
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = deque((match,))
        else:
            bucket.append(match)
        if self.track_expiry:
            self._ring_keys.append(key)
            self._ring_matches.append(match)
        else:
            self._live += 1
        self.inserted_total += 1
        return True

    def probe(self, key: JoinKey):
        self.probes_total += 1
        bucket = self._buckets.get(key)
        if bucket is None:
            return _EMPTY_BUCKET
        return tuple(bucket)

    def expire(self, cutoff: float) -> int:
        if not self.track_expiry:
            return 0
        matches = self._ring_matches
        keys = self._ring_keys
        buckets = self._buckets
        dropped = 0
        while matches and matches[0].min_time < cutoff:
            matches.popleft()
            key = keys.popleft()
            bucket = buckets[key]
            # ring order == per-bucket order: the expired match is the head
            bucket.popleft()
            if not bucket:
                del buckets[key]
            dropped += 1
        self.expired_total += dropped
        return dropped

    def __len__(self) -> int:
        if self.track_expiry:
            return len(self._ring_matches)
        return self._live

    def __iter__(self) -> Iterator[Match]:
        for bucket in self._buckets.values():
            yield from bucket

    def num_buckets(self) -> int:
        return len(self._buckets)


@dataclass
class SJTreeNode:
    """One node of the SJ-Tree (Definition 3.1.1).

    ``edge_ids`` identifies the query subgraph ``VSG(n)`` (Property 1/2:
    the root covers all query edges; an internal node covers the union of
    its children). ``cut_vertices`` is the intersection of the children's
    vertex sets (Property 4) — defined for internal nodes. A node's own
    matches are keyed by the *parent's* cut (``key_vertices``).

    ``shape`` / ``key_plan`` / ``join_plan`` are the compiled positional
    artefacts of the allocation-light pipeline: the flat layout of this
    node's matches, the Π-projection extractor for ``key_vertices``, and
    (internal nodes) the sibling join compiled against the children's
    shapes. Populated at tree build; compiled lazily for hand-built trees.
    """

    node_id: int
    fragment: QueryGraph
    edge_ids: frozenset[int]
    parent: Optional[int] = None
    sibling: Optional[int] = None
    left: Optional[int] = None
    right: Optional[int] = None
    leaf_index: Optional[int] = None
    cut_vertices: Tuple[int, ...] = ()
    key_vertices: Tuple[int, ...] = ()
    #: leaf metadata: human label + estimated selectivity of the primitive
    leaf_label: str = ""
    leaf_selectivity: Optional[float] = None
    table: MatchTable = field(default_factory=MatchTable)
    #: compiled anchored-match plans for the fragment (leaf hot path) and
    #: the vertex-anchored plan built from them (Lazy Search's backfill);
    #: populated at tree build, compiled on first use otherwise.
    plans: Optional[Tuple[MatchPlan, ...]] = None
    vertex_plan: Optional[VertexPlan] = None
    shape: Optional[MatchShape] = None
    key_plan: Optional[Tuple[Tuple[int, bool], ...]] = None
    join_plan: Optional[JoinPlan] = None

    def match_plans(self) -> Tuple[MatchPlan, ...]:
        """Compiled edge-anchored plans for this node's fragment; compiles
        :attr:`vertex_plan` beside them."""
        if self.plans is None:
            self.plans = compile_fragment_plans(self.fragment)
            self.vertex_plan = compile_vertex_plan(self.fragment, self.plans)
        return self.plans

    def match_shape(self) -> MatchShape:
        """The flat layout of matches stored at this node."""
        if self.shape is None:
            self.shape = shape_for_fragment(self.fragment)
        return self.shape

    def compiled_key_plan(self) -> Tuple[Tuple[int, bool], ...]:
        """Positional extractor for this node's join key projection."""
        if self.key_plan is None:
            self.key_plan = compile_key_plan(self.match_shape(), self.key_vertices)
        return self.key_plan

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def num_query_edges(self) -> int:
        return len(self.edge_ids)

    def vertices(self) -> frozenset[int]:
        """Query vertices covered by this node's subgraph."""
        return frozenset(self.fragment.vertices())

    def space_estimate(self) -> int:
        """§5.2 space measure: subgraph size × stored match count."""
        return self.num_query_edges * len(self.table)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "leaf" if self.is_leaf else ("root" if self.is_root else "join")
        return (
            f"SJTreeNode(#{self.node_id} {kind} edges={sorted(self.edge_ids)} "
            f"cut={self.cut_vertices} stored={len(self.table)})"
        )
