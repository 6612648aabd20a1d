"""repro — a reproduction of *"A Selectivity based approach to Continuous
Pattern Detection in Streaming Graphs"* (Choudhury, Holder, Chin, Agarwal,
Feo — EDBT 2015).

The library implements continuous subgraph isomorphism over streaming,
directed, typed multigraphs maintained in a sliding time window. The core
machinery is the paper's **SJ-Tree** query decomposition with **Lazy
Search**, driven by 1-edge and 2-edge-path **selectivity statistics**
estimated from the stream, plus the selectivity-agnostic baselines it is
evaluated against.

Quickstart
----------
>>> import math
>>> from repro import ContinuousQueryEngine, EdgeEvent, QueryGraph
>>> engine = ContinuousQueryEngine(window=math.inf)
>>> prefix = [EdgeEvent("a", "b", "TCP", 0.0), EdgeEvent("b", "c", "ICMP", 1.0)]
>>> engine.warmup(prefix)
2
>>> query = QueryGraph.path(["TCP", "ICMP"], name="two-hop")
>>> registered = engine.register(query, strategy="auto")
>>> records = []
>>> for event in [EdgeEvent("x", "y", "TCP", 2.0), EdgeEvent("y", "z", "ICMP", 3.0)]:
...     records.extend(engine.process_event(event))
>>> len(records)
1
"""

from .errors import (
    CheckpointError,
    DecompositionError,
    EstimationError,
    GraphError,
    ParseError,
    QueryError,
    ReproError,
    SerializationError,
    StrategyError,
)
from .graph import Edge, EdgeEvent, StreamingGraph, TimeWindow
from .isomorphism import Match, find_anchored_matches, find_isomorphisms
from .query import (
    QueryEdge,
    QueryGraph,
    denial_of_service,
    information_exfiltration,
    insider_infiltration,
    parse_query,
)
from .runtime import ShardedEngine
from .search import (
    ContinuousQueryEngine,
    DynamicGraphSearch,
    EngineConfig,
    LazySearch,
    MatchRecord,
    RunResult,
    choose_strategy,
)
from .sjtree import SJTree, build_sj_tree
from .stats import (
    RELATIVE_SELECTIVITY_THRESHOLD,
    SelectivityEstimator,
    count_two_edge_paths,
    expected_selectivity,
    relative_selectivity,
)

__version__ = "1.0.0"

__all__ = [
    "CheckpointError",
    "ContinuousQueryEngine",
    "DecompositionError",
    "DynamicGraphSearch",
    "Edge",
    "EdgeEvent",
    "EngineConfig",
    "EstimationError",
    "GraphError",
    "LazySearch",
    "Match",
    "MatchRecord",
    "ParseError",
    "QueryEdge",
    "QueryError",
    "QueryGraph",
    "RELATIVE_SELECTIVITY_THRESHOLD",
    "ReproError",
    "RunResult",
    "SJTree",
    "SelectivityEstimator",
    "SerializationError",
    "ShardedEngine",
    "StrategyError",
    "StreamingGraph",
    "TimeWindow",
    "build_sj_tree",
    "choose_strategy",
    "count_two_edge_paths",
    "denial_of_service",
    "expected_selectivity",
    "find_anchored_matches",
    "find_isomorphisms",
    "information_exfiltration",
    "insider_infiltration",
    "parse_query",
    "relative_selectivity",
    "__version__",
]
