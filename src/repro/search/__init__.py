"""Continuous search algorithms (S6/S11/S12/S13) and the engine."""

from .adaptive import RefreshReport, migrate, replay_window
from .base import MatchRecord, SearchAlgorithm
from .baseline import IncIsoMatchSearch, PeriodicVF2Search, VF2PerEdgeSearch
from .bitmap import ScanBitmap
from .dynamic import DynamicGraphSearch
from .engine import ContinuousQueryEngine, EngineConfig, RegisteredQuery, RunResult
from .lazy import LazySearch
from .strategy import STRATEGY_NAMES, StrategyDecision, choose_strategy

__all__ = [
    "ContinuousQueryEngine",
    "DynamicGraphSearch",
    "EngineConfig",
    "IncIsoMatchSearch",
    "LazySearch",
    "MatchRecord",
    "PeriodicVF2Search",
    "RefreshReport",
    "RegisteredQuery",
    "RunResult",
    "STRATEGY_NAMES",
    "ScanBitmap",
    "SearchAlgorithm",
    "StrategyDecision",
    "VF2PerEdgeSearch",
    "choose_strategy",
    "migrate",
    "replay_window",
]
