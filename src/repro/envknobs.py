"""The registry of every ``REPRO_*`` environment knob, and its one reader.

Every knob is declared in :data:`KNOWN_KNOBS` and read through
:func:`read`, which raises on a key the registry does not declare, so a
knob cannot be read without being declared.  ``tools/sa`` (rule
``env-knobs``) flags any ``os.environ``/``os.getenv`` access with a
``REPRO_*`` key outside this module, and a test checks that every
declared key is read somewhere.

Keys map to a one-line description of what the knob does and where it is
honored.  The knob *semantics* live with their readers (``faults.py``,
``durable.py``, ...); this is the index, not the implementation.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional

__all__ = ["KNOWN_KNOBS", "read"]

KNOWN_KNOBS: Dict[str, str] = {
    "REPRO_FAULTS": (
        "fault-injection plan for chaos legs; parsed by "
        "runtime.faults.FaultPlan.from_env"
    ),
    "REPRO_NO_NUMPY": (
        "force the pure-Python columnar kernel backend even when numpy "
        "imports (graph.columnar, read at import time)"
    ),
    "REPRO_NO_FSYNC": (
        "skip durability fsyncs in persistence.durable (faster CI, "
        "weaker crash guarantees)"
    ),
    "REPRO_BENCH_SCALE": (
        "benchmark/experiment size preset: smoke|small|medium|large "
        "(analysis.experiments, benchmarks/)"
    ),
}


def read(key: str, environ: Mapping[str, str] = os.environ) -> Optional[str]:
    """The value of the declared knob ``key`` in ``environ``, or None when
    it is unset.  Raises :class:`ValueError` for an undeclared key."""
    if key not in KNOWN_KNOBS:
        raise ValueError(f"{key!r} is not a declared knob in repro.envknobs")
    return environ.get(key)
