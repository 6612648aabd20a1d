"""Checker registry: every invariant checker the engine knows about."""

from __future__ import annotations

from typing import List

from ..core import Checker
from .codec_tags import CodecTagsChecker
from .determinism import DeterminismChecker
from .env_knobs import EnvKnobsChecker
from .hotpath import HotPathChecker
from .typed_errors import TypedErrorsChecker


def all_checkers() -> List[Checker]:
    return [
        DeterminismChecker(),
        TypedErrorsChecker(),
        HotPathChecker(),
        CodecTagsChecker(),
        EnvKnobsChecker(),
    ]


__all__ = ["all_checkers"]
