"""Deterministic fault injection for the sharded runtime.

The supervisor (:mod:`repro.runtime.supervisor`) claims the engine
survives worker crashes with byte-identical output; this module is the
harness that *proves* it. A :class:`FaultPlan` is a declarative list of
faults — worker kills, queue stalls, checkpoint-write failures, snapshot
corruption — each pinned to a deterministic trigger point:

* ``kill``: the worker hard-exits (``os._exit``) immediately before
  processing the stream event with global index ``at_event``. Events
  below the threshold in the same batch are processed first, so the kill
  lands at event granularity no matter how the coordinator batched the
  wire — the same cut point every run.
* ``stall``: the worker sleeps ``stall_seconds`` once, when the first
  event at or past ``at_event`` arrives — a stand-in for a wedged
  worker, detected by the supervisor's heartbeat-age timeout.
* ``checkpoint_fail``: the next ``times`` checkpoint requests fail with
  an ``OSError`` before any bytes are written (a full/readonly disk).
* ``corrupt_snapshot``: the snapshot file a checkpoint writes is
  corrupted *after* a successful write — the torn-write scenario the
  CRC trailer in :mod:`repro.persistence.durable` must catch.

Triggers are expressed against **global stream positions** (the pinned
edge ids every worker already shares), so a fault fires at the same
logical point regardless of batch size, shard routing or replay. The
``incarnation`` field arms a fault in exactly one incarnation of a
worker (0 = the original spawn, 1 = after the first restart, ...): a
kill at event 600 in incarnation 0 does not re-fire when the supervisor
replays event 600 into the respawned incarnation 1, and chained faults
(kill the replacement too) are expressed by arming incarnation 1.

Plans travel two ways: the :class:`FaultPlan` API (tests, benchmarks)
and the ``REPRO_FAULTS`` environment variable (CLI chaos legs) holding
the plan's JSON — or ``@/path/to/plan.json`` to read it from a file.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from .. import envknobs
from ..errors import FaultInjectionError

__all__ = [
    "FAULTS_ENV",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "corrupt_file",
]

FAULTS_ENV = "REPRO_FAULTS"

FAULT_KINDS = ("kill", "stall", "checkpoint_fail", "corrupt_snapshot")

#: Default exit code for injected kills — distinctive in supervisor logs
#: and restart-reason labels, and outside the Python/posix conventional
#: codes so an injected death is never mistaken for a real one.
KILL_EXITCODE = 17


@dataclass(frozen=True)
class Fault:
    """One deterministic fault. See the module docstring for semantics."""

    kind: str
    worker: int
    at_event: int = 0
    incarnation: int = 0
    times: int = 1
    stall_seconds: float = 0.5
    exitcode: int = KILL_EXITCODE

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.worker < 0:
            raise FaultInjectionError(f"fault worker must be >= 0, got {self.worker}")
        if self.at_event < 0:
            raise FaultInjectionError(
                f"fault at_event must be >= 0, got {self.at_event}"
            )
        if self.incarnation < 0:
            raise FaultInjectionError(
                f"fault incarnation must be >= 0, got {self.incarnation}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable set of :class:`Fault`\\ s. Picklable, so the
    coordinator ships it to workers inside ``_WorkerInit``."""

    faults: Tuple[Fault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    def injector(self, worker_id: int, incarnation: int) -> "FaultInjector":
        """The worker-side injector for one incarnation of one worker."""
        return FaultInjector(
            [
                fault
                for fault in self.faults
                if fault.worker == worker_id and fault.incarnation == incarnation
            ]
        )

    def to_json(self) -> str:
        return json.dumps([asdict(fault) for fault in self.faults])

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise FaultInjectionError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(raw, list):
            raise FaultInjectionError(
                f"fault plan must be a JSON list of fault objects, got "
                f"{type(raw).__name__}"
            )
        faults: List[Fault] = []
        for index, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise FaultInjectionError(
                    f"fault #{index} must be a JSON object, got "
                    f"{type(entry).__name__}"
                )
            unknown = set(entry) - set(Fault.__dataclass_fields__)
            if unknown:
                raise FaultInjectionError(
                    f"fault #{index} has unknown fields {sorted(unknown)}"
                )
            try:
                faults.append(Fault(**entry))
            except TypeError as exc:
                raise FaultInjectionError(f"fault #{index}: {exc}") from exc
        return cls(tuple(faults))

    @classmethod
    def from_env(cls, environ=os.environ) -> Optional["FaultPlan"]:
        """The plan in ``REPRO_FAULTS``, or None when the variable is unset.

        The value is the plan's JSON, or ``@<path>`` naming a JSON file.
        """
        raw = envknobs.read(FAULTS_ENV, environ)
        if raw is None or not raw.strip():
            return None
        raw = raw.strip()
        if raw.startswith("@"):
            path = raw[1:]
            try:
                raw = Path(path).read_text(encoding="utf-8")
            except OSError as exc:
                raise FaultInjectionError(
                    f"cannot read fault plan file {path}: {exc}"
                ) from exc
        return cls.from_json(raw)


class FaultInjector:
    """Worker-side trigger engine for one incarnation's armed faults.

    Lives inside ``_worker_main``; the worker calls :meth:`intercept`
    per batch and the two checkpoint hooks around every snapshot write.
    All state is in-process — a respawned worker builds a fresh injector
    for its own incarnation, which is exactly the once-per-incarnation
    semantics the plan defines.
    """

    def __init__(self, faults: Sequence[Fault]) -> None:
        self._kills = sorted(
            (f for f in faults if f.kind == "kill"), key=lambda f: f.at_event
        )
        self._stalls = sorted(
            (f for f in faults if f.kind == "stall"), key=lambda f: f.at_event
        )
        self._checkpoint_failures = sum(
            f.times for f in faults if f.kind == "checkpoint_fail"
        )
        self._corrupt_snapshots = sum(
            f.times for f in faults if f.kind == "corrupt_snapshot"
        )

    def __bool__(self) -> bool:
        return bool(
            self._kills
            or self._stalls
            or self._checkpoint_failures
            or self._corrupt_snapshots
        )

    # -- batch path --------------------------------------------------------

    def intercept(self, rows: Sequence[tuple]) -> Tuple[Sequence[tuple], bool]:
        """Apply stall/kill triggers to one wire batch.

        ``rows`` are coordinator wire rows whose first element is the
        global stream index. Returns ``(rows_to_process, die)``: the
        caller processes the returned prefix, then — if ``die`` — calls
        :meth:`kill_now`. Events at or past the armed kill's
        ``at_event`` are never processed by this incarnation.
        """
        if self._stalls and rows and rows[-1][0] >= self._stalls[0].at_event:
            stall = self._stalls.pop(0)
            time.sleep(stall.stall_seconds)
        if not self._kills or not rows:
            return rows, False
        threshold = self._kills[0].at_event
        if rows[-1][0] < threshold:
            return rows, False
        prefix = [row for row in rows if row[0] < threshold]
        return prefix, True

    def kill_now(self) -> None:
        """Hard-exit the worker process (no cleanup, no error reply) —
        indistinguishable from an OOM kill or a segfault to the
        coordinator, which is the point."""
        os._exit(self._kills[0].exitcode if self._kills else KILL_EXITCODE)

    # -- checkpoint path ---------------------------------------------------

    def before_checkpoint(self) -> None:
        """Raise ``OSError`` while checkpoint-failure triggers remain."""
        if self._checkpoint_failures > 0:
            self._checkpoint_failures -= 1
            raise OSError("injected checkpoint write failure (fault plan)")

    def after_checkpoint(self, path: Union[str, Path]) -> None:
        """Corrupt the snapshot just written, while triggers remain."""
        if self._corrupt_snapshots > 0:
            self._corrupt_snapshots -= 1
            corrupt_file(path)


def corrupt_file(
    path: Union[str, Path], *, mode: str = "flip", at: Optional[int] = None
) -> None:
    """Deterministically damage a file in place (the torn-write injector).

    ``mode="flip"`` inverts one byte (``at`` defaults to the middle of
    the file); ``mode="truncate"`` cuts the file at ``at`` (defaults to
    half its length) — the classic torn write. Used by the fault plan's
    ``corrupt_snapshot`` kind and directly by crash-safety tests.
    """
    target = Path(path)
    data = bytearray(target.read_bytes())
    if not data:
        return
    if mode == "flip":
        index = len(data) // 2 if at is None else at
        data[index] ^= 0xFF
        target.write_bytes(bytes(data))
    elif mode == "truncate":
        index = len(data) // 2 if at is None else at
        target.write_bytes(bytes(data[:index]))
    else:
        raise FaultInjectionError(
            f"unknown corruption mode {mode!r}; expected 'flip' or 'truncate'"
        )
