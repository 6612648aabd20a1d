"""The coordinator↔worker protocol of the sharded runtime.

Every message is a :class:`typing.NamedTuple`, so a producer that drifts
from its consumer fails where the message is built, and every reader
takes fields by name. Tasks travel coordinator → worker on the worker's
bounded task queue; replies travel back on the shared result queue,
each body in one :class:`Reply` envelope that names the worker and its
incarnation (the supervisor drops chatter from dead incarnations).

:data:`TASKS` is the declared task set and the reply pairing in one
table: each task class maps to the reply class its handler answers with,
or ``None`` for a task that is never answered. The worker's handler
table is checked against it when :mod:`repro.runtime.sharded` is
imported (:func:`check_handlers`), and the coordinator awaits exactly
``TASKS[type(task)]`` for every task it posts.

A worker announces itself with :class:`Ready` once its engine is open,
and any failure it cannot survive arrives as :class:`Failed`, the
structured report :meth:`Failed.to_error` turns into a
:class:`~repro.errors.WorkerError`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Type, Union

from ..errors import ReproRuntimeError, WorkerError
from .wire import EdgeRow, RecordRow

#: Deadline for a spawned worker's :class:`Ready` (startup and respawn).
READY_TIMEOUT = 120.0


# -- reply bodies (worker -> coordinator) ------------------------------------


class Ready(NamedTuple):
    """The worker's engine is open and it is reading its task queue."""


class Collected(NamedTuple):
    """Records found since the previous collect, in wire form."""

    seq: int
    edge_rows: List[EdgeRow]
    record_rows: List[RecordRow]
    partial_matches: int


class CheckpointDone(NamedTuple):
    """A snapshot write finished; ``error`` is set when it failed (the
    worker's state is intact either way)."""

    error: Optional[str]


class Described(NamedTuple):
    """The engine's ``describe()`` text."""

    text: str


class MetricsSnapshot(NamedTuple):
    """The worker's registry snapshot plus its merge-buffer depth
    (records matched but not yet collected)."""

    pending_records: int
    families: Dict[str, Any]


class Failed(NamedTuple):
    """Structured report of a failure that ended a worker.

    Carries what the coordinator cannot reconstruct: the formatted
    remote traceback, the worker's query shard, and for a failed batch
    its size and first edge id.
    """

    worker_id: int
    context: str
    queries: List[str]
    type: str
    message: str
    traceback: str
    batch_events: Optional[int] = None
    first_edge_id: Optional[int] = None

    def to_error(self, lead: str = "", exitcode: Optional[int] = None) -> WorkerError:
        """The coordinator-side error; ``lead`` goes before the report."""
        text = (
            f"shard worker {self.worker_id} failed during {self.context} "
            f"(queries={self.queries}"
        )
        if self.batch_events is not None:
            text += (
                f", batch_events={self.batch_events}"
                f", first_edge_id={self.first_edge_id}"
            )
        text += f"): {self.type}: {self.message}"
        text += "\n--- worker traceback ---\n" + self.traceback.rstrip()
        return WorkerError(
            lead + text,
            worker_id=self.worker_id,
            context=self.context,
            exitcode=exitcode,
            remote_traceback=self.traceback,
            payload=self._asdict(),
        )


ReplyBody = Union[Ready, Collected, CheckpointDone, Described, MetricsSnapshot, Failed]


class Reply(NamedTuple):
    """The envelope every reply body travels in."""

    worker_id: int
    incarnation: int
    body: ReplyBody


# -- tasks (coordinator -> worker) -------------------------------------------


class Batch(NamedTuple):
    """Wire rows to ingest: ``(stream index, src, dst, etype, timestamp,
    src_type, dst_type)``."""

    rows: List[tuple]


class Collect(NamedTuple):
    """Send the records found since the previous collect."""

    seq: int


class Checkpoint(NamedTuple):
    """Snapshot the engine to ``path``."""

    path: str


class Describe(NamedTuple):
    """Send the engine's ``describe()`` text."""


class Metrics(NamedTuple):
    """Send a metrics snapshot."""


class Close(NamedTuple):
    """Stop the worker loop (the poison pill)."""


Task = Union[Batch, Collect, Checkpoint, Describe, Metrics, Close]

#: The declared task set, each task with the reply class it is answered
#: with (``None``: never answered).
TASKS: Dict[Type[Task], Optional[Type[ReplyBody]]] = {
    Batch: None,
    Collect: Collected,
    Checkpoint: CheckpointDone,
    Describe: Described,
    Metrics: MetricsSnapshot,
    Close: None,
}


def check_handlers(
    handlers: Mapping[Any, object], tasks: Mapping[Any, object] = TASKS
) -> None:
    """Raise unless ``handlers`` has exactly one entry per declared task."""
    missing = sorted(cls.__name__ for cls in tasks.keys() - handlers.keys())
    unknown = sorted(cls.__name__ for cls in handlers.keys() - tasks.keys())
    if missing or unknown:
        raise ReproRuntimeError(
            f"worker handler table out of step with the task set: "
            f"no handler for {missing}, handlers for undeclared {unknown}"
        )
