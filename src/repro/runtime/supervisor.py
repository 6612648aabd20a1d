"""Supervised worker recovery for the sharded runtime.

The sharded coordinator (:mod:`repro.runtime.sharded`) historically
treated a dead worker as fatal: any crash surfaced as an error and the
whole engine was lost, along with every worker's window state. This
module adds the self-healing layer: a :class:`Supervisor` that detects
worker death (process exitcode, ``Failed`` replies, heartbeat-age
stalls) and — under a :class:`RestartPolicy` — respawns the dead shard
and replays exactly the events it lost, so the merged output stays
**byte-identical to an uninterrupted run**.

Recovery protocol
-----------------
The supervisor shadows the coordinator's dispatch loop:

* Every batch put to a worker is also appended to that worker's
  coordinator-side **replay buffer**.
* When a buffer reaches ``replay_buffer_batches`` the supervisor takes a
  **recovery checkpoint** of that one worker: a targeted ``Collect``
  drains the worker's finished records into a coordinator-side *stash*
  (they are part of the current run's output and must survive the
  worker), then a ``Checkpoint`` task snapshots its engine into the
  supervisor's scratch directory. Each is posted on its own and its
  declared reply (:data:`~repro.runtime.protocol.TASKS`) awaited before
  the next. On success the buffer is cleared and the recovery
  cursor advances to the last dispatched stream index — bounding both
  the buffer and the replay work a crash can cost.
* On death, the replacement worker restores from the newest recovery
  snapshot (or starts cold and re-registers when none exists yet, e.g.
  restoring the original resume checkpoint) and the buffered delta is
  replayed into it. Replay is idempotent at the record level: stream
  indices at or below the worker's *stash cursor* were already stashed
  or returned to the caller, so re-emitted records are deduplicated by
  cursor when the next ``Collected`` reply is filtered.
* Every reply arrives in a ``Reply`` envelope naming the worker and its
  incarnation. Replies for other workers wait in a pending buffer;
  replies from a dead incarnation are dropped. A request in flight when
  its worker died is posted again to the replacement.

Determinism is inherited from the runtime's record-identity design:
edge ids are pinned to global stream indices, so a worker rebuilt from
``snapshot + replayed delta`` reaches exactly the state of one that
never died, and the merge sort reconstructs the single-process emission
order regardless of how many times a shard was respawned.

Failure budget
--------------
Each worker may be restarted at most ``max_restarts`` times over the
engine's lifetime, with exponential backoff (plus deterministic seeded
jitter) between attempts. Exhausting the budget raises
:class:`~repro.errors.WorkerError` carrying the last failure's context —
including the remote traceback when the death crossed the process
boundary as a ``Failed`` reply — so a persistent fault (a poison
batch, a corrupt snapshot) fails fast instead of looping forever.
"""

from __future__ import annotations

import queue as queue_module
import random
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import WorkerError
from ..telemetry.registry import HistogramSlot
from ..telemetry.schema import SECONDS_BUCKETS
from .protocol import (
    READY_TIMEOUT,
    TASKS,
    Batch,
    Checkpoint,
    Collect,
    Collected,
    Failed,
    Ready,
    Reply,
    ReplyBody,
    Task,
)
from .wire import SourcedBatch

__all__ = ["RestartPolicy", "Supervisor", "backoff_delay"]

#: Seed for the backoff jitter: reproducible recovery schedules in tests
#: while still decorrelating restart storms across workers at runtime.
_JITTER_SEED = 0x5EED


@dataclass(frozen=True)
class RestartPolicy:
    """When and how the supervisor restarts a dead shard worker.

    ``max_restarts``
        Per-worker restart budget over the engine's lifetime; exceeding
        it raises :class:`~repro.errors.WorkerError`.
    ``backoff_base`` / ``backoff_factor`` / ``backoff_cap``
        Exponential backoff before each respawn: attempt *n* sleeps
        ``min(base * factor**(n-1), cap)`` seconds.
    ``jitter``
        Symmetric fractional jitter applied to each backoff delay
        (``0.2`` = +/-20%), drawn from a deterministically seeded RNG.
    ``stall_timeout``
        When set, a worker whose reply the coordinator has been awaiting
        for longer than this many seconds — with no heartbeat — is
        declared wedged, terminated and restarted. ``None`` (default)
        disables stall detection: a slow worker on a deep backlog is
        normal, so this knob is opt-in for latency-bounded deployments.
    ``replay_buffer_batches``
        Recovery-checkpoint cadence: when a worker's replay buffer holds
        this many batches, the supervisor cuts a recovery checkpoint and
        clears it, bounding coordinator memory and worst-case replay.
    """

    max_restarts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    jitter: float = 0.2
    stall_timeout: Optional[float] = None
    replay_buffer_batches: int = 64

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be within [0, 1), got {self.jitter}")
        if self.stall_timeout is not None and self.stall_timeout <= 0:
            raise ValueError(f"stall_timeout must be > 0, got {self.stall_timeout}")
        if self.replay_buffer_batches < 1:
            raise ValueError(
                f"replay_buffer_batches must be >= 1, got "
                f"{self.replay_buffer_batches}"
            )


def backoff_delay(
    policy: RestartPolicy, attempt: int, rng: Optional[random.Random] = None
) -> float:
    """Backoff before restart ``attempt`` (1-based): capped exponential.

    Without ``rng`` the schedule is the pure exponential — monotone
    non-decreasing up to ``backoff_cap``; with ``rng`` the delay is
    multiplied by ``1 +/- jitter``.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    delay = min(
        policy.backoff_base * policy.backoff_factor ** (attempt - 1),
        policy.backoff_cap,
    )
    if rng is not None and policy.jitter > 0.0:
        delay *= 1.0 + rng.uniform(-policy.jitter, policy.jitter)
    return max(delay, 0.0)


class _WorkerDied(Exception):
    """Internal signal: one worker needs recovery (never escapes module)."""

    def __init__(
        self, reason: str, failure: Optional[Failed] = None, exitcode=None
    ) -> None:
        super().__init__(reason)
        self.reason = reason
        self.failure = failure
        self.exitcode = exitcode


class Supervisor:
    """Self-healing layer over one :class:`ShardedEngine`'s worker pool.

    Owned by the engine (``supervise=True``) and driven entirely from the
    coordinator thread — the engine's queue protocol stays single-
    threaded. The supervisor mediates every result-queue read so it can
    intercept error replies, drop stale chatter from dead incarnations
    (replies carry the worker's incarnation number) and recover workers
    mid-``gather`` without the caller noticing beyond latency.
    """

    def __init__(self, engine, policy: Optional[RestartPolicy] = None) -> None:
        self._engine = engine
        self._policy = policy if policy is not None else RestartPolicy()
        self._rng = random.Random(_JITTER_SEED)
        n = len(engine._procs)
        base_cursor = engine._events_streamed - 1
        #: batches dispatched since the last recovery checkpoint, per slot
        self._replay: List[List[list]] = [[] for _ in range(n)]
        #: last stream index dispatched to each slot
        self._tip: List[int] = [base_cursor] * n
        #: highest stream index covered by the slot's restore snapshot
        self._cursor: List[int] = [base_cursor] * n
        #: highest stream index whose records were stashed or already
        #: returned to the caller — the replay-dedup threshold
        self._stash_cursor: List[int] = [base_cursor] * n
        #: restore path for the next respawn (recovery snapshot, or the
        #: engine's original resume snapshot, or None = cold re-register)
        self._snapshots: List[Optional[str]] = [
            engine._restore_files.get(shard.worker_id) for shard in engine._shards
        ]
        #: record batches drained by recovery checkpoints (wire form, each
        #: with its own edge dictionary), merged into the next run() result
        self._stash: List[List[SourcedBatch]] = [[] for _ in range(n)]
        self._incarnations: List[int] = [0] * n
        self._slot_of: Dict[int, int] = {
            shard.worker_id: slot for slot, shard in enumerate(engine._shards)
        }
        #: replies received while awaiting something else
        self._pending: List[Reply] = []
        self._restarts: Dict[int, int] = {}
        self._restart_reasons: Dict[Tuple[int, str], int] = {}
        self._recovery_seconds = HistogramSlot(SECONDS_BUCKETS)
        self._replayed_batches = 0
        self._replayed_events = 0
        self._recovery_checkpoints = 0
        self._checkpoint_failures = 0
        self._dir: Optional[Path] = None

    # ------------------------------------------------------------------
    # dispatch shadowing
    # ------------------------------------------------------------------

    def note_batch(self, slot: int, rows: list) -> None:
        """Record one dispatched batch; trim the buffer when it fills."""
        self._replay[slot].append(rows)
        self._tip[slot] = rows[-1][0]
        if len(self._replay[slot]) >= self._policy.replay_buffer_batches:
            self._trim(slot)

    def _trim(self, slot: int) -> None:
        """Cut a recovery checkpoint of one worker and clear its buffer.

        A targeted collect drains finished records into the stash (all
        have indices above the previous stash cursor — anything at or
        below it is a replay duplicate and dropped), then the worker
        snapshots its engine. The cursor, snapshot pointer and buffer
        only move on *confirmed* checkpoint success: a death or write
        failure anywhere in the dance leaves the previous snapshot and
        the full buffer intact, so recovery stays possible. Each
        checkpoint gets a fresh sequence-numbered file — repointing
        after the write, never overwriting the file a respawn would
        restore from.
        """
        engine = self._engine
        engine._collect_seq += 1
        seq = engine._collect_seq
        tip = self._tip[slot]
        self._recovery_checkpoints += 1
        path = self._snapshot_path(slot)
        try:
            collected = self._filter_collect(slot, self._ask(slot, Collect(seq)))
            if collected.record_rows:
                worker_id = engine._shards[slot].worker_id
                batch = (collected.edge_rows, collected.record_rows)
                self._stash[slot].append((worker_id, seq, batch))
            done = self._ask(slot, Checkpoint(str(path)))
        except _WorkerDied as died:
            self.recover(
                slot, reason=died.reason, failure=died.failure, exitcode=died.exitcode
            )
            return
        if done.error is None:
            previous = self._snapshots[slot]
            self._cursor[slot] = tip
            self._snapshots[slot] = str(path)
            del self._replay[slot][:]
            if previous is not None and self._dir is not None:
                prev = Path(previous)
                if prev.parent == self._dir:
                    try:
                        prev.unlink()
                    except OSError:
                        pass
        else:
            # Worker state is intact (a failed snapshot write never kills
            # the worker); the buffer simply keeps growing and the next
            # threshold crossing retries against a fresh file.
            self._checkpoint_failures += 1

    def _snapshot_path(self, slot: int) -> Path:
        if self._dir is None:
            self._dir = Path(tempfile.mkdtemp(prefix="repro-supervise-"))
        worker_id = self._engine._shards[slot].worker_id
        return self._dir / (
            f"recover-{self._recovery_checkpoints:06d}-shard-{worker_id}.bin"
        )

    def drain_stash(self) -> Dict[int, List[SourcedBatch]]:
        """Stashed batches per worker id, cleared — call once per run()."""
        out: Dict[int, List[SourcedBatch]] = {}
        for slot, shard in enumerate(self._engine._shards):
            if self._stash[slot]:
                out[shard.worker_id] = self._stash[slot]
                self._stash[slot] = []
        return out

    # ------------------------------------------------------------------
    # supervised result-queue protocol
    # ------------------------------------------------------------------

    def gather(
        self,
        expected: type,
        *,
        timeout: Optional[float] = None,
        tasks: Optional[Sequence[Task]] = None,
    ) -> Dict[int, ReplyBody]:
        """Collect one ``expected`` reply per worker, recovering as needed.

        A freshly recovered worker is sent its entry of ``tasks`` again
        (queue contents die with a worker, so the request must be
        re-issued); :class:`Ready` needs none — recovery itself completes
        the handshake. :class:`Collected` bodies are filtered against the
        stash cursor (replay dedup) and advance it.
        """
        replies: Dict[int, ReplyBody] = {}
        for slot, shard in enumerate(self._engine._shards):
            replies[shard.worker_id] = self._await_recovering(
                slot, expected, timeout=timeout, tasks=tasks
            )
        return replies

    def _await_recovering(
        self,
        slot: int,
        expected: type,
        *,
        timeout: Optional[float],
        tasks: Optional[Sequence[Task]],
    ) -> ReplyBody:
        while True:
            try:
                body = self._await(slot, expected, timeout=timeout)
            except _WorkerDied as died:
                self.recover(
                    slot,
                    reason=died.reason,
                    failure=died.failure,
                    exitcode=died.exitcode,
                )
                if tasks is None:
                    return Ready()  # recovery already completed the handshake
                self._engine._put(slot, tasks[slot])
                continue
            if isinstance(body, Collected):
                body = self._filter_collect(slot, body)
            return body

    def _filter_collect(self, slot: int, collected: Collected) -> Collected:
        """Drop replay-duplicate records; advance the stash cursor.

        Only column 0 (the stream index) of the record rows is read; the
        edge dictionary rides along untouched.
        """
        cutoff = self._stash_cursor[slot]
        record_rows = collected.record_rows
        self._stash_cursor[slot] = self._tip[slot]
        if record_rows and record_rows[0][0] <= cutoff:
            record_rows = [row for row in record_rows if row[0] > cutoff]
            return collected._replace(record_rows=record_rows)
        return collected

    def _ask(self, slot: int, task: Task) -> ReplyBody:
        """Post one task to one worker and await its declared reply,
        reporting death instead of recovering."""
        self._raw_put(slot, task)
        return self._await(slot, TASKS[type(task)])

    def _await(
        self, slot: int, expected: type, *, timeout: Optional[float] = None
    ) -> ReplyBody:
        """One ``expected`` reply body from ``slot``'s *current* incarnation.

        Replies from other workers are parked in the pending buffer for
        their own awaits; stale replies from dead incarnations are
        dropped. Raises :class:`_WorkerDied` on a :class:`Failed` reply,
        observed process death (after a short grace drain for replies
        still in the queue's pipe), heartbeat stall, or deadline expiry.
        """
        engine = self._engine
        worker_id = engine._shards[slot].worker_id
        deadline = None if timeout is None else time.monotonic() + timeout
        wait_start = time.monotonic()
        death_grace = None
        while True:
            found = self._take_pending(slot, expected)
            if found is not None:
                return found
            poll = 0.2
            if deadline is not None:
                poll = min(poll, max(deadline - time.monotonic(), 0.01))
            try:
                reply: Optional[Reply] = engine._result_queue.get(timeout=poll)
            except queue_module.Empty:
                reply = None
            now = time.monotonic()
            if reply is not None:
                engine._last_heartbeat[reply.worker_id] = now
                if self._is_stale(reply):
                    continue
                if reply.worker_id == worker_id:
                    if isinstance(reply.body, Failed):
                        raise _WorkerDied("error", failure=reply.body)
                    if isinstance(reply.body, expected):
                        return reply.body
                self._pending.append(reply)
                continue
            proc = engine._procs[slot]
            if not proc.is_alive():
                # Grace drain: a worker that errored and exited flushes
                # its reply through the queue's feeder thread at
                # interpreter exit — give the pipe a beat to deliver it
                # before declaring an unexplained death.
                if death_grace is None:
                    death_grace = now + 0.5
                elif now >= death_grace:
                    raise _WorkerDied("exit", exitcode=proc.exitcode)
                continue
            stall = self._policy.stall_timeout
            if stall is not None:
                last = max(engine._last_heartbeat.get(worker_id, 0.0), wait_start)
                if now - last > stall:
                    raise _WorkerDied("stall")
            if deadline is not None and now >= deadline:
                raise _WorkerDied("timeout")

    def _take_pending(self, slot: int, expected: type) -> Optional[ReplyBody]:
        worker_id = self._engine._shards[slot].worker_id
        for index, reply in enumerate(self._pending):
            if reply.worker_id != worker_id or self._is_stale(reply):
                continue
            if isinstance(reply.body, Failed):
                self._pending.pop(index)
                raise _WorkerDied("error", failure=reply.body)
            if isinstance(reply.body, expected):
                return self._pending.pop(index).body
        return None

    def _is_stale(self, reply: Reply) -> bool:
        slot = self._slot_of.get(reply.worker_id)
        return slot is not None and reply.incarnation != self._incarnations[slot]

    def _raw_put(self, slot: int, message) -> None:
        """Queue put that reports death instead of recovering (used from
        inside the recovery machinery itself, where the engine-level
        recovering put would recurse)."""
        engine = self._engine
        while True:
            try:
                engine._task_queues[slot].put(message, timeout=0.5)
                return
            except queue_module.Full:
                proc = engine._procs[slot]
                if not proc.is_alive():
                    raise _WorkerDied("exit", exitcode=proc.exitcode) from None

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(
        self, slot: int, *, reason: str, failure: Optional[Failed] = None, exitcode=None
    ) -> None:
        """Restart one dead (or wedged) worker and replay its lost delta.

        A loop, not a recursion: the replacement can itself die during
        the handshake or the replay (chained fault plans arm exactly
        this), and every death burns one unit of the worker's restart
        budget. Exhausting the budget raises
        :class:`~repro.errors.WorkerError` describing the *last* failure.
        """
        engine = self._engine
        shard = engine._shards[slot]
        worker_id = shard.worker_id
        started = time.perf_counter()
        while True:
            if reason == "exit" and failure is None:
                failure = self._drain_final_error(slot, worker_id)
                if failure is not None:
                    reason = "error"
            count = self._restarts.get(worker_id, 0) + 1
            if count > self._policy.max_restarts:
                raise self._budget_exhausted(worker_id, reason, failure, exitcode)
            self._restarts[worker_id] = count
            key = (worker_id, reason)
            self._restart_reasons[key] = self._restart_reasons.get(key, 0) + 1
            old = engine._procs[slot]
            if old.is_alive():
                old.terminate()  # the stall path: wedged but not dead
            old.join(timeout=5.0)
            if exitcode is None:
                exitcode = old.exitcode
            old_queue = engine._task_queues[slot]
            try:
                old_queue.close()
                old_queue.cancel_join_thread()
            except (OSError, ValueError):
                pass
            incarnation = self._incarnations[slot]
            self._pending = [
                reply
                for reply in self._pending
                if not (
                    reply.worker_id == worker_id and reply.incarnation == incarnation
                )
            ]
            time.sleep(backoff_delay(self._policy, count, self._rng))
            self._incarnations[slot] = incarnation + 1
            proc, task_queue = engine._spawn_worker(
                slot,
                restore_path=self._snapshots[slot],
                incarnation=self._incarnations[slot],
            )
            engine._procs[slot] = proc
            engine._task_queues[slot] = task_queue
            try:
                self._await(slot, Ready, timeout=READY_TIMEOUT)
            except _WorkerDied as died:
                reason = "startup"
                failure, exitcode = died.failure, died.exitcode
                continue
            try:
                for rows in self._replay[slot]:
                    self._raw_put(slot, Batch(rows))
                    self._replayed_batches += 1
                    self._replayed_events += len(rows)
            except _WorkerDied as died:
                reason = died.reason
                failure, exitcode = died.failure, died.exitcode
                continue
            break
        self._recovery_seconds.observe(time.perf_counter() - started)

    def _drain_final_error(self, slot: int, worker_id: int) -> Optional[Failed]:
        """The dying incarnation's :class:`Failed` report, if it left one.

        A worker that fails *in-protocol* replies :class:`Failed` and
        returns; the reply is flushed through the result queue's feeder
        thread at interpreter exit. When the death is instead detected on
        the dispatch path — task queue full, process gone — that reply is
        still in the pipe, and without it the restart would be recorded
        as an unexplained ``exit`` and a budget-exhaustion error would
        lose the remote traceback. Give the pipe the same grace period
        as :meth:`_await`'s death drain; a hard kill (``os._exit``,
        OOM) leaves nothing and times out quietly.
        """
        engine = self._engine
        incarnation = self._incarnations[slot]

        def mine(reply: Reply) -> bool:
            return reply.worker_id == worker_id and reply.incarnation == incarnation

        for index, reply in enumerate(self._pending):
            if mine(reply) and isinstance(reply.body, Failed):
                self._pending.pop(index)
                return reply.body
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            try:
                reply = engine._result_queue.get(timeout=0.05)
            except queue_module.Empty:
                continue
            engine._last_heartbeat[reply.worker_id] = time.monotonic()
            if mine(reply):
                if isinstance(reply.body, Failed):
                    return reply.body
                continue  # dropped: the request is re-issued after respawn
            self._pending.append(reply)
        return None

    def _budget_exhausted(
        self, worker_id: int, reason: str, failure: Optional[Failed], exitcode
    ) -> WorkerError:
        lead = (
            f"shard worker {worker_id} exceeded its restart budget "
            f"(max_restarts={self._policy.max_restarts}); last failure: "
            f"{reason}"
        )
        if exitcode is not None:
            lead += f" (exitcode={exitcode})"
        if failure is not None:
            return failure.to_error(lead + "\n", exitcode=exitcode)
        return WorkerError(lead, worker_id=worker_id, context=reason, exitcode=exitcode)

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def total_restarts(self) -> int:
        return sum(self._restarts.values())

    @property
    def restarts_by_worker(self) -> Dict[int, int]:
        return dict(self._restarts)

    def telemetry(self) -> dict:
        """Snapshot for :func:`~repro.telemetry.instrument.runtime_registry`."""
        return {
            "restarts": dict(self._restart_reasons),
            "recovery_seconds": self._recovery_seconds,
            "replayed_batches": self._replayed_batches,
            "replayed_events": self._replayed_events,
            "recovery_checkpoints": self._recovery_checkpoints,
            "checkpoint_failures": self._checkpoint_failures,
            "replay_depth": {
                shard.worker_id: len(self._replay[slot])
                for slot, shard in enumerate(self._engine._shards)
            },
        }

    def close(self) -> None:
        """Remove the recovery-snapshot scratch directory."""
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
