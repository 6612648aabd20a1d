"""The sharded runtime's worker transport, and supervised recovery.

A :class:`Supervisor` owns one shard layout's worker processes, their
bounded task queues, the shared result queue and the heartbeat stamps;
every multi-process :class:`~repro.runtime.sharded.ShardedEngine` puts
its tasks and reads its replies through one. Without a
:class:`RestartPolicy` (``supervise=False``) a worker death raises at
once: the worker's own ``Failed`` report as
:class:`~repro.errors.WorkerError`, drained from the result queue's pipe
first however the death was noticed, else a ``WorkerError`` with
context ``dispatch`` or ``gather``.

With a policy it is the self-healing layer: it detects worker death
(process exitcode, ``Failed`` replies, heartbeat-age stalls), respawns
the dead shard and replays exactly the events it lost, so the merged
output stays **byte-identical to an uninterrupted run**.

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
  the next. On success the buffer is cleared, bounding both the buffer
  and the replay work a crash can cost.
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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproRuntimeError, WorkerError
from ..telemetry.registry import HistogramSlot
from ..telemetry.schema import SECONDS_BUCKETS
from .protocol import (
    READY_TIMEOUT,
    TASKS,
    Batch,
    Checkpoint,
    Close,
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


#: Bound on queued-but-unprocessed batches per worker. Keeps coordinator
#: memory at O(batch_size x queue depth) per shard on arbitrarily long
#: streams — put() blocks (backpressure) instead of buffering the whole
#: stream in the queue feeders. Safe: workers always drain their task
#: queue, so a blocked put can only wait, never deadlock.
_TASK_QUEUE_DEPTH = 8

#: How long a blocked put waits before checking that its worker lives.
_PUT_POLL = 0.5

#: Grace for a dead worker's last reply to leave the result queue's pipe.
_DEATH_GRACE = 0.5
#: How long recovery waits for a worker that is exiting on its own (it
#: replied ``Failed``) before terminating it.
_EXIT_GRACE = 5.0


class _WorkerDied(Exception):
    """Internal signal: one worker is dead or wedged (never escapes module)."""

    def __init__(
        self, reason: str, failure: Optional[Failed] = None, exitcode=None
    ) -> None:
        super().__init__(reason)
        self.reason = reason
        self.failure = failure
        self.exitcode = exitcode


def _close_queue(channel) -> None:
    """Close a queue without waiting for its feeder thread to flush."""
    try:
        channel.close()
        channel.cancel_join_thread()
    except (OSError, ValueError):
        pass


class Supervisor:
    """Owner of one shard layout's worker processes and queues.

    ``target(init, task_queue, result_queue)`` runs each worker; ``inits``
    holds one frozen dataclass per slot with ``worker_id``,
    ``restore_path`` and ``incarnation`` fields (a respawn replaces the
    last two). ``cursor`` is the last stream index the workers' state
    covers. ``policy`` arms recovery; ``None`` makes any death fatal.
    Driven from the coordinator thread only. :attr:`heartbeats` maps
    worker id to the monotonic time of its last reply.
    """

    def __init__(
        self,
        ctx,
        target: Callable,
        inits: Sequence,
        policy: Optional[RestartPolicy],
        cursor: int,
    ) -> None:
        self._ctx = ctx
        self._target = target
        self._inits = list(inits)
        self._policy = policy
        self._rng = random.Random(_JITTER_SEED)
        n = len(self._inits)
        self.procs: list = []
        self.task_queues: list = []
        self.result_queue = ctx.Queue()
        self.heartbeats: Dict[int, float] = {}
        self._collect_seq = 0
        #: batches dispatched since the last recovery checkpoint, per slot
        self._replay: List[List[list]] = [[] for _ in range(n)]
        #: last stream index dispatched to each slot
        self._tip: List[int] = [cursor] * n
        #: highest stream index whose records were stashed or already
        #: returned to the caller — the replay-dedup threshold
        self._stash_cursor: List[int] = [cursor] * n
        #: restore path for the next respawn (recovery snapshot, or the
        #: engine's original resume snapshot, or None = cold re-register)
        self._snapshots: List[Optional[str]] = [
            init.restore_path for init in self._inits
        ]
        #: record batches drained by recovery checkpoints (wire form, each
        #: with its own edge dictionary), merged into the next run() result
        self._stash: List[List[SourcedBatch]] = [[] for _ in range(n)]
        self._incarnations: List[int] = [0] * n
        self._slot_of: Dict[int, int] = {
            init.worker_id: slot for slot, init in enumerate(self._inits)
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
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker and await its :class:`Ready`; under a policy
        a startup failure (a torn restore snapshot, an OOM-killed spawn)
        is recovered like any other death."""
        for slot in range(len(self._inits)):
            proc, task_queue = self._spawn(slot, self._snapshots[slot], 0)
            self.procs.append(proc)
            self.task_queues.append(task_queue)
        self.gather(Ready, timeout=READY_TIMEOUT)

    def _spawn(self, slot: int, restore_path: Optional[str], incarnation: int):
        """Start one incarnation of ``slot``'s worker; ``(proc, task_queue)``."""
        init = replace(
            self._inits[slot], restore_path=restore_path, incarnation=incarnation
        )
        task_queue = self._ctx.Queue(maxsize=_TASK_QUEUE_DEPTH)
        proc = self._ctx.Process(
            target=self._target,
            args=(init, task_queue, self.result_queue),
            daemon=True,
            name=f"repro-shard-{init.worker_id}",
        )
        proc.start()
        return proc, task_queue

    def shutdown(self) -> None:
        """Stop the workers, drop the queues and the recovery scratch;
        ``terminate()`` backs up a pill a wedged worker never reads."""
        for slot in range(len(self.task_queues)):
            self._post_poison_pill(slot)
        for proc in self.procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for task_queue in self.task_queues:
            _close_queue(task_queue)
        _close_queue(self.result_queue)
        self.procs = []
        self.task_queues = []
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def adopt_scratch(self, directory: Path) -> None:
        """Own ``directory``, which holds the workers' restore snapshots
        (a re-cut layout's checkpoint), as the recovery scratch directory:
        each worker's file there is deleted once its first recovery
        checkpoint supersedes it, and the directory at :meth:`shutdown`.
        Call right after :meth:`start`, before any recovery checkpoint."""
        self._dir = directory

    def _post_poison_pill(self, slot: int, deadline_seconds: float = 5.0) -> None:
        """Deliver :class:`Close` to one worker without ever blocking.

        ``put_nowait`` on a task queue at capacity raises ``Full``;
        silently swallowing that dropped the close message, leaving a
        healthy-but-backlogged worker waiting on its queue until the join
        timeout killed it. Instead, make room by draining queued messages
        ourselves — the engine is shutting down, so unprocessed batches
        can no longer contribute records a caller could collect — until
        the pill lands or the worker is observed dead.
        """
        task_queue = self.task_queues[slot]
        proc = self.procs[slot]
        deadline = time.monotonic() + deadline_seconds
        while True:
            try:
                task_queue.put_nowait(Close())
                return
            except (ValueError, OSError):
                return  # queue already closed/broken; terminate() backstop
            except queue_module.Full:
                pass
            if not proc.is_alive():
                return  # dead worker; nothing left to deliver to
            if time.monotonic() >= deadline:
                return  # wedged queue; terminate() backstop
            try:
                task_queue.get_nowait()
            except queue_module.Empty:
                time.sleep(0.005)  # the worker drained it first; retry
            except (ValueError, OSError):
                return

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def put(self, slot: int, task: Task, *, heal: bool = True) -> None:
        """Blocking put to one worker's bounded task queue.

        Backpressure by design, but never a hang: a worker that died is
        noticed on the next poll, then recovered and the put retried
        against its replacement's queue, or the death raises. With
        ``heal=False`` (inside recovery) it raises :class:`_WorkerDied`.
        """
        while True:
            # Re-fetched each attempt: a recovery swaps in a fresh queue.
            try:
                self.task_queues[slot].put(task, timeout=_PUT_POLL)
                return
            except queue_module.Full:
                proc = self.procs[slot]
                if proc.is_alive():
                    continue
            died = _WorkerDied("exit", exitcode=proc.exitcode)
            if not heal:
                raise died
            self._handle(slot, died, "dispatch")

    def note_batch(self, slot: int, rows: list) -> None:
        """Buffer one dispatched batch for replay (under a policy only);
        trim the buffer when it fills."""
        if self._policy is None:
            return
        self._replay[slot].append(rows)
        self._tip[slot] = rows[-1][0]
        if len(self._replay[slot]) >= self._policy.replay_buffer_batches:
            self._trim(slot)

    def next_seq(self) -> int:
        """A fresh ``Collect`` sequence number."""
        self._collect_seq += 1
        return self._collect_seq

    def request(self, make_task: Callable[[int], Task]) -> Dict[int, ReplyBody]:
        """Post ``make_task(slot)`` to every worker; gather the replies
        of the class :data:`~repro.runtime.protocol.TASKS` pairs with it."""
        tasks = [make_task(slot) for slot in range(len(self._inits))]
        for slot, task in enumerate(tasks):
            self.put(slot, task)
        return self.gather(TASKS[type(tasks[0])], tasks=tasks)

    def queue_depths(self) -> List[int]:
        """Tasks waiting per slot; -1 where ``qsize()`` is unimplemented
        (macOS ``sem_getvalue``)."""
        depths = []
        for task_queue in self.task_queues:
            try:
                depths.append(task_queue.qsize())
            except NotImplementedError:
                depths.append(-1)
        return depths

    def _trim(self, slot: int) -> None:
        """Cut a recovery checkpoint of one worker and clear its buffer.

        A targeted collect drains finished records into the stash (all
        have indices above the previous stash cursor — anything at or
        below it is a replay duplicate and dropped), then the worker
        snapshots its engine. The snapshot pointer and buffer only move
        on *confirmed* checkpoint success: a death or write failure
        anywhere in the dance leaves the previous snapshot and the full
        buffer intact, so recovery stays possible. Each checkpoint gets
        a fresh sequence-numbered file — repointing after the write,
        never overwriting the file a respawn would restore from.
        """
        seq = self.next_seq()
        self._recovery_checkpoints += 1
        path = self._snapshot_path(slot)
        try:
            collected = self._filter_collect(slot, self._ask(slot, Collect(seq)))
            if collected.record_rows:
                worker_id = self._inits[slot].worker_id
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
        worker_id = self._inits[slot].worker_id
        return self._dir / (
            f"recover-{self._recovery_checkpoints:06d}-shard-{worker_id}.bin"
        )

    def drain_stash(self) -> Dict[int, List[SourcedBatch]]:
        """Stashed batches per worker id, cleared — call once per run()."""
        out: Dict[int, List[SourcedBatch]] = {}
        for slot, init in enumerate(self._inits):
            if self._stash[slot]:
                out[init.worker_id] = self._stash[slot]
                self._stash[slot] = []
        return out

    # ------------------------------------------------------------------
    # the result-queue protocol
    # ------------------------------------------------------------------

    def gather(
        self,
        expected: type,
        *,
        timeout: Optional[float] = None,
        tasks: Optional[Sequence[Task]] = None,
    ) -> Dict[int, ReplyBody]:
        """Collect one ``expected`` reply per worker, recovering as needed.

        With ``timeout=None`` (every request) this waits as long as the
        workers are alive — a long stream legitimately takes long to
        drain. The deadline is only used for the startup handshake.

        A freshly recovered worker is sent its entry of ``tasks`` again
        (queue contents die with a worker, so the request must be
        re-issued); :class:`Ready` needs none — recovery itself completes
        the handshake. :class:`Collected` bodies are filtered against the
        stash cursor (replay dedup) and advance it.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        replies: Dict[int, ReplyBody] = {}
        for slot, init in enumerate(self._inits):
            while True:
                try:
                    body = self._await(slot, expected, deadline)
                    break
                except _WorkerDied as caught:
                    died = caught
                if died.reason == "timeout" and self._policy is None:
                    missing = [later.worker_id for later in self._inits[slot:]]
                    raise ReproRuntimeError(
                        f"timed out waiting for {expected.__name__} from "
                        f"workers {missing}"
                    )
                self._handle(slot, died, "gather")
                if tasks is None:
                    body = Ready()  # recovery already completed the handshake
                    break
                self.put(slot, tasks[slot])
            if isinstance(body, Collected):
                body = self._filter_collect(slot, body)
            replies[init.worker_id] = body
        return replies

    def _filter_collect(self, slot: int, collected: Collected) -> Collected:
        """Drop replay-duplicate records; advance the stash cursor.

        Only column 0 (the stream index) of the record rows is read; the
        edge dictionary rides along untouched. Without a policy nothing
        is replayed, the cursor never moves and nothing is dropped.
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
        self.put(slot, task, heal=False)
        return self._await(slot, TASKS[type(task)])

    def _await(
        self, slot: int, expected: type, deadline: Optional[float] = None
    ) -> ReplyBody:
        """One ``expected`` reply body from ``slot``'s *current* incarnation.

        Replies from other workers are parked in the pending buffer for
        their own awaits; stale replies from dead incarnations are
        dropped. Raises :class:`_WorkerDied` on a :class:`Failed` reply
        (from any worker when there is no policy: every failure is then
        fatal), observed process death (after a short grace drain for
        replies still in the queue's pipe), heartbeat stall, or the
        ``deadline`` (a :func:`time.monotonic` instant) passing.
        """
        worker_id = self._inits[slot].worker_id
        fatal = self._policy is None
        stall = None if fatal else self._policy.stall_timeout
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
                reply: Optional[Reply] = self.result_queue.get(timeout=poll)
            except queue_module.Empty:
                reply = None
            now = time.monotonic()
            if reply is not None:
                # Liveness heartbeat, piggybacked on every reply: a worker
                # that answers the protocol is demonstrably draining its
                # queue.
                self.heartbeats[reply.worker_id] = now
                if self._is_stale(reply):
                    continue
                body = reply.body
                mine = reply.worker_id == worker_id
                if isinstance(body, Failed) and (mine or fatal):
                    raise _WorkerDied("error", failure=body)
                if mine and isinstance(body, expected):
                    return body
                self._pending.append(reply)
                continue
            proc = self.procs[slot]
            if not proc.is_alive():
                # Grace drain: a worker that errored and exited flushes
                # its reply through the queue's feeder thread at
                # interpreter exit — give the pipe a beat to deliver it
                # before declaring an unexplained death.
                if death_grace is None:
                    death_grace = now + _DEATH_GRACE
                elif now >= death_grace:
                    raise _WorkerDied("exit", exitcode=proc.exitcode)
                continue
            if stall is not None:
                last = max(self.heartbeats.get(worker_id, 0.0), wait_start)
                if now - last > stall:
                    raise _WorkerDied("stall")
            if deadline is not None and now >= deadline:
                raise _WorkerDied("timeout")

    def _take_pending(self, slot: int, expected: type) -> Optional[ReplyBody]:
        worker_id = self._inits[slot].worker_id
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

    # ------------------------------------------------------------------
    # death and recovery
    # ------------------------------------------------------------------

    def _handle(self, slot: int, died: _WorkerDied, context: str) -> None:
        """Recover ``slot`` under the policy; without one, raise the
        worker's own ``Failed`` report (drained from the pipe when only
        the dead process was seen), else a :class:`WorkerError` naming
        ``context``, where the death was noticed."""
        if self._policy is not None:
            self.recover(
                slot, reason=died.reason, failure=died.failure, exitcode=died.exitcode
            )
            return
        failure = died.failure
        if failure is None and died.reason == "exit":
            failure = self._drain_final_error(slot)
        if failure is not None:
            raise failure.to_error()
        worker_id = self._inits[slot].worker_id
        raise WorkerError(
            f"shard worker {worker_id} died (exitcode={died.exitcode})",
            worker_id=worker_id,
            context=context,
            exitcode=died.exitcode,
        )

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
        policy = self._policy
        worker_id = self._inits[slot].worker_id
        started = time.perf_counter()
        while True:
            if reason == "exit" and failure is None:
                failure = self._drain_final_error(slot)
                if failure is not None:
                    reason = "error"
            count = self._restarts.get(worker_id, 0) + 1
            if count > policy.max_restarts:
                raise self._budget_exhausted(worker_id, reason, failure, exitcode)
            self._restarts[worker_id] = count
            key = (worker_id, reason)
            self._restart_reasons[key] = self._restart_reasons.get(key, 0) + 1
            old = self.procs[slot]
            if reason != "stall":
                # A worker that replied Failed is exiting on its own, its
                # feeder thread still flushing into the shared result
                # queue: a SIGTERM now can land while that thread holds
                # the queue's cross-process write lock, orphan it, and
                # wedge every later writer (the respawn's Ready included).
                old.join(timeout=_EXIT_GRACE)
            if old.is_alive():
                old.terminate()  # wedged (the stall path) or not exiting
            old.join(timeout=5.0)
            if exitcode is None:
                exitcode = old.exitcode
            _close_queue(self.task_queues[slot])
            incarnation = self._incarnations[slot]
            self._pending = [
                reply
                for reply in self._pending
                if not (
                    reply.worker_id == worker_id and reply.incarnation == incarnation
                )
            ]
            time.sleep(backoff_delay(policy, count, self._rng))
            self._incarnations[slot] = incarnation + 1
            self.procs[slot], self.task_queues[slot] = self._spawn(
                slot, self._snapshots[slot], self._incarnations[slot]
            )
            try:
                self._await(slot, Ready, time.monotonic() + READY_TIMEOUT)
            except _WorkerDied as died:
                reason = "startup"
                failure, exitcode = died.failure, died.exitcode
                continue
            try:
                for rows in self._replay[slot]:
                    self.put(slot, Batch(rows), heal=False)
                    self._replayed_batches += 1
                    self._replayed_events += len(rows)
            except _WorkerDied as died:
                reason = died.reason
                failure, exitcode = died.failure, died.exitcode
                continue
            break
        self._recovery_seconds.observe(time.perf_counter() - started)

    def _drain_final_error(self, slot: int) -> Optional[Failed]:
        """The dying incarnation's :class:`Failed` report, if it left one.

        A worker that fails *in-protocol* replies :class:`Failed` and
        returns; the reply is flushed through the result queue's feeder
        thread at interpreter exit. When the death is instead detected on
        the dispatch path — task queue full, process gone — that reply is
        still in the pipe, and without it the death would be reported as
        an unexplained ``exit`` that loses the remote traceback. Give the
        pipe the same grace period as :meth:`_await`'s death drain; a
        hard kill (``os._exit``, OOM) leaves nothing and times out
        quietly.
        """
        worker_id = self._inits[slot].worker_id
        incarnation = self._incarnations[slot]

        def mine(reply: Reply) -> bool:
            return reply.worker_id == worker_id and reply.incarnation == incarnation

        for index, reply in enumerate(self._pending):
            if mine(reply) and isinstance(reply.body, Failed):
                self._pending.pop(index)
                return reply.body
        deadline = time.monotonic() + _DEATH_GRACE
        while time.monotonic() < deadline:
            try:
                reply = self.result_queue.get(timeout=0.05)
            except queue_module.Empty:
                continue
            self.heartbeats[reply.worker_id] = time.monotonic()
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
    # introspection
    # ------------------------------------------------------------------

    @property
    def total_restarts(self) -> int:
        return sum(self._restarts.values())

    @property
    def restarts_by_worker(self) -> Dict[int, int]:
        return dict(self._restarts)

    def telemetry(self) -> Optional[dict]:
        """Snapshot for :func:`~repro.telemetry.instrument.runtime_registry`;
        ``None`` without a policy (no recovery families to report)."""
        if self._policy is None:
            return None
        return {
            "restarts": dict(self._restart_reasons),
            "recovery_seconds": self._recovery_seconds,
            "replayed_batches": self._replayed_batches,
            "replayed_events": self._replayed_events,
            "recovery_checkpoints": self._recovery_checkpoints,
            "checkpoint_failures": self._checkpoint_failures,
            "replay_depth": {
                init.worker_id: len(self._replay[slot])
                for slot, init in enumerate(self._inits)
            },
        }
