"""The typed coordinator↔worker protocol (``repro.runtime.protocol``).

Each test proves one runtime guard: the worker's handler table matches
the declared task set, a message built with the wrong arity fails where
it is built, every answered task is answered with the reply class it
declares (by a live worker, under fork and spawn), and one worker
function alone builds the :class:`Reply` envelope.
"""

from __future__ import annotations

import multiprocessing
import types
from pathlib import Path
from typing import NamedTuple

import pytest

from repro import QueryGraph, ShardedEngine
from repro.errors import ReproRuntimeError
from repro.graph.types import EdgeEvent
from repro.runtime import protocol, sharded
from repro.runtime.protocol import (
    TASKS,
    Batch,
    Checkpoint,
    Close,
    Collect,
    Collected,
    Described,
    Reply,
    check_handlers,
)

#: every message class, with a valid argument tuple for each
MESSAGES = {
    protocol.Ready: (),
    protocol.Collected: (1, [], [], 0),
    protocol.CheckpointDone: (None,),
    protocol.Described: ("text",),
    protocol.MetricsSnapshot: (0, {}),
    protocol.Failed: (0, "batch", ["q"], "GraphError", "m", "tb", 4, 0),
    protocol.Reply: (0, 0, protocol.Ready()),
    Batch: ([],),
    Collect: (1,),
    Checkpoint: ("path",),
    protocol.Describe: (),
    protocol.Metrics: (),
    Close: (),
}

START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


class Ping(NamedTuple):
    """A task declared without a worker handler."""


class TestHandlerTable:
    def test_worker_table_covers_the_task_set(self):
        check_handlers(sharded._HANDLERS)
        assert set(sharded._HANDLERS) == set(TASKS)

    def test_task_without_handler_fails(self):
        with pytest.raises(ReproRuntimeError, match=r"no handler for \['Ping'\]"):
            check_handlers(sharded._HANDLERS, {**TASKS, Ping: Described})

    def test_handler_without_task_fails(self):
        handlers = {**sharded._HANDLERS, Ping: lambda worker, task: None}
        with pytest.raises(ReproRuntimeError, match=r"undeclared \['Ping'\]"):
            check_handlers(handlers)


class TestArity:
    def test_every_message_class_is_listed(self):
        replies = {cls for cls in TASKS.values() if cls is not None}
        declared = set(TASKS) | replies | {protocol.Ready, protocol.Failed}
        assert declared | {Reply} == set(MESSAGES)

    @pytest.mark.parametrize("cls", list(MESSAGES), ids=lambda c: c.__name__)
    def test_wrong_arity_fails_at_the_producer(self, cls):
        args = MESSAGES[cls]
        assert cls(*args)._fields == cls._fields
        with pytest.raises(TypeError):
            cls(*args, "extra")
        required = len(cls._fields) - len(cls._field_defaults)
        if required:
            with pytest.raises(TypeError):
                cls(*args[: required - 1])


def _code_objects(code: types.CodeType):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from _code_objects(const)


def test_one_worker_function_builds_the_envelope():
    """Every reply crosses the queue in a :class:`Reply`, built in one
    place: the worker's ``send``. Coordinator code only reads envelopes."""
    builders = []
    for path in sorted(Path(sharded.__file__).parent.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        builders += [
            (path.name, code.co_name)
            for code in _code_objects(module)
            if "Reply" in code.co_names
        ]
    assert builders == [("sharded.py", "send")]


def _live_engine(method: str) -> ShardedEngine:
    events = [
        EdgeEvent(f"p{i % 4}", f"p{(i + 1) % 4}", ("PA", "PB")[i % 2], float(i))
        for i in range(40)
    ]
    engine = ShardedEngine(
        window=10.0,
        workers=2,
        batch_size=8,
        mp_context=multiprocessing.get_context(method),
    )
    engine.warmup(events)
    engine.register(QueryGraph.path(["PA", "PB"], name="ab"), strategy="Single")
    engine.register(QueryGraph.path(["PB", "PA"], name="ba"), strategy="Single")
    engine.start()
    rows = [
        (index, e.src, e.dst, e.etype, e.timestamp, e.src_type, e.dst_type)
        for index, e in enumerate(events)
    ]
    for task_queue in engine._supervisor.task_queues:
        task_queue.put(Batch(rows))
    return engine


@pytest.mark.parametrize("method", START_METHODS)
def test_live_worker_answers_each_task_with_its_declared_reply(method, tmp_path):
    engine = _live_engine(method)
    try:
        assert len(engine._supervisor.procs) == 2, "test needs real worker processes"
        worker_ids = {shard.worker_id for shard in engine._shards}
        answered = [
            lambda slot: Collect(7),
            lambda slot: Checkpoint(str(tmp_path / f"snap-{slot}")),
            lambda slot: protocol.Describe(),
            lambda slot: protocol.Metrics(),
        ]
        assert {type(make_task(0)) for make_task in answered} == {
            cls for cls, reply in TASKS.items() if reply is not None
        }
        for make_task in answered:
            task = make_task(0)
            for slot, task_queue in enumerate(engine._supervisor.task_queues):
                task_queue.put(make_task(slot))
            result_queue = engine._supervisor.result_queue
            replies = [result_queue.get(timeout=60) for _ in worker_ids]
            assert {reply.worker_id for reply in replies} == worker_ids
            for reply in replies:
                assert type(reply) is Reply
                assert reply.incarnation == 0
                assert type(reply.body) is TASKS[type(task)], (task, reply)
                if isinstance(reply.body, Collected):
                    assert reply.body.seq == 7 and reply.body.record_rows
        for task_queue in engine._supervisor.task_queues:
            task_queue.put(Close())
        for proc in engine._supervisor.procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert engine._supervisor.result_queue.empty()
    finally:
        engine.close()
