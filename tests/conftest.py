"""Suite-wide guards.

Every test runs under a watchdog: a test still running after
:data:`TEST_DEADLINE_S` seconds dumps every thread's traceback and ends
the process, so a wedged worker or queue fails the run with a stack
instead of hanging it. The slowest test takes a few seconds.
"""

from __future__ import annotations

import faulthandler

import pytest

TEST_DEADLINE_S = 120


@pytest.fixture(autouse=True)
def deadline():
    faulthandler.dump_traceback_later(TEST_DEADLINE_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
