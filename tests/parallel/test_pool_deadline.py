"""Deadline/cancellation checks at ``map_blocks`` block boundaries.

A request that exhausts its deadline mid-kernel must
stop between blocks with :class:`DeadlineExceeded` rather than grinding
through the remaining blocks and answering a request nobody is waiting
for.  The same checkpoints double as job-cancellation points via
:class:`~repro.jobs.model.CancelToken`.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.deadline import Deadline, DeadlineExceeded, bind_deadline
from repro.jobs.model import CancelToken, JobCancelled
from repro.parallel.pool import map_blocks


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSerialDeadline:
    def test_expiry_mid_run_stops_at_next_block_boundary(self):
        clock = FakeClock()
        deadline = Deadline(5.0, clock=clock)
        ran = []

        def work(item):
            # Each block "takes" 3 fake seconds: the budget dies during
            # block 2, so block 3 must never start.
            ran.append(item)
            clock.advance(3.0)
            return item

        with bind_deadline(deadline):
            with pytest.raises(DeadlineExceeded, match="kernel.unit"):
                map_blocks(work, [1, 2, 3, 4], name="unit")
        assert ran == [1, 2]

    def test_unexpired_deadline_is_transparent(self):
        clock = FakeClock()
        deadline = Deadline(100.0, clock=clock)
        with bind_deadline(deadline):
            out = map_blocks(lambda x: x * 2, [1, 2, 3], name="unit")
        assert out == [2, 4, 6]

    def test_no_deadline_no_checks(self):
        out = map_blocks(lambda x: x + 1, [1, 2, 3], name="unit")
        assert out == [2, 3, 4]

    def test_error_message_names_pool_and_block(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)

        def work(item):
            clock.advance(2.0)
            return item

        with bind_deadline(deadline):
            with pytest.raises(DeadlineExceeded, match=r"kernel\.unit block 1"):
                map_blocks(work, [1, 2], name="unit")


class TestCancellation:
    def test_cancel_token_stops_between_blocks(self):
        """A job's CancelToken rides the same rail: setting the cancel
        event mid-run aborts at the next block boundary with the
        JobCancelled subclass."""
        event = threading.Event()
        token = CancelToken(event)
        ran = []

        def work(item):
            ran.append(item)
            if item == 2:
                event.set()
            return item

        with bind_deadline(token):
            with pytest.raises(JobCancelled):
                map_blocks(work, [1, 2, 3, 4], name="unit")
        assert ran == [1, 2]
