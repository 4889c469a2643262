"""Fixtures of the live-runtime tests."""

import pytest

from repro.live import scheduler


@pytest.fixture
def manual_clock(monkeypatch):
    """``LiveScheduler`` on a wall clock that moves only when ``run``
    would have slept, by exactly the wait it armed (and by a nanosecond
    per reading: time passes).  No margin is left to spin through.

    The run loop, the mailboxes and the sockets stay the real ones; a run
    is CPU-bound and cannot fall behind its own clock, however slow the
    machine (or an allocation tracer) makes it.
    """
    wall = [0.0]

    def perf_counter() -> float:
        wall[0] += 1e-9
        return wall[0]

    class JumpTimer:  # the interface of scheduler._Timerfd
        def __init__(self, _loop, wake):
            self._wake = wake

        def arm(self, seconds: float) -> None:
            wall[0] += seconds
            self._wake()

        def close(self) -> None:
            pass

    monkeypatch.setattr(scheduler, "perf_counter", perf_counter)
    monkeypatch.setattr(scheduler, "_Timerfd", JumpTimer)
    monkeypatch.setattr(scheduler, "MARGIN", 0.0)
