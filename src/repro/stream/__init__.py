"""Near-real-time replay (demo S2, step 3).

"If the data are fed to the system in a short time interval, e.g. every 10
seconds, we can observe the changes of patterns in near real time."  The
replay is simulated: a :class:`~repro.stream.clock.SimulatedClock` advances
by configured ticks (no real sleeping, so tests are instant), a
:class:`~repro.stream.feed.ReplayFeed` delivers each tick's batch of hourly
readings, and an :class:`~repro.stream.online.OnlineShiftMonitor` maintains
rolling demand windows and emits an updated shift field per tick.
"""

from repro.stream.alerts import Alert, ShiftAlertMonitor
from repro.stream.clock import SimulatedClock
from repro.stream.feed import Batch, ReplayFeed
from repro.stream.online import OnlineShiftMonitor, ShiftUpdate, run_replay
from repro.stream.routing import ShardRouter

__all__ = [
    "Alert",
    "Batch",
    "ShardRouter",
    "ShiftAlertMonitor",
    "OnlineShiftMonitor",
    "ReplayFeed",
    "ShiftUpdate",
    "SimulatedClock",
    "run_replay",
]
