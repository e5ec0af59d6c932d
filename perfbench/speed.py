"""Host speed sampling, to take the shared host's drift out of report times.

On a host shared with other machines the speed of identical work drifts by
±25% within seconds, which is more than any bound on a wall time can allow.
``SpeedProbe`` runs a fixed pure-Python calibration loop (big-integer
products reduced modulo a prime, accumulated in a dict, like the inner
loops of the program) at the start of a timed stretch and then every
``INTERVAL_S`` from a ``SIGALRM`` handler in the same thread, so the loop
never runs at the same time as the measured work.  Each sample gives the
host's relative speed, ``REFERENCE_S`` over the loop's time; the time spent
in the handler is kept out of the measured stretch.

A stretch of ``w`` wall seconds at mean relative speed ``v`` is reported as
``w * v`` reference seconds: the time the same work takes while the loop
takes ``REFERENCE_S``.  The calibration loop does not touch the program, so
a program that does more work still reports more reference seconds.

The set-up measurement imports this module in a fresh interpreter before
it times the package's import, so it imports nothing the package might.
"""

from __future__ import annotations

import signal
import time

MODULUS = (1 << 61) - 1
STEPS = 2000
# the loop's median time on the host the baseline was measured on
REFERENCE_S = 0.00096
INTERVAL_S = 0.05


def calibration_loop(steps=STEPS):
    table = {}
    x = 12345678901234567
    for i in range(steps):
        x = (x * x + i) % MODULUS
        table[i & 63] = table.get(i & 63, 0) + x
    return table


class SpeedProbe:
    """Context manager timing a stretch of work in reference seconds.

    ``with probe: work()`` leaves ``probe.wall_s`` (wall seconds without
    the sampling), ``probe.speeds`` (relative speeds sampled) and
    ``probe.reference_s`` (``wall_s`` times their mean).
    """

    def __init__(self, interval=INTERVAL_S, clock=time.perf_counter,
                 loop=calibration_loop):
        self.interval = interval
        self.clock = clock
        self.loop = loop
        self.speeds = []
        self.spent = 0.0
        self.wall_s = self.reference_s = None
        self._began = None
        self._previous = None

    def mean_speed(self):
        return sum(self.speeds) / len(self.speeds)

    def sample(self, *_):
        began = self.clock()
        self.loop()
        took = self.clock() - began
        self.speeds.append(REFERENCE_S / took)
        self.spent += took

    def __enter__(self):
        self.speeds, self.spent = [], 0.0
        self.sample()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._began = self.clock()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        ended = self.clock()
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = ended - self._began - self.spent
        self.reference_s = self.wall_s * self.mean_speed()
        return False
