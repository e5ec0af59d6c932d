"""SpeedProbe accounting on a fake clock.

Run with ``python3 -m pytest perfbench``.
"""

import pytest

import speed


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_probe(clock, loop_seconds):
    def loop():
        clock.now += loop_seconds.pop(0)

    # a long interval: the timer never fires, samples are taken by hand
    return speed.SpeedProbe(interval=60, clock=clock, loop=loop)


def test_samples_are_kept_out_of_the_stretch():
    clock = FakeClock()
    # the host at half the reference speed, then at the reference speed
    probe = make_probe(clock, [2 * speed.REFERENCE_S, speed.REFERENCE_S])
    with probe:
        clock.now += 3.0
        probe.sample()  # what the SIGALRM handler does
        clock.now += 1.0
    assert probe.wall_s == pytest.approx(4.0)
    assert probe.speeds == pytest.approx([0.5, 1.0])
    assert probe.reference_s == pytest.approx(4.0 * 0.75)


def test_probe_restarts_on_each_stretch():
    clock = FakeClock()
    probe = make_probe(clock, [speed.REFERENCE_S / 2, speed.REFERENCE_S])
    with probe:
        clock.now += 1.0
    assert probe.reference_s == pytest.approx(2.0)
    with probe:
        clock.now += 1.0
    assert probe.speeds == pytest.approx([1.0])
    assert probe.reference_s == pytest.approx(1.0)


def test_calibration_loop_is_fixed_work():
    assert speed.calibration_loop() == speed.calibration_loop()
