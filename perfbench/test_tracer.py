"""Tracer check on a fake package with a nested call and a re-import.

Run with ``python3 -m pytest perfbench``.
"""

import sys
import types

import pytest

from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def fake_package():
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    mid = types.ModuleType("fakepkg.mid")

    def leaf(x):
        clock.advance(2.0)
        return x + 1

    class Box:
        @classmethod
        def make(cls, x):
            clock.advance(0.5)
            return cls()

    low.leaf, low.Box = leaf, Box
    mid.leaf = low.leaf  # what `from .low import leaf` does

    def middle(x):
        clock.advance(1.0)
        y = mid.leaf(x)
        mid.Box.make(y)
        clock.advance(3.0)
        return y

    mid.middle, mid.Box = middle, Box
    pkg.leaf = low.leaf  # a package-level re-export
    modules = {"fakepkg": pkg, "fakepkg.low": low, "fakepkg.mid": mid}
    sys.modules.update(modules)
    yield clock, modules
    for name in modules:
        del sys.modules[name]


TARGETS = [
    ("low.leaf", "fakepkg.low", "leaf"),
    ("low.Box.make", "fakepkg.low", "Box.make"),
    ("mid.middle", "fakepkg.mid", "middle"),
]


def test_nested_self_time_and_every_binding(fake_package):
    clock, modules = fake_package
    originals = (modules["fakepkg.low"].leaf, modules["fakepkg.mid"].middle,
                 modules["fakepkg.low"].Box.__dict__["make"])
    seen = []
    tracer = Tracer("fakepkg", TARGETS, clock=clock, observers={
        "low.leaf": lambda t, args, kwargs, result: seen.append(result)})
    with tracer:
        assert modules["fakepkg"].leaf is modules["fakepkg.mid"].leaf
        assert modules["fakepkg.mid"].leaf is not originals[0]
        assert modules["fakepkg.mid"].middle(1) == 2
        assert modules["fakepkg"].leaf(10) == 11  # through the re-export
    names = [s.name for s in tracer.spans]
    assert names == ["mid.middle", "low.leaf", "low.Box.make", "low.leaf"]
    outer, inner, make, direct = tracer.spans
    assert (outer.duration, outer.self_s) == (6.5, 4.0)
    assert (inner.parent, inner.self_s) == (0, 2.0)
    assert (make.parent, make.self_s) == (0, 0.5)
    assert (direct.parent, direct.self_s) == (-1, 2.0)
    assert seen == [2, 11]
    assert tracer.calls("low.leaf") == 2
    assert tracer.self_s(lambda n: n.startswith("low.")) == 4.5
    assert tracer.inclusive_s(["mid.middle", "low.leaf"]) == 8.5
    # originals are back everywhere
    assert modules["fakepkg.low"].leaf is originals[0]
    assert modules["fakepkg.mid"].leaf is originals[0]
    assert modules["fakepkg"].leaf is originals[0]
    assert modules["fakepkg.mid"].middle is originals[1]
    assert modules["fakepkg.low"].Box.__dict__["make"] is originals[2]


def test_exception_closes_span_and_restores(fake_package):
    clock, modules = fake_package

    def boom():
        clock.advance(1.0)
        raise RuntimeError("boom")

    modules["fakepkg.low"].boom = boom
    tracer = Tracer("fakepkg", [("low.boom", "fakepkg.low", "boom")],
                    clock=clock)
    with pytest.raises(RuntimeError):
        with tracer:
            modules["fakepkg.low"].boom()
    assert tracer.spans[0].duration == 1.0
    assert modules["fakepkg.low"].boom is boom


def test_target_outside_the_package_fails_loudly(fake_package):
    other = types.ModuleType("fakeother")
    other.f = lambda: None
    sys.modules["fakeother"] = other
    try:
        with pytest.raises(LookupError):
            Tracer("fakepkg", [("other.f", "fakeother", "f")]).install()
    finally:
        del sys.modules["fakeother"]
