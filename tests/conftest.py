"""Shared pytest harness: collects per-criterion verdicts for the summary.

The end-to-end gate in test_acceptance.py records one verdict per
criterion; the terminal-summary hook prints them after the run so the
lines are visible without -s (pytest captures in-test prints otherwise).
"""

import math

import pytest

ACCEPTANCE_RESULTS = {}


@pytest.fixture
def record_acceptance():
    def _record(number: int, passed: bool, detail: str = ""):
        ACCEPTANCE_RESULTS[number] = (bool(passed), detail)

    return _record


@pytest.fixture
def watch_node_runs(monkeypatch):
    """Install watch(gens, engine), called before each full Buchberger run
    and each trace replay of a modular-chain node; a replay that completes
    is a whole run too."""
    from polarvalues import groebner

    def install(watch):
        for name in ("_core_buchberger", "_replay_buchberger"):
            inner = getattr(groebner, name)

            def watched(gens, engine, trace, inner=inner):
                watch(gens, engine)
                return inner(gens, engine, trace)

            monkeypatch.setattr(groebner, name, watched)

    return install


@pytest.fixture
def hold_reconstruction(monkeypatch):
    """Install hold(k): every lift reconstructs nothing until its modulus
    exceeds the product of the first k agenda primes, as taller
    coefficients would hold it, so a chain runs at least k + 1 primes."""
    from polarvalues import groebner

    def install(k):
        held = math.prod(groebner._agenda_prime(i) for i in range(k))
        reconstruct = groebner._CrtState.reconstruct

        def held_reconstruct(self):
            if self.modulus <= held:
                return None
            return reconstruct(self)

        monkeypatch.setattr(
            groebner._CrtState, "reconstruct", held_reconstruct
        )

    return install


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        line = "ACCEPTANCE %d: %s" % (number, "PASS" if passed else "FAIL")
        if detail:
            line += "  [%s]" % detail
        terminalreporter.write_line(line)
