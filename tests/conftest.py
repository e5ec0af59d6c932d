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
    """Install watch(gens, engine), called as each full signature run of a
    modular-chain node ends and before each trace replay; a replay that
    completes is a whole run too.  A root stage that a race stops before
    its end is no node's run, and is not watched."""
    from polarvalues import groebner

    def install(watch):
        core = groebner._core_buchberger
        replay = groebner._replay_buchberger

        def watched_run(gens, engine, trace):
            basis = yield from core(gens, engine, trace)
            watch(gens, engine)
            return basis

        def watched_replay(gens, engine, trace):
            watch(gens, engine)
            return replay(gens, engine, trace)

        monkeypatch.setattr(groebner, "_core_buchberger", watched_run)
        monkeypatch.setattr(groebner, "_replay_buchberger", watched_replay)

    return install


@pytest.fixture
def hold_reconstruction(monkeypatch):
    """Install hold(k): every lift reconstructs nothing until its modulus
    exceeds the product of the first k primes of a chain, the narrow
    agenda's first and then the wide agenda's, as taller coefficients
    would hold it, so a chain runs at least k + 1 primes."""
    from polarvalues import groebner

    def install(k):
        held = math.prod(
            groebner._agenda_prime(i - 1, wide=True) if i
            else groebner._agenda_prime(0)
            for i in range(k)
        )
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
