"""The benchmark's traced mode must keep reaching every span it wraps.

``perfbench/run.py --trace 1`` stops with "traced run never called ..."
when a function in its TARGETS list is renamed, inlined or no longer
called through a module attribute.  This runs one small report under the
benchmark's own tracer and target list, so such a change fails here first.
"""

import importlib.util
import sys
from pathlib import Path

from polarvalues import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_called(capsys):
    targets = _load("run").TARGETS
    tracer = _load("tracer").Tracer("polarvalues", targets)
    argv = ["x + x^2*y", "--vars", "x,y", "--method", "both", "--runs", "1"]
    with tracer:
        assert cli.main(argv + ["--json"]) == 0
    capsys.readouterr()
    never = [name for name, _, _ in targets if not tracer.calls(name)]
    assert never == []
