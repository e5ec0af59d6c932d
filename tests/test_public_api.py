"""The public names and the README's API list must not drift apart.

Every name in ``polarvalues.__all__`` must resolve, and every function the
README's "Main entry points" list names must be exported: a call written
as `name(...)` in any bullet, and every backticked name in a "... layer:"
bullet.  Deleting a function without updating the README fails here.  The
README's Library example runs, and each value its comments show is the
value its line computes.
"""

import re
from pathlib import Path

import polarvalues

README = Path(__file__).resolve().parent.parent / "README.md"


def _entry_point_bullets():
    text = README.read_text(encoding="utf-8")
    _, found, rest = text.partition("Main entry points:\n\n")
    assert found, "README lost its 'Main entry points:' list"
    block = rest.split("\n\n", 1)[0]
    return [b.strip() for b in re.split(r"^- ", block, flags=re.M) if b.strip()]


def _documented_names():
    names = set()
    for bullet in _entry_point_bullets():
        names.update(re.findall(r"`([A-Za-z_]\w*)\(", bullet))
        if re.match(r"[^`:]* layer:", bullet):
            names.update(re.findall(r"`([A-Za-z_]\w*)`", bullet))
    return names


def test_every_exported_name_resolves():
    assert len(set(polarvalues.__all__)) == len(polarvalues.__all__)
    missing = [n for n in polarvalues.__all__ if not hasattr(polarvalues, n)]
    assert missing == []


def test_readme_entry_points_are_exported():
    names = _documented_names()
    # the parse must keep finding both kinds of entry
    assert {"run_super_polar", "bound_nk", "buchberger", "eliminate"} <= names
    assert sorted(names - set(polarvalues.__all__)) == []


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    _, found, rest = text.partition("## Library\n\n```python\n")
    assert found, "README lost its Library example"
    namespace = {}
    shown = []
    for line in rest.split("```", 1)[0].splitlines():
        code, _, comment = line.partition("  # ")
        if comment:
            shown.append((comment.strip(), repr(eval(code, namespace))))
        else:
            exec(line, namespace)
    assert shown == [
        ("(Fraction(0, 1),)", "(Fraction(0, 1),)"),
        ("True", "True"),
        ("3", "3"),
    ]
