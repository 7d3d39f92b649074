"""Every Python name the README cites exists."""

from __future__ import annotations

import builtins
import importlib
import re
from pathlib import Path

import submax

_MODULES = ("core", "constraints", "objectives", "algorithms", "hardness", "cli")
# a backticked name, dotted or not, or a call such as ``name(...)``, whose arguments are dropped
_SPAN = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)*)(?:\([^`]*\))?`")


def _exists(name: str) -> bool | None:
    """Whether the object ``name`` cites exists: a ``submax.``-qualified
    name, or one qualified by a module of the package, in that module; a
    capitalised name in the package, its modules or ``builtins``.  Any other
    name (``_accepts``, ``greedy``, ``np.intp``) is not looked up: None."""
    head, *rest = name.split(".")
    if head == "submax" and rest and rest[0] in _MODULES:
        head, *rest = rest
    if head in _MODULES:
        obj = importlib.import_module(f"submax.{head}")
    elif head == "submax":
        obj = submax
    elif head[0].isupper():
        roots = [submax, *(importlib.import_module(f"submax.{m}") for m in _MODULES), builtins]
        obj = next((getattr(r, head) for r in roots if hasattr(r, head)), None)
        if obj is None:
            return False
    else:
        return None
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_python_name_the_readme_cites_exists():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    found = {name: _exists(name) for name in set(_SPAN.findall(text))}
    checked = sorted(name for name, ok in found.items() if ok is not None)
    assert len(checked) >= 20, checked  # the README cites two dozen names
    assert [name for name in checked if not found[name]] == []
