"""Smoke test: every example script runs end to end, in-process.

The examples are documentation that executes; a refactor that breaks
one breaks the README's promises silently unless CI runs them. Each
example is imported as a module and its ``main()`` called under the
tiny security levels (same modulus widths, small rings — see
``tiny_security_levels`` in conftest), so the full set completes in
seconds instead of the minutes real n = 4096 keygen would take.
``tests/test_docs.py`` checks that README's examples table lists
exactly these scripts.
"""

from __future__ import annotations

import importlib
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

EXAMPLE_NAMES = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_example_runs(name, tiny_security_levels, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(EXAMPLES_DIR))
    sys.modules.pop(name, None)  # never reuse a stale import
    module = importlib.import_module(name)
    try:
        module.main()
    finally:
        sys.modules.pop(name, None)
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} printed nothing"
