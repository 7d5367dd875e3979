"""The prose documents point at files that exist.

A backticked ``*.py`` path in README.md, DESIGN.md or ``docs/*.md``
names a module, example, benchmark or test; deleting or renaming the
file must update the document in the same change. Paths are resolved
the way the documents write them: relative to ``src/repro/`` (module
paths such as ``core/keys.py``), ``examples/``, ``benchmarks/`` or the
repository root. README's examples table must list exactly the
scripts in ``examples/``.
"""

from __future__ import annotations

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", *(ROOT / "docs").glob("*.md")]
)
SEARCH_ROOTS = (ROOT / "src" / "repro", ROOT / "examples", ROOT / "benchmarks", ROOT)

#: A backtick span whose first token is a ``.py`` path, optionally
#: followed by a ``::`` test or attribute name.
PY_PATH = re.compile(r"`([^`\s:]+\.py)(?:::[^`]*)?`")

#: One row of README's examples table: ``| `name.py` | what it shows |``.
EXAMPLE_ROW = re.compile(r"^\| `([^`/]+\.py)` \|", re.MULTILINE)


def _py_paths(document: pathlib.Path) -> list:
    return PY_PATH.findall(document.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "document", DOCUMENTS, ids=[str(d.relative_to(ROOT)) for d in DOCUMENTS]
)
def test_backticked_python_paths_resolve(document):
    missing = [
        path
        for path in _py_paths(document)
        if not any((base / path).is_file() for base in SEARCH_ROOTS)
    ]
    assert not missing, f"{document.name} names missing files: {missing}"


def test_documents_name_python_paths():
    """The scan sees the paths it is meant to check."""
    assert "quickstart.py" in _py_paths(ROOT / "README.md")
    assert "core/keys.py" in _py_paths(ROOT / "DESIGN.md")


def test_readme_examples_table_matches_examples():
    listed = EXAMPLE_ROW.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(listed) == len(set(listed)), listed
    on_disk = sorted(path.name for path in (ROOT / "examples").glob("*.py"))
    assert sorted(listed) == on_disk
