"""The documented snippets run as written.

The README's Quickstart and Fault-tolerance examples and the package
docstring's quickstart are each extracted from their source and
executed in a fresh namespace.
"""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

import repro

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_snippet(heading: str) -> str:
    """The first python code block under the README's ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match is not None, f"no python block under '## {heading}'"
    return match.group(1)


def _docstring_snippet() -> str:
    """The indented block after ``Quickstart::`` in the package docstring."""
    return textwrap.dedent(repro.__doc__.split("Quickstart::\n", 1)[1])


@pytest.mark.parametrize(
    "name, source",
    [
        ("README Quickstart", lambda: _readme_snippet("Quickstart")),
        ("README Fault tolerance", lambda: _readme_snippet("Fault tolerance")),
        ("repro docstring Quickstart", _docstring_snippet),
    ],
    ids=["readme-quickstart", "readme-fault-tolerance", "package-docstring"],
)
def test_snippet_runs_as_written(name, source):
    exec(compile(source(), name, "exec"), {"__name__": "__snippet__"})
