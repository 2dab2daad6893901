"""Doc-sync: every ``python`` code block in the docs must actually run.

Fenced ```python blocks are extracted from each documented file and
executed cumulatively (one shared namespace per file), so a later block
may use names defined by an earlier one — exactly how a reader follows
the document top to bottom.  Blocks fenced as ```text (sample output,
shell transcripts) are ignored.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = [
    "README.md",
    "docs/API.md",
    "docs/ANALYSIS.md",
    "docs/ARCHITECTURE.md",
    "docs/BACKENDS.md",
    "docs/OBSERVABILITY.md",
    "docs/PERFORMANCE.md",
    "docs/PLANNER.md",
    "docs/SERVING.md",
    "docs/STORAGE.md",
]

_BLOCK_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def python_blocks(path: Path):
    return [match.group(1) for match in _BLOCK_RE.finditer(path.read_text())]


@pytest.mark.parametrize("relpath", DOC_FILES)
def test_doc_code_blocks_execute(relpath):
    path = REPO_ROOT / relpath
    assert path.exists(), f"{relpath} is missing"
    blocks = python_blocks(path)
    assert blocks, f"{relpath} has no ```python blocks to check"
    namespace = {"__name__": f"doc_sync:{relpath}"}
    for index, block in enumerate(blocks, start=1):
        try:
            exec(compile(block, f"{relpath}#block{index}", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(
                f"{relpath} code block {index} raised "
                f"{type(exc).__name__}: {exc}\n---\n{block}"
            )


def test_docs_cross_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/OBSERVABILITY.md" in readme
    assert "docs/API.md" in readme
    assert "docs/PERFORMANCE.md" in readme
    assert "docs/ANALYSIS.md" in readme
    assert "docs/SERVING.md" in readme
    assert "docs/BACKENDS.md" in readme


def test_serving_knob_table_matches_service_config():
    """docs/SERVING.md's knob table lists exactly the ServiceConfig fields."""
    import dataclasses

    from repro.service import ServiceConfig

    text = (REPO_ROOT / "docs/SERVING.md").read_text()
    section = text.split("## Configuration knobs", 1)[1].split("\n## ", 1)[0]
    knobs = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    assert knobs == [field.name for field in dataclasses.fields(ServiceConfig)]
