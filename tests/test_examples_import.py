"""Every example script still imports against the current public API.

Nothing else in the suite imports ``examples/``, so a deleted or renamed
public name that an example uses would go unnoticed until someone ran it.
Each script guards its ``main`` behind ``if __name__ == "__main__"``, so
running it under another name executes only its imports and definitions.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent
                   / "examples").glob("*.py"))
assert EXAMPLES, "no example scripts found"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path: Path) -> None:
    namespace = runpy.run_path(str(path), run_name="examples_import_check")
    assert callable(namespace.get("main"))
