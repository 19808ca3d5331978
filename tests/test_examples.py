"""Every example imports: a name an example uses cannot vanish from the package.

The examples are full end-to-end runs (tens of seconds each), so this imports
each module without calling its ``main()``.  Importing resolves every
``from repro... import`` line, which is where a deleted or renamed public name
would break an example.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    # An empty glob would leave the parametrized test below with no cases.
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
