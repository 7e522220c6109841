"""What importing the package loads, each checked in a fresh interpreter.

`render_gantt` imports ``xml.sax.saxutils`` (which pulls in
``urllib.request``) only when called, and only the CLI needs click, so
``import flexshop`` stays cheap for every other caller.
"""

import json
import subprocess
import sys

import pytest

HEAVY = ("click", "urllib.request", "xml.sax", "hypothesis", "scipy")


def loaded_after(module: str) -> set[str]:
    """The names among `HEAVY` in ``sys.modules`` after importing `module`
    in a new interpreter."""
    code = (f"import json, sys, {module}; "
            f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return set(json.loads(out))


@pytest.mark.parametrize("module, expected", [
    ("flexshop", set()),
    ("flexshop.cli", {"click"}),
])
def test_import_loads_only_what_it_needs(module, expected):
    assert loaded_after(module) == expected
