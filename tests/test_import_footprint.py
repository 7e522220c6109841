"""What importing the package loads, each checked in a fresh interpreter.

Only the CLI needs click, and nothing, not even `render_gantt`, loads
``xml.sax`` or ``urllib.request``, so ``import flexshop`` stays cheap for
every other caller.
"""

import json
import subprocess
import sys

import pytest

HEAVY = ("click", "urllib.request", "xml.sax", "hypothesis", "scipy")


def loaded_after(module: str, then: str = "pass") -> set[str]:
    """The names among `HEAVY` in ``sys.modules`` after importing `module`
    in a new interpreter and running the statements `then`."""
    code = (f"import json, sys, {module}; {then}; "
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


def test_render_gantt_loads_no_xml_or_urllib():
    render = ("from flexshop.schedule import Schedule, ScheduleEntry, "
              "render_gantt; render_gantt(Schedule.from_entries("
              "[ScheduleEntry(0, 0, 0, 0, 3)]), title='<a&b>')")
    assert loaded_after("flexshop", render) == set()
