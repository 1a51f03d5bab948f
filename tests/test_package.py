"""The package declares no dependencies, so importing it loads only the stdlib."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import remcode
print("\\n".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_the_standard_library():
    out = subprocess.run([sys.executable, "-c", PROBE, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    added = set(out.split())
    assert "remcode" in added
    assert {name for name in added
            if name != "remcode" and name not in sys.stdlib_module_names} == set()
