"""benchlock runs on the Python standard library alone."""

import json
import subprocess
import sys
from pathlib import Path

import benchlock

PROBE = """
import json, pkgutil, sys
before = set(sys.modules)
import benchlock
for info in pkgutil.iter_modules(benchlock.__path__):
    __import__("benchlock." + info.name)
print(json.dumps(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def test_every_module_imports_only_the_standard_library():
    # Modules loaded before benchlock (site hooks of the interpreter's own
    # environment) are not counted; everything benchlock pulls in is.
    src = str(Path(benchlock.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, check=True, timeout=60,
        env={"PYTHONPATH": src},
    ).stdout
    loaded = set(json.loads(out))
    assert "benchlock" in loaded
    third_party = sorted(
        m for m in loaded if m != "benchlock" and m not in sys.stdlib_module_names
    )
    assert third_party == []
