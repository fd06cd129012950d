"""Each `vps` module imports alone, in a fresh interpreter, on numpy only."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path.stem for path in (SRC / "vps").glob("*.py") if path.stem != "__init__")

# Prints the top-level packages that importing the module loaded, other
# than the standard library's and vps itself.
PROBE = """
import sys
before = set(sys.modules)
import vps.{module}
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {{"vps"}})))
"""


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_on_numpy(module):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", PROBE.format(module=module)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) <= {"numpy"}


def test_every_module_is_probed():
    assert {"core", "profiles", "mesolver", "measures", "cli"} <= set(MODULES)
