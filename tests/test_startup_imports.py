"""Start-up gate: the modules a fresh ``arcfield`` command line loads.

Every run of the command line pays its imports before any work.  Wall time
is noisy, but the set of modules loaded is not: this test launches a fresh
interpreter that imports the CLI and builds its parser, subtracts what a bare
interpreter loads in the same environment, and fails if a heavy standard
module comes back: ``dataclasses``, with ``inspect``, ``ast`` and ``dis``
under it, once took about a quarter of the start-up.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_CODE = "import arcfield.cli; arcfield.cli.build_parser()"
REFUSED = {"dataclasses", "inspect"}


def loaded_modules(code: str) -> set:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return set(out.split())


def test_cli_start_up_loads_no_code_generation_modules():
    added = loaded_modules(SETUP_CODE) - loaded_modules("pass")
    assert "arcfield.cli" in added and "argparse" in added
    assert sorted(added & REFUSED) == []
