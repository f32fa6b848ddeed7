"""What ``import mpflow`` costs a short-lived process: which modules it loads."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules that cost milliseconds to load and that ``mpflow`` needs only on
# branches that log: ``dataclasses`` pulls in ``inspect`` (and with it
# ``ast``, ``dis`` and ``tokenize``).
HEAVY = ("dataclasses", "inspect", "logging")


def test_import_mpflow_loads_no_dataclasses_inspect_or_logging():
    # -S: no site module, whose start-up hooks may load any of them.
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import mpflow\n"
        "assert mpflow.__file__.startswith(sys.path[0]), mpflow.__file__\n"
        f"print(sorted(set({HEAVY!r}) & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
