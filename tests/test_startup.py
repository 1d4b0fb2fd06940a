"""Start-up cost, pinned by what the import loads rather than by a timing."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# `dataclasses` pulls in `inspect`, `dis`, `ast` and `tokenize`, and each
# decorator generates code with `exec`; every CLI command pays that at import
_CHECK = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import jetlie.cli\n"
    "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
)


def test_cli_import_loads_no_dataclasses_or_inspect():
    done = subprocess.run(
        [sys.executable, "-I", "-c", _CHECK, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
