from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The line cli_digest.py prints for this tree's src; its docstring lists the
# corpus.  A change meant to keep every CLI byte must keep this line.
DIGEST = (
    "4444 calls; exit codes 0: 3884, 1: 77, 2: 483; "
    "sha1 10803b66d2493aff83dfef5e87092692ab82c8d1"
)


def test_cli_digest_is_unchanged():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "cli_digest.py"), "--src", str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == DIGEST + "\n"
