import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_scipy():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import permsplit; "
        "print('scipy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
