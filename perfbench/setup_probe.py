"""Set-up probe, run in a fresh process by run.py.

Usage: python3 setup_probe.py SRC_DIR FILE...

Imports permsplit from SRC_DIR, parses every generator file, and prints the
seconds this took.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import permsplit  # noqa: E402

for path in sys.argv[2:]:
    permsplit.parse_generators(path)
print(time.perf_counter() - t0)
