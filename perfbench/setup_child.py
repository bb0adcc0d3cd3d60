"""Time itpsearch's set-up in a fresh interpreter and print the seconds taken.

Set-up is the package import plus, when a key file is given, one
``datasets.load_text`` on it.  Started by run.py with ./src on PYTHONPATH:

    python3 perfbench/setup_child.py [KEYS_FILE]
"""

import sys
from time import perf_counter

start = perf_counter()
import itpsearch  # noqa: E402  (the import is what is being timed)

if len(sys.argv) > 1:
    itpsearch.datasets.load_text(sys.argv[1])
print(perf_counter() - start)
