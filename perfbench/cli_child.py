"""Run one itpsearch CLI command traced, in a fresh interpreter, and save its spans.

The spans go to SPANS_FILE as JSON; the exit code is the command's.  Started by
run.py with ./src on PYTHONPATH:

    python3 perfbench/cli_child.py SPANS_FILE VERB [ARGS...]
"""

import json
import sys

from spans import Tracer

import itpsearch.cli

tracer = Tracer()
tracer.install()
code = tracer.span("cli", itpsearch.cli.main)(sys.argv[2:])
tracer.uninstall()
with open(sys.argv[1], "w") as fh:
    json.dump(tracer.spans, fh)
sys.exit(code)
