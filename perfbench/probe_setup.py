"""Set-up probe: import timefreq and build its CLI parser, then say "ready".

Started by run.py in a fresh interpreter; the parent times the span from
starting this process to reading the line.  Argument: the ``src`` directory.
"""

import sys

sys.path.insert(0, sys.argv[1])

import timefreq  # noqa: E402
import timefreq.cli  # noqa: E402

timefreq.cli.build_parser()
print("ready", flush=True)
