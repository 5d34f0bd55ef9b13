"""Span recorder for spawned TCP worker daemons.

The traced run puts this directory on the daemons' ``PYTHONPATH`` and names
a dump directory in ``PERFBENCH_TRACE_DIR``; Python imports this module at
start-up, which installs the benchmark's layer wrappers and writes the
daemon's spans there when it exits.  Without that variable it does nothing.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import atexit
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import spans

    _recorder = spans.Recorder("worker", os.environ["PERFBENCH_TRACE_DIR"])
    spans.install(_recorder)
    atexit.register(_recorder.dump)
