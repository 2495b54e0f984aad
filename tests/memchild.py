"""Child processes that report their own memory.

A child reads VmHWM (its peak RSS since exec) and VmRSS from
/proc/self/status. ru_maxrss will not do: a child started by vfork keeps
the high-water mark of the test process that started it, so it would read
pytest's own peak.
"""

import os
import subprocess
import sys
from pathlib import Path

HAS_STATUS = os.path.exists("/proc/self/status")


def status_kib(field):
    """The value of field ("VmHWM", "VmRSS") in /proc/self/status, in KiB."""
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(field + ":"))


def run(code, *args):
    """stdout of `python -c code *args` in a child on one BLAS thread, which
    can import this module. Fails the calling test unless the child exits 0."""
    path = [str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
