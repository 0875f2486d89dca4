"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import diskcovers


@pytest.fixture
def peak_rss_mb():
    """Run Python ``code`` in a fresh interpreter; return its peak RSS in MB.

    In a process of its own, so that the peak is that run's alone.  The child
    reads its peak off /proc (Linux), not ru_maxrss: a child keeps the RSS its
    parent had when it was spawned as a floor of its ru_maxrss.  ``code``
    checks its own results with ``assert`` and prints nothing.
    """

    def run(code: str) -> float:
        code += "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        env = dict(os.environ, PYTHONPATH=str(Path(diskcovers.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        return int(child.stdout) / 1024  # VmHWM counts kB

    return run
