import os
import signal
import sys
from contextlib import contextmanager

# allow running the suite from a fresh checkout without installing: src/
# goes on this process's path and on PYTHONPATH, which the subprocesses
# that run the CLI inherit
_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError inside the block once it has run for seconds, so
    a search that should stop early fails its test instead of hanging the
    suite.  Uses SIGALRM: main thread, POSIX only."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
