import os
import signal
import sys
from contextlib import contextmanager

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


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
