import os
import signal
import sys
from contextlib import contextmanager

# allow running the suite from a fresh checkout without installing: src/
# goes on this process's path and on PYTHONPATH, which the subprocesses
# that run the CLI inherit
_TESTS = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_TESTS), "src")
sys.path.insert(0, _SRC)
# the test modules import conftest, oracle and records_csv as top-level
# modules, which pytest's importlib import mode does not make importable
if _TESTS not in sys.path:
    sys.path.insert(0, _TESTS)
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
