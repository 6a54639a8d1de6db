"""Scan workers forked straight from the CLI process.

cli imports this module only for a scan that runs in more than one
process, so no other process loads it or signal.  Records cross the pipes
as marshal frames, so pickle is loaded only to carry a child's exception.
"""

import marshal
import os
import signal
from itertools import islice

_HEADER = 5  # a kind byte, b"r" record or b"e" exception, then the body's length


def _frame(kind: bytes, body: bytes) -> bytes:
    return kind + len(body).to_bytes(_HEADER - 1, "little") + body


def forked_map(fn, primes, jobs: int):
    """fn over primes, lazily and in order, in jobs forked children:
    record i comes from child i mod jobs, and this process only reads the
    records back in order and yields them, never calling fn.

    Each child walks its own copy of the primes and writes each of its
    records to its own pipe as one frame, one flush per record: a kind
    byte, the body's length in 4 bytes, and marshal.dumps(record).  So
    records must be plain data of the types marshal carries (None, bool,
    int, float, str, and exact tuples, lists and dicts of them); any
    other, such as a NamedTuple, raises ValueError here.  An exception in
    a child is pickled into its last frame and raised here; only that path
    loads pickle.  When jobs equals the CPUs of this process's affinity
    mask, child k is bound to the k-th of them and this process keeps the
    mask; with fewer or more jobs, without an affinity API, or where
    binding fails, the children run unbound.  The records are read back in
    order, so a full pipe stops its child.  A child that ends before its
    whole frame, or a fork that fails, raises ChildProcessError here.
    Every child is killed and reaped when the records stop, for whatever
    reason.
    """
    # left to the scheduler, the two children on a two-CPU mask were seen
    # sharing one CPU; a mask with CPUs to spare was not measured
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = []
    readers, pids = [], []
    try:
        for k in range(jobs):
            fd, write_fd = os.pipe()
            readers.append(open(fd, "rb"))
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(write_fd)
                raise ChildProcessError(f"cannot fork scan worker {k + 1} of {jobs}: {exc}") from exc
            if pid == 0:
                # leave by os._exit alone, so that the inherited stdout and
                # --out buffers are never flushed and no cleanup of the
                # parent runs
                try:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    if len(cpus) == jobs:
                        try:
                            os.sched_setaffinity(0, {cpus[k]})
                        except OSError:
                            pass
                    for reader in readers:
                        os.close(reader.fileno())
                    with open(write_fd, "wb") as pipe:
                        try:
                            for p in islice(primes, k, None, jobs):
                                pipe.write(_frame(b"r", marshal.dumps(fn(p))))
                                pipe.flush()
                        except Exception as exc:
                            import pickle

                            pipe.write(_frame(b"e", pickle.dumps(exc)))
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(write_fd)
        for i, p in enumerate(primes):
            # two reads: a pipe read through the buffer is far faster than
            # marshal.load's small reads
            reader = readers[i % jobs]
            header = reader.read(_HEADER)
            size = int.from_bytes(header[1:], "little")
            body = reader.read(size)
            if len(header) < _HEADER or len(body) < size:
                raise ChildProcessError(f"scan worker {pids[i % jobs]} ended before its record for p = {p}")
            if header[:1] == b"e":
                import pickle

                raise pickle.loads(body)
            yield marshal.loads(body)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()
