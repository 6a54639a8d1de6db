"""Scan workers forked straight from the CLI process.

cli imports this module only for a scan that runs in more than one
process, so no other process loads it, pickle or signal.
"""

import os
import pickle
import signal
from itertools import islice


def forked_map(fn, primes, jobs: int):
    """fn over primes, lazily and in order, in jobs processes: record i
    comes from process i mod jobs, and this one computes records 0, jobs,
    2 * jobs, ... itself.

    Each of the jobs - 1 forked children walks its own copy of the primes
    and pickles its records, or the exception fn raised, into its own
    pipe, one flush per record.  The records are read back in order, so a
    full pipe stops its child.  A child that ends before its record raises
    ChildProcessError here.  Every child is killed and reaped when the
    records stop, for whatever reason.
    """
    readers, pids = [], []
    try:
        for k in range(1, jobs):
            fd, write_fd = os.pipe()
            readers.append(open(fd, "rb"))
            pid = os.fork()
            if pid == 0:
                # leave by os._exit alone, so that the inherited stdout and
                # --out buffers are never flushed and no cleanup of the
                # parent runs
                try:
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    for reader in readers:
                        os.close(reader.fileno())
                    with open(write_fd, "wb") as pipe:
                        try:
                            for p in islice(primes, k, None, jobs):
                                pickle.dump(fn(p), pipe)
                                pipe.flush()
                        except Exception as exc:
                            pickle.dump(exc, pipe)
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(write_fd)
        for i, p in enumerate(primes):
            if i % jobs == 0:
                yield fn(p)
                continue
            try:
                record = pickle.load(readers[i % jobs - 1])
            except EOFError:
                pid = pids[i % jobs - 1]
                raise ChildProcessError(f"scan worker {pid} ended before its record for p = {p}") from None
            if isinstance(record, Exception):
                raise record
            yield record
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()
