"""Command-line front end.

Subcommands: classify | selmer | rank | repr | scan | descent.  Output is
JSON (array of objects, fixed key order), RFC-4180 CSV, or an aligned text
table; identical invocations produce byte-identical output.  JSON and CSV
records are written as they are computed; the text table is written once
every row is known, because its column widths depend on all of them.
Records carry spec_version 1.  Square classes serialize both as sorted
signed integers (with p substituted numerically) and as a symbolic
companion column using "p" notation for comparison against the case
tables.

Exit codes: 0 ok, 1 internal inconsistency detected (engine disagrees with
a closed form; the offending record is still emitted), 2 usage error (a
descent curve the engine cannot take among them), 3 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys
import tempfile
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Optional

from .arith import IS_PRIME_LIMIT, is_prime, iter_primes
from .descent import CurveModel, RankBounds, bad_places, dual_curve, rank_bounds, selmer
from .family import (
    classify,
    closed_form_selmer_psi,
    closed_form_selmer_psibar,
    curve_for_prime,
    find_repr,
    theorem_bound,
    verify_prime,
)

SPEC_VERSION = 1


class RunConfig(NamedTuple):
    command: str
    p: Optional[int] = None
    range_max: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None
    height_bound: int = 2000
    output_format: str = "text"
    output_path: Optional[str] = None
    parallelism: int = 1


# column runs shared between commands
_CLASS = ("spec_version", "p", "mod24", "quartic2")
_BOUNDS = RankBounds._fields
_RANK_HEAD = (*_CLASS, *_BOUNDS, "theorem_bound", "proposition")
_SELMER_CLASSES = ("selmer_psibar", "selmer_psi", "selmer_psibar_symbolic", "selmer_psi_symbolic")
_REPR = ("repr_3p_a", "repr_3p_b", "repr_p_a", "repr_p_b")

# the columns rank and scan project from one report (scan's also head a scan
# with no primes); other records keep the keys their builders write, in order
_SCHEMAS = {
    "rank": (*_RANK_HEAD, "consistent"),
    "scan": (*_RANK_HEAD, *_SELMER_CLASSES, *_REPR, "consistent"),
}


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")


def _prime_arg(text: str) -> int:
    value = _int_arg(text)
    if value >= IS_PRIME_LIMIT:
        raise argparse.ArgumentTypeError(
            f"{value} is past the range of the primality test (p < {IS_PRIME_LIMIT})"
        )
    if value < 2 or not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _positive_arg(text: str) -> int:
    value = _int_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _max_arg(text: str) -> int:
    value = _positive_arg(text)
    if value >= IS_PRIME_LIMIT:
        raise argparse.ArgumentTypeError(
            f"{value} is past the range of the primality test (--max < {IS_PRIME_LIMIT})"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isodescent",
        description="2-descent via 2-isogeny for y^2 = x^3 + 18p^2x",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, height=True):
        sp.add_argument(
            "--format", dest="output_format", choices=("json", "csv", "text"), default="text"
        )
        sp.add_argument("--out", dest="output_path", metavar="PATH", default=None)
        if height:
            sp.add_argument("--height-bound", type=_positive_arg, default=2000)

    for command, summary in (
        ("classify", "residue class, quartic character, rank ceiling"),
        ("selmer", "closed-form and engine Selmer groups"),
        ("rank", "rank bounds with proposition statements"),
        ("repr", "fourth-power representations of 3p and p"),
    ):
        sp = sub.add_parser(command, help=summary)
        sp.add_argument("--p", type=_prime_arg, required=True)
        add_common(sp, height=command == "rank")

    sp = sub.add_parser("scan", help="full report for every prime up to --max")
    sp.add_argument("--max", dest="range_max", type=_max_arg, required=True)
    sp.add_argument(
        "--jobs", dest="parallelism", metavar="JOBS", type=_positive_arg,
        default=_usable_cpus(),
    )
    add_common(sp)

    sp = sub.add_parser("descent", help="rank bounds for an arbitrary curve (a, b)")
    sp.add_argument("--a", type=_int_arg, required=True)
    sp.add_argument("--b", type=_int_arg, required=True)
    add_common(sp)
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "descent":
        try:
            bad_places(CurveModel(ns.a, ns.b))
        except ValueError as exc:
            parser.error(f"cannot run descent on (a, b) = ({ns.a}, {ns.b}): {exc}")
    return RunConfig(**vars(ns))


# ---------------------------------------------------------------------------
# record construction


def _symbolic(c: int, p: int) -> str:
    if p > 3 and c % p == 0:
        s = c // p
        head = {1: "", -1: "-"}.get(s, str(s))
        return f"{head}p"
    return str(c)


def _classes_numeric(classes) -> str:
    return " ".join(str(c) for c in sorted(classes))


def _classes_symbolic(classes, p: int) -> str:
    return " ".join(_symbolic(c, p) for c in sorted(classes))


def _class_cells(cls) -> dict:
    return dict(zip(_CLASS, (SPEC_VERSION, cls.p, cls.residue_mod_24, cls.quartic2)))


def _repr_cells(w3p, wp) -> dict:
    """The four repr_* cells; a missing witness gives empty cells."""
    return dict(zip(_REPR, [getattr(w, ab, None) for w in (w3p, wp) for ab in ("a", "b")]))


def _classify_record(p: int) -> dict:
    return {**_class_cells(classify(p)), "theorem_bound": str(theorem_bound(p))}


def _selmer_record(p: int) -> dict:
    E = curve_for_prime(p)
    closed = closed_form_selmer_psibar(p).classes, closed_form_selmer_psi(p).classes
    engine = selmer(E).classes, selmer(dual_curve(E)).classes
    return {
        "spec_version": SPEC_VERSION,
        "p": p,
        "closed_psibar": _classes_numeric(closed[0]),
        "closed_psi": _classes_numeric(closed[1]),
        "engine_psibar": _classes_numeric(engine[0]),
        "engine_psi": _classes_numeric(engine[1]),
        "psibar_symbolic": _classes_symbolic(engine[0], p),
        "psi_symbolic": _classes_symbolic(engine[1], p),
        "consistent": closed == engine,
    }


def _repr_record(p: int) -> dict:
    cells = _repr_cells(find_repr(3 * p, 2), find_repr(p, 18))
    return {"spec_version": SPEC_VERSION, "p": p, **cells}


def _report_record(p: int, height_bound: int, columns: tuple[str, ...]) -> dict:
    """Project verify_prime's report for p onto columns (rank's or scan's)."""
    report = verify_prime(p, height_bound)
    bar, psi = report.engine_psibar.classes, report.engine_psi.classes
    cells = {
        **_class_cells(report.prime_class),
        **report.rank_bounds._asdict(),
        "theorem_bound": str(report.theorem_bound),
        "proposition": str(report.proposition) if report.proposition else "",
        "selmer_psibar": _classes_numeric(bar),
        "selmer_psi": _classes_numeric(psi),
        "selmer_psibar_symbolic": _classes_symbolic(bar, p),
        "selmer_psi_symbolic": _classes_symbolic(psi, p),
        **_repr_cells(report.repr_3p, report.repr_p),
        "consistent": report.consistent,
    }
    return {k: cells[k] for k in columns}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps
    one, which os.cpu_count() ignores."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_primes(fn, primes: Iterable[int], jobs: int) -> Iterator[dict]:
    """fn over primes, lazily and in order, in J = min(jobs, usable CPUs,
    primes) processes: this one and J - 1 children that workers.forked_map
    forks.  Without os.fork, a plain map in this process."""
    from itertools import chain, islice

    primes = iter(primes)
    head = list(islice(primes, min(jobs, _usable_cpus())))
    jobs, primes = len(head), chain(head, primes)
    if jobs <= 1 or not hasattr(os, "fork"):
        yield from map(fn, primes)
        return
    from .workers import forked_map

    yield from forked_map(fn, primes, jobs)


def _descent_records(config: RunConfig) -> Iterator[dict]:
    bounds = rank_bounds(CurveModel(config.a, config.b), config.height_bound)
    yield {"spec_version": SPEC_VERSION, "a": config.a, "b": config.b, **bounds._asdict()}


def execute(config: RunConfig) -> Iterator[dict]:
    """The configured command's records, in order.

    Each per-prime command maps its row builder over its primes: --p, or
    every prime up to --max for scan.  The primes are sieved and their
    records computed as the iterator reaches them, so a caller that writes
    each one out holds one at a time.
    """
    command = config.command
    if command == "descent":
        return _descent_records(config)
    report = partial(
        _report_record, height_bound=config.height_bound, columns=_SCHEMAS.get(command)
    )
    builders = {"classify": _classify_record, "selmer": _selmer_record, "repr": _repr_record}
    row = {**builders, "rank": report, "scan": report}.get(command)
    if row is None:
        raise ValueError(f"unknown command {command!r}")
    primes = iter_primes(config.range_max) if command == "scan" else [config.p]
    return _map_primes(row, primes, config.parallelism)


# ---------------------------------------------------------------------------
# serialization


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_chunks(records: Iterable[dict], columns) -> Iterator[str]:
    """json.dumps(list(records), indent=2) + "\n", one record at a time."""
    import json

    encode = json.JSONEncoder(indent=2).encode
    opening = "[\n  "
    for rec in records:
        yield opening + encode(rec).replace("\n", "\n  ")
        opening = ",\n  "
    yield "[]\n" if opening == "[\n  " else "\n]\n"


def _csv_chunks(records: Iterable[dict], columns) -> Iterator[str]:
    """The header (the first record's keys, else columns), then a row per record."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    header = None
    for rec in records:
        if header is None:
            header = tuple(rec)
            writer.writerow(header)
        writer.writerow(_csv_cell(rec.get(k)) for k in header)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()
    if header is None and columns:
        writer.writerow(columns)
        yield buf.getvalue()


def _text_chunks(records: Iterable[dict], columns) -> Iterator[str]:
    """The aligned table in one piece: its column widths need every row first."""
    header, rows = columns or (), []
    for rec in records:
        if not rows:
            header = tuple(rec)
        rows.append([_csv_cell(rec.get(k)) for k in header])
    if not header:
        yield "(no records)\n"
        return
    widths = [max(len(k), *(len(row[i]) for row in rows)) if rows else len(k) for i, k in enumerate(header)]
    lines = ("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in (header, *rows))
    yield "\n".join(lines) + "\n"


_CHUNKS = {"json": _json_chunks, "csv": _csv_chunks, "text": _text_chunks}


def _write_chunks(out, chunks: Iterable[str]) -> int:
    size = 0
    for chunk in chunks:
        data = memoryview(chunk.encode())
        size += len(data)
        while data:
            # stdout's raw FileIO may take only part of a write, or none
            # (None) if non-blocking
            written = out.write(data)
            if written is None:
                import select

                select.select([], [out], [])
            else:
                data = data[written:]
    return size


class _Terminated(BaseException):
    """SIGTERM arrived while write_records held its temp file."""


def _raise_terminated(signum, frame) -> None:
    raise _Terminated


def write_records(
    records: Iterable[dict],
    output_format: str,
    path: Optional[str] = None,
    columns: Optional[tuple[str, ...]] = None,
) -> int:
    """Serialize records as they arrive, one write per record (text: one
    write in all), to path or else stdout; returns the bytes written.

    A path gets write-then-rename, so a failure leaves no partial file,
    and a path that names a directory raises IsADirectoryError before the
    first record is pulled; the file gets mode 0o666 less the umask, as a
    newly created file would.  A SIGTERM meanwhile removes the temp file,
    then ends the process by that signal.  columns supplies the header
    when there are no records.
    """
    chunks = _CHUNKS.get(output_format)
    if chunks is None:
        raise ValueError(f"unknown format {output_format!r}")
    chunks = chunks(records, columns)
    if path is None:
        # past the buffer, which raises BlockingIOError on a full pipe
        sys.stdout.flush()
        return _write_chunks(getattr(sys.stdout.buffer, "raw", sys.stdout.buffer), chunks)
    if os.path.isdir(path) and not os.path.islink(path):
        # the rename onto it would fail only after every record is computed
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    import signal
    import threading

    # SIGTERM raises while the temp file may exist, so that the cleanup
    # below runs; only the main thread may set a handler
    handled = threading.current_thread() is threading.main_thread()
    if handled:
        previous = signal.signal(signal.SIGTERM, _raise_terminated)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".isodescent-")
        with os.fdopen(fd, "wb") as handle:
            size = _write_chunks(handle, chunks)
        # mkstemp creates the file 0600 whatever the umask (which can
        # only be read by setting it)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, _Terminated):
            # end by the signal, as an unhandled SIGTERM would (status 143)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.raise_signal(signal.SIGTERM)
        raise
    finally:
        if handled:
            signal.signal(signal.SIGTERM, previous)
    return size


def main(argv: Optional[list[str]] = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    inconsistent = False

    def flagged(records: Iterator[dict]) -> Iterator[dict]:
        nonlocal inconsistent
        for rec in records:
            inconsistent = inconsistent or rec.get("consistent") is False
            yield rec

    records = flagged(execute(config))
    try:
        # the records are computed while they are written: the exit code
        # is known only once the last one is out
        write_records(records, config.output_format, config.output_path, _SCHEMAS.get(config.command))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 1 if inconsistent else 0


if __name__ == "__main__":
    sys.exit(main())
