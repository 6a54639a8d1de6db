"""Reading back the CLI's CSV output with its documented column types,
used only by the tests."""

import csv
import io
from typing import Optional

from isodescent.cli import _BOUNDS, _REPR


def _optional_int(cell: str) -> Optional[int]:
    return int(cell) if cell else None


# CSV cell parser per typed column; every other column is a string
_CELL_TYPES = {
    **dict.fromkeys(("spec_version", "p", "a", "b", "mod24", *_BOUNDS), int),
    **dict.fromkeys(("quartic2", *_REPR), _optional_int),
    "consistent": lambda cell: cell == "true",
}


def parse_records_csv(data: bytes) -> list[dict]:
    """Inverse of write_records(..., "csv"): restores the documented column types."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows:
        return []
    header, *body = rows
    return [{key: _CELL_TYPES.get(key, str)(cell) for key, cell in zip(header, row)} for row in body]
