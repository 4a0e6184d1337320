"""The one CSV format of every artifact the package writes."""

from __future__ import annotations

import csv
import io
from typing import Iterable

import numpy as np


def _cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def csv_text(header: list[str], rows: Iterable[Iterable]) -> str:
    """A header row plus one row per item of ``rows``, with "\\n" line
    endings. Floats, Python or numpy, are written as ``repr(float(x))``,
    which reads back to the same bits; bools as true/false; everything
    else as ``str``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return buf.getvalue()
