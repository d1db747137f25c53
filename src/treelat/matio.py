"""Plain-text matrix exchange.

Sparse triplet format: a header line "rows cols", then one line "i j value"
per nonzero entry, 1-indexed, sorted lexicographically by (i, j).  A zero
matrix is just the header.  The dense form is a JSON object with explicit
shape so that empty matrices round-trip.
"""

from __future__ import annotations

import json
from itertools import compress

from treelat.zlinalg import IntMatrix


class MatrixFormatError(ValueError):
    pass


def write_triplets(m: IntMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    cols = range(m.cols)
    for i, row in enumerate(m.entries, 1):
        for j in compress(cols, row):
            lines.append(f"{i} {j + 1} {row[j]}")
    return "\n".join(lines) + "\n"


def read_triplets(text: str) -> IntMatrix:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatrixFormatError("empty matrix file")
    try:
        rows, cols = (int(x) for x in lines[0].split())
    except ValueError as exc:
        raise MatrixFormatError(f"bad header {lines[0]!r}") from exc
    if rows < 0 or cols < 0:
        raise MatrixFormatError("negative dimensions")
    data = [[0] * cols for _ in range(rows)]
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise MatrixFormatError(f"bad triplet line {line!r}")
        try:
            i, j, x = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise MatrixFormatError(f"bad triplet line {line!r}") from exc
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixFormatError(f"triplet index out of range: {line!r}")
        data[i - 1][j - 1] = x
    return IntMatrix.from_rows(data, cols=cols)


def write_dense_json(m: IntMatrix) -> str:
    doc = {"rows": m.rows, "cols": m.cols, "entries": m.to_lists()}
    return json.dumps(doc, indent=2) + "\n"
