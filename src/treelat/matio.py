"""Plain-text matrix exchange.

Sparse triplet format: a header line "rows cols", then one line "i j value"
per nonzero entry, 1-indexed, sorted lexicographically by (i, j).  A zero
matrix is just the header.  The dense form is a JSON object with explicit
shape so that empty matrices round-trip.
"""

from __future__ import annotations

import json

from treelat.zlinalg import IntMatrix


class MatrixFormatError(ValueError):
    pass


def write_triplets(m: IntMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i, pairs in enumerate(m.row_pairs, 1):
        for j, x in pairs:
            lines.append(f"{i} {j + 1} {x}")
    return "\n".join(lines) + "\n"


def read_triplets(text: str) -> IntMatrix:
    """The matrix of a triplet file; lines may come in any order.

    A repeated (i, j) is an error, and an explicit zero value is accepted
    but not stored, so the result equals the matrix the file was written
    from.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MatrixFormatError("empty matrix file")
    try:
        rows, cols = (int(x) for x in lines[0].split())
    except ValueError as exc:
        raise MatrixFormatError(f"bad header {lines[0]!r}") from exc
    if rows < 0 or cols < 0:
        raise MatrixFormatError("negative dimensions")
    values: dict[tuple[int, int], int] = {}
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
        if (i - 1, j - 1) in values:
            raise MatrixFormatError(f"repeated triplet position: {line!r}")
        values[i - 1, j - 1] = x
    data: list[list[tuple[int, int]]] = [[] for _ in range(rows)]
    for (i, j), x in sorted(values.items()):
        if x:
            data[i].append((j, x))
    return IntMatrix(rows, cols, tuple(map(tuple, data)))


def write_dense_json(m: IntMatrix) -> str:
    doc = {"rows": m.rows, "cols": m.cols, "entries": m.to_lists()}
    return json.dumps(doc, indent=2) + "\n"
