"""Plain-text matrix exchange.

Sparse triplet format: a header line "rows cols", then one line "i j value"
per nonzero entry, 1-indexed, sorted lexicographically by (i, j).  A zero
matrix is just the header.  The dense form is a JSON object with explicit
shape so that empty matrices round-trip.
"""

from __future__ import annotations

from treelat.zlinalg import IntMatrix


class MatrixFormatError(ValueError):
    pass


def write_triplets(m: IntMatrix) -> str:
    """The triplet text of m: one string per row, joined once.

    The fragment "j 1" of each column is made once per call, and a row is
    its fragments joined by a line break and the row number; only a value
    other than 1 gets its own fragment.
    """
    ones = [f"{j} 1" for j in range(1, m.cols + 1)]
    lines = [f"{m.rows} {m.cols}\n"]
    for i, pairs in enumerate(m.row_pairs, 1):
        if pairs:
            fragments = [ones[j] if x == 1 else f"{j + 1} {x}" for j, x in pairs]
            lines.append(f"{i} " + f"\n{i} ".join(fragments) + "\n")
    return "".join(lines)


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
    """The text of json.dumps({"rows", "cols", "entries"}, indent=2), the
    entries written dense: each row is a copy of one row of "0" strings
    with its nonzeros set, joined once."""
    zeros = ["0"] * m.cols
    rows = []
    for pairs in m.row_pairs:
        row = zeros.copy()
        for j, x in pairs:
            row[j] = str(x)
        rows.append("[\n      " + ",\n      ".join(row) + "\n    ]" if row else "[]")
    entries = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    return f'{{\n  "rows": {m.rows},\n  "cols": {m.cols},\n  "entries": {entries}\n}}\n'
