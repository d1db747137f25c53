"""Integer reduction kernels: the hot loops behind treelat.zlinalg.

A sparse unimodular elimination of [a^T | I], which gives a saturated
kernel basis, a basis of the column lattice and, in its number of pivots,
the rank over Q; a textbook dense Smith diagonal, which finishes the Smith
form on the pivot rows not split off as units; and the canonical row-style
Hermite normal form.  This is the only implementation, in plain Python.

The Smith and Hermite kernels read lists of row lists of Python ints
(arbitrary precision is required: intermediate entries can far exceed
machine range even for small inputs); the elimination reads sparse rows
of (column, value) pairs instead.  Inputs are never mutated.
"""

from __future__ import annotations


def _nonzeros(row):
    return [(j, x) for j, x in enumerate(row) if x]


def unimodular_elimination(rows, with_transform=True):
    """Row-reduce [a^T | I] by unimodular integer row operations.

    rows are the rows of a^T, that is the n columns of an m x n matrix a,
    as (index, value) pairs.  Each working row is a pair of dicts: its a^T
    part and its I part, which starts as the unit vector of the row.
    Returns (kernel, pivots): kernel holds the I parts of the rows whose a^T
    part vanished, a saturated basis of ker a; pivots holds (c, image,
    transform) for each pivot row in the order taken, c its pivot column
    and image and transform its two parts.  The images, the rows of a
    matrix B, span the column lattice of a.

    With with_transform false the I part is left out: every I part starts,
    and stays, empty.  The loop is the same, so the pivots and their images
    still give the rank and the column lattice of a, and the kernel still
    has one (empty) row per dimension of ker a; but no basis of it is kept,
    and the work and memory the I parts take are saved.  The pivot order
    then breaks ties without them, so B may differ from the one with the
    I part, with the same row lattice.

    Pivots, Markowitz-style: the column of a^T with the fewest live rows,
    the smaller index on ties; in it, the entry of least magnitude, ties to
    the row with the fewest nonzeros in [a^T | I], then the smaller index.
    Every other live row with a nonzero in that column is reduced by the
    floor quotient against the pivot.  A unit pivot clears the column.
    Where the pivot is not a unit, remainders can survive, all smaller than
    it; the least of them becomes the pivot, a Euclid step, until one row
    is left in the column.  That row leaves the active matrix as a pivot
    row, and every later pivot row has a zero in its column.  A row whose
    a^T part vanishes leaves as a kernel row.

    Why the kernel rows are a saturated basis.  Each step adds an integer
    multiple of one row to another, so the working matrix is always
    [U.a^T | U] with U unimodular, and at the end U.a^T = (R; 0): R is B,
    the rows of U under it are the kernel rows.  R has full row rank, since
    pivot row k is nonzero in column c_k and every later one is zero there.
    U is invertible over Z, so every x in Z^n is x^T = y^T.U for one
    integer y, and x^T.a^T = y^T.(R; 0) is zero iff y is zero on R's rows.
    So a.x = 0 iff x is an integer combination of the kernel rows, which
    are independent as rows of U.  The row lattice of R is that of
    U.a^T, hence that of a^T: B^T has the column lattice of a.
    """
    live = {}  # row -> (a^T part, I part)
    cols = {}  # column of a^T -> the live rows with a nonzero there
    kernel = []
    for i, pairs in enumerate(rows):
        unit = {i: 1} if with_transform else {}
        if pairs:
            live[i] = (dict(pairs), unit)
            for c, _ in pairs:
                cols.setdefault(c, set()).add(i)
        else:
            kernel.append(unit)

    pivots = []
    while cols:
        # The column with the fewest live rows, the smaller index on ties,
        # in one pass at C speed.
        fewest, c = min(zip(map(len, cols.values()), cols))
        column = cols[c]
        if fewest == 1:  # the one live row is the pivot; nothing to reduce
            (p,) = column
            image_p, transform_p = live.pop(p)
        else:
            while True:
                p = min(
                    [
                        (abs(image[c]), len(image) + len(transform), i)
                        for i in column
                        for image, transform in (live[i],)
                    ]
                )[2]
                image_p, transform_p = live[p]
                v = image_p[c]
                for i in column - {p}:
                    image, transform = live[i]
                    # |image[c]| >= |v|, so q is not zero: an entry the
                    # pivot row brings into this row is nonzero.
                    q = image[c] // v
                    for j, x in image_p.items():
                        y = image.get(j)
                        if y is None:
                            image[j] = -q * x
                            cols[j].add(i)
                        elif y := y - q * x:
                            image[j] = y
                        else:
                            del image[j]
                            cols[j].discard(i)
                    for j, x in transform_p.items():
                        y = transform.get(j)
                        if y is None:
                            transform[j] = -q * x
                        elif y := y - q * x:
                            transform[j] = y
                        else:
                            del transform[j]
                    if not image:
                        del live[i]
                        kernel.append(transform)
                if len(column) == 1:
                    break
            del live[p]
        for j in image_p:
            live_j = cols[j]
            live_j.discard(p)
            if not live_j:
                del cols[j]
        pivots.append((c, image_p, transform_p))
    return kernel, pivots


def smith_diagonal(a):
    """The canonical Smith normal form of the dense matrix a (row lists):
    diagonal, positive factors d1 | d2 | ... then zeros; no transforms.
    The textbook schedule: the least entry, first in row-major order, is
    the pivot; row and column operations clear its column and row, a
    surviving remainder becoming the pivot; a pivot that does not divide
    every remaining entry adds in the first row holding one.
    smith_normal_form hands it only the pivot rows that are not split off.
    """
    m, n = len(a), (len(a[0]) if a else 0)
    d = [list(row) for row in a]
    k = 0
    while k < min(m, n):
        entries = [(abs(d[i][j]), i, j) for i in range(k, m) for j in range(k, n) if d[i][j]]
        if not entries:
            break
        _, pi, pj = min(entries)
        d[k], d[pi] = d[pi], d[k]
        for row in d:
            row[k], row[pj] = row[pj], row[k]
        d[k] = [-x for x in d[k]] if d[k][k] < 0 else d[k]
        while True:
            while True:  # clear column k below the pivot by row operations
                for i in range(k + 1, m):
                    if q := d[i][k] // d[k][k]:
                        d[i] = [x - q * y for x, y in zip(d[i], d[k])]
                rest = [(d[i][k], i) for i in range(k + 1, m) if d[i][k]]
                if not rest:
                    break
                i = min(rest)[1]
                d[k], d[i] = d[i], d[k]
            while True:  # clear row k right of the pivot by column operations
                for j in range(k + 1, n):
                    if q := d[k][j] // d[k][k]:
                        for row in d:
                            row[j] -= q * row[k]
                rest = [(d[k][j], j) for j in range(k + 1, n) if d[k][j]]
                if not rest:
                    break
                j = min(rest)[1]
                for row in d:
                    row[k], row[j] = row[j], row[k]
            if not any(d[i][k] for i in range(k + 1, m)):
                break
        bad = [row for row in d[k + 1 :] if d[k][k] > 1 and any(x % d[k][k] for x in row)]
        if bad:
            d[k] = [x + y for x, y in zip(d[k], bad[0])]
        else:
            k += 1
    return d


def hermite_rows(a):
    """Canonical row Hermite normal form of the row lattice of a.

    Returns the nonzero rows: echelon by column, pivots positive, entries
    above each pivot reduced into [0, pivot).  The result depends only on
    the integer row span, which makes it usable for lattice equality and
    membership tests.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [list(r) for r in a]
    r = 0
    for j in range(n):
        if r == m:
            break
        placed = False
        while True:
            pi = -1
            best = 0
            for i in range(r, m):
                x = rows[i][j]
                if x != 0:
                    ax = -x if x < 0 else x
                    if pi < 0 or ax < best:
                        pi = i
                        best = ax
                        if best == 1:
                            break
            if pi < 0:
                break
            placed = True
            if pi != r:
                rows[pi], rows[r] = rows[r], rows[pi]
            rr = rows[r]
            if rr[j] < 0:
                for jj in range(j, n):
                    rr[jj] = -rr[jj]
            p = rr[j]
            # Row r is fixed while the rows below are reduced against it, and
            # its entries left of j are zero; only its nonzeros are applied.
            rr_nz = _nonzeros(rr)
            clear = True
            for i in range(r + 1, m):
                ri = rows[i]
                x = ri[j]
                if x != 0:
                    q = x // p
                    if q:
                        for jj, y in rr_nz:
                            ri[jj] -= q * y
                    if ri[j] != 0:
                        clear = False
            if clear:
                break
        if placed:
            rr = rows[r]
            p = rr[j]
            rr_nz = _nonzeros(rr)
            for i in range(r):
                ri = rows[i]
                q = ri[j] // p
                if q:
                    for jj, y in rr_nz:
                        ri[jj] -= q * y
            r += 1
    del rows[r:]
    return rows
