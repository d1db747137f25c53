"""Integer reduction kernels: the hot loops behind treelat.zlinalg.

Smith normal form with its unimodular transforms, the canonical row-style
Hermite normal form, and a sparse rank over a prime field.  This is the
only implementation; it is plain Python, so every algorithm change is made
in one place.

The matrices the pipeline reduces (transition operators, boundary maps) are
0/+-1 and sparse, so the Smith kernel does no work on zeros: each
elementary operation collects the nonzero positions of its source row or
column once and updates only those.  The schedule of pivots and operations
is the dense one, so the output does not depend on these shortcuts.

Matrices are lists of row lists of Python ints (arbitrary precision is
required: intermediate entries can far exceed machine range even for small
inputs); rank_mod_p reads sparse rows of (column, value) pairs instead.
Inputs are never mutated.
"""

from __future__ import annotations

# The prime of rank_mod_p: the Mersenne prime 2^61 - 1.  The rank of an
# integer matrix over F_p falls below its rank over Q only when p divides
# one of its invariant factors, which a prime this large practically never
# does for the small entries of the pipeline's operators.
PRIME = (1 << 61) - 1


def _eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _nonzeros(row):
    return [(j, x) for j, x in enumerate(row) if x]


def snf_with_transforms(a, left=True):
    """Return (u, d, v) with u*a*v = d the canonical Smith normal form.

    d is diagonal with positive invariant factors d1 | d2 | ... followed by
    zeros; u (m x m) and v (n x n) are unimodular.  With left=False the left
    transform is neither built nor updated and u is None; d and v are the
    same.  Deterministic: the pivot is always the smallest-magnitude nonzero
    entry of the working submatrix, first in row-major order on ties.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = _eye(m) if left else None
    # Columns of v, so that a column operation or swap is a row one here.
    vt = _eye(n)
    limit = m if m < n else n
    # The rows i >= k not yet seen to be zero, in increasing order.  A zero
    # row stays zero: row operations add multiples of the pivot row only to
    # rows with a nonzero in the pivot column, a column operation changes a
    # row by a multiple of its own pivot-column entry, and a fold changes
    # only the pivot row.  Swaps move rows, and live follows them.  So a row
    # is dropped for good once it reads zero, and every loop over the rows
    # of the working block runs over live only.
    live = list(range(m))
    k = 0
    while k < limit:
        # Invariant at the top of step k: d[k:][:k] and d[:k][k:] are zero
        # (finished pivots have clean rows and columns), so whole-row tests
        # on a row i >= k see only the working submatrix.
        #
        # Pivot search over the untouched submatrix: the first +-1 in
        # row-major order if there is one, else the first entry of least
        # magnitude.  Zero rows and rows holding a unit are settled by
        # C-level scans; only the other rows are walked entry by entry.
        pi = -1
        pj = -1
        best = 0
        zero = []
        for i in live:
            di = d[i]
            if not any(di):
                zero.append(i)
                continue
            has_pos = 1 in di
            has_neg = -1 in di
            if has_pos or has_neg:
                pi = i
                jp = di.index(1) if has_pos else n
                jn = di.index(-1) if has_neg else n
                pj = jp if jp < jn else jn
                best = 1
                break
            for j in range(k, n):
                x = di[j]
                if x != 0:
                    ax = -x if x < 0 else x
                    if pi < 0 or ax < best:
                        pi = i
                        pj = j
                        best = ax
        if pi < 0:
            break  # remaining block is zero; d is final
        if zero:
            dropped = set(zero)
            live = [i for i in live if i not in dropped]
        if pi != k:
            d[k], d[pi] = d[pi], d[k]
            if left:
                u[k], u[pi] = u[pi], u[k]
            if live[0] != k:
                # Row k was zero, and now row pi is.
                live.remove(pi)
                live.insert(0, k)
        below = live[1:]
        if pj != k:
            # Rows above k and zero rows are zero in both columns.
            for i in live:
                row = d[i]
                row[k], row[pj] = row[pj], row[k]
            vt[k], vt[pj] = vt[pj], vt[k]
        if d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            if left:
                u[k] = [-x for x in u[k]]

        while True:
            # Clear column k below the pivot.  Floor division against the
            # positive pivot leaves remainders in [0, pivot); if any survive,
            # the smallest becomes the new (strictly smaller) pivot.  Row k
            # does not change during one sweep, so its nonzero positions
            # (and those of u's row k) are collected once; a row operation
            # adds a multiple of zero everywhere else.
            while True:
                dk = d[k]
                p = dk[k]
                rows = [i for i in below if d[i][k]]
                if not rows:
                    break
                dk_nz = _nonzeros(dk)
                if left:
                    uk_nz = _nonzeros(u[k])
                bi = -1
                bval = 0
                for i in rows:
                    di = d[i]
                    q = di[k] // p
                    if q:
                        for j, x in dk_nz:
                            di[j] -= q * x
                        if left:
                            ui = u[i]
                            for j, x in uk_nz:
                                ui[j] -= q * x
                    r = di[k]
                    if r and (bi < 0 or r < bval):
                        bi = i
                        bval = r
                if bi < 0:
                    break
                d[k], d[bi] = d[bi], d[k]
                if left:
                    u[k], u[bi] = u[bi], u[k]
            # Clear row k right of the pivot, by column operations.  Column
            # k below the pivot is zero on the first sweep, so subtracting
            # multiples of it touches row k only; but a column *swap* can
            # re-dirty column k, hence the outer loop.  Column k of d and of
            # v does not change during one sweep, so their nonzero rows are
            # collected once.
            while True:
                dk = d[k]
                p = dk[k]
                cols = [j for j in range(k + 1, n) if dk[j]]
                if not cols:
                    break
                dcol = [(i, d[i][k]) for i in live if d[i][k]]
                vcol = _nonzeros(vt[k])
                bj = -1
                bval = 0
                for j in cols:
                    q = dk[j] // p
                    if q:
                        for i, y in dcol:
                            d[i][j] -= q * y
                        vj = vt[j]
                        for i, y in vcol:
                            vj[i] -= q * y
                    r = dk[j]
                    if r and (bj < 0 or r < bval):
                        bj = j
                        bval = r
                if bj < 0:
                    break
                for i in live:
                    row = d[i]
                    row[k], row[bj] = row[bj], row[k]
                vt[k], vt[bj] = vt[bj], vt[k]
            clean = True
            for i in below:
                if d[i][k] != 0:
                    clean = False
                    break
            if clean:
                break

        # Divisibility: the pivot must divide every remaining entry.  If it
        # does not, folding the offending row into row k and re-clearing
        # shrinks the pivot toward the gcd; this terminates because the
        # pivot strictly decreases.  A unit pivot divides every integer, so
        # its O(mn) scan could never find anything and is skipped.
        p = d[k][k]
        dirty = False
        if p != 1:
            for i in below:
                di = d[i]
                # Some x % p != 0; entries of row i left of k + 1 are zero,
                # so the whole row can be tested.
                if any(map(p.__rmod__, di)):
                    dk = d[k]
                    for jj in range(k, n):
                        dk[jj] += di[jj]
                    if left:
                        uk = u[k]
                        ui = u[i]
                        for jj in range(m):
                            uk[jj] += ui[jj]
                    dirty = True
                    break
        if not dirty:
            del live[0]
            k += 1
    v = [list(row) for row in zip(*vt)]
    return u, d, v


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


def rank_mod_p(a):
    """Rank over the field F_PRIME of the integer matrix whose row i has the
    nonzero (column, value) pairs a[i].

    Sparse Gaussian elimination: each live row is a dict {column: entry
    mod p}, and each column keeps the set of live rows it meets.  Pivoting
    is Markowitz-style, to keep fill-in low: the column with the fewest live
    entries, then the shortest live row in it, ties broken by the smaller
    index.  Eliminating a pivot clears its column from every other row, so
    the column and the pivot row leave the active matrix; the rank is the
    number of pivots taken.  PRIME is read at call time.
    """
    p = PRIME
    rows = {}
    cols = {}
    for i, row in enumerate(a):
        live = {}
        for j, x in row:
            x %= p
            if x:
                live[j] = x
                if j in cols:
                    cols[j].add(i)
                else:
                    cols[j] = {i}
        if live:
            rows[i] = live
    rank = 0
    while cols:
        fewest = min(map(len, cols.values()))
        j = min([c for c, live in cols.items() if len(live) == fewest])
        col = cols.pop(j)
        pi = min(col, key=lambda r: (len(rows[r]), r))
        pivot = rows.pop(pi)
        # Row i becomes row i - (row_i[j] / pivot[j]) * pivot: with the
        # pivot row scaled by -1 / pivot[j] once, each update is one
        # multiply-add, and each entry carries its column's row set.
        scale = p - pow(pivot.pop(j), -1, p)
        update = [(c, x * scale % p, cols[c]) for c, x in pivot.items()]
        for i in col:
            if i == pi:
                continue
            row = rows[i]
            f = row.pop(j)
            for c, x, live in update:
                y = row.get(c)
                if y is None:
                    row[c] = f * x % p
                    live.add(i)
                else:
                    y = (y + f * x) % p
                    if y:
                        row[c] = y
                    else:
                        del row[c]
                        live.discard(i)
            if not row:
                del rows[i]
        for c, _, live in update:
            live.discard(pi)
            if not live:
                del cols[c]
        rank += 1
    return rank
