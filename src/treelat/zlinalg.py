"""Exact integer linear algebra over arbitrary-precision integers.

Everything downstream (homology ranks, kernel lattices, cokernel invariant
factors, K-group ranks) reduces to the operations here.  All arithmetic is
exact; there is no floating point anywhere in the package.

The reduction loops live in treelat._kernels_py, the one kernel
implementation; it is plain Python, so BACKEND is always "pure".  IntMatrix
stores only the nonzeros of each row: the pipeline's operators are sparse
0/+-1 matrices.  Every kernel basis and every solve comes from one sparse
unimodular elimination (kernel_and_image), which reads the stored pairs; so
do the rank over Q (rank), its number of pivots, which leaves its I part
out, and the Smith form, which splits off the unit pivots and finishes the
rest densely, keeping only its invariant factors.  The pivot rows of one
elimination give both the column lattice and the Smith form of a
(image_and_smith_form), so an analysis eliminates d2 once for its image
block and H1.  The Hermite kernel reduces dense vectors.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple, Sequence

from treelat import _kernels_py as _impl

BACKEND = "pure"


Row = tuple[tuple[int, int], ...]


# The fields of IntMatrix; a NamedTuple cannot define the __new__ that
# checks them.
class _IntMatrixFields(NamedTuple):
    rows: int
    cols: int
    row_pairs: tuple[Row, ...]


class IntMatrix(_IntMatrixFields):
    """Immutable integer matrix stored as canonical sparse rows.

    row_pairs[i] holds the (column, value) pairs of the nonzeros of row i,
    sorted by column; entries are Python ints.  The form is canonical, so
    equality and hashing are structural.  The constructor trusts its
    row_pairs to be canonical; matio.read_triplets builds them from outside
    input.  entries is the one dense view, through which kernel_basis
    returns its vectors.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, row_pairs: tuple[Row, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if len(row_pairs) != rows:
            raise ValueError("row count does not match row_pairs")
        return tuple.__new__(cls, (rows, cols, row_pairs))

    def _dense(self, pairs: Row) -> list[int]:
        row = [0] * self.cols
        for j, x in pairs:
            row[j] = x
        return row

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Dense rows, built on each access."""
        return tuple(tuple(self._dense(pairs)) for pairs in self.row_pairs)

    def transpose(self) -> "IntMatrix":
        # Rows are visited in order, so each column collects its pairs
        # sorted by row.
        data: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, pairs in enumerate(self.row_pairs):
            for j, x in pairs:
                data[j].append((i, x))
        return IntMatrix(self.cols, self.rows, tuple(map(tuple, data)))

    def is_zero(self) -> bool:
        return not any(self.row_pairs)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        rows = mul_rows(self.row_pairs, other.row_pairs, other.cols)
        return IntMatrix(self.rows, other.cols, rows)


def mul_rows(rows: Sequence[Row], below: Sequence[Row], cols: int) -> tuple[Row, ...]:
    """The rows of A.B, for the rows of A and the rows below of B, a matrix
    with cols columns; IntMatrix.mul without the shape check and the
    matrix, for a caller that holds only rows.

    Row i of the product is the combination of the rows of B weighted by
    row i of A; only stored pairs are visited.  A row with one nonzero
    (every row of phi1 and phi2) scales one row of B, which is already
    canonical; a weight -1 takes the one negated copy of that row, shared
    by every row that asks for it (rows 4k + 1 and 4k + 2 of phi2 both
    negate row k).  Other rows add up in a dense accumulator, whose
    nonzeros compress finds at C speed: cheaper than a dict and a sort
    once a row gathers more than a few terms.  Unit weights (all of them
    in the 0/+-1 operators) skip the multiply.
    """
    positions = range(cols)
    negated: dict[int, Row] = {}
    data = []
    for pairs in rows:
        if len(pairs) == 1:
            ((j, x),) = pairs
            if x == 1:
                data.append(below[j])
            elif x == -1:
                row = negated.get(j)
                if row is None:
                    row = negated[j] = tuple([(c, -y) for c, y in below[j]])
                data.append(row)
            else:
                data.append(tuple([(c, x * y) for c, y in below[j]]))
            continue
        acc = [0] * cols
        for j, x in pairs:
            if x == 1:
                for c, y in below[j]:
                    acc[c] += y
            elif x == -1:
                for c, y in below[j]:
                    acc[c] -= y
            else:
                for c, y in below[j]:
                    acc[c] += x * y
        data.append(tuple([(c, acc[c]) for c in compress(positions, acc)]))
    return tuple(data)


class AbelianInvariants(NamedTuple):
    """A finitely generated abelian group: Z^free_rank + sum of Z/t."""

    free_rank: int
    torsion: tuple[int, ...]


class SmithDecomposition(NamedTuple):
    """Smith normal form d = u*a*v of a matrix a with the given number of
    rows; neither d nor the unimodular u and v is built.

    invariant_factors are the nonzero diagonal entries of d, each dividing
    the next.
    """

    rows: int
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def cokernel(self) -> AbelianInvariants:
        """Structure of Z^rows / column-span(a)."""
        return AbelianInvariants(
            free_rank=self.rows - self.rank,
            torsion=tuple(x for x in self.invariant_factors if x > 1),
        )


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Canonical Smith normal form; deterministic for a fixed input.

    The elimination of [a^T | I] without its I part
    (_kernels_py.unimodular_elimination) is column operations on a, which
    leave B^T and zero columns; _smith_of_pivots reads the factors off the
    pivot rows of B.  image_and_smith_form reads the same pivot rows for
    the Smith form of B^T itself, whose invariant factors are those of a,
    from the one elimination that gives B^T.
    """
    _, pivots = _impl.unimodular_elimination(a.transpose().row_pairs, with_transform=False)
    return _smith_of_pivots(pivots, a.rows)


def _smith_of_pivots(pivots, rows: int) -> SmithDecomposition:
    """The Smith form of a matrix a with rows rows, from the pivots (c_k,
    image_k, _) of the elimination of the rows of a^T: the rows image_k of
    B, with B^T and zero columns what column operations leave of a.

    Pivot row k of B is nonzero in column c_k, every later one zero there.
    Walking them in order, row k is split off when its pivot is +-1 and no
    earlier *kept* row touches c_k.  Then column c_k is zero in every other
    remaining row: later rows by the elimination, kept earlier rows by the
    test, split earlier rows by construction.  So column operations with
    column c_k clear the rest of row k and touch no other row: an invariant
    factor 1.  The kept rows, on the columns they touch, are of full rank;
    _kernels_py.smith_diagonal gives their factors, which follow the 1s.
    """
    kept, touched = [], set()  # pivot rows left for the finisher, their columns
    for c, image, _ in pivots:
        if image[c] not in (1, -1) or c in touched:
            kept.append(image)
            touched.update(image)
    d = _impl.smith_diagonal([[image.get(j, 0) for j in touched] for image in kept])
    factors = (1,) * (len(pivots) - len(kept)) + tuple(d[i][i] for i in range(len(kept)))
    return SmithDecomposition(rows, factors)


def _columns(vectors: list[dict[int, int]], rows: int) -> IntMatrix:
    """The matrix whose columns are these {row: nonzero value} vectors.
    Each row collects its pairs in column order, so it comes out sorted."""
    data: list[list[tuple[int, int]]] = [[] for _ in range(rows)]
    for k, vec in enumerate(vectors):
        for i, x in vec.items():
            data[i].append((k, x))
    return IntMatrix(rows, len(vectors), tuple(map(tuple, data)))


def kernel_and_image(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """(H, B^T) for the m x n matrix a, from one sparse unimodular
    elimination of [a^T | I] (_kernels_py.unimodular_elimination, whose
    docstring gives the argument).

    H is n x (n - rank a), one basis vector of {x : a.x = 0} per column.
    The basis is saturated: every integer kernel vector is an *integer*
    combination of it.  B^T is m x rank a and has the column lattice of a,
    hence its rank and cokernel: a Smith form of B^T gives them without the
    n columns of a.
    """
    kernel, pivots = _impl.unimodular_elimination(a.transpose().row_pairs)
    images = [image for _, image, _ in pivots]
    return _columns(kernel, a.cols), _columns(images, a.rows)


def image_and_smith_form(a: IntMatrix) -> tuple[IntMatrix, SmithDecomposition]:
    """(B^T, the Smith form of B^T) from one elimination, that of the rows
    of a^T without the I part: B^T is that of kernel_and_image(a) up to the
    choice of pivots, m x rank a, and has the column lattice of a, so it
    gives rank a (its number of columns) and the cokernel of a, and no
    basis of ker a is formed.

    Its pivot rows are the rows of B, already echelon, so the Smith form of
    B^T is read off them (_smith_of_pivots) and B is neither transposed
    back nor eliminated again.  The finisher sees only columns of B, at
    most a.rows of them.
    """
    _, pivots = _impl.unimodular_elimination(a.transpose().row_pairs, with_transform=False)
    images = [image for _, image, _ in pivots]
    return _columns(images, a.rows), _smith_of_pivots(pivots, a.rows)


def kernel_basis(a: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Saturated basis of the full kernel lattice {x : a.x = 0}, one
    vector per tuple: the columns of H of kernel_and_image."""
    return kernel_and_image(a)[0].transpose().entries


def rank(a: IntMatrix) -> int:
    """Rank of a over Q: the number of pivot rows of the elimination of
    [a | I] (_kernels_py.unimodular_elimination), which leaves U.a = (R; 0)
    with U unimodular and R of full row rank.  It reduces the stored rows
    of a as the rows of b^T for b = a^T, and rank b = rank a, so nothing is
    transposed, and the I part is left out."""
    return len(_impl.unimodular_elimination(a.row_pairs, with_transform=False)[1])


def cokernel_invariants(a: IntMatrix) -> AbelianInvariants:
    """Structure of Z^rows / column-span(a)."""
    return smith_normal_form(a).cokernel()


def hermite_row_basis(vectors: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical Hermite basis of the integer row span of the given vectors.

    Two sets of vectors span the same lattice iff their Hermite bases are
    equal.
    """
    rows = [[int(x) for x in vec] for vec in vectors]
    return tuple(tuple(r) for r in _impl.hermite_rows(rows))


def lattice_membership(x: Sequence[int], basis: Sequence[Sequence[int]]) -> bool:
    """True iff x is an integer combination of the basis vectors."""
    v = [int(t) for t in x]
    n = len(v)
    for vec in basis:
        if len(vec) != n:
            raise ValueError("dimension mismatch in lattice membership test")
    for row in hermite_row_basis(basis):
        j = next((i for i, e in enumerate(row) if e != 0), None)
        if j is None:
            continue
        if v[j] == 0:
            continue
        q, rem = divmod(v[j], row[j])
        if rem:
            return False
        for i in range(j, n):
            v[i] -= q * row[i]
    return not any(v)


def solve_exact(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """One integer solution x of a.x = b, or None when there is none.

    The elimination of [a^T | I] gives U.a^T = (R; 0) with U unimodular
    (_kernels_py.unimodular_elimination).  Every x is x^T = y^T.U for one
    integer y, and then a.x = R^T.y_R, so a column b is solvable iff b^T is
    an integer combination y_R^T.R of the pivot rows, and x is the same
    combination of their I parts.  Pivot row k is nonzero in column c_k and
    every later one is zero there, so forward substitution fixes y_k by
    coordinate c_k of what is left of b; a remainder there is never touched
    again, so b is solvable iff nothing is left at the end.  The kernel
    rows get coefficient zero, so the result is deterministic.
    """
    if a.rows != b.rows:
        raise ValueError("shape mismatch in solve")
    _, pivots = _impl.unimodular_elimination(a.transpose().row_pairs)
    solutions = []
    for pairs in b.transpose().row_pairs:
        rest = dict(pairs)
        x: dict[int, int] = {}
        for c, image, transform in pivots:
            q = rest.get(c, 0) // image[c]
            if q:
                for j, y in image.items():
                    rest[j] = rest.get(j, 0) - q * y
                for j, y in transform.items():
                    x[j] = x.get(j, 0) + q * y
        if any(rest.values()):
            return None
        solutions.append({j: y for j, y in x.items() if y})
    return _columns(solutions, a.cols)
