"""One-vertex quaternion complexes for the Mozes lattices.

For distinct primes p, l with p = l = 1 (mod 4), the integer quaternions of
norm p with odd positive scalar part and even imaginary parts form a set
Q_p of exactly p+1 elements, closed under conjugation with no fixed points.
For every pair (x, y) in Q_p x Q_l there is a unique (y~, x~, sign) in
Q_l x Q_p x {+1, -1} with

    x * y = sign * y~ * x~ ,

and the square with bottom x, right side y, left side y~ and top x~ closes
up.  Gluing one square per ordered pair, with conjugation acting as edge
reversal, produces a one-vertex VH-T complex with (p+1)/2 horizontal and
(l+1)/2 vertical geometric edges whose (p+1)(l+1)/4 listed squares expand
to all (p+1)(l+1) pairs.  The sign only reflects the unit ambiguity of the
quaternions and is discarded when building the complex.

The generator does its arithmetic on plain int 4-tuples (a0, a1, a2, a3),
with one product, _product, which Quaternion.__mul__ calls too.  The
(l+1)(p+1) products y~ * x~ stream into one relation table keyed up to
sign (_relation_table), and the (p+1)(l+1) products x * y stream through
it, one lookup per pair (_solve_pair); neither product list is held.
The squares are built as integer edge codes, 2k + reversed per axis, and
reflected by complex_model.orbit_codes, the formula the expansion uses;
the emitted orbit representatives are those codes, the vertical ones
shifted past the horizontal ones, as complex_model.EdgeTable numbers
them.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from treelat.complex_model import GeometricEdge, SquareComplex, orbit_codes, serialize_complex


class MozesParameterError(ValueError):
    """Parameters outside the construction's hypotheses."""


class RelationSolveError(RuntimeError):
    """The defining relation had no, or more than one, solution."""


class Quaternion(NamedTuple):
    a0: int
    a1: int
    a2: int
    a3: int

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*_product(self, other))

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a0, -self.a1, -self.a2, -self.a3)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a0, -self.a1, -self.a2, -self.a3)

    def norm(self) -> int:
        return self.a0**2 + self.a1**2 + self.a2**2 + self.a3**2


def _coords(q: Quaternion) -> tuple[int, int, int, int]:
    """q as the plain int 4-tuple (a0, a1, a2, a3), which orders as q does."""
    return tuple(q)


def _product(x: tuple, y: tuple) -> tuple[int, int, int, int]:
    """The quaternion product x * y of two int 4-tuples."""
    a0, a1, a2, a3 = x
    b0, b1, b2, b3 = y
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


class GeneratorSet(NamedTuple):
    prime: int
    quats: tuple[Quaternion, ...]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def norm_quaternions(p: int) -> GeneratorSet:
    """The p+1 norm-p quaternions with a0 odd positive and a1, a2, a3 even.

    Exhaustive search over |a_i| <= isqrt(p); the result is sorted
    lexicographically by (a0, a1, a2, a3).
    """
    if not _is_prime(p):
        raise MozesParameterError(f"{p} is not prime")
    if p % 4 != 1:
        raise MozesParameterError(f"{p} is not congruent to 1 mod 4")
    bound = isqrt(p)
    found = []
    for a0 in range(1, bound + 1, 2):
        r1 = p - a0 * a0
        a1 = -(isqrt(r1) // 2) * 2
        while a1 * a1 <= r1:
            r2 = r1 - a1 * a1
            a2 = -(isqrt(r2) // 2) * 2
            while a2 * a2 <= r2:
                r3 = r2 - a2 * a2
                a3 = isqrt(r3)
                if a3 * a3 == r3 and a3 % 2 == 0:
                    found.append(Quaternion(a0, a1, a2, a3))
                    if a3:
                        found.append(Quaternion(a0, a1, a2, -a3))
                a2 += 2
            a1 += 2
    found.sort()
    if len(found) != p + 1:
        raise RelationSolveError(
            f"expected {p + 1} norm-{p} generators, found {len(found)}"
        )
    return GeneratorSet(prime=p, quats=tuple(found))


def _up_to_sign(q: tuple) -> tuple[tuple, int]:
    """(key, sign) of an int 4-tuple q: key = max(q, -q), compared as
    tuples, and q = sign * key."""
    neg = (-q[0], -q[1], -q[2], -q[3])
    return (q, 1) if q > neg else (neg, -1)


def _relation_table(ys: list[tuple], xs: list[tuple]) -> dict:
    """Every product y~ * x~ over ys x xs, int 4-tuples, keyed up to sign.

    The products stream into the table one at a time; no list of them is
    held.  The entry of a key lists each (j, i, sign) with
    ys[j] * xs[i] = sign * key, in the order of ys x xs.  A nonzero
    quaternion never equals its negative, so the solutions of
    s * key = s' * y~ * x~ are exactly the entries of that key, with
    s' = s * sign.
    """
    table: dict = {}
    for j, yt in enumerate(ys):
        for i, xt in enumerate(xs):
            key, sign = _up_to_sign(_product(yt, xt))
            table.setdefault(key, []).append((j, i, sign))
    return table


def _solve_pair(table: dict, x: tuple, y: tuple) -> tuple[int, int, int]:
    """The indices (j, i, sign) of the unique solution for the int 4-tuples
    (x, y), looked up in _relation_table: one product per pair."""
    key, s = _up_to_sign(_product(x, y))
    hits = table.get(key, ())
    if len(hits) != 1:
        raise RelationSolveError(
            f"relation for ({Quaternion(*x)}, {Quaternion(*y)}) has {len(hits)} solutions,"
            " expected 1"
        )
    j, i, sign = hits[0]
    return j, i, s * sign


def _edge_codes(quats: list[tuple]) -> tuple[list[int], list[int]]:
    """The code 2k + (q != rep) of each quaternion q, an int 4-tuple, where
    rep = min(q, q~) is the k-th representative in sorted order, and the
    index in quats of the quaternion of each code.  Conjugation is
    reversal, code ^ 1."""
    reps = [min(q, (q[0], -q[1], -q[2], -q[3])) for q in quats]
    rank = {rep: k for k, rep in enumerate(sorted(set(reps)))}
    codes = [2 * rank[rep] + (q != rep) for q, rep in zip(quats, reps)]
    return codes, sorted(range(len(codes)), key=codes.__getitem__)


def build_mozes_complex(p: int, l: int) -> SquareComplex:
    """The one-vertex complex itself; see generate_mozes_complex for the document.

    Pair k = i * (l+1) + j, of x = xs[i] and y = ys[j], the norm-p and
    norm-l generators as int 4-tuples, has the square of edge codes
    (x, y~, x~, y), numbered per axis (_edge_codes).
    Each orbit's reflections (orbit_codes) must be the squares of three
    more pairs, read off their a and b' codes, and none seen before.
    """
    if p == l:
        raise MozesParameterError("the two primes must be distinct")
    xs = list(map(_coords, norm_quaternions(p).quats))
    ys = list(map(_coords, norm_quaternions(l).quats))
    h_code, h_index = _edge_codes(xs)
    v_code, v_index = _edge_codes(ys)
    width = len(ys)

    table = _relation_table(ys, xs)
    squares = []
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            jt, it, _ = _solve_pair(table, x, y)
            squares.append((h_code[i], v_code[jt], h_code[it], v_code[j]))

    emitted: list[tuple[int, int, int, int]] = []
    seen: set[int] = set()
    for k, square in enumerate(squares):
        if k in seen:
            continue
        orbit = {k}
        for image in orbit_codes(*square)[1:]:
            other = h_index[image[0]] * width + v_index[image[3]]
            if squares[other] != image:
                raise RelationSolveError(
                    f"reflection image of pair {divmod(k, width)} disagrees with the"
                    f" solved square at {divmod(other, width)}"
                )
            orbit.add(other)
        if len(orbit) != 4 or orbit & seen:
            raise RelationSolveError(f"reflection orbit of pair {divmod(k, width)} is not free")
        seen |= orbit
        emitted.append(square)

    first = len(h_code)  # the first vertical code of the complex
    return SquareComplex(
        vertices=("v0",),
        h_edges=tuple(GeometricEdge(f"a{k + 1}", "v0", "v0") for k in range(first // 2)),
        v_edges=tuple(GeometricEdge(f"b{k + 1}", "v0", "v0") for k in range(width // 2)),
        squares=tuple([(a, first + b, ap, first + bp) for a, b, ap, bp in emitted]),
    )


def generate_mozes_complex(p: int, l: int) -> str:
    """Serialized complex document for the lattice of the prime pair (p, l)."""
    c = build_mozes_complex(p, l)
    return serialize_complex(c, metadata={"construction": "mozes", "p": p, "l": l})
