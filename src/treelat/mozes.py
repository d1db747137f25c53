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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from treelat.complex_model import (
    DirectedEdgeRef,
    DirectedSquare,
    GeometricEdge,
    SquareComplex,
    serialize_complex,
    sigma_act,
)


class MozesParameterError(ValueError):
    """Parameters outside the construction's hypotheses."""


class RelationSolveError(RuntimeError):
    """The defining relation had no, or more than one, solution."""


@dataclass(frozen=True, order=True)
class Quaternion:
    a0: int
    a1: int
    a2: int
    a3: int

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a0, a1, a2, a3 = self.a0, self.a1, self.a2, self.a3
        b0, b1, b2, b3 = other.a0, other.a1, other.a2, other.a3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a0, -self.a1, -self.a2, -self.a3)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a0, -self.a1, -self.a2, -self.a3)

    def norm(self) -> int:
        return self.a0**2 + self.a1**2 + self.a2**2 + self.a3**2


@dataclass(frozen=True)
class GeneratorSet:
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


def _up_to_sign(q: Quaternion) -> tuple[Quaternion, int]:
    """(key, sign) with key = max(q, -q) and q = sign * key."""
    neg = -q
    return (q, 1) if q > neg else (neg, -1)


def _relation_table(ql: GeneratorSet, qp: GeneratorSet) -> dict:
    """Every product y~ * x~ over ql x qp, keyed up to sign.

    The entry of a key lists each (y~, x~, sign) with y~ * x~ = sign * key,
    in the order of ql x qp.  A nonzero quaternion never equals its
    negative, so the solutions of s * key = s' * y~ * x~ are exactly the
    entries of that key, with s' = s * sign.
    """
    table: dict = {}
    for yt in ql.quats:
        for xt in qp.quats:
            key, sign = _up_to_sign(yt * xt)
            table.setdefault(key, []).append((yt, xt, sign))
    return table


def _solve_from_table(
    table: dict, x: Quaternion, y: Quaternion
) -> tuple[Quaternion, Quaternion, int]:
    key, s = _up_to_sign(x * y)
    hits = table.get(key, ())
    if len(hits) != 1:
        raise RelationSolveError(
            f"relation for ({x}, {y}) has {len(hits)} solutions, expected 1"
        )
    yt, xt, sign = hits[0]
    return yt, xt, s * sign


def solve_square_relation(
    x: Quaternion, y: Quaternion, ql: GeneratorSet, qp: GeneratorSet
) -> tuple[Quaternion, Quaternion, int]:
    """The unique (y~, x~, sign) with x*y = sign * y~ * x~.

    Looks x*y up among all products of ql x qp x {+1, -1}; anything other
    than exactly one hit means the inputs are not a generator pair of this
    construction.  build_mozes_complex builds the product table once and
    looks every pair up in it.
    """
    return _solve_from_table(_relation_table(ql, qp), x, y)


def _edge_data(quats, prefix):
    reps = sorted({min(q, q.conjugate()) for q in quats})
    edge_id = {rep: f"{prefix}{i + 1}" for i, rep in enumerate(reps)}

    def ref(q: Quaternion) -> DirectedEdgeRef:
        rep = min(q, q.conjugate())
        return DirectedEdgeRef(edge_id[rep], q != rep)

    quat_of = {}
    for q in quats:
        quat_of[ref(q)] = q
    return reps, edge_id, ref, quat_of


def build_mozes_complex(p: int, l: int) -> SquareComplex:
    """The one-vertex complex itself; see generate_mozes_complex for the document."""
    if p == l:
        raise MozesParameterError("the two primes must be distinct")
    qp = norm_quaternions(p)
    ql = norm_quaternions(l)

    h_reps, _, h_ref, h_quat = _edge_data(qp.quats, "a")
    v_reps, _, v_ref, v_quat = _edge_data(ql.quats, "b")

    pair_index = {
        (x, y): (i, j) for i, x in enumerate(qp.quats) for j, y in enumerate(ql.quats)
    }

    table = _relation_table(ql, qp)
    square_by_pair = {}
    for i, x in enumerate(qp.quats):
        for j, y in enumerate(ql.quats):
            yt, xt, _ = _solve_from_table(table, x, y)
            square_by_pair[i, j] = DirectedSquare(
                a=h_ref(x), b=v_ref(yt), a_prime=h_ref(xt), b_prime=v_ref(y),
                orbit_id=0, sigma_tag="1",
            )

    def pair_of(sq: DirectedSquare) -> tuple[int, int]:
        return pair_index[(h_quat[sq.a], v_quat[sq.b_prime])]

    emitted: list[DirectedSquare] = []
    seen: set[tuple[int, int]] = set()
    for ij in sorted(square_by_pair):
        if ij in seen:
            continue
        sq = square_by_pair[ij]
        orbit = {ij}
        for g in ("v", "h", "vh"):
            image = sigma_act(sq, g)
            other = pair_of(image)
            if square_by_pair[other].labels() != image.labels():
                raise RelationSolveError(
                    f"reflection image of pair {ij} disagrees with the solved square at {other}"
                )
            orbit.add(other)
        if len(orbit) != 4 or orbit & seen:
            raise RelationSolveError(f"reflection orbit of pair {ij} is not free")
        seen |= orbit
        emitted.append(
            DirectedSquare(
                sq.a, sq.b, sq.a_prime, sq.b_prime,
                orbit_id=len(emitted), sigma_tag="1",
            )
        )

    return SquareComplex(
        vertices=("v0",),
        h_edges=tuple(GeometricEdge(f"a{i + 1}", "v0", "v0") for i in range(len(h_reps))),
        v_edges=tuple(GeometricEdge(f"b{j + 1}", "v0", "v0") for j in range(len(v_reps))),
        squares=tuple(emitted),
    )


def generate_mozes_complex(p: int, l: int) -> str:
    """Serialized complex document for the lattice of the prime pair (p, l)."""
    c = build_mozes_complex(p, l)
    return serialize_complex(c, metadata={"construction": "mozes", "p": p, "l": l})
