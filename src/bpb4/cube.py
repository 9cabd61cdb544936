"""Exact geometry of the unit ball of l_inf^4.

Everything here lives on the "lead face" {x : x(1) = 1 = ||x||} of the ball.
Its extreme points are the eight sign vectors with first coordinate +1; the
first four of them form a basis of R^4 whose biorthogonal coordinates are
half-sums/half-differences of the input coordinates.  Every point of the
face is carried into the base simplex co{v1..v4} by the permutation of
coordinates 2..4 that sorts them.  Signed permutations of all four
coordinates are the sup-norm isometries; one piece of index work
(``_to_base``) reduces any unit vector to the base simplex with them, and
the close-face correction reads u0's active face off the same work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Tuple

from .errors import DomainError
from .scalars import Scalar, coerce, is_exact, tol_of

_HALF = Fraction(1, 2)
_ZERO = Fraction(0)


@dataclass(frozen=True)
class Vec4:
    """A point of R^4 under the sup norm."""

    coords: Tuple[Scalar, Scalar, Scalar, Scalar]

    def __init__(self, coords):
        coords = tuple(coerce(c) for c in coords)
        if len(coords) != 4:
            raise DomainError(f"expected 4 coordinates, got {len(coords)}")
        object.__setattr__(self, "coords", coords)

    def __getitem__(self, i: int) -> Scalar:
        return self.coords[i]

    def __add__(self, other: "Vec4") -> "Vec4":
        a0, a1, a2, a3 = self.coords
        b0, b1, b2, b3 = other.coords
        return _vec4((a0 + b0, a1 + b1, a2 + b2, a3 + b3))

    def __sub__(self, other: "Vec4") -> "Vec4":
        a0, a1, a2, a3 = self.coords
        b0, b1, b2, b3 = other.coords
        return _vec4((a0 - b0, a1 - b1, a2 - b2, a3 - b3))

    def __neg__(self) -> "Vec4":
        a0, a1, a2, a3 = self.coords
        return _vec4((-a0, -a1, -a2, -a3))

    def scale(self, c: Scalar) -> "Vec4":
        a0, a1, a2, a3 = self.coords
        return _vec4((c * a0, c * a1, c * a2, c * a3))

    def sup_norm(self) -> Scalar:
        return max(abs(a) for a in self.coords)

    def is_exact(self) -> bool:
        return is_exact(*self.coords)


def _vec4(coords) -> Vec4:
    """Wrap four already-normalized scalars without re-coercing them.

    Arithmetic on Fraction/float coordinates yields Fraction/float again, so
    the vector operations skip the per-coordinate ``coerce`` of ``Vec4()``.
    """
    v = object.__new__(Vec4)
    object.__setattr__(v, "coords", coords)
    return v


# Extreme points of the lead face, in their conventional order v1..v8.
VERTICES: Tuple[Vec4, ...] = (
    Vec4((1, 1, 1, 1)),
    Vec4((1, -1, 1, 1)),
    Vec4((1, -1, -1, 1)),
    Vec4((1, -1, -1, -1)),
    Vec4((1, 1, -1, 1)),
    Vec4((1, 1, -1, -1)),
    Vec4((1, 1, 1, -1)),
    Vec4((1, -1, 1, -1)),
)

#: The vertices as int sign tuples, and the 1-based index of each.
_SIGNS = tuple(tuple(int(c) for c in v.coords) for v in VERTICES)
_VERTEX_INDEX = {v: j for j, v in enumerate(_SIGNS, 1)}


def vertex(i: int) -> Vec4:
    """Vertex by 1-based index in 1..8."""
    return VERTICES[i - 1]


def coords(x: Vec4) -> Tuple[Scalar, Scalar, Scalar, Scalar]:
    """Biorthogonal coordinates of x over the basis {v1, v2, v3, v4}.

    The four functionals are (x1+x2)/2, (x3-x2)/2, (x4-x3)/2, (x1-x4)/2;
    summing c_i * v_i reconstructs x for every x in R^4.
    """
    a, b, c, d = x.coords
    half = _HALF if is_exact(a, b, c, d) else 0.5
    return ((a + b) * half, (c - b) * half, (d - c) * half, (a - d) * half)


def reconstruct(weights, vertex_indices) -> Vec4:
    """Sum of weight_j * v_{idx_j}; over v1..v4 the inverse of ``coords``.

    Vertex entries are +-1, so each term is added or subtracted instead of
    multiplied; the sums are the same, term by term, as with the products.
    """
    total = [_ZERO] * 4
    for w, idx in zip(weights, vertex_indices):
        for k, s in enumerate(vertex(idx).coords):
            total[k] = total[k] + w if s > 0 else total[k] - w
    return _vec4(tuple(total))


@dataclass(frozen=True)
class SignedPerm:
    """A signed permutation of the four coordinates: a sup-norm isometry.

    Acts by (g x)(i) = signs[i] * x(perm[i]) with 0-based tuples.
    """

    perm: Tuple[int, int, int, int]
    signs: Tuple[int, int, int, int]

    def __post_init__(self):
        if sorted(self.perm) != [0, 1, 2, 3]:
            raise DomainError(f"not a permutation: {self.perm}")
        if len(self.signs) != 4 or any(s not in (-1, 1) for s in self.signs):
            raise DomainError(f"signs must be four entries +-1: {self.signs}")

    def apply(self, x: Vec4) -> Vec4:
        c = x.coords
        return _vec4(tuple(c[p] if s > 0 else -c[p]
                           for p, s in zip(self.perm, self.signs)))

    def vertex_image(self, i: int) -> Tuple[int, int]:
        """(j, s) with self(v_i) == s * v_j, from the signs of v_i alone."""
        v = _SIGNS[i - 1]
        lead = self.signs[0] * v[self.perm[0]]
        w = tuple(lead * s * v[p] for p, s in zip(self.perm, self.signs))
        return _VERTEX_INDEX[w], lead

    def inverse(self) -> "SignedPerm":
        perm = [0] * 4
        signs = [1] * 4
        for i in range(4):
            perm[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return SignedPerm(tuple(perm), tuple(signs))


def on_lead_face(x: Vec4) -> bool:
    """Membership in {x : x(1) = 1 = ||x||}; exact for exact inputs."""
    tol = tol_of(*x.coords)
    bound = 1 + tol
    return abs(x[0] - 1) <= tol and all(abs(c) <= bound for c in x.coords)


def in_base_simplex(x: Vec4) -> bool:
    """Membership in co{v1..v4}: on the lead face with nonnegative coordinates."""
    if not on_lead_face(x):
        return False
    # coords(x) >= -tol, doubled: halving is exact, so the signs agree.
    a, b, c, d = x.coords
    floor = -2 * tol_of(a, b, c, d)
    return a + b >= floor and c - b >= floor and d - c >= floor and a - d >= floor


def reduce_to_base(x: Vec4) -> Tuple[SignedPerm, Vec4]:
    """Split a unit vector as x = g(x') with g an isometry, x' in co{v1..v4}.

    The first index j with |x(j)| = 1 and the sign s of x(j) pick g; the
    rest is ``_to_base``.
    """
    c = x.coords
    tol = tol_of(*c)
    if abs(x.sup_norm() - 1) > tol:
        raise DomainError(f"not a unit vector: {c}")
    j = next(i for i in range(4) if abs(abs(c[i]) - 1) <= tol)
    return _to_base(c, j, -1 if c[j] < 0 else 1)


def _to_base(c, j: int, s: int) -> Tuple[SignedPerm, Vec4]:
    """(g, g^-1 x) for the coordinates c of x, with |x(j)| = 1 of sign s.

    Index work only: j goes to slot 1 and s into g; the other indices
    follow, in the order a swap of slots 1 and j leaves them, sorted stably
    by s * x.  On the lead face (j = 0, s = +1) g is the permutation of
    coordinates 2..4 that sorts them ascending.
    """
    # Ascending in -x is descending in x; a reversed sort keeps ties stable.
    order = (j, *sorted((0 if k == j else k for k in (1, 2, 3)),
                        key=c.__getitem__, reverse=s < 0))
    base = tuple(c[k] for k in order) if s > 0 else tuple(-c[k] for k in order)
    return SignedPerm(tuple(map(order.index, range(4))), (s,) * 4), _vec4(base)


@dataclass(frozen=True)
class CloseFaceResult:
    """Outcome of the close-face correction.

    ``beta`` writes u0 over the vertices of ``active``; ``gamma`` writes the
    corrected point over active indices <= 4; gamma_i > 0 implies beta_i > 0.
    """

    corrected: Vec4
    active: FrozenSet[int]
    beta: Dict[int, Scalar]
    gamma: Dict[int, Scalar]


def close_face_correct(x0: Vec4, u0: Vec4, eps: Scalar) -> CloseFaceResult:
    """Move u0 (within eps of a base-simplex point x0) into co{v1..v4}.

    The corrected point stays within 3*eps of u0 and reuses only vertices
    that already carry positive weight when u0 is written over its active
    face, the images of v1..v4 under the permutation sorting u0(2..4).
    """
    eps = coerce(eps)
    if not 0 < eps < Fraction(1, 2):
        raise DomainError(f"eps must lie in (0, 1/2): {eps}")
    if not in_base_simplex(x0):
        raise DomainError(f"x0 not in the base simplex: {x0.coords}")
    if not on_lead_face(u0):
        raise DomainError(f"u0 not on the lead face: {u0.coords}")
    if not (u0 - x0).sup_norm() < eps:
        raise DomainError("u0 is not within eps of x0")

    # u0(1) is the unit coordinate, so u0 = g(u0') with u0' in co{v1..v4}:
    # u0 is a convex combination of the vertices g(v1..v4), its active face.
    g, sorted_u0 = _to_base(u0.coords, 0, 1)
    weights = coords(sorted_u0)
    beta = {g.vertex_image(i)[0]: w for i, w in zip((1, 2, 3, 4), weights)}
    active = frozenset(beta)
    support = {idx for idx, w in beta.items() if w > 0}
    base = frozenset(range(1, 5))
    inside = active & base
    if support <= base:
        # u0 already lies in co{v1..v4}; keep it.
        return CloseFaceResult(u0, active, beta, {i: beta[i] for i in inside})

    mass = sum(beta[i] for i in inside)
    # Guaranteed > 1 - eps > 1/2 by the face-functional bound.
    if mass <= 0:
        raise DomainError("degenerate decomposition: no base-vertex mass")
    gamma = {i: beta[i] / mass for i in inside}
    corrected = reconstruct(gamma.values(), gamma.keys())
    return CloseFaceResult(corrected, active, beta, gamma)
