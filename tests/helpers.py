"""Shared deterministic generators for the test suite.

Everything is driven by seeded random.Random instances so failures are
reproducible; exact-backend values are small-denominator Fractions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Tuple

from bpb4 import (
    DomainError,
    FixRequest,
    Functional,
    GenSpec,
    Quad,
    SignedPerm,
    SpaceDescriptor,
    Vec4,
    YVec,
    check_membership,
    coords,
    gen_quad,
    norm,
    on_lead_face,
    schedule,
    support_functional,
    unit_first,
    vertex,
    zero,
)
from bpb4.scalars import tol_of

DENOM = 64


def rng_for(*key) -> random.Random:
    return random.Random("|".join(str(k) for k in key))


def rand_fraction(rng: random.Random, lo=-1, hi=1) -> Fraction:
    return Fraction(rng.randrange(lo * DENOM, hi * DENOM + 1), DENOM)


def rand_vec4(rng: random.Random) -> Vec4:
    return Vec4(tuple(rand_fraction(rng) for _ in range(4)))


def base_simplex_point(rng: random.Random) -> Vec4:
    """A random point of co{v1..v4} via random convex weights."""
    cuts = sorted(Fraction(rng.randrange(0, DENOM + 1), DENOM) for _ in range(3))
    w = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], 1 - cuts[2])
    total = Vec4((0, 0, 0, 0))
    for wi, i in zip(w, (1, 2, 3, 4)):
        total = total + vertex(i).scale(wi)
    return total


#: All 384 signed permutations of the four coordinates.
SIGNED_PERMS = tuple(SignedPerm(perm, signs)
                     for perm in itertools.permutations(range(4))
                     for signs in itertools.product((1, -1), repeat=4))


def compose_perms(g: SignedPerm, h: SignedPerm) -> SignedPerm:
    """g after h: compose_perms(g, h).apply(x) == g.apply(h.apply(x))."""
    perm = tuple(h.perm[g.perm[i]] for i in range(4))
    signs = tuple(g.signs[i] * h.signs[g.perm[i]] for i in range(4))
    return SignedPerm(perm, signs)


#: The six simplicial faces covering the lead face, as 1-based vertex index sets.
FACES: Dict[int, FrozenSet[int]] = {
    1: frozenset({1, 2, 3, 4}),
    2: frozenset({1, 3, 4, 5}),
    3: frozenset({1, 4, 6, 7}),
    4: frozenset({1, 2, 4, 8}),
    5: frozenset({1, 4, 5, 6}),
    6: frozenset({1, 4, 7, 8}),
}


@dataclass(frozen=True)
class FaceDecomposition:
    """x written as a convex combination over one of the six faces.

    ``vertex_indices[j]`` pairs with ``weights[j]``; ``pullback`` is the
    coordinate permutation carrying the base simplex onto this face, so that
    vertex(vertex_indices[j]) == pullback.apply(vertex(j + 1)).
    """

    face: int
    vertex_indices: Tuple[int, int, int, int]
    weights: Tuple
    pullback: SignedPerm

    @property
    def active(self) -> FrozenSet[int]:
        return FACES[self.face]


def face_decompose(x: Vec4) -> FaceDecomposition:
    """Locate the face of the lead face containing x and its barycentric weights.

    The reference for the library's index work: coordinates 2..4 are sorted
    ascending by a stable permutation, the sorted point's coordinates are
    the weights, and the face is looked up in ``FACES``.
    """
    if not on_lead_face(x):
        raise DomainError(f"not on the lead face: {x.coords}")
    order = sorted((1, 2, 3), key=lambda j: x[j])  # stable, 0-based slots 2..4
    forward = SignedPerm((0, *order), (1, 1, 1, 1))
    weights = coords(forward.apply(x))
    pullback = forward.inverse()
    vertex_indices = tuple(pullback.vertex_image(i)[0] for i in (1, 2, 3, 4))
    face = next(k for k, members in FACES.items() if members == set(vertex_indices))
    return FaceDecomposition(face, vertex_indices, weights, pullback)


def lead_face_point(rng: random.Random) -> Vec4:
    """A random point of the lead face: first coordinate 1, rest in [-1, 1]."""
    return Vec4((1,) + tuple(rand_fraction(rng) for _ in range(3)))


# Constant quadruples that are admissible and whose leading block attains the
# maximal active sum: sign patterns with all four alternating sums in [-1, 1].
SIGN_PATTERNS = {
    1: (1, -1, -1, -1),
    2: (1, 1, -1, -1),
    3: (1, 1, 1, -1),
    4: (1, 1, 1, 1),
}


def constant_quad(space: SpaceDescriptor, k: int, u: YVec = None) -> Quad:
    """(±u, ±u, ±u, ±u) whose first k entries are +u; admissible for k=1..4."""
    if u is None:
        u = unit_first(space)
    return Quad(tuple(u.scale(s) for s in SIGN_PATTERNS[k]))


def blend(q: Quad, target: Quad, lam) -> Quad:
    """Convex combination (1-lam) q + lam target; preserves admissibility."""
    return Quad(tuple(y.scale(1 - lam) + t.scale(lam)
                      for y, t in zip(q.ys, target.ys)))


def l1_request(dim: int, k: int, eps: Fraction, seed: int,
               shift: int = 0, flip_coord: int = None) -> FixRequest:
    """A valid l1 correction request hitting the case with |active| = k.

    ``shift`` rotates the active block to start at index 1 + shift (only
    meaningful when the block still fits in 1..4); ``flip_coord`` negates one
    codomain coordinate, exercising the sign-canonicalization path.  The
    active block is blended to within rho/8 of the constant quadruple, which
    also serves dense-lift requests: they run at l1^n's rho.
    """
    space = SpaceDescriptor("l1", dim=dim)
    rho = schedule(space).rho(eps)
    base = gen_quad(GenSpec(space, seed, "boundary"))
    q = blend(base, constant_quad(space, k), 1 - rho / 8)
    signs = [1] * dim
    if flip_coord is not None:
        signs[flip_coord] = -1
        q = Quad(tuple(YVec(space, tuple(s * c for s, c in zip(signs, y.coords)))
                       for y in q.ys))
    f = Functional(space, "sign-vector", tuple(signs))
    active = frozenset(range(1, k + 1))
    if shift:
        # Rotate the quadruple so the active block sits at 1+shift..k+shift.
        from bpb4 import cyclic_shift
        assert k + shift <= 4
        q = cyclic_shift(q, (8 - shift) % 8)
        active = frozenset(i + shift for i in active)
    return FixRequest(q, f, active, eps)


def uc_request(space: SpaceDescriptor, k: int, eps, seed: int) -> FixRequest:
    """A valid uniformly convex correction request with |active| = k."""
    gamma = schedule(space).rho(eps)
    base = gen_quad(GenSpec(space, seed, "boundary"))
    if space.family == "r":
        u = unit_first(space)
    else:
        rng = rng_for("ucdir", seed, space.dim)
        raw = YVec(space, tuple(rng.uniform(-1.0, 1.0) for _ in range(space.dim)))
        u = raw.scale(1 / norm(raw)) if norm(raw) > 0 else unit_first(space)
    lam = 1 - float(gamma) / 4 if space.family == "lp" else 1 - gamma / 4
    q = blend(base, constant_quad(space, k, u), lam)
    f = support_functional(u)
    return FixRequest(q, f, frozenset(range(1, k + 1)), eps)


def repair_triple(dim: int, seed: int) -> Tuple[YVec, YVec, YVec, Fraction, Fraction]:
    """A random (x, y, z, s, t) satisfying the nonnegativity-repair entry bounds."""
    rng = rng_for("repair", dim, seed)
    space = SpaceDescriptor("l1", dim=dim)
    while True:
        x = YVec(space, tuple(rand_fraction(rng) for _ in range(dim)))
        y = YVec(space, tuple(rand_fraction(rng) for _ in range(dim)))
        z = YVec(space, tuple(rand_fraction(rng) for _ in range(dim)))
        d = x - y + z
        sigma = sum(d.coords)
        if sigma > 0:
            break
    x, y, z = (v.scale(1 / sigma) for v in (x, y, z))
    s = Fraction(rng.randrange(0, DENOM + 1), 4 * DENOM)
    t = norm(d) / sigma - 1  # == norm(x - y + z) - 1 after the rescaling, exactly
    t = (t if t > 0 else Fraction(0)) + Fraction(rng.randrange(0, DENOM + 1), 4 * DENOM)
    return x, y, z, s, t


def is_nonnegative(y: YVec, tol=None) -> bool:
    """Every coordinate of y is >= -tol (default: ``tol_of`` y's coordinates)."""
    if y.den is not None and tol is None:
        return all(n >= 0 for n in y.num)
    if tol is None:
        tol = tol_of(*y.coords)
    floor = -tol
    return all(c >= floor for c in y.coords)


# Expansion coefficients of the sixteen extreme points of the domain ball
# (the sign vectors) over the operator's four defining images: -1, 0 or +1.
_HYPERCUBE_COEFFS = tuple(
    tuple(int(c) for c in coords(Vec4(signs)))
    for signs in itertools.product((1, -1), repeat=4)
)


def brute_norm(q: Quad):
    """Operator norm by evaluating on all 16 hypercube vertices.

    Independent oracle for the eight-image norm formula.
    """
    best = norm(zero(q.space))
    for coeffs in _HYPERCUBE_COEFFS:
        terms = [y if c == 1 else -y for c, y in zip(coeffs, q.ys) if c]
        best = max(best, norm(sum(terms[1:], terms[0])))
    return best


def dual_norm(f: Functional):
    """Norm of a functional in the dual space: the reference that support
    functionals are checked against (they must lie on the dual unit sphere)."""
    family = f.space.family
    if f.kind == "sign-vector" or family == "l1":
        return max(abs(c) for c in f.coords)
    if family == "sup":
        return sum(abs(c) for c in f.coords)
    if family == "r":
        return abs(f.coords[0])
    p = float(f.space.p)
    q = p / (p - 1.0)
    return sum(abs(float(c)) ** q for c in f.coords) ** (1.0 / q)


def assert_fix_postconditions(request: FixRequest, result, tol=0):
    """The universal contract every correction result must satisfy."""
    from bpb4 import active_sum_norm
    report = check_membership(result.corrected)
    assert report.member, f"corrected quad not admissible: {report}"
    assert request.active <= result.certified
    attained = active_sum_norm(result.corrected, result.certified)
    assert abs(attained - len(result.certified)) <= tol, (attained, result)
    assert all(d < request.eps for d in result.displacements), result.displacements
