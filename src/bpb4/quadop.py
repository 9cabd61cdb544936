"""Quadruples of codomain vectors as operators from l_inf^4.

An operator T is pinned down by its images (T(v1)..T(v4)) of the base
vertices; the remaining four extreme points of the lead face are alternating
triple sums of those, so the operator norm is the max over eight vectors.
The admissible set (all eight norms <= 1) is exactly the operator unit ball.
A signed permutation g of the domain permutes the sixteen sign vectors, so
T o g has T's eight extreme images again, up to sign (``compose``).
An exact quadruple over l1, a sup space or the reals is brought to one
denominator once (``_shared``), and the operator norm, membership,
application and active sums are integer work on its numerators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .cube import SignedPerm, Vec4, coords
from .errors import DomainError
from .scalars import Scalar, is_exact, tol_of
from .spaces import SpaceDescriptor, YVec, _exact, norm, zero

#: The alternating index triples (1-based) whose sums must stay in the ball.
TRIPLES: Tuple[Tuple[int, int, int], ...] = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))

_LABELS = ("y1", "y2", "y3", "y4") + tuple(f"y{a}-y{b}+y{c}" for a, b, c in TRIPLES)


@dataclass(frozen=True)
class Quad:
    """An ordered quadruple (y1..y4) over one space; doubles as an operator."""

    ys: Tuple[YVec, YVec, YVec, YVec]

    def __init__(self, ys):
        ys = tuple(ys)
        if len(ys) != 4:
            raise DomainError(f"expected 4 vectors, got {len(ys)}")
        space = ys[0].space
        if any(y.space != space for y in ys):
            raise DomainError("mixed spaces in quadruple")
        object.__setattr__(self, "ys", ys)

    @property
    def space(self) -> SpaceDescriptor:
        return self.ys[0].space

    def __getitem__(self, i: int) -> YVec:
        return self.ys[i]

    def is_exact(self) -> bool:
        return all(y.is_exact() for y in self.ys)


def _extreme_image(q: Quad, j: int) -> YVec:
    """T(v_j) for j in 1..8: y_j, or the alternating sum of TRIPLES[j - 5]."""
    if j <= 4:
        return q[j - 1]
    a, b, c = TRIPLES[j - 5]
    return q[a - 1] - q[b - 1] + q[c - 1]


def _shared(q: Quad):
    """([a1..a4], D) for an exact quadruple over l1, sup or the reals, else None.

    D is the lcm of the four ``den``s and a_i is y_i's numerators over D,
    zero-padded to the widest support (finitely supported l1 is ragged).
    lp norms are floats, so an lp quadruple never takes this form.
    """
    if q.space.family == "lp":
        return None
    dens = [y.den for y in q.ys]
    if None in dens:
        return None
    D = math.lcm(*dens)
    width = max(len(y.num) for y in q.ys)
    a = []
    for y, d in zip(q.ys, dens):
        f = D // d
        num = y.num if f == 1 else tuple(n * f for n in y.num)
        a.append(num + (0,) * (width - len(num)))
    return a, D


def _int_norm(family: str, num) -> int:
    """The norm of a numerator tuple, over its denominator."""
    if family == "l1":
        return sum(map(abs, num))
    return max(map(abs, num), default=0)  # sup, and the one coordinate of r


def _image_norms(q: Quad):
    """The eight extreme images' norms in ``_LABELS`` order, and D.

    On a ``_shared`` quadruple the norms are integers over D; otherwise D is
    None and they are ``norm`` of the images.
    """
    shared = _shared(q)
    if shared is None:
        return [norm(_extreme_image(q, j)) for j in range(1, 9)], None
    a, D = shared
    family = q.space.family
    norms = [_int_norm(family, v) for v in a]
    for i, j, k in TRIPLES:
        norms.append(_int_norm(family, [x - y + z for x, y, z
                                        in zip(a[i - 1], a[j - 1], a[k - 1])]))
    return norms, D


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    slack: Scalar  # 1 - norm
    worst: str  # label of the extremal check
    norm: Scalar  # max of the eight checked norms: the operator norm


def check_membership(q: Quad) -> MembershipReport:
    """Are all four vectors and all four alternating triples inside the ball?

    The tolerance is ``tol_of`` the eight norms: lp norms are floats even
    when every coordinate is a Fraction.
    """
    norms, D = _image_norms(q)
    top = max(norms)  # the first maximal image is the worst
    worst = _LABELS[norms.index(top)]
    if D is None:
        slack = 1 - top
        return MembershipReport(member=slack >= -tol_of(*norms), slack=slack,
                                worst=worst, norm=top)
    return MembershipReport(member=top <= D, slack=Fraction(D - top, D),
                            worst=worst, norm=Fraction(top, D))


def apply(q: Quad, x: Vec4) -> YVec:
    """Action of the unique linear operator with T(v_i) = y_i."""
    c = coords(x)
    shared = _shared(q) if is_exact(*c) else None
    if shared is not None:
        (a1, a2, a3, a4), D = shared
        m = math.lcm(*[ci.denominator for ci in c])
        w1, w2, w3, w4 = [ci.numerator * (m // ci.denominator) for ci in c]
        return _exact(q.space, tuple(w1 * p + w2 * r + w3 * s + w4 * t
                                     for p, r, s, t in zip(a1, a2, a3, a4)), D * m)
    out = zero(q.space)
    for ci, yi in zip(c, q.ys):
        out = out + yi.scale(ci)
    return out


def compose(q: Quad, g: SignedPerm) -> Quad:
    """T o g for a signed permutation g of the domain.

    g carries each base vertex v_i to s * v_j with j in 1..8, read off g's
    index tuples (``SignedPerm.vertex_image``), so each image is s * T(v_j),
    one of T's eight extreme images: no vector is permuted, expanded in
    coordinates, halved or scaled.
    """
    ys = []
    for i in (1, 2, 3, 4):
        j, s = g.vertex_image(i)
        y = _extreme_image(q, j)
        ys.append(y if s > 0 else -y)
    return Quad(ys)


def op_norm(q: Quad) -> Scalar:
    """Operator norm: the max over the eight extreme-point images."""
    norms, D = _image_norms(q)
    return max(norms) if D is None else Fraction(max(norms), D)


def cyclic_shift(q: Quad, r: int) -> Quad:
    """Apply (y1,y2,y3,y4) -> (y2,y3,y4,-y1) r times.

    Membership slack is preserved exactly; eight shifts are the identity and
    four shifts are global negation.  ``cyclic_shift(q, 8 - r)`` undoes r.
    """
    ys = list(q.ys)
    for _ in range(r % 8):
        ys = [ys[1], ys[2], ys[3], -ys[0]]
    return Quad(tuple(ys))


def diff(a: Quad, b: Quad) -> Quad:
    if a.space != b.space:
        raise DomainError("mixed spaces in quadruple difference")
    return Quad(tuple(x - y for x, y in zip(a.ys, b.ys)))


def active_sum_norm(q: Quad, active) -> Scalar:
    """||sum_{i in active} y_i|| for a 1-based index set."""
    shared = _shared(q)
    if shared is not None:
        a, D = shared
        total = [sum(col) for col in zip(*[a[i - 1] for i in active])]
        return Fraction(_int_norm(q.space.family, total), D)
    total = zero(q.space)
    for i in sorted(active):
        total = total + q[i - 1]
    return norm(total)
