"""Quadruples of codomain vectors as operators from l_inf^4.

An operator T is pinned down by its images (T(v1)..T(v4)) of the base
vertices; the remaining four extreme points of the lead face are alternating
triple sums of those, so the operator norm is the max over eight vectors.
The admissible set (all eight norms <= 1) is exactly the operator unit ball.
A signed permutation g of the domain permutes the sixteen sign vectors, so
T o g has T's eight extreme images again, up to sign (``compose``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .cube import SignedPerm, Vec4, coords
from .errors import DomainError
from .scalars import Scalar, tol_of
from .spaces import SpaceDescriptor, YVec, norm, zero

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


def _extreme_images(q: Quad):
    """The eight labelled vectors whose norms bound everything."""
    return [(label, _extreme_image(q, j)) for j, label in enumerate(_LABELS, 1)]


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    slack: Scalar  # 1 - norm
    worst: str  # label of the extremal check
    norm: Scalar  # max of the eight checked norms: the operator norm


def check_membership(q: Quad, tol=None) -> MembershipReport:
    """Are all four vectors and all four alternating triples inside the ball?

    The default tolerance is ``tol_of`` the eight norms: lp norms are floats
    even when every coordinate is a Fraction.
    """
    worst_label, worst_norm, norms = None, None, []
    for label, v in _extreme_images(q):
        n = norm(v)
        norms.append(n)
        if worst_norm is None or n > worst_norm:
            worst_label, worst_norm = label, n
    if tol is None:
        tol = tol_of(*norms)
    slack = 1 - worst_norm
    return MembershipReport(member=slack >= -tol, slack=slack, worst=worst_label,
                            norm=worst_norm)


def apply(q: Quad, x: Vec4) -> YVec:
    """Action of the unique linear operator with T(v_i) = y_i."""
    c = coords(x)
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
    return max(norm(v) for _, v in _extreme_images(q))


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
    total = zero(q.space)
    for i in sorted(active):
        total = total + q[i - 1]
    return norm(total)
