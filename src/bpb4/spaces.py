"""Concrete codomain spaces: l1^n, finitely supported l1, lp^n (1<p<inf),
sup-norm spaces, and the reals.

Vectors are dense coordinate tuples; in the infinite l1 case the tuple is
the finite support prefix and shorter vectors are zero-padded on demand.
l1 and sup norms stay exact on the rational backend; lp norms are floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import DomainError, UnsupportedSpaceError
from .scalars import Scalar, coerce, is_exact, tol_of


@dataclass(frozen=True)
class SpaceDescriptor:
    """family: "l1" | "lp" | "sup" | "r"; dim None means finitely supported l1."""

    family: str
    p: Optional[Scalar] = None
    dim: Optional[int] = None

    def __post_init__(self):
        if self.family not in ("l1", "lp", "sup", "r"):
            raise DomainError(f"unknown space family {self.family!r}")
        if self.family == "lp":
            if self.p is None or not self.p > 1:
                raise DomainError("lp requires p > 1")
            object.__setattr__(self, "p", coerce(self.p))
        elif self.p is not None:
            raise DomainError(f"{self.family} takes no exponent")
        if self.family == "r":
            if self.dim not in (None, 1):
                raise DomainError("the reals are one-dimensional")
            object.__setattr__(self, "dim", 1)
        elif self.dim is None:
            if self.family != "l1":
                raise DomainError("only l1 supports infinite dimension")
        elif self.dim < 1:
            raise DomainError(f"dimension must be >= 1: {self.dim}")

    @property
    def infinite(self) -> bool:
        return self.dim is None


def reals() -> SpaceDescriptor:
    return SpaceDescriptor("r")


def l1(dim: Optional[int]) -> SpaceDescriptor:
    return SpaceDescriptor("l1", dim=dim)


def lp(p, dim: int) -> SpaceDescriptor:
    return SpaceDescriptor("lp", p=p, dim=dim)


def sup_space(dim: int) -> SpaceDescriptor:
    return SpaceDescriptor("sup", dim=dim)


def _aligned(a: Tuple[Scalar, ...], b: Tuple[Scalar, ...]):
    if len(a) == len(b):
        return a, b
    n = max(len(a), len(b))
    zero = Fraction(0) if is_exact(*a, *b) else 0.0
    return (a + (zero,) * (n - len(a)), b + (zero,) * (n - len(b)))


@dataclass(frozen=True)
class YVec:
    """An element of a concrete codomain space."""

    space: SpaceDescriptor
    coords: Tuple[Scalar, ...]

    def __init__(self, space: SpaceDescriptor, coords):
        coords = tuple(coerce(c) for c in coords)
        if not space.infinite and len(coords) != space.dim:
            raise DomainError(
                f"coordinate count {len(coords)} != dimension {space.dim}"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", coords)

    def __add__(self, other: "YVec") -> "YVec":
        _check_same_space(self, other)
        a, b = _aligned(self.coords, other.coords)
        return _yvec(self.space, tuple(map(operator.add, a, b)))

    def __sub__(self, other: "YVec") -> "YVec":
        _check_same_space(self, other)
        a, b = _aligned(self.coords, other.coords)
        return _yvec(self.space, tuple(map(operator.sub, a, b)))

    def __neg__(self) -> "YVec":
        return _yvec(self.space, tuple(map(operator.neg, self.coords)))

    def scale(self, c: Scalar) -> "YVec":
        return _yvec(self.space, tuple(c * x for x in self.coords))

    def norm(self) -> Scalar:
        return norm(self)

    def is_exact(self) -> bool:
        return is_exact(*self.coords)


def _yvec(space: SpaceDescriptor, coords) -> YVec:
    """Wrap already-normalized coordinates of the right length, unchecked.

    Arithmetic on Fraction/float coordinates yields Fraction/float again, so
    the vector operations skip the per-coordinate ``coerce`` of ``YVec()``.
    """
    v = object.__new__(YVec)
    object.__setattr__(v, "space", space)
    object.__setattr__(v, "coords", coords)
    return v


def _check_same_space(a: YVec, b: YVec):
    if a.space is not b.space and a.space != b.space:
        raise DomainError(f"mixed spaces: {a.space} vs {b.space}")


def zero(space: SpaceDescriptor) -> YVec:
    return YVec(space, () if space.infinite else (0,) * space.dim)


def unit_first(space: SpaceDescriptor) -> YVec:
    """The first coordinate vector e1 (a unit vector in every family here)."""
    if space.infinite:
        return YVec(space, (1,))
    return YVec(space, (1,) + (0,) * (space.dim - 1))


def norm(y: YVec) -> Scalar:
    family = y.space.family
    if family == "l1":
        return sum(map(abs, y.coords), Fraction(0) if y.is_exact() else 0.0)
    if family == "sup":
        return max(map(abs, y.coords))
    if family == "r":
        return abs(y.coords[0])
    p = float(y.space.p)
    return sum(abs(float(c)) ** p for c in y.coords) ** (1.0 / p)


@dataclass(frozen=True)
class Functional:
    """A norming element of the dual unit sphere.

    Sign vectors are the extreme dual points of l1; dual-coordinate vectors
    cover lp (and the sup/reals cases).
    """

    space: SpaceDescriptor
    kind: str  # "sign-vector" | "dual-coordinates"
    coords: Tuple[Scalar, ...]

    def __init__(self, space, kind, coords):
        coords = tuple(coerce(c) for c in coords)
        if kind == "sign-vector":
            if any(c not in (-1, 1) for c in coords):
                raise DomainError("sign vectors have +-1 entries only")
        elif kind != "dual-coordinates":
            raise DomainError(f"unknown functional kind {kind!r}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "coords", coords)

    def __call__(self, y: YVec) -> Scalar:
        if y.space != self.space:
            raise DomainError("functional applied across spaces")
        coords = self.coords
        if self.kind == "sign-vector" and len(coords) < len(y.coords):
            # Unset sign entries default to +1 (finitely supported l1 duals).
            coords = coords + (1,) * (len(y.coords) - len(coords))
        a, b = _aligned(coords, y.coords)
        return sum(f * c for f, c in zip(a, b))

    def dual_norm(self) -> Scalar:
        family = self.space.family
        if self.kind == "sign-vector" or family == "l1":
            return max(abs(c) for c in self.coords)
        if family == "sup":
            return sum(abs(c) for c in self.coords)
        if family == "r":
            return abs(self.coords[0])
        p = float(self.space.p)
        q = p / (p - 1.0)
        return sum(abs(float(c)) ** q for c in self.coords) ** (1.0 / q)

    def restrict(self, dim: int) -> "Functional":
        coords = self.coords[:dim]
        if self.kind == "sign-vector" and len(coords) < dim:
            coords = coords + (1,) * (dim - len(coords))
        return Functional(SpaceDescriptor(self.space.family, self.space.p, dim),
                          self.kind, coords)


def support_functional(y: YVec) -> Functional:
    """A norm-one functional attaining the norm of y.

    l1 uses the sign vector of y with zero coordinates sent to +1 (fixed for
    reproducibility); lp its dual-coordinate vector; the reals the sign;
    sup spaces a signed coordinate functional at a maximal coordinate.
    """
    n = norm(y)
    if n == 0:
        raise DomainError("the zero vector has no support functional")
    family = y.space.family
    if family == "l1":
        width = y.space.dim if not y.space.infinite else len(y.coords)
        signs = tuple(1 if i >= len(y.coords) or y.coords[i] >= 0 else -1
                      for i in range(max(width, 1)))
        return Functional(y.space, "sign-vector", signs)
    if family == "r":
        return Functional(y.space, "dual-coordinates", (1 if y.coords[0] >= 0 else -1,))
    if family == "sup":
        j = max(range(len(y.coords)), key=lambda i: abs(y.coords[i]))
        coords = [0] * len(y.coords)
        coords[j] = 1 if y.coords[j] >= 0 else -1
        return Functional(y.space, "dual-coordinates", tuple(coords))
    p = float(y.space.p)
    nf = float(n)
    coords = tuple(
        math.copysign(abs(float(c)) ** (p - 1.0), float(c)) / nf ** (p - 1.0)
        for c in y.coords
    )
    return Functional(y.space, "dual-coordinates", coords)


def modulus_convexity(space: SpaceDescriptor, eps: Scalar) -> Scalar:
    """Modulus of convexity delta(eps) on (0, 2].

    Exact eps/2 for the reals; the standard closed form for p >= 2; the
    (p-1) eps^2 / 8 lower bound for 1 < p < 2 (a valid understatement: any
    function below the true modulus yields correct correction constants).
    """
    eps = coerce(eps)
    if not 0 < eps <= 2:
        raise DomainError(f"eps must lie in (0, 2]: {eps}")
    if space.family == "r":
        return eps / 2
    if space.family != "lp":
        raise UnsupportedSpaceError(f"{space.family} is not uniformly convex")
    p = float(space.p)
    e = float(eps)
    if p >= 2:
        return 1.0 - (1.0 - (e / 2.0) ** p) ** (1.0 / p)
    return (p - 1.0) * e * e / 8.0


def positive_part(y: YVec) -> YVec:
    zero_s = Fraction(0) if y.is_exact() else 0.0
    return YVec(y.space, tuple(c if c > 0 else zero_s for c in y.coords))


def coordinate_sum(y: YVec) -> Scalar:
    """Pairing with the all-ones functional (the canonical l1 norming form)."""
    return sum(y.coords, Fraction(0) if y.is_exact() else 0.0)


def is_nonnegative(y: YVec, tol=None) -> bool:
    if tol is None:
        tol = tol_of(*y.coords)
    floor = -tol
    return all(c >= floor for c in y.coords)
