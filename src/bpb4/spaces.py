"""Concrete codomain spaces: l1^n, finitely supported l1, lp^n (1<p<inf),
sup-norm spaces, and the reals.

Vectors are dense coordinate tuples; in the infinite l1 case the tuple is
the finite support prefix and shorter vectors are zero-padded on demand, so
equality and hashing there ignore trailing zeros.
Exact vectors are stored as integer numerators over one denominator (see
``YVec``).  l1 and sup norms stay exact on the rational backend; lp norms
are floats.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import DomainError, UnsupportedSpaceError
from .scalars import Scalar, coerce, is_exact


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
            if self.p is None or not 1 < self.p <= sys.float_info.max:
                raise DomainError("lp requires a finite p > 1 within double range")
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


_ZERO = Fraction(0)


def _aligned(a: Tuple[Scalar, ...], b: Tuple[Scalar, ...]):
    if len(a) == len(b):
        return a, b
    n = max(len(a), len(b))
    zero = _ZERO if is_exact(*a, *b) else 0.0
    return (a + (zero,) * (n - len(a)), b + (zero,) * (n - len(b)))


class YVec:
    """An element of a concrete codomain space.

    ``coords`` is the public view: a tuple of Fractions or floats.  A vector
    whose coordinates are all Fractions is exact and is stored as integer
    numerators ``num`` over one positive denominator ``den``, reduced so that
    ``gcd(den, *num) == 1``; equal exact vectors have equal ``(num, den)``,
    up to trailing zeros on finitely supported l1.
    Its ``coords`` are built from them on first read and kept.  Float and
    mixed vectors store ``coords`` alone, with ``den`` None, and never build
    numerators.  Vectors are immutable.
    """

    __slots__ = ("space", "_coords", "num", "den")

    def __init__(self, space: SpaceDescriptor, coords):
        coords = tuple(map(coerce, coords))
        _check_count(space, len(coords))
        _set_space(self, space)
        _set_coords(self, coords)
        if float in map(type, coords):
            _set_den(self, None)
        else:
            # Over the lcm of reduced denominators the numerators are coprime
            # to it already.
            den = math.lcm(*[c.denominator for c in coords])
            _set_num(self, tuple(c.numerator * (den // c.denominator)
                                 for c in coords))
            _set_den(self, den)

    @property
    def coords(self) -> Tuple[Scalar, ...]:
        try:
            return self._coords
        except AttributeError:  # an exact vector's first read
            den = self.den
            coords = tuple(Fraction(n, den) for n in self.num)
            _set_coords(self, coords)
            return coords

    def __setattr__(self, name, value):
        raise AttributeError(f"YVec is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, YVec):
            return NotImplemented
        if self.space != other.space:
            return False
        if self.den is not None and other.den is not None:
            if self.den != other.den:
                return False
            a, b = self.num, other.num
        else:
            a, b = self.coords, other.coords
        if len(a) != len(b):  # finitely supported l1: compare the values
            return _trimmed(a) == _trimmed(b)
        return a == b

    def __hash__(self):
        coords = self.coords
        return hash((self.space,
                     _trimmed(coords) if self.space.infinite else coords))

    def __repr__(self):
        return f"YVec(space={self.space!r}, coords={self.coords!r})"

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return YVec, (self.space, self.coords)

    def __add__(self, other: "YVec") -> "YVec":
        return _combine(self, other, operator.add)

    def __sub__(self, other: "YVec") -> "YVec":
        return _combine(self, other, operator.sub)

    def __neg__(self) -> "YVec":
        if self.den is None:
            return _yvec(self.space, tuple(map(operator.neg, self._coords)))
        return _exact_reduced(self.space, tuple(map(operator.neg, self.num)),
                              self.den)

    def scale(self, c: Scalar) -> "YVec":
        if self.den is None:
            return _yvec(self.space, tuple(c * x for x in self._coords))
        if isinstance(c, float):
            return _yvec(self.space, tuple(c * x for x in self.coords))
        m = c.numerator
        return _exact(self.space, tuple(m * n for n in self.num),
                      self.den * c.denominator)

    def is_exact(self) -> bool:
        return self.den is not None


_set_space = YVec.space.__set__
_set_coords = YVec._coords.__set__
_set_num = YVec.num.__set__
_set_den = YVec.den.__set__


def _check_count(space: SpaceDescriptor, count: int):
    if not space.infinite and count != space.dim:
        raise DomainError(f"coordinate count {count} != dimension {space.dim}")


def _trimmed(entries):
    """entries without their trailing zeros."""
    n = len(entries)
    while n and entries[n - 1] == 0:
        n -= 1
    return entries[:n]


def _combine(a: YVec, b: YVec, op) -> YVec:
    """a + b or a - b.  Exact operands cost one gcd of their denominators."""
    if a.space is not b.space and a.space != b.space:
        raise DomainError(f"mixed spaces: {a.space} vs {b.space}")
    ad, bd = a.den, b.den
    if ad is None or bd is None:
        try:
            ac, bc = _aligned(a._coords, b._coords)
        except AttributeError:  # an exact operand whose coords were never read
            ac, bc = _aligned(a.coords, b.coords)
        return _yvec(a.space, tuple(map(op, ac, bc)))
    an, bn = a.num, b.num
    if len(an) != len(bn):
        n = max(len(an), len(bn))
        an, bn = an + (0,) * (n - len(an)), bn + (0,) * (n - len(bn))
    if ad != bd:
        g = math.gcd(ad, bd)
        am, bm = bd // g, ad // g
        an = tuple(x * am for x in an)
        bn = tuple(x * bm for x in bn)
        ad *= am
    return _exact(a.space, tuple(map(op, an, bn)), ad)


def _yvec(space: SpaceDescriptor, coords) -> YVec:
    """Wrap the float or mixed coordinates of an arithmetic result, unchecked.

    Arithmetic with a float operand yields float or mixed coordinates of the
    right length, so the vector operations skip the per-coordinate
    ``coerce`` and the exactness scan of ``YVec()``.
    """
    v = object.__new__(YVec)
    _set_space(v, space)
    _set_coords(v, coords)
    _set_den(v, None)
    return v


def _exact_reduced(space: SpaceDescriptor, num, den: int) -> YVec:
    """Wrap integer numerators over a positive den, already in lowest terms."""
    v = object.__new__(YVec)
    _set_space(v, space)
    _set_num(v, num)
    _set_den(v, den)
    return v


def _exact(space: SpaceDescriptor, num, den: int) -> YVec:
    """Wrap integer numerators over a positive den, dividing out their gcd."""
    g = math.gcd(den, *num)
    if g != 1:
        num = tuple(n // g for n in num)
        den //= g
    return _exact_reduced(space, num, den)


def from_ratios(space: SpaceDescriptor, ratios) -> YVec:
    """The exact vector with coordinates p/q, one (p, q) per coordinate, q > 0.

    The same vector, with the same ``(num, den)``, as ``YVec(space,
    [Fraction(p, q) ...])`` for unreduced ratios too, but it builds no
    Fraction: the numerators over lcm(q...) are reduced once.
    """
    _check_count(space, len(ratios))
    den = math.lcm(*[q for _, q in ratios])
    return _exact(space, tuple(p * (den // q) for p, q in ratios), den)


def zero(space: SpaceDescriptor) -> YVec:
    dim = 0 if space.infinite else space.dim
    v = _exact_reduced(space, (0,) * dim, 1)
    # Its coords are set too: apply() adds float images to this exact zero.
    _set_coords(v, (_ZERO,) * dim)
    return v


def unit_first(space: SpaceDescriptor) -> YVec:
    """The first coordinate vector e1 (a unit vector in every family here)."""
    if space.infinite:
        return YVec(space, (1,))
    return YVec(space, (1,) + (0,) * (space.dim - 1))


def norm(y: YVec) -> Scalar:
    family = y.space.family
    if y.den is None:
        coords = y._coords
    elif family == "l1":
        return Fraction(sum(map(abs, y.num)), y.den)
    elif family == "lp":
        coords = y.coords
    else:  # sup, and the one coordinate of the reals
        return Fraction(max(map(abs, y.num)), y.den)
    if family == "l1":
        return sum(map(abs, coords), 0.0)
    if family == "sup":
        return max(map(abs, coords))
    if family == "r":
        return abs(coords[0])
    p = float(y.space.p)
    try:
        return sum(abs(float(c)) ** p for c in coords) ** (1.0 / p)
    except OverflowError:  # a coordinate or its p-th power beyond double range
        raise DomainError("lp norm beyond double range") from None


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
        if self.kind == "sign-vector":
            # Unset sign entries default to +1 (finitely supported l1 duals).
            if y.den is not None:
                num = y.num
                total = sum(n if s == 1 else -n for s, n in zip(coords, num))
                return Fraction(total + sum(num[len(coords):]), y.den)
            if len(coords) < len(y.coords):
                coords = coords + (1,) * (len(y.coords) - len(coords))
        a, b = _aligned(coords, y.coords)
        return sum(f * c for f, c in zip(a, b))

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
        entries = y.coords if y.den is None else y.num  # same signs: den > 0
        width = y.space.dim if not y.space.infinite else len(entries)
        signs = tuple(1 if i >= len(entries) or entries[i] >= 0 else -1
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
    if y.den is not None:
        return _exact(y.space, tuple(n if n > 0 else 0 for n in y.num), y.den)
    return YVec(y.space, tuple(c if c > 0 else 0.0 for c in y._coords))


def flip_signs(y: YVec, signs) -> YVec:
    """Multiply coordinate k of y by signs[k], each +1 or -1."""
    if y.den is not None:
        return _exact_reduced(y.space, tuple(n if s > 0 else -n
                                             for s, n in zip(signs, y.num)), y.den)
    return YVec(y.space, tuple(s * c for s, c in zip(signs, y._coords)))


def embed(y: YVec, space: SpaceDescriptor) -> YVec:
    """y in another l1 space at least as wide, zero-padded to its dimension."""
    if y.den is not None:
        pad = 0 if space.infinite else space.dim - len(y.num)
        return _exact_reduced(space, y.num + (0,) * pad, y.den)
    pad = 0 if space.infinite else space.dim - len(y._coords)
    return YVec(space, y._coords + (_ZERO,) * pad)


def coordinate_sum(y: YVec) -> Scalar:
    """Pairing with the all-ones functional (the canonical l1 norming form)."""
    if y.den is not None:
        return Fraction(sum(y.num), y.den)
    return sum(y._coords, 0.0)
