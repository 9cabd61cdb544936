"""Reference checker for bpb4 outputs, written apart from the package.

It imports nothing from ``bpb4``: it parses certificate JSON itself, keeps
vectors as ``{index: value}`` dicts, recovers an operator's images of the
unit vectors e_1..e_4 from its base-vertex images by its own 4x4 solve, and
computes operator norms as the largest codomain norm over all sixteen sign
vectors, with its own l1 / lp / |.| norms.

Checks are exact when every value involved is a Fraction and the codomain
is not lp; otherwise they hold within ``FLOAT_TOL``.  Each check function
returns the list of failed properties; an empty list accepts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

FLOAT_TOL = 1e-9

#: Base vertices v1..v4 of the lead face of the l_inf^4 ball, as rows.
BASE = ((1, 1, 1, 1), (1, -1, 1, 1), (1, -1, -1, 1), (1, -1, -1, -1))

SIGNS = tuple(itertools.product((1, -1), repeat=4))


def _inverse(rows):
    """Gauss-Jordan inverse of a square matrix over the rationals."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        lead = a[col][col]
        a[col] = [x / lead for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


#: BASE_INV[j][i]: T(e_j) = sum_i BASE_INV[j][i] * T(v_i).
BASE_INV = _inverse(BASE)


class Space:
    """A codomain as named in certificate JSON: l1 (finite or "inf"), lp, r."""

    def __init__(self, data):
        self.family = data["family"]
        if self.family not in ("l1", "lp", "r"):
            raise ValueError(f"no reference norm for family {self.family!r}")
        self.dim = data.get("dim")
        self.p = float(scalar(data["p"])) if self.family == "lp" else None

    @property
    def sparse(self) -> bool:
        return self.dim == "inf"

    def norm(self, v):
        values = v.values()
        if self.family == "lp":
            return sum(abs(float(c)) ** self.p for c in values) ** (1.0 / self.p)
        return sum((abs(c) for c in values), Fraction(0))  # l1, and |.| on r

    def vector(self, data):
        """A codomain vector from JSON: dense list, or [index, value] pairs."""
        if self.sparse:
            return {int(i): scalar(c) for i, c in data}
        if len(data) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(data)}")
        return {i: scalar(c) for i, c in enumerate(data)}


def scalar(value):
    """JSON scalar: "p/q" strings and ints are exact, floats stay floats."""
    if isinstance(value, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(value, (str, int)):
        return Fraction(value)
    if isinstance(value, float):
        return value
    raise ValueError(f"not a scalar: {value!r}")


def combine(terms):
    """sum c * v over (c, v) pairs of scalars and dict vectors."""
    out = {}
    for c, v in terms:
        if c == 0:
            continue
        for i, x in v.items():
            out[i] = out.get(i, 0) + c * x
    return out


def unit_images(ys):
    """T(e_1)..T(e_4) from the base-vertex images T(v_1)..T(v_4)."""
    return [combine(zip(BASE_INV[j], ys)) for j in range(4)]


def apply(images, x):
    """T x for x in R^4, given T's unit-vector images."""
    return combine(zip(x, images))


def op_norm(space, images):
    return max(space.norm(apply(images, s)) for s in SIGNS)


def sup_norm(x):
    return max(abs(c) for c in x)


def _exact(space, *groups) -> bool:
    if space.family == "lp":
        return False
    for g in groups:
        values = g.values() if isinstance(g, dict) else g
        if any(isinstance(c, float) for c in values):
            return False
    return True


def _flat(vectors):
    return {(k, i): c for k, v in enumerate(vectors) for i, c in v.items()}


def check_certificate(data, T=None, x0=None, eps=None):
    """The paper's guarantees for one emitted certificate.

    ||S|| = 1, ||S u0|| = 1, ||u0|| = 1, ||u0 - x0|| < 2 eps/3 and
    ||S - T|| < eps.  When the input (T as base-vertex coordinate tuples,
    x0, eps) is given, the certificate must also be about that input.
    """
    space = Space(data["space"])
    cert_eps = scalar(data["eps"])
    Ty = [space.vector(y) for y in data["T"]["ys"]]
    Sy = [space.vector(y) for y in data["S"]["ys"]]
    cx0 = tuple(scalar(c) for c in data["x0"])
    u0 = tuple(scalar(c) for c in data["u0"])
    failures = []
    if T is not None and [_support(y) for y in Ty] != [_support(dict(enumerate(y)))
                                                        for y in T]:
        failures.append("certificate T differs from the input")
    if x0 is not None and list(cx0) != list(x0):
        failures.append("certificate x0 differs from the input")
    if eps is not None and cert_eps != eps:
        failures.append("certificate eps differs from the request")

    TE, SE = unit_images(Ty), unit_images(Sy)
    exact = _exact(space, _flat(Ty), _flat(Sy), cx0, u0, (cert_eps,))
    tol = 0 if exact else FLOAT_TOL
    s_norm = op_norm(space, SE)
    if not abs(s_norm - 1) <= tol:
        failures.append(f"||S|| = {float(s_norm)!r}, not 1")
    attained = space.norm(apply(SE, u0))
    if not abs(attained - 1) <= tol:
        failures.append(f"||S u0|| = {float(attained)!r}, not 1")
    if not abs(sup_norm(u0) - 1) <= tol:
        failures.append(f"||u0|| = {float(sup_norm(u0))!r}, not 1")
    shift = sup_norm([a - b for a, b in zip(u0, cx0)])
    if not shift < 2 * cert_eps / 3 + tol:
        failures.append(f"||u0 - x0|| = {float(shift)!r} not below 2 eps/3")
    gap = op_norm(space, [combine(((1, s), (-1, t))) for s, t in zip(SE, TE)])
    if not gap < cert_eps + tol:
        failures.append(f"||S - T|| = {float(gap)!r} not below eps")
    return failures


def _support(v):
    return {i: c for i, c in v.items() if c != 0}


def _dense(space, v):
    width = (1 + max(v, default=-1)) if space.sparse else space.dim
    return [v.get(i, 0) for i in range(width)]


def check_attainer(space_data, ys, zs, active, eps):
    """A brute-search result z for quadruple y, active set C and eps.

    z is admissible (operator norm at most 1), ||sum_{i in C} z_i|| = |C|
    and every ||z_i - y_i|| <= eps.  ys and zs are dense coordinate tuples.
    """
    space = Space(space_data)
    y = [dict(enumerate(v)) for v in ys]
    z = [dict(enumerate(v)) for v in zs]
    exact = _exact(space, _flat(y), _flat(z), (eps,))
    tol = 0 if exact else FLOAT_TOL
    failures = []
    z_norm = op_norm(space, unit_images(z))
    if not z_norm <= 1 + tol:
        failures.append(f"result is not admissible: ||z|| = {float(z_norm)!r}")
    total = space.norm(combine((1, z[i - 1]) for i in active))
    if not abs(total - len(active)) <= tol:
        failures.append(f"||sum over C|| = {float(total)!r}, not {len(active)}")
    for i in range(4):
        moved = space.norm(combine(((1, z[i]), (-1, y[i]))))
        if not moved <= eps + tol:
            failures.append(f"||z_{i + 1} - y_{i + 1}|| = {float(moved)!r} above eps")
    return failures


def lifted_attainer(data):
    """(quadruple, active set) on which a certificate's S attains its sum.

    S o g carries the base simplex point g^-1 u0 to a norm-one image, so its
    base-vertex images z_i = S(g v_i) attain ||sum_{i in C} z_i|| = |C| on
    the support C of g^-1 u0's base coordinates.  Returned as dense tuples.
    """
    space = Space(data["space"])
    SE = unit_images([space.vector(y) for y in data["S"]["ys"]])
    perm, signs = data["isometry"]["perm"], data["isometry"]["signs"]

    def g(x):
        return tuple(signs[i] * x[perm[i]] for i in range(4))

    u0 = tuple(scalar(c) for c in data["u0"])
    base_point = [0] * 4
    for i in range(4):
        base_point[perm[i]] = signs[i] * u0[i]
    weights = [sum(BASE_INV[j][i] * base_point[j] for j in range(4))
               for i in range(4)]
    active = frozenset(i + 1 for i in range(4) if weights[i] > 0)
    zs = [tuple(_dense(space, apply(SE, g(v)))) for v in BASE]
    return zs, active
