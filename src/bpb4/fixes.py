"""Correction routines: given a quadruple nearly normed by a functional on an
active index set, produce a nearby quadruple attaining ||sum z_i|| = |C|.

Routes: a singleton normalization for one-element active sets; the
uniformly convex route (lp, reals) that collapses the active block onto a
common unit vector; and the l1 route built from positive parts,
nonnegativity repairs, and first-coordinate padding with explicit rescale
factors.  A convex-combination front end picks the functional and the active
set itself, and a dense-lift wrapper runs finitely supported l1 through the
l1 route on its exact finite section l1^n.

Every route has the shape of the paper's proof.  ``expand_active`` closes
the active set to an interval of base vertices and checks its pairing
slack; a cyclic shift brings the interval to start at v1, where the route
supplies only its correction (its shape); ``_on_interval`` does the shift,
undoes it, and builds the result: the certified interval, displacements,
label, and a ``shift:r`` log entry ahead of the route's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import FrozenSet, Tuple

from .errors import DomainError, PreconditionError, UnsupportedSpaceError
from .quadop import Quad, check_membership, cyclic_shift
from .scalars import FLOAT_TOL, Scalar, coerce, tol_of
from .spaces import (
    Functional,
    SpaceDescriptor,
    YVec,
    coordinate_sum,
    embed,
    flip_signs,
    modulus_convexity,
    norm,
    positive_part,
    support_functional,
    unit_first,
)


@dataclass(frozen=True)
class ConstantsSchedule:
    """Closed-form constants calculus for one space family.

    rho is the base slack function (eps/226 for l1; min{delta(eps)/2, eps/6}
    for the uniformly convex families), nu = rho^2 drives the convex
    combination route, gamma(eps) = nu(eps/4) is the definition-level slack,
    eta(eps) = nu(eps/3) is the entry slack of the end-to-end correction,
    gamma_from_eta(eps) = eta(eps/48) extracts slack from a correction
    routine, and zeta(eps) = gamma(eps/2) is the slack the paper's dense limit
    for a general L1(mu) would need.  Finitely supported l1 needs no limit:
    its exact finite section is l1^n, so it shares l1^n's constants.
    """

    space: SpaceDescriptor

    def rho(self, eps: Scalar) -> Scalar:
        eps = coerce(eps)
        if self.space.family == "l1":
            return eps / 226
        delta = modulus_convexity(self.space, eps)
        return min(delta / 2, eps / 6)

    def nu(self, eps: Scalar) -> Scalar:
        return self.rho(eps) ** 2

    def gamma(self, eps: Scalar) -> Scalar:
        return self.nu(coerce(eps) / 4)

    def eta(self, eps: Scalar) -> Scalar:
        return self.nu(coerce(eps) / 3)

    def gamma_from_eta(self, eps: Scalar) -> Scalar:
        return self.eta(coerce(eps) / 48)

    def zeta(self, eps: Scalar) -> Scalar:
        return self.gamma(coerce(eps) / 2)


def schedule(space: SpaceDescriptor) -> ConstantsSchedule:
    if space.family == "sup":
        raise UnsupportedSpaceError("no correction routine for sup-norm codomains")
    return ConstantsSchedule(space)


def _in_dual_ball(f: Functional) -> bool:
    """||f|| <= 1 in the dual space, for a dual-coordinate functional.

    The dual norm is max |c| on l1 and the reals, sum |c| on sup, and the
    conjugate exponent's norm on lp, taken relative to max |c| so that no
    power overflows.
    """
    a = [abs(c) for c in f.coords]
    family = f.space.family
    top = sum(a) if family == "sup" else max(a, default=0)
    if family == "lp" and 0 < top <= 1 + FLOAT_TOL:
        e = 1 - 1 / float(f.space.p)  # 1/q, q = p/(p-1); 0 leaves max |c|
        if e:
            t = float(top)
            top = t * sum((float(c) / t) ** (1 / e) for c in a) ** e
    return top <= 1 + tol_of(top)


@dataclass(frozen=True)
class FixRequest:
    """The inputs of one fix, validated once here for every route.

    The active set is a nonempty subset of 1..4, eps lies in (0, 1), a
    dual-coordinate functional lies in the dual unit ball (a sign vector
    does by construction), and the quadruple is admissible.  Each fix checks
    only its own route's preconditions on top: family, functional kind, and
    pairing slack (in ``expand_active``).
    """

    quad: Quad
    functional: Functional
    active: FrozenSet[int]
    eps: Scalar

    def __init__(self, quad, functional, active, eps):
        active = frozenset(active)
        if not active or not active <= {1, 2, 3, 4}:
            raise DomainError(f"active set must be a nonempty subset of 1..4: {active}")
        eps = coerce(eps)
        if not 0 < eps < 1:
            raise DomainError(f"eps must lie in (0, 1): {eps}")
        if functional.kind == "dual-coordinates" and not _in_dual_ball(functional):
            raise DomainError("functional lies outside the dual unit ball")
        report = check_membership(quad)
        if not report.member:
            raise PreconditionError(f"input is not an admissible quadruple "
                                    f"(slack {report.slack} at {report.worst})")
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "functional", functional)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "eps", eps)


def _request(quad: Quad, functional: Functional, active: FrozenSet[int],
             eps: Scalar) -> FixRequest:
    """Wrap inputs already known to satisfy FixRequest's checks, unchecked."""
    r = object.__new__(FixRequest)
    object.__setattr__(r, "quad", quad)
    object.__setattr__(r, "functional", functional)
    object.__setattr__(r, "active", active)
    object.__setattr__(r, "eps", eps)
    return r


@dataclass(frozen=True)
class FixResult:
    corrected: Quad
    certified: FrozenSet[int]
    displacements: Tuple[Scalar, Scalar, Scalar, Scalar]
    label: str
    transform_log: Tuple[str, ...] = field(default_factory=tuple)


def _displacements(original: Quad, corrected: Quad):
    return tuple(norm(z - y) for y, z in zip(original.ys, corrected.ys))


def _on_interval(q: Quad, interval: FrozenSet[int], shape) -> FixResult:
    """Run a route's correction with the interval shifted to start at v1.

    ``shape(qs, k)`` corrects ``qs = cyclic_shift(q, r)``, r = min - 1, on
    slots 1..k (k the interval's length) and returns (zs, label, log).  The
    result is shifted back, certifies the interval, and logs ``shift:r``
    (when r > 0) before the route's own entries.
    """
    r = min(interval) - 1
    zs, label, log = shape(cyclic_shift(q, r), len(interval))
    corrected = cyclic_shift(Quad(tuple(zs)), (8 - r) % 8)
    log = ((f"shift:{r}",) if r else ()) + log
    return FixResult(corrected, interval, _displacements(q, corrected), label, log)


def singleton_fix(request: FixRequest) -> FixResult:
    """Fix a one-element active set {j}: normalize y_j, nudge the rest.

    Requires ||y_j|| > 1 - eps/6.  After shifting j to the first slot, the
    other three vectors are shrunk by eps/3 and tilted along the normalized
    vector by (eps/3, eps/6, -eps/6) so every alternating triple stays inside
    the ball.
    """
    q, eps = request.quad, request.eps
    if len(request.active) != 1:
        raise DomainError(f"singleton_fix needs one active index: {set(request.active)}")
    (j,) = request.active
    size = norm(q[j - 1])
    if not size > 1 - eps / 6:
        raise PreconditionError(f"||y_{j}|| must exceed 1 - eps/6")

    def shape(qs, k):
        z1 = qs[0].scale(1 / size)
        a = eps / 3
        tilts = (eps / 3, eps / 6, -eps / 6)
        return ([z1] + [yi.scale(1 - a) + z1.scale(ai)
                        for yi, ai in zip(qs.ys[1:], tilts)], "singleton", ())

    return _on_interval(q, request.active, shape)


def expand_active(q: Quad, f: Functional, active, slack: Scalar) -> FrozenSet[int]:
    """Close an active set to the full index interval [min, max].

    Every active index must pair above 1 - slack; then every index in
    between pairs above 1 - 2*slack, and a failure of that check signals
    violated preconditions on the inputs.  Each index of the interval is
    paired once, and an error names its index in q.
    """
    active = frozenset(active)
    if not active or not active <= {1, 2, 3, 4}:
        raise DomainError(f"bad active set: {active}")
    interval = range(min(active), max(active) + 1)
    outer, inner = 1 - slack, 1 - 2 * slack
    for i in interval:
        pairing = f(q[i - 1])
        if i in active and not pairing > outer:
            raise PreconditionError(f"pairing at index {i} not above 1 - slack")
        if not pairing > inner:
            raise PreconditionError(
                f"inconsistent input: middle pairing at index {i} below 1 - 2*slack")
    return frozenset(interval)


def uniformly_convex_fix(request: FixRequest) -> FixResult:
    """Correction over lp (1<p<inf) or the reals.

    With gamma = min{delta(eps)/2, eps/6}, all active vectors are within eps
    of the normalized first one, so the active block collapses onto
    y1/||y1||; a two-element block additionally shrinks-and-tilts the two
    passive vectors to restore the triple bounds.
    """
    q = request.quad
    if q.space.family not in ("lp", "r"):
        raise UnsupportedSpaceError(f"{q.space.family} is not uniformly convex")
    gamma = schedule(q.space).rho(request.eps)
    interval = expand_active(q, request.functional, request.active, gamma)
    if len(interval) == 1:
        return singleton_fix(request)

    def shape(qs, k):
        z1 = qs[0].scale(1 / norm(qs[0]))
        zs = [z1] * k + list(qs.ys[k:])
        if k == 2:
            a = gamma / (1 + gamma)
            b = gamma / (2 * (1 + gamma))
            zs[2] = qs[2].scale(1 - a) + z1.scale(b)
            zs[3] = qs[3].scale(1 - a) - z1.scale(b)
        return zs, f"uc-{k}", ()

    return _on_interval(q, interval, shape)


def repair_nonnegative(x: YVec, y: YVec, z: YVec, s: Scalar, t: Scalar) -> YVec:
    """Return w >= z with ||w - z|| <= s + t and x - y + w >= 0.

    Requires 1 - s <= sum(x - y + z) and ||x - y + z|| <= 1 + t in l1: the
    coordinates where y exceeds x + z carry at most s + t of mass, and
    overwriting z there by y - x removes all negativity.
    """
    if x.space.family != "l1":
        raise UnsupportedSpaceError("nonnegativity repair is an l1 construction")
    s, t = coerce(s), coerce(t)
    if s < 0 or t < 0:
        raise DomainError("s and t must be nonnegative")
    d = x - y + z
    total, size = coordinate_sum(d), norm(d)
    tol = tol_of(total, size)
    if not total >= 1 - s - tol:
        raise PreconditionError("sum(x - y + z) falls below 1 - s")
    if not size <= 1 + t + tol:
        raise PreconditionError("||x - y + z|| exceeds 1 + t")
    if d.is_exact():
        # Exactly the coordinate rule below: z_k + max(0, y_k - x_k - z_k).
        return z + positive_part(-d)
    n = max(len(x.coords), len(y.coords), len(z.coords))
    pad = lambda v: v.coords + (Fraction(0),) * (n - len(v.coords))
    w = tuple(zk if yk <= xk + zk else yk - xk
              for xk, yk, zk in zip(pad(x), pad(y), pad(z)))
    return YVec(x.space, w)


def _canonical_signs(f: Functional, width: int) -> Tuple[int, ...]:
    signs = tuple(int(c) for c in f.coords[:width])
    return signs + (1,) * (width - len(signs))


def l1_fix(request: FixRequest) -> FixResult:
    """Correction over l1^n with a sign-vector functional.

    After moving the active minimum to slot 1 and flipping coordinates so
    the functional becomes summation, the active interval is corrected in
    one of three shapes keyed by its length: two-element blocks pad positive
    parts with e1 and rescale by (1+8r)(1+4r); three-element blocks run one
    nonnegativity repair and rescale by (1+36r)(1+14r); the full interval
    runs two rounds of paired repairs and rescales by 1+96r.  Displacements
    stay below 28r / 114r / 226r = eps respectively, with r = eps/226.
    """
    q, f = request.quad, request.functional
    space = q.space
    if space.family != "l1":
        raise UnsupportedSpaceError("l1_fix requires an l1 codomain")
    if space.infinite:
        raise UnsupportedSpaceError("use dense_lift for finitely supported l1")
    if f.kind != "sign-vector":
        raise UnsupportedSpaceError("l1_fix requires a sign-vector functional")
    rho = schedule(space).rho(request.eps)
    interval = expand_active(q, f, request.active, rho)
    if len(interval) == 1:
        return singleton_fix(request)

    signs = _canonical_signs(f, space.dim)
    log = ("sign-canonicalize",) if any(s != 1 for s in signs) else ()
    e1 = unit_first(space)

    def shape(qs, k):
        a_vecs = [flip_signs(y, signs) for y in qs.ys]
        b = [positive_part(a_vecs[i]) if i < k else a_vecs[i] for i in range(4)]
        if k == 2:
            x = [b[0] + e1.scale(1 - norm(b[0])),
                 b[1] + e1.scale(1 - norm(b[1])),
                 a_vecs[2], a_vecs[3]]
            inv8 = 1 / (1 + 8 * rho)
            y = [x[i].scale(inv8) + e1.scale(1 - inv8) if i < 2 else x[i].scale(inv8)
                 for i in range(4)]
            inv4 = 1 / (1 + 4 * rho)
            z = [y[i].scale(inv4) + e1.scale(1 - inv4) if i < 3 else y[i].scale(inv4)
                 for i in range(4)]
        elif k == 3:
            x1 = repair_nonnegative(b[2], b[1], b[0], 4 * rho, 6 * rho)
            x = [x1, b[1], b[2], a_vecs[3]]
            inv36 = 1 / (1 + 36 * rho)
            y = [x[i].scale(inv36) + e1.scale(1 - norm(x[i]) * inv36) if i < 3
                 else x[i].scale(inv36) for i in range(4)]
            inv14 = 1 / (1 + 14 * rho)
            z = [y[i].scale(inv14) + e1.scale(1 - inv14) if i < 3 else y[i].scale(inv14)
                 for i in range(4)]
        else:
            x1 = repair_nonnegative(b[2], b[1], b[0], 4 * rho, 6 * rho)
            x4 = repair_nonnegative(b[0], b[2], b[3], 4 * rho, 6 * rho)
            y1 = repair_nonnegative(b[3], b[1], x1, 4 * rho, 16 * rho)
            y4 = repair_nonnegative(b[1], b[2], x4, 4 * rho, 16 * rho)
            y = [y1, b[1], b[2], y4]
            inv96 = 1 / (1 + 96 * rho)
            z = [yi.scale(inv96) + e1.scale(1 - norm(yi) * inv96) for yi in y]
        return [flip_signs(zi, signs) for zi in z], f"l1-{k}", log

    return _on_interval(q, interval, shape)


def dispatch_fix(request: FixRequest) -> FixResult:
    """Route a request to the fix matching its space family."""
    family = request.quad.space.family
    if family == "l1":
        if request.quad.space.infinite:
            return dense_lift(request)
        return l1_fix(request)
    if family in ("lp", "r"):
        return uniformly_convex_fix(request)
    raise UnsupportedSpaceError(f"no correction routine for {family}")


def convex_fix(q: Quad, alpha, eps: Scalar):
    """From a near-norming convex combination to a certified correction.

    Finds the support functional of sum(alpha_i y_i), collects the indices
    pairing above 1 - rho (their alpha-mass exceeds 1 - eps), and dispatches
    to the family's fix.  Returns (active set, FixResult).  eps and the
    admissibility of q are validated by the FixRequest it dispatches.
    """
    eps = coerce(eps)
    alpha = tuple(coerce(a) for a in alpha)
    tol = tol_of(*alpha)
    if (len(alpha) != 4 or not all(a >= -tol for a in alpha)
            or not abs(sum(alpha) - 1) <= tol):
        raise DomainError("alpha must be four convex weights")
    rho = schedule(q.space).rho(eps)
    nu = rho * rho

    combo = q[0].scale(alpha[0])
    for i in range(1, 4):
        combo = combo + q[i].scale(alpha[i])
    if not norm(combo) > 1 - nu:
        raise PreconditionError("||sum alpha_i y_i|| must exceed 1 - nu")

    f = support_functional(combo)
    active = frozenset(i for i in (1, 2, 3, 4) if f(q[i - 1]) > 1 - rho)
    if not active:
        raise PreconditionError("no index pairs above 1 - rho")
    mass = sum(alpha[i - 1] for i in active)
    if not mass >= 1 - rho - tol:  # 1 - nu/rho, as nu = rho^2
        raise PreconditionError("active alpha-mass fell below 1 - nu/rho")
    return active, dispatch_fix(FixRequest(q, f, active, eps))


def dense_lift(request: FixRequest) -> FixResult:
    """Correction over finitely supported l1 on its exact finite section.

    Every vector of q lies in the section l1^n, n the widest support, which
    l1 embeds isometrically: norms, pairings and admissibility are the same
    there, so l1_fix runs on the section at the same eps (its request skips
    FixRequest's checks) and its displacements hold for the embedded result.
    """
    q, f, active, eps = request.quad, request.functional, request.active, request.eps
    space = q.space
    if space.family != "l1" or not space.infinite:
        raise UnsupportedSpaceError("dense_lift requires finitely supported l1")
    n = max(1, max(len(y.coords) for y in q.ys))
    section = SpaceDescriptor("l1", dim=n)
    inner_q = Quad(tuple(embed(y, section) for y in q.ys))
    inner = l1_fix(_request(inner_q, f.restrict(n), active, eps))
    lifted = Quad(tuple(embed(z, space) for z in inner.corrected.ys))
    return FixResult(lifted, inner.certified, inner.displacements, inner.label,
                     (f"truncate:n={n}",) + inner.transform_log)
