"""End-to-end norm-attainment correction with verifiable certificates.

``correct`` takes an operator of norm one (as a quadruple of base-vertex
images) and a unit vector at which it nearly attains its norm, and returns a
nearby operator together with a nearby point where the norm is attained
exactly.  ``extract_ahsp`` goes the other way: given an externally supplied
attaining pair near the original, it recovers a certified active set and
quadruple.  ``verify_certificate`` recomputes every residual from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .cube import (
    SignedPerm,
    Vec4,
    close_face_correct,
    coords,
    in_base_simplex,
    reconstruct,
    reduce_to_base,
)
from .errors import DomainError, PreconditionError
from .fixes import schedule, convex_fix
from .quadop import Quad, apply, check_membership, compose, diff, op_norm
from .scalars import Scalar, coerce, tol_of
from .spaces import SpaceDescriptor, norm


@dataclass(frozen=True)
class Certificate:
    """A corrected operator/point pair with recomputable residuals.

    ``residuals`` holds attainment (1 - ||S u0||), point_distance
    (||u0 - x0||), operator_distance (||S - T||), and operator_norm (||S||),
    all as computed at emission time; verification never trusts them.
    """

    space: SpaceDescriptor
    eps: Scalar
    original: Quad
    point: Vec4
    corrected: Quad
    attained_at: Vec4
    residuals: Dict[str, Scalar]
    isometry: SignedPerm
    fix_label: str


def _residuals(T: Quad, x0: Vec4, S: Quad, u0: Vec4,
               s_norm: Scalar) -> Dict[str, Scalar]:
    """The four residuals, given ``s_norm`` = op_norm(S)."""
    return {
        "attainment": 1 - norm(apply(S, u0)),
        "point_distance": (u0 - x0).sup_norm(),
        "operator_distance": op_norm(diff(S, T)),
        "operator_norm": s_norm,
    }


def entry_slack(space: SpaceDescriptor, eps: Scalar) -> Scalar:
    """The entry slack eta(eps) of ``correct``, for an eps in (0, 1).

    Raises DomainError when eps lies outside (0, 1), and when a float eta is
    so small that 1 - eta rounds to 1.  The rational backend handles that on
    l1 and the reals; on lp eta is a float on every backend, because the
    modulus of convexity is.
    """
    if not 0 < eps < 1:
        raise DomainError(f"eps must lie in (0, 1): {eps}")
    eta = schedule(space).eta(eps)
    if 1 - eta == 1:
        advice = ("lp's modulus of convexity is a float on every backend"
                  if space.family == "lp" else "use the rational backend")
        raise DomainError(f"eta(eps) = {eta} is below double precision; {advice}")
    return eta


def correct(T: Quad, x0: Vec4, eps: Scalar) -> Certificate:
    """Correct a nearly-attaining pair (T, x0) to an exactly attaining one.

    Requires op_norm(T) = 1, ||x0|| = 1 (sup norm), and ||T x0|| > 1 - eta
    with eta from the codomain's constants schedule.  The returned operator
    S has norm one and attains it at the returned point u0, with
    ||u0 - x0|| < 2*eps/3 and ||S - T|| < eps.  A float eta so small that
    1 - eta rounds to 1 is a DomainError (see ``entry_slack``).

    ``reduce_to_base`` checks ||x0|| = 1.  ``convex_fix`` checks the entry
    inequality: sum alpha_i (T o g)(v_i) is T x0, and nu(eps/3) = eta(eps).
    """
    eps = coerce(eps)
    entry_slack(T.space, eps)
    t_norm = op_norm(T)
    if not abs(t_norm - 1) <= tol_of(t_norm, *x0.coords):
        raise DomainError("operator must have norm one")

    g, x0_base = reduce_to_base(x0)
    alpha = coords(x0_base)
    active, fix = convex_fix(compose(T, g), alpha, eps / 3)
    mass = sum(alpha[i - 1] for i in active)
    order = tuple(active)
    u0_base = reconstruct([alpha[i - 1] / mass for i in order], order)

    S = compose(fix.corrected, g.inverse())
    u0 = g.apply(u0_base)

    return Certificate(
        space=T.space,
        eps=eps,
        original=T,
        point=x0,
        corrected=S,
        attained_at=u0,
        residuals=_residuals(T, x0, S, u0, op_norm(S)),
        isometry=g,
        fix_label=fix.label,
    )


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    checks: Tuple[Tuple[str, bool, Scalar, Scalar], ...]  # (name, ok, value, bound)
    residuals: Dict[str, Scalar]

    def failures(self):
        return tuple(name for name, good, _, _ in self.checks if not good)


def verify_certificate(cert: Certificate) -> VerificationReport:
    """Recompute every residual of a certificate and judge it at its eps.

    Checks: corrected operator admissible and of norm one; attainment point
    in the unit ball; attainment defect zero (backend tolerance); point and
    operator displacements strictly below eps.  Stored residuals are ignored.
    """
    S, T = cert.corrected, cert.original
    u0, x0 = cert.attained_at, cert.point
    eps = coerce(cert.eps)
    member = check_membership(S)  # S's eight extreme images, normed once
    res = _residuals(T, x0, S, u0, member.norm)
    tol = tol_of(res["attainment"], res["operator_norm"], *u0.coords)
    u0_norm = u0.sup_norm()
    checks = (
        ("corrected_admissible", member.slack >= -tol, member.slack, -tol),
        ("corrected_norm_one", abs(res["operator_norm"] - 1) <= tol,
         res["operator_norm"], 1),
        ("point_in_ball", u0_norm <= 1 + tol, u0_norm, 1),
        ("attainment", abs(res["attainment"]) <= tol, res["attainment"], 0),
        ("point_distance", res["point_distance"] < eps, res["point_distance"], eps),
        ("operator_distance", res["operator_distance"] < eps,
         res["operator_distance"], eps),
    )
    return VerificationReport(ok=all(c[1] for c in checks), checks=checks,
                              residuals=res)


def extract_ahsp(T: Quad, x0: Vec4, S: Quad, u0: Vec4, eps: Scalar):
    """Recover a certified active set from an externally supplied attaining pair.

    Requires ||S|| = 1 = ||S u0||, ||u0 - x0|| < eps/12, ||S - T|| < eps/12
    and ||T|| = 1, with x0 in the base simplex.  Returns (C, z) where z is S
    itself (its base-vertex images), every index of C satisfies
    ||z_i - y_i|| < eps/6, and ||sum_{i in C} z_i|| = |C|.
    """
    eps = coerce(eps)
    if not 0 < eps < 1:
        raise DomainError(f"eps must lie in (0, 1): {eps}")
    if not in_base_simplex(x0):
        raise DomainError("x0 must lie in the base simplex")
    s_norm = op_norm(S)
    tol = tol_of(s_norm, *u0.coords)
    if not abs(s_norm - 1) <= tol:
        raise PreconditionError("S must have norm one")
    if not abs(norm(apply(S, u0)) - 1) <= tol:
        raise PreconditionError("S must attain its norm at u0")
    if not abs(op_norm(T) - 1) <= tol:
        raise PreconditionError("T must have norm one")
    if not (u0 - x0).sup_norm() < eps / 12:
        raise PreconditionError("||u0 - x0|| must be below eps/12")
    if not op_norm(diff(S, T)) < eps / 12:
        raise PreconditionError("||S - T|| must be below eps/12")

    # S also attains at the flattened point with first coordinate forced to 1.
    flat = Vec4((1, u0[1], u0[2], u0[3]))
    if not abs(norm(apply(S, flat)) - 1) <= tol:
        raise PreconditionError("S does not attain at the flattened point")

    cf = close_face_correct(x0, flat, eps / 12)
    C = frozenset(i for i, gmm in cf.gamma.items() if gmm > 0)
    return C, S
