"""Instance generation, brute-force attainment search, and the reproducible
experiment sweep.

The generator is seeded and deterministic: identical GenSpec values produce
identical quadruples on every platform (the stream is keyed by a string
derived from seed, space, mode, and instance index).
"""

from __future__ import annotations

import csv
import io
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .certify import correct, entry_slack, verify_certificate
from .cube import SignedPerm, Vec4, vertex
from .errors import BPB4Error, DomainError, PreconditionError, SizeError
from .fixes import schedule
from .quadop import Quad, active_sum_norm, check_membership, compose, op_norm
from .scalars import Scalar, coerce, is_exact, scalar_to_json
from .serial import instance_to_json
from .spaces import SpaceDescriptor, YVec, norm, unit_first

#: Interior-mode quads shrink by this extra factor off the boundary.
INTERIOR_MARGIN = Fraction(1, 8)

#: Resolution of random rational coordinates (denominator).
_COORD_DENOM = 64

#: Hard cap on brute-search candidate combinations.
SEARCH_BUDGET = 2_000_000

GEN_MODES = ("interior", "boundary", "near-face", "constant")


@dataclass(frozen=True)
class GenSpec:
    """Deterministic generation request.

    ``slack`` only matters in near-face mode: the generated quadruple's full
    active sum is pushed to within that slack of the maximal value 4.
    """

    space: SpaceDescriptor
    seed: int
    mode: str = "interior"
    slack: Scalar = Fraction(1, 10)

    def __post_init__(self):
        if self.mode not in GEN_MODES:
            raise DomainError(f"unknown generation mode {self.mode!r}")
        object.__setattr__(self, "slack", coerce(self.slack))


def _space_key(space: SpaceDescriptor) -> str:
    dim = "inf" if space.infinite else str(space.dim)
    p = "" if space.p is None else f":{space.p}"
    return f"{space.family}{p}:{dim}"


def _rng_for(spec: GenSpec) -> random.Random:
    return random.Random(f"{spec.seed}|{_space_key(spec.space)}|{spec.mode}|{spec.slack}")


def _random_yvec(rng: random.Random, space: SpaceDescriptor) -> YVec:
    if space.infinite:
        width = rng.randint(1, 5)
    else:
        width = space.dim
    exact = space.family in ("l1", "sup", "r")
    if exact:
        coords = tuple(Fraction(rng.randrange(-_COORD_DENOM, _COORD_DENOM + 1),
                                _COORD_DENOM) for _ in range(width))
    else:
        coords = tuple(rng.uniform(-1.0, 1.0) for _ in range(width))
    return YVec(space, coords)


def _constant_quad(space: SpaceDescriptor) -> Quad:
    e1 = unit_first(space)
    return Quad((e1, e1, e1, e1))


def gen_quad(spec: GenSpec) -> Quad:
    """Generate a deterministic admissible quadruple per the requested mode."""
    space = spec.space
    if spec.mode == "constant":
        return _constant_quad(space)
    rng = _rng_for(spec)
    while True:
        ys = tuple(_random_yvec(rng, space) for _ in range(4))
        q = Quad(ys)
        scale_base = 1 - check_membership(q).slack  # max of the eight norms
        if scale_base > 0:
            break
    if spec.mode == "interior":
        factor = 1 / (scale_base * (1 + INTERIOR_MARGIN))
    else:  # boundary and near-face start from the exact boundary
        factor = 1 / scale_base
    q = Quad(tuple(y.scale(factor) for y in q.ys))
    if spec.mode == "near-face":
        # Convex push toward the constant quadruple: keeps membership and
        # forces ||y1+y2+y3+y4|| >= 4 - slack.
        lam = 1 - coerce(spec.slack) / 8
        c = _constant_quad(space)
        q = Quad(tuple(y.scale(1 - lam) + u.scale(lam) for y, u in zip(q.ys, c.ys)))
    return q


def _axis_grid(center: Scalar, eps: Scalar, resolution: int) -> List[Scalar]:
    """Rational grid on [center-eps, center+eps] clipped to [-1, 1]."""
    lo = max(coerce(center) - eps, Fraction(-1))
    hi = min(coerce(center) + eps, Fraction(1))
    if resolution == 1 or lo == hi:
        return [lo]
    step = (hi - lo) / (resolution - 1)
    return [lo + step * k for k in range(resolution)]


def brute_ahsp_search(q: Quad, active, eps: Scalar,
                      resolution: int = 25) -> Optional[Quad]:
    """Grid search for a nearby quadruple attaining the active sum exactly.

    Returns some admissible z with every ||z_i - y_i|| <= eps and
    ||sum_{i in active} z_i|| = |active|, or None if the grid holds no such
    point (inconclusive, never a disproof).  All four components may move:
    restoring admissibility can require adjusting inactive ones too.

    Candidates are the grid points z with ||z|| <= 1 and ||z - y_i|| <= eps,
    combined in lexicographic grid order; the first combination that
    attains is returned.  On exact input (rational q and eps) an active
    index keeps only its grid points with ||z|| = 1: by the triangle
    inequality, ||sum_{i in C} z_i|| = |C| with every ||z_i|| <= 1 forces
    each ||z_i|| = 1 for i in C, so the dropped combinations could never
    attain and the first-found result is the one the full grid gives.
    Float input keeps the unfiltered lists, because rounding breaks that
    implication (1 + (1 - 2**-53) rounds to 2.0).

    Raises DomainError unless 0 < eps < 1, and SizeError when one index's
    grid, or the product of the candidate lists built so far (after the
    norm-one filter), exceeds SEARCH_BUDGET, checked as each list is built.
    Returns None as soon as some index has no candidate, which can happen
    before the product grows too large: the near-face l1:4 quadruple of
    ``GenSpec(l1(4), 0, "near-face", 1/10)`` with C = {1, 2, 3, 4} at
    resolution 12 returns None (an active index has no norm-one grid point
    within eps), though its unfiltered candidate product exceeds the budget.
    Practical up to dimension 2.
    """
    space = q.space
    if space.infinite or space.family == "lp":
        raise SizeError("brute search needs a finite-dimensional exact norm")
    eps = coerce(eps)
    if not 0 < eps < 1:
        raise DomainError(f"eps must lie in (0, 1): {eps}")
    active = sorted(frozenset(active))
    if not active or not set(active) <= {1, 2, 3, 4}:
        raise DomainError(f"bad active set: {active}")

    target = len(active)
    if active_sum_norm(q, active) == target and check_membership(q).member:
        return q

    exact = q.is_exact() and is_exact(eps)
    candidate_lists = []
    total = 1
    for i in (1, 2, 3, 4):
        yi = q[i - 1]
        axes = [_axis_grid(c, eps, resolution) for c in yi.coords]
        grid = 1
        for a in axes:
            grid *= len(a)
        if grid > SEARCH_BUDGET:
            raise SizeError(f"per-index grid too large: {grid}")
        on_sphere = exact and i in active
        cands = []
        for point in itertools.product(*axes):
            z = YVec(space, point)
            n = norm(z)
            if n <= 1 and (n == 1 or not on_sphere) and norm(z - yi) <= eps:
                cands.append(z)
        if not cands:
            return None
        candidate_lists.append(cands)
        total *= len(cands)
        if total > SEARCH_BUDGET:
            raise SizeError(f"candidate product too large: {total}")

    for combo in itertools.product(*candidate_lists):
        cand = Quad(combo)
        if active_sum_norm(cand, active) == target and check_membership(cand).member:
            return cand
    return None


@dataclass(frozen=True)
class SweepRow:
    eps: Scalar
    eta: Scalar
    dist_u0_x0: Scalar
    dist_S_T: Scalar
    attainment_defect: Scalar
    case_label: str
    runtime: str  # seconds as text; empty unless timing was requested


SWEEP_COLUMNS = ("eps", "eta", "dist_u0_x0", "dist_S_T",
                 "attainment_defect", "case_label", "runtime")


class SweepFailure(BPB4Error):
    """A sweep instance failed verification; carries the serialized instance."""

    def __init__(self, message: str, instance_json):
        super().__init__(message)
        self.instance_json = instance_json


def _random_domain_isometry(rng: random.Random) -> SignedPerm:
    perm = [0, 1, 2, 3]
    rng.shuffle(perm)
    signs = tuple(rng.choice((1, -1)) for _ in range(4))
    return SignedPerm(tuple(perm), signs)


def make_instance(space: SpaceDescriptor, eps: Scalar, seed: int,
                  index: int) -> Tuple[Quad, Vec4]:
    """A deterministic (T, x0) with op_norm(T) = 1 and ||T x0|| > 1 - eta."""
    eps = coerce(eps)
    eta = schedule(space).eta(eps)
    rng = random.Random(f"{seed}:{_space_key(space)}:{eps}:{index}")
    base = gen_quad(GenSpec(space, rng.randrange(2**63), mode="boundary"))
    # Blend toward the constant quadruple: every extreme image then has norm
    # >= lam - (1 - lam) = 1 - eta/2, renormalizing only raises it, and T
    # sends x0 = h(v_j) to one of them, so ||T x0|| > 1 - eta.
    lam = 1 - eta / 4
    c = _constant_quad(space)
    blended = Quad(tuple(y.scale(1 - lam) + u.scale(lam)
                         for y, u in zip(base.ys, c.ys)))
    nrm = op_norm(blended)
    T = Quad(tuple(y.scale(1 / nrm) for y in blended.ys))
    h = _random_domain_isometry(rng)
    T = compose(T, h.inverse())
    x0 = h.apply(rng.choice([vertex(j) for j in range(1, 9)]))
    return T, x0


def sweep(space: SpaceDescriptor, eps_list: Sequence[Scalar], count: int,
          seed: int, timing: bool = False) -> Tuple[List[SweepRow], str]:
    """Run the full correction over a grid of eps values and random instances.

    Returns (rows, csv_text).  Every eps is checked as ``correct`` checks it
    (``entry_slack``) before any instance is generated.  A correction or
    verification failure raises SweepFailure with the offending instance
    serialized.  The CSV is byte-reproducible for a fixed seed on the
    rational backend as long as ``timing`` stays off (the runtime column is
    left empty then).
    """
    rows: List[SweepRow] = []
    grid = [(eps, entry_slack(space, eps)) for eps in map(coerce, eps_list)]
    for eps, eta in grid:
        for i in range(count):
            # Indices step by 5 so that CSVs stay byte-identical to earlier
            # releases, which could draw up to five instances per row.
            T, x0 = make_instance(space, eps, seed, i * 5)
            start = time.perf_counter()
            try:
                cert = correct(T, x0, eps)
            except (PreconditionError, DomainError) as exc:
                raise SweepFailure(f"correction failed: {exc}",
                                   instance_to_json(T, x0)) from exc
            elapsed = time.perf_counter() - start
            report = verify_certificate(cert)
            if not report.ok:
                raise SweepFailure(
                    f"verification failed on {report.failures()}",
                    instance_to_json(T, x0))
            rows.append(SweepRow(
                eps=eps,
                eta=eta,
                dist_u0_x0=report.residuals["point_distance"],
                dist_S_T=report.residuals["operator_distance"],
                attainment_defect=report.residuals["attainment"],
                case_label=cert.fix_label,
                runtime=f"{elapsed:.6f}" if timing else "",
            ))
    return rows, render_csv(rows)


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    rendered = scalar_to_json(value)
    return rendered if isinstance(rendered, str) else repr(rendered)


def render_csv(rows: Sequence[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([_cell(getattr(row, col)) for col in SWEEP_COLUMNS])
    return buf.getvalue()
