"""Certified norm-attainment corrections for operators from l_inf^4.

An operator into a concrete Banach space (l1, lp, sup-norm spaces, or the
reals) is represented by the quadruple of its images of four hypercube
vertices.  Given such an operator that nearly attains its norm at a unit
vector, this package produces a certified nearby operator and a nearby
point at which the norm is attained exactly, with exact rational arithmetic
by default.
"""

from .certify import (
    Certificate,
    VerificationReport,
    correct,
    extract_ahsp,
    verify_certificate,
)
from .cube import (
    FACES,
    FaceDecomposition,
    SignedPerm,
    VERTICES,
    Vec4,
    close_face_correct,
    coords,
    face_decompose,
    in_base_simplex,
    on_lead_face,
    reconstruct,
    reduce_to_base,
    vertex,
)
from .errors import (
    BPB4Error,
    DomainError,
    PreconditionError,
    SizeError,
    UnsupportedSpaceError,
)
from .fixes import (
    ConstantsSchedule,
    FixRequest,
    FixResult,
    convex_fix,
    dense_lift,
    dispatch_fix,
    expand_active,
    l1_fix,
    repair_nonnegative,
    schedule,
    singleton_fix,
    uniformly_convex_fix,
)
from .harness import (
    GenSpec,
    SweepFailure,
    SweepRow,
    brute_ahsp_search,
    gen_quad,
    make_instance,
    render_csv,
    sweep,
)
from .quadop import (
    MembershipReport,
    Quad,
    active_sum_norm,
    apply,
    check_membership,
    compose,
    cyclic_shift,
    diff,
    op_norm,
)
from .spaces import (
    Functional,
    SpaceDescriptor,
    YVec,
    l1,
    lp,
    modulus_convexity,
    norm,
    reals,
    sup_space,
    support_functional,
    unit_first,
    zero,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
