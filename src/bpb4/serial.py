"""JSON (de)serialization for every public type.

Rationals are written as "p/q" strings and parsed back exactly; the float
backend parses every number as an IEEE double instead.  Vectors over
finitely supported l1 are written as sparse [index, value] pairs (0-based);
finite-dimensional vectors are dense arrays.  Field order is fixed so that
emitted files diff cleanly.  Malformed numbers, such as a non-integer
index or a negative, repeated or too large sparse index, are ValueErrors.
"""

from __future__ import annotations

from typing import Any, Dict

from .certify import Certificate
from .cube import SignedPerm, Vec4
from .errors import DomainError
from .fixes import FixRequest, FixResult
from .quadop import Quad
from .scalars import parse_scalar, ratio_parts, scalar_to_json
from .spaces import Functional, SpaceDescriptor, YVec, from_ratios

#: Largest sparse index read; the vector is built dense up to its last index.
MAX_SPARSE_INDEX = 2 ** 20

def _int(value) -> int:
    """A JSON integer: floats, strings and booleans are malformed here."""
    if type(value) is not int:
        raise ValueError(f"expected an integer: {value!r}")
    return value


def space_to_json(space: SpaceDescriptor) -> Dict[str, Any]:
    out: Dict[str, Any] = {"family": space.family}
    if space.p is not None:
        out["p"] = scalar_to_json(space.p)
    out["dim"] = "inf" if space.infinite else space.dim
    return out


def space_from_json(data: Dict[str, Any]) -> SpaceDescriptor:
    if not isinstance(data, dict) or "family" not in data:
        raise DomainError(f"not a space descriptor: {data!r}")
    dim = data.get("dim")
    if dim == "inf":
        dim = None
    elif dim is not None:
        dim = _int(dim)
    p = data.get("p")
    if p is not None:
        p = parse_scalar(p)
    return SpaceDescriptor(data["family"], p=p, dim=dim)


def vec4_to_json(x: Vec4, backend: str = "rational"):
    return [scalar_to_json(c) if backend == "rational" else float(c)
            for c in x.coords]


def vec4_from_json(data, backend: str = "rational") -> Vec4:
    return Vec4(tuple(parse_scalar(c, backend) for c in data))


def yvec_to_json(y: YVec, backend: str = "rational"):
    emit = scalar_to_json if backend == "rational" else float
    if y.space.infinite:
        return [[i, emit(c)] for i, c in enumerate(y.coords) if c != 0]
    return [emit(c) for c in y.coords]


def _ratio(value):
    """(p, q) of a rational-backend number; a strict "p/q" string is split
    directly, any other value goes through ``parse_scalar``."""
    parts = ratio_parts(value) if type(value) is str else None
    if parts is None:
        f = parse_scalar(value)
        parts = f.numerator, f.denominator
    return parts


def yvec_from_json(space: SpaceDescriptor, data, backend: str = "rational") -> YVec:
    """A vector from its dense list, or from sparse [index, value] pairs.

    On the rational backend each value's (p, q) is read in file order and
    ``from_ratios`` builds the numerators directly; the float backend parses
    each value with ``parse_scalar``.
    """
    if space.infinite:
        pairs = [(_int(i), v) for i, v in data]
        indices = [i for i, _ in pairs]
        if any(i < 0 for i in indices):
            raise ValueError(f"negative sparse index in {data!r}")
        if any(i > MAX_SPARSE_INDEX for i in indices):
            raise ValueError(f"sparse index above {MAX_SPARSE_INDEX} in {data!r}")
        if len(set(indices)) != len(indices):
            raise ValueError(f"repeated sparse index in {data!r}")
        data = [v for _, v in pairs]
    if backend == "rational":
        values, zero, build = [_ratio(v) for v in data], (0, 1), from_ratios
    else:
        values = [parse_scalar(v, backend) for v in data]
        zero, build = parse_scalar(0, backend), YVec
    if space.infinite:
        dense = [zero] * (1 + max(indices, default=-1))
        for i, v in zip(indices, values):
            dense[i] = v
        values = dense
    return build(space, values)


def functional_to_json(f: Functional, backend: str = "rational") -> Dict[str, Any]:
    emit = scalar_to_json if backend == "rational" else float
    return {"kind": f.kind, "coords": [emit(c) for c in f.coords]}


def functional_from_json(space: SpaceDescriptor, data,
                         backend: str = "rational") -> Functional:
    return Functional(space, data["kind"],
                      tuple(parse_scalar(c, backend) for c in data["coords"]))


def quad_to_json(q: Quad, backend: str = "rational") -> Dict[str, Any]:
    return {"space": space_to_json(q.space),
            "ys": [yvec_to_json(y, backend) for y in q.ys]}


def quad_from_json(data: Dict[str, Any], backend: str = "rational") -> Quad:
    space = space_from_json(data["space"])
    return Quad(tuple(yvec_from_json(space, y, backend) for y in data["ys"]))


def search_from_json(data: Dict[str, Any], backend: str = "rational"):
    """A brute-search instance: quadruple, 1-based active set and eps."""
    return (quad_from_json(data["quad"], backend),
            frozenset(map(_int, data["active"])),
            parse_scalar(data["eps"], backend))


def perm_to_json(g: SignedPerm) -> Dict[str, Any]:
    return {"perm": list(g.perm), "signs": list(g.signs)}


def perm_from_json(data: Dict[str, Any]) -> SignedPerm:
    return SignedPerm(tuple(map(_int, data["perm"])),
                      tuple(map(_int, data["signs"])))


def fix_request_to_json(r: FixRequest, backend: str = "rational") -> Dict[str, Any]:
    return {
        "quad": quad_to_json(r.quad, backend),
        "functional": functional_to_json(r.functional, backend),
        "active": sorted(r.active),
        "eps": scalar_to_json(r.eps) if backend == "rational" else float(r.eps),
    }


def fix_request_from_json(data: Dict[str, Any],
                          backend: str = "rational") -> FixRequest:
    quad = quad_from_json(data["quad"], backend)
    return FixRequest(
        quad,
        functional_from_json(quad.space, data["functional"], backend),
        frozenset(map(_int, data["active"])),
        parse_scalar(data["eps"], backend),
    )


def fix_result_to_json(r: FixResult, backend: str = "rational") -> Dict[str, Any]:
    emit = scalar_to_json if backend == "rational" else float
    return {
        "corrected": quad_to_json(r.corrected, backend),
        "certified": sorted(r.certified),
        "displacements": [emit(d) for d in r.displacements],
        "label": r.label,
        "transform_log": list(r.transform_log),
    }


def fix_result_from_json(data: Dict[str, Any],
                         backend: str = "rational") -> FixResult:
    return FixResult(
        quad_from_json(data["corrected"], backend),
        frozenset(map(_int, data["certified"])),
        tuple(parse_scalar(d, backend) for d in data["displacements"]),
        data["label"],
        tuple(data.get("transform_log", ())),
    )


RESIDUAL_ORDER = ("attainment", "point_distance", "operator_distance",
                  "operator_norm")


def certificate_to_json(cert: Certificate, backend: str = "rational"):
    emit = scalar_to_json if backend == "rational" else float
    return {
        "space": space_to_json(cert.space),
        "eps": emit(cert.eps),
        "T": quad_to_json(cert.original, backend),
        "x0": vec4_to_json(cert.point, backend),
        "S": quad_to_json(cert.corrected, backend),
        "u0": vec4_to_json(cert.attained_at, backend),
        "residuals": {k: emit(cert.residuals[k]) for k in RESIDUAL_ORDER},
        "isometry": perm_to_json(cert.isometry),
        "fix_label": cert.fix_label,
    }


def certificate_from_json(data, backend: str = "rational") -> Certificate:
    space = space_from_json(data["space"])
    if not isinstance(data["residuals"], dict):
        raise ValueError(f"residuals must be an object: {data['residuals']!r}")
    return Certificate(
        space=space,
        eps=parse_scalar(data["eps"], backend),
        original=quad_from_json(data["T"], backend),
        point=vec4_from_json(data["x0"], backend),
        corrected=quad_from_json(data["S"], backend),
        attained_at=vec4_from_json(data["u0"], backend),
        residuals={k: parse_scalar(v, backend)
                   for k, v in data["residuals"].items()},
        isometry=perm_from_json(data["isometry"]),
        fix_label=data.get("fix_label", ""),
    )


def instance_to_json(T: Quad, x0: Vec4, backend: str = "rational"):
    """A correction instance: operator quadruple plus domain point."""
    return {"space": space_to_json(T.space),
            "T": quad_to_json(T, backend),
            "x0": vec4_to_json(x0, backend)}


def instance_from_json(data, backend: str = "rational"):
    T = quad_from_json(data["T"], backend)
    x0 = vec4_from_json(data["x0"], backend)
    return T, x0
