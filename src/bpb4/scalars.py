"""Scalar backend helpers.

Two backends coexist: exact rationals (``fractions.Fraction``, the default)
and IEEE doubles.  Values carry their backend; integers are coerced to
``Fraction`` so exactness is never lost by accident.  Mixed exact/float
expressions degrade to float, and every tolerance-sensitive check asks
``tol_of`` which backend it is running on.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite
from typing import Optional, Tuple, Union

Scalar = Union[Fraction, float]

#: Additive tolerance used by all float-backend membership and unit checks.
FLOAT_TOL = 1e-9


def coerce(value) -> Scalar:
    """Normalize a raw number: ints become Fractions, floats stay floats.

    This is where every scalar enters, so NaN and the infinities are
    rejected here (ValueError), and a float subclass becomes a plain float.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"not a finite scalar: {value!r}")
        return value if type(value) is float else float(value)
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"not a scalar: {value!r}")


def is_exact(*values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def tol_of(*values) -> Scalar:
    """Zero for exact inputs, FLOAT_TOL as soon as any float is involved."""
    return Fraction(0) if is_exact(*values) else FLOAT_TOL


def ratio_parts(text: str) -> Optional[Tuple[int, int]]:
    """(p, q) of a strict "[-]digits/digits" string with q > 0, else None.

    The digits are ASCII, with no sign on q and no spaces, underscores or
    "+": the form the writer emits.  ``Fraction(p, q) == Fraction(text)``
    whenever this returns a pair; other strings are for ``Fraction(text)``.
    """
    p, slash, q = text.partition("/")
    if (slash and q.isdigit() and (p[1:] if p[:1] == "-" else p).isdigit()
            and text.isascii()):
        q = int(q)
        if q:
            return int(p), q
    return None


def parse_scalar(text, backend: str = "rational") -> Scalar:
    """Parse a JSON-level number: "p/q" strings, ints, or finite floats.

    Zero denominators, JSON's Infinity and NaN, and (on the float backend)
    values beyond double range are ValueErrors; booleans are TypeErrors.  A
    strict "p/q" string is split by ``ratio_parts``, others go to ``Fraction``.
    """
    if backend not in ("rational", "float"):
        raise ValueError(f"unknown backend {backend!r}")
    if isinstance(text, str):
        parts = ratio_parts(text)
        try:
            value = Fraction(*parts) if parts else Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    elif isinstance(text, bool):
        raise TypeError("booleans are not scalars")
    elif isinstance(text, (int, Fraction)):
        value = Fraction(text)
    elif isinstance(text, float):
        if not isfinite(text):
            raise ValueError(f"not a finite scalar: {text!r}")
        # A float literal in a rational-backend file is taken at face value.
        value = Fraction(text).limit_denominator(10**12) if backend == "rational" else text
    else:
        raise TypeError(f"not a scalar literal: {text!r}")
    if backend == "rational":
        return coerce(value)
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"beyond double range: {text!r}") from None


def scalar_to_json(value: Scalar):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return f"{value}/1"
    return float(value)

