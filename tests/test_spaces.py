"""Codomain spaces: norms, duals, support functionals, convexity moduli."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpb4 import (
    DomainError,
    Functional,
    SpaceDescriptor,
    UnsupportedSpaceError,
    YVec,
    l1,
    lp,
    modulus_convexity,
    norm,
    reals,
    sup_space,
    support_functional,
    unit_first,
)
from bpb4.spaces import coordinate_sum, positive_part, zero
from helpers import dual_norm, is_nonnegative

F = Fraction

fractions_st = st.fractions(min_value=-2, max_value=2, max_denominator=64)


class TestDescriptors:
    def test_reals_are_one_dimensional(self):
        assert reals().dim == 1

    def test_only_l1_may_be_infinite(self):
        assert l1(None).infinite
        with pytest.raises(DomainError):
            SpaceDescriptor("lp", p=2, dim=None)

    def test_lp_needs_exponent_above_one(self):
        with pytest.raises(DomainError):
            lp(1, 3)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_lp_needs_a_finite_exponent(self, p):
        with pytest.raises(DomainError):
            lp(p, 2)


class TestNorms:
    def test_l1_norm_exact(self):
        y = YVec(l1(3), (F(1, 3), F(-1, 3), F(1, 3)))
        assert norm(y) == 1

    def test_sup_norm(self):
        assert norm(YVec(sup_space(4), (F(1, 2), -1, F(1, 4), 0))) == 1

    def test_l2_norm(self):
        assert norm(YVec(lp(2, 2), (3.0, 4.0))) == pytest.approx(5.0)

    def test_infinite_l1_pads_on_arithmetic(self):
        sp = l1(None)
        a = YVec(sp, (1,))
        b = YVec(sp, (0, 1, 2))
        assert (a + b).coords == (F(1), F(1), F(2))
        assert norm(a - b) == 4

    @given(st.lists(fractions_st, min_size=1, max_size=6))
    def test_l1_triangle_inequality(self, cs):
        sp = l1(len(cs))
        y = YVec(sp, tuple(cs))
        z = YVec(sp, tuple(reversed(cs)))
        assert norm(y + z) <= norm(y) + norm(z)
        assert norm(y.scale(-1)) == norm(y)


class TestSupportFunctionals:
    @given(st.lists(fractions_st, min_size=1, max_size=5))
    def test_l1_attains_exactly(self, cs):
        y = YVec(l1(len(cs)), tuple(cs))
        if norm(y) == 0:
            return
        f = support_functional(y)
        assert f(y) == norm(y)
        assert dual_norm(f) == 1

    def test_l1_zero_coordinates_get_plus_one(self):
        f = support_functional(YVec(l1(3), (0, -1, 0)))
        assert f.coords == (1, -1, 1)

    @given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False),
                    min_size=2, max_size=4),
           st.floats(min_value=1.5, max_value=4))
    def test_lp_attains_within_tolerance(self, cs, p):
        y = YVec(lp(p, len(cs)), tuple(cs))
        if norm(y) < 1e-6:
            return
        f = support_functional(y)
        assert f(y) == pytest.approx(norm(y), abs=1e-9)
        assert dual_norm(f) == pytest.approx(1.0, abs=1e-9)

    def test_sup_space_picks_a_maximal_coordinate(self):
        y = YVec(sup_space(3), (F(1, 2), F(-3, 4), F(1, 4)))
        f = support_functional(y)
        assert f(y) == norm(y) == F(3, 4)

    def test_reals(self):
        f = support_functional(YVec(reals(), (F(-2, 3),)))
        assert f(YVec(reals(), (F(-2, 3),))) == F(2, 3)


def _brute_modulus(p: float, eps: float, samples: int = 400) -> float:
    """Oracle: sample the modulus of convexity of lp^2 on random sphere pairs.

    delta(eps) = inf {1 - ||u+v||/2 : ||u||=||v||=1, ||u-v|| >= eps}; the
    closed form must stay at or below every sampled value.
    """
    import random
    rng = random.Random(f"modulus|{p}|{eps}")
    space = lp(p, 2)
    best = math.inf
    while samples:
        u = YVec(space, (rng.uniform(-1, 1), rng.uniform(-1, 1)))
        v = YVec(space, (rng.uniform(-1, 1), rng.uniform(-1, 1)))
        if norm(u) < 1e-9 or norm(v) < 1e-9:
            continue
        u, v = u.scale(1 / norm(u)), v.scale(1 / norm(v))
        if norm(u - v) < eps:
            continue
        best = min(best, 1 - norm(u + v) / 2)
        samples -= 1
    return best


class TestModulus:
    def test_reals_exact(self):
        assert modulus_convexity(reals(), F(1, 2)) == F(1, 4)

    def test_l2_closed_form(self):
        # delta(eps) = 1 - sqrt(1 - (eps/2)^2) for p = 2.
        got = modulus_convexity(lp(2, 3), 1.0)
        assert got == pytest.approx(1 - math.sqrt(0.75))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("eps", [0.3, 0.8, 1.4])
    def test_never_exceeds_sampled_infimum(self, p, eps):
        closed = modulus_convexity(lp(p, 2), eps)
        assert closed <= _brute_modulus(p, eps) + 1e-9

    def test_l1_not_uniformly_convex(self):
        with pytest.raises(UnsupportedSpaceError):
            modulus_convexity(l1(2), F(1, 2))

    def test_domain(self):
        with pytest.raises(DomainError):
            modulus_convexity(reals(), F(5, 2))


class TestPositivePart:
    @given(st.lists(fractions_st, min_size=1, max_size=5))
    def test_splits_the_vector(self, cs):
        y = YVec(l1(len(cs)), tuple(cs))
        pos = positive_part(y)
        assert is_nonnegative(pos)
        assert is_nonnegative(pos - y)
        assert norm(pos) + norm(pos - y) == norm(y)

    def test_coordinate_sum_is_the_all_ones_pairing(self):
        y = YVec(l1(3), (F(1, 2), F(-1, 4), F(1, 8)))
        f = Functional(l1(3), "sign-vector", (1, 1, 1))
        assert coordinate_sum(y) == f(y)


class TestFunctionalPadding:
    def test_sign_vector_pads_plus_one_beyond_length(self):
        sp = l1(None)
        f = Functional(sp, "sign-vector", (1, -1))
        y = YVec(sp, (F(1, 2), F(1, 4), F(1, 8)))
        assert f(y) == F(1, 2) - F(1, 4) + F(1, 8)

    def test_unit_first_is_a_unit_vector_everywhere(self):
        for sp in (reals(), l1(3), l1(None), lp(2, 4), sup_space(2)):
            assert norm(unit_first(sp)) == 1


# Exact vectors store integer numerators over one denominator; every result
# below is checked against per-coordinate Fraction arithmetic.
EXACT_SPACES = (l1(3), l1(None), sup_space(2), reals())
wide_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=10**9)
small_dyadics = st.integers(-64, 64).map(lambda k: F(k, 32))


def coords_st(space, elements=wide_fractions):
    if space.infinite:  # finitely supported: lengths differ
        return st.lists(elements, max_size=5).map(tuple)
    return st.lists(elements, min_size=space.dim, max_size=space.dim).map(tuple)


def padded(a, b):
    n = max(len(a), len(b))
    return a + (F(0),) * (n - len(a)), b + (F(0),) * (n - len(b))


def reference_norm(space, cs):
    if space.family == "l1":
        return sum((abs(c) for c in cs), F(0))
    return max(abs(c) for c in cs)


class TestExactVectors:
    @given(st.data())
    def test_arithmetic_matches_fractions(self, data):
        space = data.draw(st.sampled_from(EXACT_SPACES))
        a, b = data.draw(coords_st(space)), data.draw(coords_st(space))
        c = data.draw(wide_fractions | st.integers(-5, 5))
        u, v = YVec(space, a), YVec(space, b)
        pa, pb = padded(a, b)
        expected = {
            "u + v": tuple(x + y for x, y in zip(pa, pb)),
            "u - v": tuple(x - y for x, y in zip(pa, pb)),
            "-u": tuple(-x for x in a),
            "u.scale(c)": tuple(c * x for x in a),
            "positive_part(u)": tuple(max(x, F(0)) for x in a),
        }
        results = {"u + v": u + v, "u - v": u - v, "-u": -u,
                   "u.scale(c)": u.scale(c), "positive_part(u)": positive_part(u)}
        for name, w in results.items():
            assert w.is_exact(), name
            assert w.coords == expected[name], name
            assert all(type(x) is F for x in w.coords), name
            assert w.den > 0 and math.gcd(w.den, *w.num) == 1, name
        assert norm(u) == reference_norm(space, a)
        assert is_nonnegative(u) == all(x >= 0 for x in a)
        if space.family == "l1":
            assert coordinate_sum(u) == sum(a, F(0))

    @given(st.data())
    def test_sign_vector_pairing(self, data):
        space = data.draw(st.sampled_from((l1(3), l1(None))))
        a = data.draw(coords_st(space))
        width = space.dim or data.draw(st.integers(1, 6))
        signs = tuple(data.draw(st.lists(st.sampled_from((1, -1)),
                                         min_size=width, max_size=width)))
        # Sign entries past the functional's length count as +1.
        expected = sum((x * (signs[k] if k < len(signs) else 1)
                        for k, x in enumerate(a)), F(0))
        assert Functional(space, "sign-vector", signs)(YVec(space, a)) == expected

    @given(st.data())
    def test_equal_vectors_built_by_different_routes(self, data):
        space = data.draw(st.sampled_from(EXACT_SPACES))
        a, b = data.draw(coords_st(space)), data.draw(coords_st(space))
        u, v = YVec(space, a), YVec(space, b)
        routes = [
            YVec(space, u.coords),
            YVec(space, tuple(str(x) for x in a)),
            u.scale(F(3, 7)).scale(F(7, 3)),
            -(-u),
            u + zero(space),
            pickle.loads(pickle.dumps(u)),
        ]
        if len(b) <= len(a):  # else u + v - v keeps v's trailing zeros
            routes.append(u + v - v)
        for w in routes:
            assert w == u
            assert (w.num, w.den) == (u.num, u.den)
            assert hash(w) == hash(u)
        assert u.scale(2) == u + u

    @given(st.data())
    def test_trailing_zeros_leave_a_finitely_supported_vector_equal(self, data):
        sp = l1(None)
        a = data.draw(coords_st(sp, small_dyadics))
        zeros = data.draw(st.lists(st.sampled_from([F(0), 0.0, -0.0]),
                                   min_size=1, max_size=3).map(tuple))
        u = YVec(sp, a)
        for w in (YVec(sp, a + zeros), YVec(sp, tuple(map(float, a)) + zeros)):
            assert u == w and w == u and hash(u) == hash(w)
        assert u != YVec(sp, a + zeros + (F(1, 2),))
        assert YVec(l1(3), (F(1, 2), 0, 0)) != YVec(l1(2), (F(1, 2), 0))

    @given(st.data())
    def test_equal_to_the_float_vector_of_equal_value(self, data):
        space = data.draw(st.sampled_from(EXACT_SPACES))
        a = data.draw(coords_st(space, small_dyadics))  # exact as doubles
        u, f = YVec(space, a), YVec(space, tuple(map(float, a)))
        assert u == f and hash(u) == hash(f)

    @given(st.data())
    def test_any_float_input_gives_a_float_vector(self, data):
        space = data.draw(st.sampled_from(EXACT_SPACES))
        a = data.draw(coords_st(space))
        if not a:
            return
        k = data.draw(st.integers(0, len(a) - 1))
        mixed = a[:k] + (float(a[k]),) + a[k + 1:]
        w = YVec(space, mixed)
        assert not w.is_exact() and w.den is None
        assert w.coords == mixed
        assert [type(x) for x in w.coords] == [type(x) for x in mixed]
        u = YVec(space, a)
        for result in (u + w, w - u, -w, u.scale(0.5), w.scale(F(1, 3))):
            assert not result.is_exact()
            assert any(type(x) is float for x in result.coords)
        assert u.scale(0.5).coords == tuple(0.5 * x for x in a)
