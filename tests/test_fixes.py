"""Correction routines: constants, singleton, uniformly convex, l1, convex
front end, dense lift."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpb4 import (
    ConstantsSchedule,
    DomainError,
    FixRequest,
    Functional,
    GenSpec,
    PreconditionError,
    Quad,
    UnsupportedSpaceError,
    YVec,
    active_sum_norm,
    check_membership,
    convex_fix,
    cyclic_shift,
    dense_lift,
    dispatch_fix,
    expand_active,
    gen_quad,
    l1,
    l1_fix,
    lp,
    norm,
    reals,
    repair_nonnegative,
    schedule,
    singleton_fix,
    sup_space,
    support_functional,
    uniformly_convex_fix,
    unit_first,
)
from bpb4.spaces import coordinate_sum
from helpers import (
    assert_fix_postconditions,
    blend,
    constant_quad,
    dual_norm,
    is_nonnegative,
    l1_request,
    repair_triple,
    rng_for,
    uc_request,
)

F = Fraction

eps_st = st.fractions(min_value=F(1, 100), max_value=F(99, 100),
                      max_denominator=100)


def real_quad(*values) -> Quad:
    return Quad(tuple(YVec(reals(), (F(v),)) for v in values))


def singleton_request(q: Quad, j: int, eps) -> FixRequest:
    return FixRequest(q, support_functional(q[j - 1]), {j}, eps)


class TestSchedule:
    def test_l1_base_slack(self):
        assert schedule(l1(3)).rho(F(113, 500)) == F(1, 1000)

    def test_reals_slack_is_min_of_half_modulus_and_sixth(self):
        assert schedule(reals()).rho(F(1, 2)) == F(1, 12)

    def test_sup_family_unsupported(self):
        with pytest.raises(UnsupportedSpaceError):
            schedule(sup_space(3))

    @given(eps_st)
    def test_closed_form_relations(self, eps):
        for space in (l1(4), l1(None), reals()):
            s = schedule(space)
            assert s.nu(eps) == s.rho(eps) ** 2
            assert s.gamma(eps) == s.nu(eps / 4)
            assert s.eta(eps) == s.nu(eps / 3)
            assert s.gamma_from_eta(eps) == s.eta(eps / 48)
            assert s.zeta(eps) == s.gamma(eps / 2)
            for value in (s.rho(eps), s.nu(eps), s.gamma(eps), s.eta(eps),
                          s.gamma_from_eta(eps), s.zeta(eps)):
                assert 0 < value < eps

    def test_dense_lift_slack_only_for_infinite_l1(self):
        # Finitely supported l1 shares l1^n's constants: the dense lift asks
        # for rho slack on the active set, not the far smaller zeta.
        eps = F(1, 4)
        inf, fin = schedule(l1(None)), schedule(l1(2))
        assert inf.rho(eps) == fin.rho(eps)
        assert inf.zeta(eps) < inf.rho(eps) / 2
        sp = l1(None)
        e1 = unit_first(sp)
        q = Quad((e1, e1.scale(1 - inf.rho(eps) / 2), -e1, -e1))
        req = FixRequest(q, Functional(sp, "sign-vector", (1,)), {1, 2}, eps)
        res = dense_lift(req)
        assert_fix_postconditions(req, res)
        assert res.transform_log[0] == "truncate:n=1"

    def test_eta_is_the_squared_base_slack(self):
        eps = F(3, 10)
        for space in (l1(2), l1(None), reals()):
            s = schedule(space)
            assert s.eta(eps) == s.rho(eps / 3) ** 2
        assert schedule(l1(None)).eta(eps) == schedule(l1(2)).rho(eps / 3) ** 2


class TestSingleton:
    def test_example_reals(self):
        res = singleton_fix(singleton_request(real_quad(1, 0, 0, 0), 1, F(3, 5)))
        assert [y.coords[0] for y in res.corrected.ys] == \
            [F(1), F(1, 5), F(1, 10), F(-1, 10)]
        assert res.certified == {1}

    def test_unit_vector_is_fixed(self):
        res = singleton_fix(singleton_request(real_quad(1, 0, 0, 0), 1, F(3, 5)))
        assert res.displacements[0] == 0

    def test_off_slot_index_matches_shifted_run(self):
        q = real_quad(F(1, 4), F(1, 4), F(63, 64), F(1, 4))
        eps = F(1, 2)
        res = singleton_fix(singleton_request(q, 3, eps))
        shifted = singleton_fix(singleton_request(cyclic_shift(q, 2), 1, eps))
        assert cyclic_shift(shifted.corrected, 6) == res.corrected

    def test_norm_precondition(self):
        with pytest.raises(PreconditionError):
            singleton_fix(singleton_request(real_quad(F(1, 2), 0, 0, 0), 1, F(1, 4)))

    @given(st.integers(min_value=0, max_value=10**6),
           st.sampled_from((1, 2, 3, 4)))
    @settings(max_examples=60)
    def test_random_instances(self, seed, j):
        eps = F(1, 3)
        q = blend(gen_quad(GenSpec(l1(3), seed, "boundary")),
                  cyclic_shift(constant_quad(l1(3), 1), (8 - (j - 1)) % 8),
                  1 - eps / 24)
        req = singleton_request(q, j, eps)
        res = singleton_fix(req)
        assert norm(res.corrected[j - 1]) == 1
        assert_fix_postconditions(req, res)


class TestExpandActive:
    def test_endpoints_certify_the_middle(self):
        q = constant_quad(l1(2), 4)
        f = Functional(l1(2), "sign-vector", (1, 1))
        assert expand_active(q, f, {1, 4}, F(1, 10)) == {1, 2, 3, 4}

    def test_singleton_interval(self):
        q = constant_quad(l1(2), 4)
        f = Functional(l1(2), "sign-vector", (1, 1))
        assert expand_active(q, f, {2}, F(1, 10)) == {2}

    def test_gap_of_one(self):
        eps = F(1, 4)
        req = l1_request(dim=3, k=3, eps=eps, seed=7)
        delta = schedule(req.quad.space).rho(eps)
        assert expand_active(req.quad, req.functional, {1, 3}, delta) == {1, 2, 3}

    def test_endpoints_need_the_slack_and_the_middle_twice_it(self):
        e1 = unit_first(l1(2))
        f = Functional(l1(2), "sign-vector", (1, 1))
        low = e1.scale(F(17, 20))  # pairs 1 - 3/2 * (1/10)
        q = Quad((e1, low, e1, low))
        assert expand_active(q, f, {1, 3}, F(1, 10)) == {1, 2, 3}
        with pytest.raises(PreconditionError, match=r"index 4\b"):
            expand_active(q, f, {1, 4}, F(1, 10))

    def test_inconsistent_input_raises(self):
        sp = l1(1)
        e1 = unit_first(sp)
        q = Quad((e1, -e1, -e1, e1))  # middle pairings are -1
        f = Functional(sp, "sign-vector", (1,))
        with pytest.raises(PreconditionError):
            expand_active(q, f, {1, 4}, F(1, 10))

    @given(st.integers(min_value=0, max_value=10**6),
           st.sampled_from((2, 3, 4)))
    @settings(max_examples=40)
    def test_never_fails_on_valid_requests(self, seed, k):
        eps = F(1, 4)
        req = l1_request(dim=2, k=k, eps=eps, seed=seed)
        delta = schedule(req.quad.space).rho(eps)
        got = expand_active(req.quad, req.functional, req.active, delta)
        assert got == frozenset(range(1, k + 1))


class TestUniformlyConvex:
    def test_already_attaining(self):
        q = real_quad(1, 1, 1, 1)
        f = Functional(reals(), "dual-coordinates", (1,))
        res = uniformly_convex_fix(FixRequest(q, f, {1, 2, 3, 4}, F(1, 2)))
        assert res.corrected == q

    def test_two_element_example(self):
        q = real_quad(1, F(99, 100), F(1, 2), F(49, 100))
        f = Functional(reals(), "dual-coordinates", (1,))
        res = uniformly_convex_fix(FixRequest(q, f, {1, 2}, F(1, 2)))
        zs = [y.coords[0] for y in res.corrected.ys]
        assert zs == [1, 1, F(1, 2), F(12, 13) * F(49, 100) - F(1, 26)]
        assert res.certified == {1, 2}
        assert res.label == "uc-2"

    def test_constant_lp_quad(self):
        sp = lp(2, 2)
        u = YVec(sp, (1.0, 0.0))
        q = Quad((u, u, u, u))
        res = uniformly_convex_fix(
            FixRequest(q, support_functional(u), {1, 2, 3, 4}, 0.5))
        assert res.corrected == q

    def test_l1_rejected(self):
        req = l1_request(dim=2, k=2, eps=F(1, 4), seed=0)
        with pytest.raises(UnsupportedSpaceError):
            uniformly_convex_fix(req)

    def test_slack_precondition(self):
        q = real_quad(1, F(1, 2), 1, 1)
        f = Functional(reals(), "dual-coordinates", (1,))
        with pytest.raises(PreconditionError):
            uniformly_convex_fix(FixRequest(q, f, {1, 2}, F(1, 2)))

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("make_space", [reals, lambda: lp(2, 3),
                                            lambda: lp(3, 2)], ids=["r", "l2", "l3"])
    def test_random_instances(self, k, make_space):
        space = make_space()
        eps = F(2, 5) if space.family == "r" else 0.4
        tol = 0 if space.family == "r" else 1e-9
        for seed in range(25):
            req = uc_request(space, k, eps, seed)
            res = uniformly_convex_fix(req)
            assert res.certified == frozenset(range(1, k + 1))
            assert_fix_postconditions(req, res, tol=tol)


class TestRepairNonnegative:
    def test_nothing_to_repair(self):
        sp = l1(2)
        x = YVec(sp, (F(1, 2), F(1, 4)))
        z = YVec(sp, (F(1, 4), 0))
        y = YVec(sp, (0, 0))
        w = repair_nonnegative(x, y, z, F(1, 10), F(1, 10))
        assert w.coords == z.coords

    def test_worked_example(self):
        sp = l1(2)
        x = YVec(sp, (F(1, 2), F(1, 2)))
        y = YVec(sp, (0, 1))
        z = YVec(sp, (F(1, 2), F(3, 10)))
        w = repair_nonnegative(x, y, z, F(1, 5), F(1, 5))
        assert w.coords == (F(1, 2), F(1, 2))
        assert norm(w - z) == F(1, 5) <= F(2, 5)
        assert is_nonnegative(x - y + w)

    def test_swapped_roles(self):
        # The first argument satisfies the symmetric hypotheses, so swapping
        # x and z repairs the other side.
        sp = l1(2)
        x = YVec(sp, (F(1, 2), F(1, 2)))
        y = YVec(sp, (0, 1))
        z = YVec(sp, (F(1, 2), F(3, 10)))
        v = repair_nonnegative(z, y, x, F(1, 5), F(1, 5))
        assert is_nonnegative(v)
        assert is_nonnegative(v - x)
        assert is_nonnegative(z - y + v)

    def test_precondition_rejected(self):
        sp = l1(1)
        bad = YVec(sp, (F(1, 4),))
        with pytest.raises(PreconditionError):
            repair_nonnegative(bad, YVec(sp, (0,)), YVec(sp, (0,)), F(1, 10), 0)

    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=150)
    def test_random_triples(self, seed, dim):
        x, y, z, s, t = repair_triple(dim, seed)
        w = repair_nonnegative(x, y, z, s, t)
        assert is_nonnegative(w - z)
        assert norm(w - z) <= s + t
        assert is_nonnegative(x - y + w)


class TestL1Fix:
    def test_all_unit_first_is_fixed(self):
        sp = l1(2)
        q = constant_quad(sp, 4)
        f = Functional(sp, "sign-vector", (1, 1))
        res = l1_fix(FixRequest(q, f, {1, 2, 3, 4}, F(1, 4)))
        assert res.corrected == q
        assert res.label == "l1-4"

    def test_case_one_worked_example(self):
        sp = l1(2)
        e = lambda a, b: YVec(sp, (F(a), F(b)))
        q = Quad((e(1, 0), e(1, 0), e(0, -1), e(0, -1)))
        f = Functional(sp, "sign-vector", (1, 1))
        eps = F(113, 500)
        rho = F(1, 1000)
        res = l1_fix(FixRequest(q, f, {1, 2}, eps))
        z = res.corrected
        assert z[0].coords == z[1].coords == (F(1), F(0))
        assert z[2].coords == (4 * rho / (1 + 4 * rho),
                               -1 / ((1 + 8 * rho) * (1 + 4 * rho)))
        assert z[3].coords == (F(0), -1 / ((1 + 8 * rho) * (1 + 4 * rho)))
        assert coordinate_sum(z[0] + z[1]) == 2
        assert res.label == "l1-2"

    def test_non_sign_vector_rejected(self):
        sp = l1(2)
        q = constant_quad(sp, 4)
        f = Functional(sp, "dual-coordinates", (1, 0))
        with pytest.raises(UnsupportedSpaceError):
            l1_fix(FixRequest(q, f, {1, 2}, F(1, 4)))

    def test_slack_precondition(self):
        sp = l1(1)
        e1 = unit_first(sp)
        q = Quad((e1, e1.scale(F(1, 2)), -e1, -e1))
        f = Functional(sp, "sign-vector", (1,))
        with pytest.raises(PreconditionError):
            l1_fix(FixRequest(q, f, {1, 2}, F(1, 4)))

    CASE_BOUNDS = {2: 28, 3: 114, 4: 226}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_random_instances_per_case(self, k):
        eps = F(1, 4)
        rho = eps / 226
        for seed in range(30):
            dim = 2 + seed % 5
            req = l1_request(dim=dim, k=k, eps=eps, seed=seed)
            res = l1_fix(req)
            assert res.label == f"l1-{k}"
            assert res.certified == frozenset(range(1, k + 1))
            assert_fix_postconditions(req, res)
            assert max(res.displacements) < self.CASE_BOUNDS[k] * rho
            for i in res.certified:
                assert is_nonnegative(res.corrected[i - 1])
                assert coordinate_sum(res.corrected[i - 1]) == 1

    @pytest.mark.parametrize("k,shift", [(2, 1), (2, 2), (3, 1)])
    def test_shifted_active_blocks(self, k, shift):
        eps = F(1, 4)
        for seed in range(10):
            req = l1_request(dim=3, k=k, eps=eps, seed=seed, shift=shift)
            res = l1_fix(req)
            assert res.certified == frozenset(range(1 + shift, k + shift + 1))
            assert_fix_postconditions(req, res)

    def test_sign_canonicalization_path(self):
        eps = F(1, 4)
        for seed in range(10):
            req = l1_request(dim=3, k=3, eps=eps, seed=seed, flip_coord=0)
            res = l1_fix(req)
            assert "sign-canonicalize" in res.transform_log
            assert_fix_postconditions(req, res)
            for i in res.certified:
                assert req.functional(res.corrected[i - 1]) == 1


class TestConvexFix:
    def test_degenerate_weights_take_singleton_or_larger(self):
        sp = l1(2)
        q = constant_quad(sp, 1)
        active, res = convex_fix(q, (1, 0, 0, 0), F(1, 4))
        assert 1 in active
        assert 1 in res.certified

    def test_all_ones_real_quad(self):
        q = real_quad(1, 1, 1, 1)
        active, res = convex_fix(q, (F(1, 4),) * 4, F(1, 2))
        assert active == {1, 2, 3, 4}
        assert res.corrected == q

    def test_norm_precondition(self):
        q = real_quad(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
        with pytest.raises(PreconditionError):
            convex_fix(q, (F(1, 4),) * 4, F(1, 2))

    @given(st.integers(min_value=0, max_value=10**6),
           st.sampled_from((1, 2, 3, 4)))
    @settings(max_examples=40)
    def test_weight_mass_bound(self, seed, k):
        eps = F(1, 4)
        space = l1(2)
        sched = schedule(space)
        nu, rho = sched.nu(eps), sched.rho(eps)
        rng = rng_for("mass", seed)
        cuts = sorted(F(rng.randrange(0, 65), 64) for _ in range(3))
        alpha = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], 1 - cuts[2])
        q = blend(gen_quad(GenSpec(space, seed, "boundary")),
                  constant_quad(space, 4), 1 - nu / 4)
        active, res = convex_fix(q, alpha, eps)
        assert sum(alpha[i - 1] for i in active) >= 1 - nu / rho
        assert sum(alpha[i - 1] for i in active) > 1 - eps
        req = FixRequest(q, support_functional(q[0]), active, eps)
        assert_fix_postconditions(req, res)

    def test_negation_symmetry_full_support(self):
        # Negating the quadruple yields the same active set and the negated
        # fix, provided the combination has full support (the sign vector at
        # zero coordinates is pinned to +1 and would otherwise differ).
        eps = F(1, 4)
        space = l1(2)
        nu = schedule(space).nu(eps)
        for seed in range(15):
            q = blend(gen_quad(GenSpec(space, seed, "boundary")),
                      constant_quad(space, 4), 1 - nu / 4)
            alpha = (F(1, 4),) * 4
            combo = q[0].scale(alpha[0])
            for i in range(1, 4):
                combo = combo + q[i].scale(alpha[i])
            if any(c == 0 for c in combo.coords):
                continue
            a1, r1 = convex_fix(q, alpha, eps)
            a2, r2 = convex_fix(cyclic_shift(q, 4), alpha, eps)
            assert a1 == a2
            assert r2.corrected == cyclic_shift(r1.corrected, 4)


def as_dense(req: FixRequest) -> FixRequest:
    """An l1^n request restated over finitely supported l1."""
    sp = l1(None)
    q = Quad(tuple(YVec(sp, y.coords) for y in req.quad.ys))
    f = Functional(sp, "sign-vector", req.functional.coords)
    return FixRequest(q, f, req.active, req.eps)


def on_section(req: FixRequest, n: int) -> FixRequest:
    """A finitely supported l1 request restated over l1^n, zero-padded."""
    sp = l1(n)
    zero = 0 if req.quad.is_exact() else 0.0
    pad = lambda c, fill: tuple(c) + (fill,) * (n - len(c))
    q = Quad(tuple(YVec(sp, pad(y.coords, zero)) for y in req.quad.ys))
    f = Functional(sp, "sign-vector", pad(req.functional.coords, 1))
    return FixRequest(q, f, req.active, req.eps)


def ragged(req: FixRequest, exact: bool, short_signs: bool) -> FixRequest:
    """An l1^2 request over finitely supported l1 with a third coordinate
    on y1 alone: y1 becomes ((1 - d) y1, d) and the rest (1 - d) y_i, with
    d = rho/8.  l1 norms add over the split, so admissibility holds, and
    the pairings move by at most d.  With ``short_signs`` the sign vector
    stops after its first entry (the rest read as +1)."""
    sp = l1(None)
    d = schedule(sp).rho(req.eps) / 8
    ys = [y.scale(1 - d).coords for y in req.quad.ys]
    ys[0] += (d,)
    cast = (lambda c: c) if exact else float
    q = Quad(tuple(YVec(sp, tuple(map(cast, y))) for y in ys))
    signs = req.functional.coords[:1] if short_signs else req.functional.coords
    eps = req.eps if exact else float(req.eps)
    return FixRequest(q, Functional(sp, "sign-vector", signs), req.active, eps)


class TestL1FixOnFinitelySupported:
    """l1_fix corrects ragged l1:inf vectors in place: the result is its
    result on the section l1^n without trailing zeros, and dense_lift is
    l1_fix with the section's width logged first."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ragged_vectors(self, k, exact):
        for seed in range(4):
            base = l1_request(dim=2, k=k, eps=F(1, 4), seed=seed,
                              flip_coord=None if seed % 2 else 1)
            req = ragged(base, exact, short_signs=seed % 2 == 1)
            assert max(len(y.coords) for y in req.quad.ys) == 3
            assert len(req.functional.coords) < 3
            res = l1_fix(req)
            lifted = dense_lift(req)
            assert lifted.transform_log[0] == "truncate:n=3"
            assert (res.corrected, res.certified, res.displacements, res.label,
                    res.transform_log) == (lifted.corrected, lifted.certified,
                                           lifted.displacements, lifted.label,
                                           lifted.transform_log[1:])
            assert_fix_postconditions(req, res, tol=0 if exact else 1e-9)
            inner = l1_fix(on_section(req, 3))
            assert res.corrected == Quad(tuple(YVec(l1(None), z.coords)
                                               for z in inner.corrected.ys))
            assert res.displacements == inner.displacements
            assert res.transform_log == inner.transform_log


class TestDenseLift:
    def _request(self, seed, k=3):
        return as_dense(l1_request(dim=3, k=k, eps=F(1, 4), seed=seed))

    def test_agrees_with_finite_fix_up_to_rescale(self):
        req = self._request(3)
        res = dense_lift(req)
        assert res.certified >= req.active
        assert check_membership(res.corrected).member
        assert active_sum_norm(res.corrected, res.certified) == len(res.certified)
        assert all(d < req.eps for d in res.displacements)
        assert any(step.startswith("truncate:") for step in res.transform_log)
        # The lift is l1_fix on the section l1^n, read back over l1:inf.
        n = max(len(y.coords) for y in req.quad.ys)
        inner = l1_fix(on_section(req, n))
        assert res.corrected == Quad(tuple(YVec(req.quad.space, z.coords)
                                           for z in inner.corrected.ys))
        assert res.displacements == inner.displacements
        assert res.transform_log == (f"truncate:n={n}",) + inner.transform_log

    def test_slack_precondition(self):
        sp = l1(None)
        e1 = unit_first(sp)
        q = Quad((e1.scale(F(1, 2)), e1, -e1, -e1))
        f = Functional(sp, "sign-vector", (1,))
        with pytest.raises(PreconditionError):
            dense_lift(FixRequest(q, f, {1, 2}, F(1, 4)))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_random_instances(self, k):
        for seed in range(10):
            req = self._request(seed, k)
            res = dense_lift(req)
            assert_fix_postconditions(req, res)


class TestInadmissibleInput:
    """Every fix refuses a quadruple outside the operator unit ball, even
    when the pairings and norms its own route checks are all in range."""

    # Every vector of the constant quadruple stretched to norm 9/8.
    BIG = Quad(tuple(y.scale(F(9, 8)) for y in constant_quad(l1(2), 4).ys))
    SUM = Functional(l1(2), "sign-vector", (1, 1))

    def test_l1_fix(self):
        with pytest.raises(PreconditionError):
            l1_fix(FixRequest(self.BIG, self.SUM, {1, 2, 3, 4}, F(1, 4)))

    def test_uniformly_convex_fix(self):
        q = real_quad(1, 1, -1, 1)  # y1 - y3 + y4 = 3
        f = Functional(reals(), "dual-coordinates", (1,))
        with pytest.raises(PreconditionError):
            uniformly_convex_fix(FixRequest(q, f, {1, 2}, F(1, 2)))

    def test_singleton_fix(self):
        with pytest.raises(PreconditionError):  # y1 - y2 + y3 = 3
            singleton_fix(singleton_request(real_quad(1, -1, 1, 0), 1, F(1, 4)))

    def test_dense_lift(self):
        sp = l1(None)
        q = Quad((unit_first(sp).scale(F(9, 8)),) * 4)
        f = Functional(sp, "sign-vector", (1,))
        with pytest.raises(PreconditionError):
            dense_lift(FixRequest(q, f, {1, 2, 3, 4}, F(1, 4)))

    def test_convex_fix(self):
        with pytest.raises(PreconditionError):
            convex_fix(self.BIG, (F(1, 4),) * 4, F(1, 4))

    def test_fix_request(self):
        with pytest.raises(PreconditionError, match="admissible"):
            FixRequest(self.BIG, self.SUM, {1, 2, 3, 4}, F(1, 4))

    def test_singleton_fix_needs_one_active_index(self):
        req = l1_request(dim=2, k=2, eps=F(1, 4), seed=0)
        with pytest.raises(DomainError):
            singleton_fix(req)


def shifted(req: FixRequest, r: int, active=None) -> FixRequest:
    """req with index i of its quadruple moved to i + r (for i + r <= 4).

    Its active set moves along, unless another one is given.
    """
    if active is None:
        active = {i + r for i in req.active}
    return FixRequest(cyclic_shift(req.quad, (8 - r) % 8), req.functional,
                      active, req.eps)


# Each route, with a factory of valid requests whose active block is 1..k.
ROUTES = {
    "singleton": (singleton_fix, lambda k: l1_request(2, k, F(1, 4), 0)),
    "l1": (l1_fix, lambda k: l1_request(2, k, F(1, 4), 0)),
    "l1-signed": (l1_fix, lambda k: l1_request(2, k, F(1, 4), 0, flip_coord=1)),
    "dense": (dense_lift, lambda k: as_dense(l1_request(2, k, F(1, 4), 0))),
    "uc-lp": (uniformly_convex_fix, lambda k: uc_request(lp(2, 2), k, 0.4, 0)),
    "uc-r": (uniformly_convex_fix, lambda k: uc_request(reals(), k, F(2, 5), 0)),
}

ROUTE_CASES = [(name, r, k) for name in ROUTES for r in range(4)
               for k in range(1, 5 - r) if name != "singleton" or k == 1]


class TestRouteContract:
    """Every route shifts its interval to start at v1 and back: the log says
    so first, the certificate covers [min, max] of the active set, and a
    precondition error names an index of the input quadruple."""

    @pytest.mark.parametrize("name,r,k", ROUTE_CASES)
    def test_shift_log_and_certified_interval(self, name, r, k):
        fix, make = ROUTES[name]
        req = shifted(make(k), r, {r + 1, r + k})  # the endpoints only
        res = fix(req)
        log = res.transform_log
        if name == "dense":
            assert log[0].startswith("truncate:")
            log = log[1:]
        shift = (f"shift:{r}",) if r else ()
        assert log[:len(shift)] == shift
        assert not any(step.startswith("shift:") for step in log[len(shift):])
        assert res.certified == frozenset(range(r + 1, r + k + 1))
        assert_fix_postconditions(req, res, tol=1e-9 if name == "uc-lp" else 0)

    @pytest.mark.parametrize("name", ROUTES)
    @pytest.mark.parametrize("r", range(4))
    def test_low_endpoint_is_named_by_its_input_index(self, name, r):
        fix, make = ROUTES[name]
        req = shifted(make(1), r)
        # Halved, the block's vector norms and pairs near 1/2.
        half = Quad(tuple(y.scale(F(1, 2)) for y in req.quad.ys))
        with pytest.raises(PreconditionError, match=rf"(index |y_){r + 1}\b"):
            fix(FixRequest(half, req.functional, req.active, req.eps))
        if r < 3 and name != "singleton":
            # The slot after the block holds about -u and pairs near -1.
            with pytest.raises(PreconditionError, match=rf"index {r + 2}\b"):
                fix(shifted(make(1), r, {r + 1, r + 2}))


class TestDualBall:
    """FixRequest refuses a dual-coordinate functional of dual norm above 1."""

    def test_over_norm_lp_functional(self):
        sp = lp(2, 2)
        z = YVec(sp, (0, 0))
        q = Quad((YVec(sp, (F(1, 2), 0)), YVec(sp, (0, F(1, 2))), z, z))
        f = Functional(sp, "dual-coordinates", (10.0, 10.0))
        assert dual_norm(f) > 1
        with pytest.raises(DomainError, match="dual unit ball"):
            FixRequest(q, f, {1, 2}, F(1, 10))

    @pytest.mark.parametrize("space,coords", [
        (lp(2, 2), (F(3, 5), F(4, 5))),
        (lp(2, 2), (F(3, 5), F(81, 100))),
        (lp(2, 2), (0.6, -0.8)),
        (lp(3, 2), (1, 0)),
        (lp(3, 2), (1, F(1, 100))),
        (lp(F(1001, 1000), 2), (1, F(1, 2))),
        (lp(F(1001, 1000), 2), (1, 1)),
        (lp(1001, 2), (F(1, 2), F(1, 2))),
        (lp(1001, 2), (F(1, 2), F(51, 100))),
        (reals(), (-1,)),
        (reals(), (F(11, 10),)),
        (l1(2), (1, -1)),
        (l1(2), (F(11, 10), 0)),
        (sup_space(2), (F(1, 2), -F(1, 2))),
        (sup_space(2), (F(1, 2), F(3, 5))),
    ], ids=str)
    def test_agrees_with_the_dual_norm(self, space, coords):
        z = YVec(space, (0,) * space.dim)
        f = Functional(space, "dual-coordinates", coords)
        inside = dual_norm(f) <= 1 + 1e-9
        try:
            FixRequest(Quad((z, z, z, z)), f, {1}, F(1, 4))
        except DomainError:
            assert not inside
        else:
            assert inside

    def test_huge_coordinate_is_refused_without_overflow(self):
        sp = lp(3, 2)
        z = YVec(sp, (0, 0))
        f = Functional(sp, "dual-coordinates", (F(10) ** 400, 0))
        with pytest.raises(DomainError, match="dual unit ball"):
            FixRequest(Quad((z, z, z, z)), f, {1}, F(1, 4))


class TestDispatch:
    def test_routes_by_family(self):
        assert dispatch_fix(l1_request(2, 2, F(1, 4), 0)).label.startswith("l1")
        assert dispatch_fix(uc_request(reals(), 2, F(2, 5), 0)).label.startswith("uc")

    def test_sup_family_unsupported(self):
        sp = sup_space(2)
        q = constant_quad(sp, 4)
        f = Functional(sp, "dual-coordinates", (1, 0))
        with pytest.raises(UnsupportedSpaceError):
            dispatch_fix(FixRequest(q, f, {1, 2}, F(1, 4)))
