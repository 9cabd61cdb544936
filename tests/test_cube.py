"""Geometry of the lead face: coordinates, faces, reductions, corrections."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpb4 import (
    DomainError,
    SignedPerm,
    Vec4,
    close_face_correct,
    coords,
    in_base_simplex,
    on_lead_face,
    reconstruct,
    reduce_to_base,
    vertex,
)
from bpb4.scalars import FLOAT_TOL, tol_of
from helpers import (
    FACES,
    SIGNED_PERMS,
    base_simplex_point,
    compose_perms,
    face_decompose,
    lead_face_point,
    rand_vec4,
    rng_for,
)

F = Fraction

fractions_st = st.fractions(min_value=-1, max_value=1, max_denominator=64)
vec4_st = st.builds(lambda a, b, c, d: Vec4((a, b, c, d)),
                    *([fractions_st] * 4))
face_point_st = st.builds(lambda a, b, c: Vec4((F(1), a, b, c)),
                          *([fractions_st] * 3))


class TestCoords:
    def test_example_mixed_point(self):
        # (1, -1, 0, 1/2) has weights (0, 1/2, 1/4, 1/4) over v1..v4.
        assert coords(Vec4((1, -1, 0, F(1, 2)))) == (0, F(1, 2), F(1, 4), F(1, 4))

    def test_vertices_are_biorthogonal(self):
        for i in range(1, 5):
            expected = tuple(F(1) if j == i else F(0) for j in range(1, 5))
            assert coords(vertex(i)) == expected

    @given(vec4_st)
    def test_reconstruction_identity(self, x):
        assert reconstruct(coords(x), (1, 2, 3, 4)).coords == x.coords

    def test_later_vertices_are_alternating_triples(self):
        # v5..v8 are v_i - v_j + v_k combinations of the base vertices.
        combos = {5: (1, 2, 3), 6: (1, 2, 4), 7: (1, 3, 4), 8: (2, 3, 4)}
        for idx, (i, j, k) in combos.items():
            expected = vertex(i) - vertex(j) + vertex(k)
            assert vertex(idx).coords == expected.coords


class TestFaceDecompose:
    def test_example_face_a5(self):
        fd = face_decompose(Vec4((1, F(1, 2), F(-1, 2), 0)))
        assert fd.face == 5
        assert set(fd.vertex_indices) == FACES[5]
        assert all(w == F(1, 4) for w in fd.weights)

    def test_base_simplex_is_face_one(self):
        fd = face_decompose(Vec4((1, F(1, 4), F(1, 2), F(3, 4))))
        assert fd.face == 1

    def test_rejects_off_face_points(self):
        with pytest.raises(DomainError):
            face_decompose(Vec4((F(1, 2), 0, 0, 0)))

    @given(face_point_st)
    def test_weights_are_barycentric(self, x):
        fd = face_decompose(x)
        assert sum(fd.weights) == 1
        assert all(w >= 0 for w in fd.weights)
        assert reconstruct(fd.weights, fd.vertex_indices).coords == x.coords

    @given(face_point_st)
    def test_pullback_maps_base_vertices(self, x):
        fd = face_decompose(x)
        for j, idx in zip(range(1, 5), fd.vertex_indices):
            assert fd.pullback.apply(vertex(j)).coords == vertex(idx).coords


class TestSignedPerm:
    def test_compose_then_apply(self):
        rng = rng_for("perm")
        for _ in range(50):
            perm = [0, 1, 2, 3]
            rng.shuffle(perm)
            g = SignedPerm(tuple(perm), tuple(rng.choice((1, -1)) for _ in range(4)))
            perm2 = [0, 1, 2, 3]
            rng.shuffle(perm2)
            h = SignedPerm(tuple(perm2), tuple(rng.choice((1, -1)) for _ in range(4)))
            x = rand_vec4(rng)
            assert compose_perms(g, h).apply(x).coords == g.apply(h.apply(x)).coords
            assert g.inverse().apply(g.apply(x)).coords == x.coords
            assert compose_perms(g, g.inverse()) == SignedPerm((0, 1, 2, 3), (1, 1, 1, 1))

    @pytest.mark.parametrize("signs", [(1, 1, 1), (1, 1, 1, 1, 1), ()])
    def test_signs_need_four_entries(self, signs):
        with pytest.raises(DomainError, match="four entries"):
            SignedPerm((0, 1, 2, 3), signs)

    def test_vertex_image_is_the_signed_vertex_hit(self):
        for g in SIGNED_PERMS:
            for i in (1, 2, 3, 4):
                j, s = g.vertex_image(i)
                assert g.apply(vertex(i)).coords == vertex(j).scale(s).coords

    def test_isometry(self):
        rng = rng_for("perm-iso")
        g = SignedPerm((2, 0, 3, 1), (1, -1, -1, 1))
        for _ in range(20):
            x = rand_vec4(rng)
            assert g.apply(x).sup_norm() == x.sup_norm()


def reduce_to_base_reference(x):
    """reduce_to_base as the chain of isometries it replaced: swap the first
    unit-magnitude coordinate into slot 1, flip the global sign, sort the
    face, compose the three, and rebuild the base point from its weights."""
    tol = tol_of(*x.coords)
    assert abs(x.sup_norm() - 1) <= tol
    j = next(i for i in range(4) if abs(abs(x[i]) - 1) <= tol)
    swap = [0, 1, 2, 3]
    swap[0], swap[j] = j, 0
    forward = SignedPerm(tuple(swap), (1, 1, 1, 1))
    if x[j] < 0:
        forward = compose_perms(SignedPerm((0, 1, 2, 3), (-1, -1, -1, -1)),
                                forward)
    fd = face_decompose(forward.apply(x))
    forward = compose_perms(fd.pullback.inverse(), forward)
    return forward.inverse(), reconstruct(fd.weights, (1, 2, 3, 4))


def _pinned(coords, k, value):
    coords[k] = value
    return Vec4(coords)


def unit_vector_st(coord_st, one):
    """Four coordinates from coord_st with one of them pinned to +-one."""
    return st.builds(_pinned, st.lists(coord_st, min_size=4, max_size=4),
                     st.integers(0, 3), st.sampled_from((one, -one)))


exact_unit_st = unit_vector_st(
    st.one_of(fractions_st, st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1)])),
    F(1))
float_ties_st = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
float_unit_st = st.one_of(
    unit_vector_st(st.one_of(st.floats(-1, 1), float_ties_st), 1.0),
    # Unit up to the float tolerance: the lead coordinate need not be 1.
    unit_vector_st(st.one_of(st.floats(-1, 1), float_ties_st),
                   1 - 2.0 ** -40))
# Multiples of 2**-52 whose first unit-magnitude coordinate is exactly +-1:
# there the reference's halvings and sums round nothing.
_GRID = 2 ** 52
grid_unit_st = unit_vector_st(
    st.one_of(st.integers(-(_GRID - 2 ** 23), _GRID - 2 ** 23).map(
        lambda k: k / _GRID), float_ties_st), 1.0)


class TestReduceToBase:
    @staticmethod
    def _assert_matches_reference(x, base_too=True):
        g, x_base = reduce_to_base(x)
        ref_g, ref_base = reduce_to_base_reference(x)
        assert (g.perm, g.signs) == (ref_g.perm, ref_g.signs)
        if base_too:
            assert x_base.coords == ref_base.coords
        assert g.apply(x_base).coords == x.coords
        assert in_base_simplex(x_base)

    @given(grid_unit_st)
    def test_matches_reference_on_float_grid_vectors(self, x):
        self._assert_matches_reference(x)

    @given(float_unit_st)
    def test_same_isometry_as_reference_on_any_float_vector(self, x):
        # Off the grid the reference rounds its rebuilt base point; the
        # permuted point needs no rounding, so g(x') == x still holds exactly.
        self._assert_matches_reference(x, base_too=False)

    def test_base_point_is_permuted_not_rebuilt(self):
        x = Vec4((0.25, 1.0, 0.1, 0.7))
        g, x_base = reduce_to_base(x)
        assert x_base.coords == (1.0, 0.1, 0.25, 0.7)
        assert g.apply(x_base).coords == x.coords
        assert reduce_to_base_reference(x)[1][1] == 0.10000000000000003

    def test_matches_reference_on_moved_base_simplex_points(self):
        rng = rng_for("reduce-moved")
        points = [vertex(1), vertex(4), Vec4((1, 0, 0, 0)), Vec4((1, 0, 0, 1))]
        points += [base_simplex_point(rng) for _ in range(4)]
        for p in points:
            for g in SIGNED_PERMS:
                self._assert_matches_reference(g.apply(p))

    def test_negated_first_vertex_uses_global_flip(self):
        g, x_base = reduce_to_base(-vertex(1))
        assert x_base.coords == vertex(1).coords
        assert g.apply(x_base).coords == (-vertex(1)).coords
        assert g.signs == (-1, -1, -1, -1)

    def test_all_sixteen_sign_vectors(self):
        for one in (F(1), 1.0):
            for signs in itertools.product((1, -1), repeat=4):
                self._assert_matches_reference(Vec4(tuple(s * one for s in signs)))

    @given(exact_unit_st)
    def test_random_unit_vectors(self, x):
        self._assert_matches_reference(x)


class TestCloseFace:
    def test_example_already_in_base_simplex(self):
        x0 = vertex(1)
        u0 = reconstruct((F(9, 10), F(1, 10)), (1, 2))
        res = close_face_correct(x0, u0, F(1, 4))
        assert res.corrected.coords == u0.coords

    def test_example_renormalizes_over_base(self):
        # u0 carries weight on v5, which is outside the base simplex.
        x0 = vertex(1)
        u0 = reconstruct((F(9, 10), F(1, 10)), (1, 5))
        res = close_face_correct(x0, u0, F(1, 4))
        assert in_base_simplex(res.corrected)
        assert (res.corrected - u0).sup_norm() < 3 * F(1, 4)
        for i, gm in res.gamma.items():
            if gm > 0:
                assert res.beta[i] > 0

    def test_rejects_distant_points(self):
        with pytest.raises(DomainError):
            close_face_correct(vertex(1), vertex(4), F(1, 10))

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_random_instances(self, seed):
        rng = rng_for("closeface", seed)
        x0 = base_simplex_point(rng)
        w = lead_face_point(rng)
        eps = F(rng.randrange(1, 32), 64)
        # Convex slide from x0 toward w stays on the lead face and within eps.
        span = (w - x0).sup_norm()
        mu = F(rng.randrange(0, 64), 64) * (eps / (2 * span) if span else 1)
        mu = min(mu, F(1))
        u0 = x0.scale(1 - mu) + w.scale(mu)
        if not (u0 - x0).sup_norm() < eps:
            return
        res = close_face_correct(x0, u0, eps)
        assert in_base_simplex(res.corrected)
        assert (res.corrected - u0).sup_norm() < 3 * eps
        assert sum(res.gamma.values()) == 1
        for i, gm in res.gamma.items():
            if gm > 0:
                assert res.beta[i] > 0


def close_face_reference(u0):
    """close_face_correct's (corrected, active, beta, gamma) as the face
    decomposition gave them: beta over the face's vertices in decomposition
    order, gamma its base-vertex part renormalised."""
    fd = face_decompose(u0)
    beta = dict(zip(fd.vertex_indices, fd.weights))
    base = frozenset(range(1, 5))
    inside = fd.active & base
    if {i for i, w in beta.items() if w > 0} <= base:
        return u0, fd.active, beta, {i: beta[i] for i in inside}
    mass = sum(beta[i] for i in inside)
    gamma = {i: beta[i] / mass for i in inside}
    return reconstruct(gamma.values(), gamma.keys()), fd.active, beta, gamma


def _weights(cuts):
    a, b, c = (F(x, 64) for x in cuts)
    return a, b - a, c - b, 1 - c


def _near(x0, lead, offsets):
    """A lead-face point with u(1) = lead and u(k) = x0(k) + offset, clipped."""
    return Vec4((lead,) + tuple(max(-1, min(1, x0[k] + d))
                                for k, d in zip((1, 2, 3), offsets)))


_cut_st = st.integers(0, 64)
# (x0, eps, offsets): x0 a base-simplex point with weights in 1/64ths, eps in
# (0, 1/2), and each offset of u0(2..4) from x0 strictly inside (-eps, eps).
close_face_st = st.builds(
    lambda cuts, k, offsets: (
        reconstruct(_weights(sorted(cuts)), (1, 2, 3, 4)), F(k, 64),
        tuple(F(k, 64) * t for t in offsets)),
    st.lists(_cut_st, min_size=3, max_size=3), st.integers(1, 31),
    st.lists(st.fractions(min_value=F(-63, 64), max_value=F(63, 64),
                          max_denominator=64), min_size=3, max_size=3))


class TestCloseFaceAgainstReference:
    @staticmethod
    def _assert_matches_reference(x0, u0, eps):
        res = close_face_correct(x0, u0, eps)
        corrected, active, beta, gamma = close_face_reference(u0)
        assert res.corrected.coords == corrected.coords
        assert res.active == active
        assert list(res.beta.items()) == list(beta.items())
        assert list(res.gamma.items()) == list(gamma.items())

    @given(close_face_st)
    def test_exact_lead_face_points(self, case):
        x0, eps, offsets = case
        self._assert_matches_reference(x0, _near(x0, F(1), offsets), eps)

    @given(close_face_st, st.sampled_from((1.0, 1 - FLOAT_TOL)))
    def test_float_points_off_the_unit_lead(self, case, lead):
        x0, eps, offsets = case
        x0 = Vec4(tuple(float(c) for c in x0.coords))
        u0 = _near(x0, lead, tuple(float(d) for d in offsets))
        self._assert_matches_reference(x0, u0, eps)


class TestLeadFaceMembership:
    def test_float_tolerance(self):
        assert on_lead_face(Vec4((1.0 + 1e-12, 0.5, 0.0, -0.5)))
        assert not on_lead_face(Vec4((0.9, 0.5, 0.0, -0.5)))
