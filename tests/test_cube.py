"""Geometry of the lead face: coordinates, faces, reductions, corrections."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpb4 import (
    DomainError,
    FACES,
    SignedPerm,
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
from helpers import base_simplex_point, lead_face_point, rand_vec4, rng_for

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
            assert g.compose(h).apply(x).coords == g.apply(h.apply(x)).coords
            assert g.inverse().apply(g.apply(x)).coords == x.coords
            assert g.compose(g.inverse()) == SignedPerm((0, 1, 2, 3), (1, 1, 1, 1))

    @pytest.mark.parametrize("signs", [(1, 1, 1), (1, 1, 1, 1, 1), ()])
    def test_signs_need_four_entries(self, signs):
        with pytest.raises(DomainError, match="four entries"):
            SignedPerm((0, 1, 2, 3), signs)

    def test_isometry(self):
        rng = rng_for("perm-iso")
        g = SignedPerm((2, 0, 3, 1), (1, -1, -1, 1))
        for _ in range(20):
            x = rand_vec4(rng)
            assert g.apply(x).sup_norm() == x.sup_norm()


class TestReduceToBase:
    def test_negated_first_vertex_uses_global_flip(self):
        g, x_base = reduce_to_base(-vertex(1))
        assert x_base.coords == vertex(1).coords
        assert g.apply(x_base).coords == (-vertex(1)).coords
        assert g.signs == (-1, -1, -1, -1)

    def test_all_sixteen_sign_vectors(self):
        import itertools
        for signs in itertools.product((1, -1), repeat=4):
            x = Vec4(signs)
            g, x_base = reduce_to_base(x)
            assert in_base_simplex(x_base)
            assert g.apply(x_base).coords == x.coords

    @given(vec4_st, st.integers(min_value=0, max_value=3),
           st.sampled_from((1, -1)))
    def test_random_unit_vectors(self, x, pin, sign):
        # Pin one coordinate to +-1 so the vector is on the unit sphere.
        cs = list(x.coords)
        cs[pin] = F(sign)
        x = Vec4(tuple(cs))
        g, x_base = reduce_to_base(x)
        assert in_base_simplex(x_base)
        assert g.apply(x_base).coords == x.coords


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


class TestLeadFaceMembership:
    def test_float_tolerance(self):
        assert on_lead_face(Vec4((1.0 + 1e-12, 0.5, 0.0, -0.5)))
        assert not on_lead_face(Vec4((0.9, 0.5, 0.0, -0.5)))
