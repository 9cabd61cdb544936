"""Quadruples as operators: membership, application, composition, norms,
shifts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpb4 import (
    DomainError,
    GenSpec,
    Quad,
    Vec4,
    YVec,
    active_sum_norm,
    apply,
    check_membership,
    compose,
    cyclic_shift,
    diff,
    gen_quad,
    l1,
    lp,
    norm,
    op_norm,
    reals,
    sup_space,
    unit_first,
    vertex,
    zero,
)
from bpb4.cube import coords
from bpb4.quadop import TRIPLES
from bpb4.scalars import FLOAT_TOL, tol_of
from helpers import SIGNED_PERMS, brute_norm, rng_for

F = Fraction

SPACES = (reals(), l1(3), lp(2, 3), sup_space(4))

seeds_st = st.integers(min_value=0, max_value=10**6)


def random_quad(space, seed, mode="interior"):
    return gen_quad(GenSpec(space, seed, mode))


class TestMembership:
    def test_constant_unit_quad_is_boundary(self):
        e1 = unit_first(l1(2))
        rep = check_membership(Quad((e1, e1, e1, e1)))
        assert rep.member and rep.slack == 0

    def test_triple_violation_detected(self):
        # Each vector has norm 1 but y1 - y2 + y3 has norm 3.
        sp = reals()
        q = Quad((YVec(sp, (1,)), YVec(sp, (-1,)), YVec(sp, (1,)),
                  YVec(sp, (0,))))
        rep = check_membership(q)
        assert not rep.member
        assert rep.worst == "y1-y2+y3"
        assert rep.slack == -2

    def test_mixed_spaces_rejected(self):
        with pytest.raises(DomainError):
            Quad((YVec(reals(), (1,)),) * 3 + (YVec(l1(1), (1,)),))


class TestApply:
    def test_base_vertices_map_to_components(self):
        q = random_quad(l1(3), 11)
        for i in (1, 2, 3, 4):
            assert apply(q, vertex(i)).coords == q[i - 1].coords

    def test_linearity(self):
        rng = rng_for("apply-lin")
        q = random_quad(l1(2), 3)
        for _ in range(25):
            x = Vec4(tuple(F(rng.randrange(-8, 9), 8) for _ in range(4)))
            y = Vec4(tuple(F(rng.randrange(-8, 9), 8) for _ in range(4)))
            lhs = apply(q, x + y)
            rhs = apply(q, x) + apply(q, y)
            assert lhs.coords == rhs.coords


def compose_reference(q, g):
    """T o g by its definition: the images T(g v_i) of the base vertices."""
    return Quad(tuple(apply(q, g.apply(vertex(i))) for i in (1, 2, 3, 4)))


def values(q):
    """The four images as coordinate tuples without trailing zeros: over
    finitely supported l1 a vector's stored width is not part of its value."""
    out = []
    for y in q.ys:
        c = list(y.coords)
        while c and c[-1] == 0:
            c.pop()
        out.append(tuple(c))
    return tuple(out)


class TestCompose:
    @pytest.mark.parametrize("space", [reals(), l1(3), l1(None)], ids=str)
    def test_matches_definition_for_every_signed_permutation(self, space):
        assert len(set(SIGNED_PERMS)) == 384
        q = random_quad(space, 7, "boundary")
        for g in SIGNED_PERMS:
            assert values(compose(q, g)) == values(compose_reference(q, g)), g

    @pytest.mark.parametrize("space", [reals(), l1(3), l1(None)], ids=str)
    def test_norm_and_membership_slack_unchanged(self, space):
        for seed in range(3):
            q = random_quad(space, seed)
            slack = check_membership(q).slack
            for g in SIGNED_PERMS:
                qg = compose(q, g)
                assert op_norm(qg) == op_norm(q)
                assert check_membership(qg).slack == slack

    @pytest.mark.parametrize("space", [reals(), l1(3), l1(None)], ids=str)
    def test_inverse_undoes(self, space):
        q = random_quad(space, 5)
        for g in SIGNED_PERMS:
            assert values(compose(compose(q, g), g.inverse())) == values(q)

    def test_float_agrees_with_definition(self):
        q = random_quad(lp(2, 3), 9, "boundary")
        for g in SIGNED_PERMS:
            for a, b in zip(compose(q, g).ys, compose_reference(q, g).ys):
                assert max(abs(x - y) for x, y in zip(a.coords, b.coords)) <= FLOAT_TOL
            assert abs(op_norm(compose(q, g)) - op_norm(q)) <= FLOAT_TOL


class TestOpNorm:
    @pytest.mark.parametrize("space", SPACES, ids=str)
    def test_agrees_with_sixteen_vertex_oracle(self, space):
        for seed in range(40):
            for mode in ("interior", "boundary"):
                q = random_quad(space, seed, mode)
                a, b = op_norm(q), brute_norm(q)
                if q.is_exact():
                    assert a == b
                else:
                    assert abs(a - b) <= 1e-12

    def test_zero_quad(self):
        z = YVec(l1(2), (0, 0))
        assert op_norm(Quad((z, z, z, z))) == 0
        assert brute_norm(Quad((z, z, z, z))) == 0

    def test_membership_iff_norm_at_most_one(self):
        for seed in range(20):
            q = random_quad(l1(2), seed, "boundary")
            assert op_norm(q) == 1
            assert check_membership(q).member
            bigger = Quad(tuple(y.scale(F(9, 8)) for y in q.ys))
            assert not check_membership(bigger).member


class TestCyclicShift:
    @given(seeds_st)
    @settings(max_examples=50)
    def test_eight_shifts_are_identity(self, seed):
        q = random_quad(l1(2), seed)
        assert cyclic_shift(q, 8) == q
        four = cyclic_shift(q, 4)
        assert all(a.coords == (-b).coords for a, b in zip(four.ys, q.ys))

    @given(seeds_st, st.integers(min_value=0, max_value=7))
    @settings(max_examples=50)
    def test_shift_preserves_membership_slack(self, seed, r):
        q = random_quad(l1(2), seed)
        assert check_membership(cyclic_shift(q, r)).slack == check_membership(q).slack

    @given(seeds_st, st.integers(min_value=0, max_value=7))
    @settings(max_examples=50)
    def test_undo(self, seed, r):
        q = random_quad(l1(2), seed)
        assert cyclic_shift(cyclic_shift(q, r), (8 - r) % 8) == q


class TestDiffAndActiveSum:
    def test_operator_distance_via_difference_quad(self):
        a = random_quad(l1(2), 5)
        b = random_quad(l1(2), 6)
        d = diff(a, b)
        assert op_norm(d) == brute_norm(d)

    def test_active_sum(self):
        e1 = unit_first(l1(2))
        q = Quad((e1, e1, -e1, e1))
        assert active_sum_norm(q, {1, 2}) == 2
        assert active_sum_norm(q, {1, 2, 3}) == 1
        assert active_sum_norm(q, {1, 2, 4}) == 3


# Reference operator quantities by YVec arithmetic, one vector at a time: the
# integer kernel on shared numerators must give the same values, and float or
# lp quadruples must still give exactly these.

def images_reference(q):
    """The eight labelled extreme images, built with YVec + and -."""
    ys = q.ys
    out = [(f"y{i}", y) for i, y in enumerate(ys, 1)]
    for a, b, c in TRIPLES:
        out.append((f"y{a}-y{b}+y{c}", ys[a - 1] - ys[b - 1] + ys[c - 1]))
    return out


def membership_reference(q):
    worst, top, norms = None, None, []
    for label, v in images_reference(q):
        n = norm(v)
        norms.append(n)
        if top is None or n > top:  # the first maximal image is the worst
            worst, top = label, n
    slack = 1 - top
    return slack >= -tol_of(*norms), slack, worst, top


def apply_reference(q, x):
    total = zero(q.space)
    for c, y in zip(coords(x), q.ys):
        total = total + y.scale(c)
    return total


def active_sum_reference(q, active):
    total = zero(q.space)
    for i in active:
        total = total + q[i - 1]
    return norm(total)


KERNEL_SPACES = (l1(3), l1(None), sup_space(2), reals())


@st.composite
def exact_quads(draw):
    """Exact quadruples with unrelated denominators per vector.

    Small draws make zero vectors and tied maxima common; on l1:inf the
    support widths are ragged, empty included.
    """
    space = draw(st.sampled_from(KERNEL_SPACES))
    small = draw(st.booleans())
    entry = st.integers(-2, 2) if small else st.integers(-10**9, 10**9)
    den = st.integers(1, 3) if small else st.integers(1, 10**6)
    ys = []
    for _ in range(4):
        width = draw(st.integers(0, 4)) if space.infinite else space.dim
        d = draw(den)
        ys.append(YVec(space, [F(draw(entry), d) for _ in range(width)]))
    return Quad(ys)


points_st = st.builds(Vec4, st.tuples(
    *[st.fractions(min_value=-1, max_value=1, max_denominator=10**4)] * 4))
active_st = st.sets(st.integers(min_value=1, max_value=4))


class TestSharedDenominatorKernel:
    @given(exact_quads())
    @settings(max_examples=300)
    def test_norm_and_membership_match_reference(self, q):
        member, slack, worst, top = membership_reference(q)
        rep = check_membership(q)
        assert (rep.member, rep.slack, rep.worst, rep.norm) == (member, slack, worst, top)
        assert op_norm(q) == top == brute_norm(q)
        assert type(op_norm(q)) is type(rep.slack) is type(rep.norm) is F

    @given(exact_quads(), points_st)
    @settings(max_examples=300)
    def test_apply_matches_reference(self, q, x):
        got, want = apply(q, x), apply_reference(q, x)
        assert (got.num, got.den) == (want.num, want.den)  # canonical, same width
        assert got.coords == want.coords

    @given(exact_quads(), active_st)
    @settings(max_examples=300)
    def test_active_sum_matches_reference(self, q, active):
        assert active_sum_norm(q, active) == active_sum_reference(q, active)

    def test_tied_maxima_report_the_first_image(self):
        e1 = unit_first(sup_space(2))
        rep = check_membership(Quad((e1.scale(F(1, 2)), e1, e1, e1)))  # four at 1
        assert (rep.worst, rep.norm) == ("y2", 1)
        z = zero(l1(None))
        rep = check_membership(Quad((z, z, z, z)))
        assert (rep.member, rep.slack, rep.worst, rep.norm) == (True, 1, "y1", 0)

    @pytest.mark.parametrize("space", [lp(2, 3), lp(F(7, 2), 2)], ids=str)
    def test_lp_keeps_the_vector_arithmetic(self, space):
        rng = rng_for("lp-kernel", space)
        for seed in range(10):
            for q in (random_quad(space, seed, "boundary"),
                      Quad(tuple(YVec(space, [F(rng.randrange(-8, 9), 8)
                                              for _ in range(space.dim)])
                                 for _ in range(4)))):
                rep = check_membership(q)
                assert (rep.member, rep.slack, rep.worst, rep.norm) == membership_reference(q)
                assert op_norm(q) == rep.norm
                x = Vec4(tuple(F(rng.randrange(-8, 9), 8) for _ in range(4)))
                assert apply(q, x).coords == apply_reference(q, x).coords
                assert active_sum_norm(q, {1, 3}) == active_sum_reference(q, {1, 3})

    def test_float_quadruple_keeps_the_vector_arithmetic(self):
        for space in (l1(3), l1(None), sup_space(2), reals()):
            for seed in range(5):
                exact = random_quad(space, seed, "boundary")
                q = Quad(tuple(YVec(space, [float(c) for c in y.coords]) for y in exact.ys))
                rep = check_membership(q)
                assert (rep.member, rep.slack, rep.worst, rep.norm) == membership_reference(q)
                assert op_norm(q) == rep.norm
                x = Vec4((F(1), F(-1, 3), F(1, 2), F(1, 5)))
                assert apply(q, x).coords == apply_reference(q, x).coords
                assert active_sum_norm(q, {1, 2, 4}) == active_sum_reference(q, {1, 2, 4})
