"""End-to-end correction, certificate verification, and extraction."""

import json
from fractions import Fraction

import pytest

from bpb4 import (
    Certificate,
    DomainError,
    PreconditionError,
    Quad,
    Vec4,
    YVec,
    active_sum_norm,
    apply,
    compose,
    coords,
    correct,
    extract_ahsp,
    l1,
    lp,
    make_instance,
    norm,
    op_norm,
    reals,
    reconstruct,
    reduce_to_base,
    schedule,
    serial,
    verify_certificate,
    vertex,
)
from bpb4.certify import entry_slack
from bpb4.quadop import diff
from helpers import rng_for

F = Fraction


def real_quad(*values) -> Quad:
    return Quad(tuple(YVec(reals(), (F(v),)) for v in values))


def near_attaining_l1_operator(deficit: Fraction) -> Quad:
    """(1, 1-deficit, 1, 1) over l1^1 rescaled to operator norm one."""
    T = Quad(tuple(YVec(l1(1), (c,)) for c in (F(1), 1 - deficit, F(1), F(1))))
    nrm = op_norm(T)
    return Quad(tuple(y.scale(1 / nrm) for y in T.ys))


class TestCorrect:
    def test_already_attaining_is_a_fixed_point(self):
        T = real_quad(1, 1, 1, 1)
        cert = correct(T, vertex(1), F(3, 10))
        assert cert.corrected == T
        assert cert.attained_at.coords == vertex(1).coords
        assert all(v == 0 for v in cert.residuals.values() if v != 1)
        assert cert.residuals["operator_norm"] == 1

    def test_near_attaining_l1_instance(self):
        # The entry threshold is eta(3/10) = (1/2260)^2, so the deficit must
        # be far smaller than the 10^-4 a first reading might suggest.
        eps = F(3, 10)
        eta = schedule(l1(1)).eta(eps)
        deficit = eta / 4
        T = near_attaining_l1_operator(deficit)
        assert norm(apply(T, vertex(1))) > 1 - eta
        cert = correct(T, vertex(1), eps)
        report = verify_certificate(cert)
        assert report.ok, report.failures()
        assert cert.residuals["attainment"] == 0  # exact in rationals
        assert all(r < eps for k, r in cert.residuals.items()
                   if k in ("point_distance", "operator_distance"))

    def test_entry_threshold_rejects_large_deficit(self):
        T = near_attaining_l1_operator(F(1, 10**4))
        with pytest.raises(PreconditionError):
            correct(T, vertex(1), F(3, 10))

    def test_requires_norm_one_operator(self):
        T = real_quad(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
        with pytest.raises(DomainError):
            correct(T, vertex(1), F(3, 10))

    def test_requires_unit_point(self):
        T = real_quad(1, 1, 1, 1)
        with pytest.raises(DomainError):
            correct(T, Vec4((F(1, 2), 0, 0, 0)), F(3, 10))

    def test_float_eta_below_double_precision(self):
        # On lp:10:2, eta(3/10) is about 2.4e-29, so 1 - eta is 1.0 in double
        # precision and the entry check could never pass.
        T, x0 = make_instance(lp(10, 2), 0.3, 0, 0)
        with pytest.raises(DomainError, match="below double precision"):
            correct(T, x0, 0.3)

    def test_below_double_precision_advice(self):
        # lp's modulus of convexity is a float on every backend, so the
        # rational backend refuses the same eps and is not offered.
        for eps in (F(1, 10), F(3, 10), F(3, 5), 0.3):
            with pytest.raises(DomainError, match="below double precision") as exc:
                entry_slack(lp(10, 2), eps)
            assert "rational backend" not in str(exc.value)
        # On l1 the rational eta is exact, and there the advice holds.
        with pytest.raises(DomainError, match="use the rational backend"):
            entry_slack(l1(2), 1e-6)
        assert entry_slack(l1(2), F(1, 10**6)) > 0

    # The README's table: on lp:p:2, the eps of (1/10, 3/10, 3/5, 9/10) whose
    # float eta stays above double precision, the same on both backends.
    @pytest.mark.parametrize("p, accepted", [
        (2, 4), (3, 4), (4, 4), (5, 3), (6, 2), (7, 1), (8, 1), (10, 0)])
    def test_large_lp_exponent_refuses_small_eps(self, p, accepted):
        grid = (F(1, 10), F(3, 10), F(3, 5), F(9, 10))
        for kind in (F, float):
            space = lp(kind(p), 2)
            for k, eps in enumerate(map(kind, grid)):
                if k >= len(grid) - accepted:
                    assert 0 < entry_slack(space, eps) < 1
                else:
                    with pytest.raises(DomainError, match="below double precision"):
                        entry_slack(space, eps)

    @pytest.mark.parametrize("eps", ["1/10", "3/10"])
    def test_float_finitely_supported_l1(self, eps):
        # Finitely supported l1 runs at the eta of l1^n (2.2e-8 at eps 1/10),
        # so the float backend corrects it where it used to refuse.
        for index in range(6):
            T, x0 = make_instance(l1(None), F(eps), 0, index)
            data = json.loads(json.dumps(serial.instance_to_json(T, x0)))
            Tf, x0f = serial.instance_from_json(data, "float")
            cert = correct(Tf, x0f, float(F(eps)))
            text = json.dumps(serial.certificate_to_json(cert, "float"))
            back = serial.certificate_from_json(json.loads(text), "float")
            assert verify_certificate(back).ok

    def test_point_distance_tracks_inactive_mass(self):
        # u0 renormalizes the weights over the active set.  make_instance puts
        # x0 on a vertex, where nothing is discarded, so spread t = eta/8 of
        # the base point's mass over the other three base vertices; the entry
        # still holds, as ||T x0|| >= 1 - eta/2 - 2t.
        eps = F(3, 10)
        for space in (l1(2), l1(None)):
            t = schedule(space).eta(eps) / 8
            distances = []
            for seed in range(20):
                T, x0 = make_instance(space, eps, seed, 0)
                g, base = reduce_to_base(x0)
                weights = [1 - t if a == 1 else t / 3 for a in coords(base)]
                x0 = g.apply(reconstruct(weights, (1, 2, 3, 4)))
                cert = correct(T, x0, eps)
                assert verify_certificate(cert).ok
                distances.append(cert.residuals["point_distance"])
            assert all(d < 2 * eps / 3 for d in distances)
            assert any(d > 0 for d in distances), space

    @pytest.mark.parametrize("space", [l1(2), l1(None), reals(), lp(2, 3)],
                             ids=["l1", "l1inf", "r", "l2"])
    def test_random_instances_verify(self, space):
        eps = F(3, 10) if space.family != "lp" else 0.3
        tol = 0 if space.family != "lp" else 1e-9
        for seed in range(15):
            T, x0 = make_instance(space, eps, seed, 0)
            cert = correct(T, x0, eps)
            report = verify_certificate(cert)
            assert report.ok, report.failures()
            assert abs(report.residuals["attainment"]) <= tol


class TestVerify:
    def _good_cert(self):
        eps = F(3, 10)
        T, x0 = make_instance(l1(2), eps, 7, 0)
        return correct(T, x0, eps)

    def test_recomputes_rather_than_trusts(self):
        cert = self._good_cert()
        tampered = Certificate(
            space=cert.space, eps=cert.eps, original=cert.original,
            point=cert.point, corrected=cert.corrected,
            attained_at=cert.attained_at,
            residuals={k: F(10) for k in cert.residuals},  # nonsense values
            isometry=cert.isometry, fix_label=cert.fix_label)
        assert verify_certificate(tampered).ok

    def test_tampered_point_fails(self):
        cert = self._good_cert()
        u0 = cert.attained_at
        bad = Vec4((u0[0], u0[1], u0[2], u0[3] + 3))
        tampered = Certificate(
            space=cert.space, eps=cert.eps, original=cert.original,
            point=cert.point, corrected=cert.corrected, attained_at=bad,
            residuals=cert.residuals, isometry=cert.isometry,
            fix_label=cert.fix_label)
        report = verify_certificate(tampered)
        assert not report.ok
        assert {"attainment", "point_in_ball"} & set(report.failures())


class TestExtract:
    def test_attaining_operator_extracts_its_own_quad(self):
        T = real_quad(1, 1, 1, 1)
        C, z = extract_ahsp(T, vertex(1), T, vertex(1), F(3, 10))
        assert 1 in C
        assert z == T
        assert active_sum_norm(z, C) == len(C)

    def test_roundtrip_with_correct(self):
        # correct() at eps yields distances < eps; the extraction contract
        # needs them below eps'/12, so run it at eps' = 12*eps < 1.
        eps = F(1, 20)
        for seed in range(10):
            T, x0 = make_instance(l1(2), eps, seed, 0)
            cert = correct(T, x0, eps)
            g = cert.isometry
            # Map the attaining pair back to the base-simplex frame, where
            # the extraction contract applies.
            ginv = g.inverse()
            x0b = ginv.apply(x0)
            u0b = ginv.apply(cert.attained_at)
            Tb, Sb = compose(T, g), compose(cert.corrected, g)
            C, z = extract_ahsp(Tb, x0b, Sb, u0b, 12 * eps)
            assert C
            assert active_sum_norm(z, C) == len(C)
            for i in C:
                assert norm(z[i - 1] - Tb[i - 1]) < 2 * eps

    def test_displacement_bound(self):
        eps = F(1, 20)
        T, x0 = make_instance(l1(2), eps, 3, 0)
        cert = correct(T, x0, eps)
        g = cert.isometry
        ginv = g.inverse()
        Tb, Sb = compose(T, g), compose(cert.corrected, g)
        big_eps = 12 * eps
        C, z = extract_ahsp(Tb, ginv.apply(x0), Sb, ginv.apply(cert.attained_at),
                            big_eps)
        for i in C:
            assert norm(z[i - 1] - Tb[i - 1]) < big_eps / 6

    def test_preconditions(self):
        T = real_quad(1, 1, 1, 1)
        S = real_quad(1, 1, 1, F(1, 2))
        with pytest.raises(PreconditionError):
            extract_ahsp(T, vertex(1), S, vertex(1), F(3, 10))

    def test_rejects_s_above_norm_one(self):
        # ||S|| = 1001/1000, yet S attains 1 at u0 = x0 = (3v1 + v4)/4 and
        # sits within eps/12 of T; a norm-one check is all that rejects it
        # (without one, C = {1, 4} came back with ||z1 + z4|| = 999/500).
        T = real_quad(1, 1, 1, 1)
        S = real_quad(F(1001, 1000), F(997, 1000), F(997, 1000), F(997, 1000))
        x0 = Vec4((1, F(1, 2), F(1, 2), F(1, 2)))
        assert norm(apply(S, x0)) == 1
        with pytest.raises(PreconditionError, match="S must have norm one"):
            extract_ahsp(T, x0, S, x0, F(1, 2))
