"""Generators, oracles, brute search, and sweep reproducibility."""

from fractions import Fraction
from itertools import combinations, product

import pytest

from bpb4 import (
    DomainError,
    GenSpec,
    Quad,
    SizeError,
    SweepFailure,
    YVec,
    active_sum_norm,
    brute_ahsp_search,
    check_membership,
    dispatch_fix,
    gen_quad,
    l1,
    lp,
    norm,
    op_norm,
    reals,
    render_csv,
    sup_space,
    sweep,
    unit_first,
)
from bpb4.harness import SWEEP_COLUMNS, make_instance
from helpers import brute_norm, l1_request, uc_request

F = Fraction


class TestGenQuad:
    def test_constant_mode(self):
        q = gen_quad(GenSpec(l1(2), 0, "constant"))
        e1 = unit_first(l1(2))
        assert q == Quad((e1, e1, e1, e1))
        assert check_membership(q).slack == 0

    def test_boundary_has_zero_slack(self):
        for seed in range(20):
            q = gen_quad(GenSpec(l1(3), seed, "boundary"))
            assert check_membership(q).slack == 0

    def test_interior_has_positive_slack(self):
        for seed in range(20):
            q = gen_quad(GenSpec(l1(3), seed, "interior"))
            assert check_membership(q).slack > 0

    def test_near_face_pushes_the_full_sum(self):
        slack = F(1, 10)
        for seed in range(10):
            q = gen_quad(GenSpec(l1(3), seed, "near-face", slack))
            assert check_membership(q).member
            assert active_sum_norm(q, {1, 2, 3, 4}) >= 4 - slack

    def test_determinism(self):
        for mode in ("interior", "boundary", "near-face"):
            a = gen_quad(GenSpec(l1(3), 99, mode))
            b = gen_quad(GenSpec(l1(3), 99, mode))
            assert a == b

    def test_different_seeds_differ(self):
        assert gen_quad(GenSpec(l1(3), 1)) != gen_quad(GenSpec(l1(3), 2))

    def test_float_spaces(self):
        q = gen_quad(GenSpec(lp(2, 3), 4, "boundary"))
        assert abs(op_norm(q) - 1) <= 1e-9


class TestBruteNorm:
    def test_constant_quad_over_l1(self):
        q = gen_quad(GenSpec(l1(2), 0, "constant"))
        assert brute_norm(q) == 1

    def test_zero_quad(self):
        z = YVec(l1(2), (0, 0))
        assert brute_norm(Quad((z, z, z, z))) == 0

    @pytest.mark.parametrize("space", [reals(), l1(3), lp(2, 3), sup_space(4)],
                             ids=str)
    def test_always_matches_op_norm(self, space):
        for seed in range(30):
            q = gen_quad(GenSpec(space, seed, "interior"))
            a, b = op_norm(q), brute_norm(q)
            assert (a == b) if q.is_exact() else abs(a - b) <= 1e-12


class TestBruteSearch:
    def test_attaining_quad_returned_unchanged(self):
        q = gen_quad(GenSpec(l1(2), 0, "constant"))
        assert brute_ahsp_search(q, {1, 2, 3, 4}, F(1, 10)) == q

    def test_finds_the_example_attainer(self):
        sp = reals()
        q = Quad(tuple(YVec(sp, (c,)) for c in (1 - F(1, 1000), F(1),
                                                F(-1), F(-1))))
        z = brute_ahsp_search(q, {1, 2}, F(1, 10), 25)
        assert z is not None
        assert z[0].coords == (1,) and z[1].coords == (1,)
        assert check_membership(z).member

    def test_inconclusive_when_grid_misses(self):
        sp = reals()
        # Fine grids may miss: eps below the step and no attainer on-grid.
        q = Quad(tuple(YVec(sp, (c,)) for c in (F(1, 2), F(1, 3),
                                                F(-1, 2), F(-1, 2))))
        assert brute_ahsp_search(q, {1, 2}, F(1, 100), 3) is None

    def test_agrees_with_constructive_fix(self):
        # Wherever the l1 routine succeeds, the grid search (with matching
        # reach) also certifies an attainer nearby.
        eps = F(1, 4)
        for seed in range(5):
            req = l1_request(dim=1, k=2, eps=eps, seed=seed)
            res = dispatch_fix(req)
            assert res is not None
            found = brute_ahsp_search(req.quad, req.active, eps, 9)
            assert found is not None

    @pytest.mark.parametrize("eps", [F(-1, 10), F(0), F(1), F(3), 1.5])
    def test_eps_outside_unit_interval(self, eps):
        # Even an attaining quadruple, returned before any grid is built.
        q = gen_quad(GenSpec(l1(2), 0, "constant"))
        with pytest.raises(DomainError, match=r"eps must lie in \(0, 1\)"):
            brute_ahsp_search(q, {1, 2, 3, 4}, eps)

    def test_size_guard(self):
        q = gen_quad(GenSpec(l1(6), 0, "boundary"))
        with pytest.raises(SizeError):
            brute_ahsp_search(q, {1, 2, 3, 4}, F(1, 4), 25)

    def test_budget_stops_before_building_every_grid(self, monkeypatch):
        import bpb4.harness as hmod

        built = []
        real_grid = hmod._axis_grid
        monkeypatch.setattr(hmod, "_axis_grid",
                            lambda *args: built.append(args) or real_grid(*args))
        monkeypatch.setattr(hmod, "SEARCH_BUDGET", 10)
        q = gen_quad(GenSpec(reals(), 0, "near-face"))
        # Inactive lists are unfiltered: 5 candidates each, 25 > 10 after two.
        with pytest.raises(SizeError, match="candidate product too large: 25"):
            brute_ahsp_search(q, {4}, F(1, 10), 5)
        assert len(built) == 2


def _reference_search(q, active, eps, resolution):
    """Unpruned grid search: every candidate list, checked in grid order."""
    def attains(z):
        return (active_sum_norm(z, active) == len(active)
                and check_membership(z).member)

    def axis(center):
        lo, hi = max(center - eps, -1), min(center + eps, 1)
        if resolution == 1 or lo == hi:
            return [lo]
        return [lo + (hi - lo) / (resolution - 1) * k for k in range(resolution)]

    if attains(q):
        return q
    lists = []
    for y in q.ys:
        points = (YVec(y.space, p) for p in product(*map(axis, y.coords)))
        lists.append([z for z in points
                      if norm(z) <= 1 and norm(z - y) <= eps])
    return next((z for z in map(Quad, product(*lists)) if attains(z)), None)


ALL_ACTIVE_SETS = [set(c) for k in (1, 2, 3, 4)
                   for c in combinations((1, 2, 3, 4), k)]


def _near_face(space, seed, slack):
    return gen_quad(GenSpec(space, seed, "near-face", slack))


#: Near e1 on the 1/20 lattice, so that l1:2 grids hold norm-one points.
_LATTICE_L1_2 = Quad(tuple(YVec(l1(2), c) for c in (
    (F(19, 20), F(1, 20)), (F(1), F(-1, 20)), (F(19, 20), F(0)),
    (F(9, 10), F(1, 10)))))


class TestBruteSearchPruningIsExact:
    """The norm-one filter on active indices never changes the result."""

    @pytest.mark.parametrize("q, eps, resolution", [
        (_near_face(reals(), 1, F(1, 10)), F(1, 10), 3),
        (_near_face(reals(), 2, F(1, 10)), F(1, 10), 9),
        (_near_face(reals(), 3, F(1, 2)), F(1, 100), 5),  # no grid point is 1
        (_near_face(l1(1), 4, F(1, 10)), F(1, 10), 4),
        (_near_face(l1(1), 5, F(1, 5)), F(1, 20), 6),
        (_near_face(l1(2), 6, F(1, 10)), F(1, 10), 3),
        (_LATTICE_L1_2, F(1, 10), 3),
        (_LATTICE_L1_2, F(1, 5), 5),
    ], ids=["r-3", "r-9", "r-5-miss", "l1:1-4", "l1:1-6", "l1:2-3",
            "l1:2-lattice-3", "l1:2-lattice-5"])
    def test_same_result_as_unpruned_search(self, q, eps, resolution):
        for active in ALL_ACTIVE_SETS:
            found = brute_ahsp_search(q, active, eps, resolution)
            assert found == _reference_search(q, active, eps, resolution)

    @pytest.mark.parametrize("coord", [float, Fraction],
                             ids=["float-quad", "exact-quad"])
    def test_float_grid_searches_unfiltered(self, coord):
        # In floats (1 - 2**-53) + 1 rounds to 2, so an attainer need not
        # have norm-one active components: y1's grid tops out at 1 - 2**-53.
        # A float eps makes the grid float even around exact coordinates.
        eps = 2.0 ** -10
        sp = reals()
        q = Quad(tuple(YVec(sp, (coord(c),)) for c in (1 - 2.0 ** -53 - eps,
                                                       1.0, 0.5, 0.5)))
        for active in ALL_ACTIVE_SETS:
            found = brute_ahsp_search(q, active, eps, 2)
            assert found == _reference_search(q, active, eps, 2)
        found = brute_ahsp_search(q, {1, 2}, eps, 2)
        assert found[0].coords == (1 - 2.0 ** -53,)


class TestMakeInstance:
    def test_preconditions_hold_by_construction(self):
        from bpb4 import apply, schedule
        eps = F(3, 10)
        for seed in range(10):
            T, x0 = make_instance(l1(2), eps, seed, 0)
            assert op_norm(T) == 1
            assert x0.sup_norm() == 1
            eta = schedule(l1(2)).eta(eps)
            assert norm(apply(T, x0)) > 1 - eta


class TestSweep:
    def test_reproducible_csv(self):
        _, csv1 = sweep(l1(2), [F(1, 10), F(3, 10)], 3, seed=5)
        _, csv2 = sweep(l1(2), [F(1, 10), F(3, 10)], 3, seed=5)
        assert csv1 == csv2

    def test_rows_satisfy_the_bounds(self):
        rows, _ = sweep(l1(2), [F(3, 10)], 5, seed=1)
        assert len(rows) == 5  # every instance yields a row
        for row in rows:
            assert row.dist_u0_x0 < row.eps
            assert row.dist_S_T < row.eps
            assert row.attainment_defect == 0

    def test_empty_eps_list_gives_header_only(self):
        rows, text = sweep(l1(2), [], 5, seed=1)
        assert rows == []
        assert text == ",".join(SWEEP_COLUMNS) + "\n"

    def test_runtime_column_empty_without_timing(self):
        rows, _ = sweep(l1(2), [F(3, 10)], 2, seed=1)
        assert all(r.runtime == "" for r in rows)
        rows, _ = sweep(l1(2), [F(3, 10)], 2, seed=1, timing=True)
        assert all(r.runtime for r in rows)

    @pytest.mark.parametrize("space, eps_list", [
        (l1(2), [F(3, 10), F(0)]),
        (l1(2), [F(1)]),
        (lp(10, 2), [0.3]),  # a float eta below double precision
    ])
    def test_rejects_eps_before_generating(self, monkeypatch, space, eps_list):
        import bpb4.harness as hmod

        def no_instances(*args):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(hmod, "make_instance", no_instances)
        with pytest.raises(DomainError):
            hmod.sweep(space, eps_list, 3, seed=0)

    def test_failure_dumps_the_instance(self, monkeypatch):
        import bpb4.harness as hmod

        real_verify = hmod.verify_certificate

        def broken_verify(cert):
            report = real_verify(cert)
            return type(report)(ok=False, checks=report.checks,
                                residuals=report.residuals)

        monkeypatch.setattr(hmod, "verify_certificate", broken_verify)
        with pytest.raises(SweepFailure) as exc:
            hmod.sweep(l1(2), [F(3, 10)], 1, seed=1)
        assert "T" in exc.value.instance_json

    def test_render_csv_column_order(self):
        rows, text = sweep(l1(2), [F(3, 10)], 1, seed=2)
        header, line = text.strip().splitlines()
        assert header == "eps,eta,dist_u0_x0,dist_S_T,attainment_defect,case_label,runtime"
        assert line.split(",")[0] == "3/10"
