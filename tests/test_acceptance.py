"""Acceptance criteria: one test per criterion, each printing a PASS line
with its instance count and measured runtime against the stated budget."""

import time
from fractions import Fraction

from bpb4 import (
    GenSpec,
    active_sum_norm,
    check_membership,
    close_face_correct,
    correct,
    gen_quad,
    in_base_simplex,
    l1,
    l1_fix,
    lp,
    make_instance,
    op_norm,
    reals,
    repair_nonnegative,
    schedule,
    sup_space,
    sweep,
    uniformly_convex_fix,
    verify_certificate,
)
from bpb4.spaces import coordinate_sum, norm
from helpers import (
    base_simplex_point,
    brute_norm,
    is_nonnegative,
    l1_request,
    lead_face_point,
    repair_triple,
    rng_for,
    uc_request,
)

F = Fraction


def report(criterion: str, detail: str, elapsed: float, budget: float):
    assert elapsed < budget, f"{criterion} exceeded its runtime budget"
    print(f"PASS {criterion}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")


class TestAcceptance:
    def test_criterion_1_norm_oracle_equivalence(self):
        spaces = (reals(), l1(3), lp(2, 3), sup_space(4))
        count = 1000
        start = time.perf_counter()
        for space in spaces:
            for seed in range(count):
                mode = "interior" if seed % 2 else "boundary"
                q = gen_quad(GenSpec(space, seed, mode))
                a, b = op_norm(q), brute_norm(q)
                if q.is_exact():
                    assert a == b, (space, seed, a, b)
                else:
                    assert abs(a - b) <= 1e-12, (space, seed, a, b)
        report("criterion 1 (norm oracle equivalence)",
               f"{count} quads x {len(spaces)} spaces, exact/1e-12 agreement",
               time.perf_counter() - start, 5)

    def test_criterion_2_l1_fix_soundness(self):
        count = 1000
        eps_cycle = (F(1, 5), F(1, 4), F(2, 5))
        bounds = {2: 28, 3: 114, 4: 226}
        start = time.perf_counter()
        for k in (2, 3, 4):
            for seed in range(count):
                eps = eps_cycle[seed % 3]
                rho = eps / 226
                dim = 2 + seed % 5  # dimensions 2..6
                req = l1_request(dim=dim, k=k, eps=eps, seed=seed)
                res = l1_fix(req)
                assert check_membership(res.corrected).member
                assert check_membership(res.corrected).slack >= 0  # exact
                certified = res.certified
                assert certified == frozenset(range(1, k + 1))
                for i in certified:
                    zi = res.corrected[i - 1]
                    assert is_nonnegative(zi)
                    assert coordinate_sum(zi) == 1
                assert max(res.displacements) < bounds[k] * rho
                assert active_sum_norm(res.corrected, certified) == k
        report("criterion 2 (l1 fix soundness)",
               f"{count} requests x 3 cases, dims 2-6, exact bounds 28/114/226*rho",
               time.perf_counter() - start, 10)

    def test_criterion_3_uniformly_convex_fix_soundness(self):
        count = 1000
        start = time.perf_counter()
        for seed in range(count):
            n = 1 + seed % 5
            space = reals() if n == 1 else lp(2, n)
            eps = F(2, 5) if space.family == "r" else 0.4
            k = 2 + seed % 3
            req = uc_request(space, k, eps, seed)
            res = uniformly_convex_fix(req)
            rep = check_membership(res.corrected)
            assert rep.slack >= -1e-9
            defect = abs(active_sum_norm(res.corrected, res.certified)
                         - len(res.certified))
            assert defect <= 1e-9
            assert all(d < eps for d in res.displacements)
        report("criterion 3 (uniformly convex fix soundness)",
               f"{count} requests over l2^n (n<=5) and the reals, defects <= 1e-9",
               time.perf_counter() - start, 10)

    def test_criterion_4_end_to_end_correction(self):
        count = 500
        eps_values = (F(1, 10), F(3, 10), F(3, 5))
        start = time.perf_counter()
        total = 0
        for space in (l1(2), lp(2, 3)):
            exact = space.family == "l1"
            for eps in eps_values:
                e = eps if exact else float(eps)
                for seed in range(count):
                    T, x0 = make_instance(space, e, seed, 0)
                    cert = correct(T, x0, e)
                    rep = verify_certificate(cert)
                    assert rep.ok, (space, eps, seed, rep.failures())
                    if exact:
                        assert rep.residuals["attainment"] == 0
                        assert rep.residuals["operator_norm"] == 1
                    else:
                        assert abs(rep.residuals["attainment"]) <= 1e-9
                        assert abs(rep.residuals["operator_norm"] - 1) <= 1e-9
                    assert rep.residuals["point_distance"] < e
                    assert rep.residuals["operator_distance"] < e
                    total += 1
        report("criterion 4 (end-to-end correction)",
               f"{total} certificates over l1^n and l2^n at eps in {{0.1,0.3,0.6}}",
               time.perf_counter() - start, 30)

    def test_criterion_5_nonnegativity_repair(self):
        count = 10_000
        start = time.perf_counter()
        for seed in range(count):
            dim = 1 + seed % 8
            x, y, z, s, t = repair_triple(dim, seed)
            w = repair_nonnegative(x, y, z, s, t)
            assert is_nonnegative(w - z)  # componentwise, exact
            assert norm(w - z) <= s + t
            assert is_nonnegative(x - y + w)
        report("criterion 5 (nonnegativity repair)",
               f"{count} preconditioned triples in l1^n (n<=8), exact checks",
               time.perf_counter() - start, 5)

    def test_criterion_6_close_face_correction(self):
        count = 10_000
        start = time.perf_counter()
        done = 0
        seed = 0
        while done < count:
            rng = rng_for("accept-closeface", seed)
            seed += 1
            x0 = base_simplex_point(rng)
            w = lead_face_point(rng)
            eps = F(rng.randrange(1, 32), 64)
            span = (w - x0).sup_norm()
            mu = F(rng.randrange(0, 64), 64) * (eps / (2 * span) if span else 1)
            u0 = x0.scale(1 - min(mu, F(1))) + w.scale(min(mu, F(1)))
            if not (u0 - x0).sup_norm() < eps:
                continue
            res = close_face_correct(x0, u0, eps)
            assert in_base_simplex(res.corrected)
            assert (res.corrected - u0).sup_norm() < 3 * eps
            for i, gm in res.gamma.items():
                if gm > 0:
                    assert res.beta[i] > 0
            done += 1
        report("criterion 6 (close-face correction)",
               f"{count} random (x0, u0, eps) instances, 3*eps bound + support",
               time.perf_counter() - start, 5)

    def test_criterion_7_constants_calculus(self):
        start = time.perf_counter()
        eps_samples = [F(k, 21) for k in range(1, 21)]  # 20 values in (0, 1)
        sched = schedule(l1(4))
        for eps in eps_samples:
            rho = eps / 226
            assert sched.rho(eps) == rho
            assert sched.nu(eps) == rho ** 2
            assert sched.gamma(eps) == sched.nu(eps / 4)
            assert sched.eta(eps) == sched.nu(eps / 3)
            assert sched.gamma_from_eta(eps) == sched.eta(eps / 48)
            assert sched.zeta(eps) == sched.gamma(eps / 2)
            for value in (sched.rho(eps), sched.nu(eps), sched.gamma(eps),
                          sched.eta(eps), sched.gamma_from_eta(eps),
                          sched.zeta(eps)):
                assert 0 < value < eps
        report("criterion 7 (constants calculus)",
               "closed forms exact at 20 sampled eps, all values in (0, eps)",
               time.perf_counter() - start, 5)

    def test_criterion_8_reproducible_sweeps(self):
        start = time.perf_counter()
        eps_list = [F(1, 10), F(3, 10), F(3, 5)]
        _, csv1 = sweep(l1(2), eps_list, 10, seed=2026)
        _, csv2 = sweep(l1(2), eps_list, 10, seed=2026)
        assert csv1.encode() == csv2.encode()
        report("criterion 8 (reproducible sweeps)",
               "two seeded sweep runs produce byte-identical CSVs",
               time.perf_counter() - start, 30)
