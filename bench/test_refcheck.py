"""Tests of the reference checker: a hand-worked case, real certificates,
and perturbed certificates it must reject.

Run from the repository root:

    python3 -m pytest bench/test_refcheck.py
"""

from __future__ import annotations

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refcheck  # noqa: E402
from bpb4 import certify, harness, serial  # noqa: E402
from bpb4.cli import parse_space  # noqa: E402

L1_2 = {"family": "l1", "dim": 2}
E1 = ["1/1", "0/1"]


def constant_certificate():
    """The constant quadruple y_i = e1 on l1:2, at x0 = v1.

    By hand: T(v_i) = e1 for all i forces T(e1) = e1 and T(e2) = T(e3) =
    T(e4) = 0, so T x = x(1) e1 and ||T|| = 1, attained at v1.  S = T and
    u0 = x0 therefore certify the pair with zero displacement.
    """
    quad = {"space": L1_2, "ys": [E1, E1, E1, E1]}
    v1 = ["1/1", "1/1", "1/1", "1/1"]
    return {"space": L1_2, "eps": "3/10", "T": quad, "x0": v1, "S": quad,
            "u0": v1, "isometry": {"perm": [0, 1, 2, 3], "signs": [1, 1, 1, 1]}}


def scaled_s(cert, factor):
    cert = json.loads(json.dumps(cert))
    space = refcheck.Space(cert["space"])
    ys = []
    for y in cert["S"]["ys"]:
        if space.sparse:
            ys.append([[i, str(refcheck.scalar(c) * factor)] for i, c in y])
        else:
            ys.append([str(refcheck.scalar(c) * factor) for c in y])
    cert["S"]["ys"] = ys
    return cert


def moved_u0(cert, factor):
    cert = json.loads(json.dumps(cert))
    cert["u0"] = [str(refcheck.scalar(c) * factor) for c in cert["u0"]]
    return cert


def real_certificate(space, eps=Fraction(3, 10), index=0, backend="rational"):
    T, x0 = harness.make_instance(parse_space(space), eps, 0, index)
    cert = certify.correct(T, x0, eps)
    return json.loads(json.dumps(serial.certificate_to_json(cert, backend)))


class TestHandWorked(unittest.TestCase):
    def test_base_inverse_solves_the_vertex_system(self):
        for i, row in enumerate(refcheck.BASE):
            for k in range(4):
                total = sum(row[j] * refcheck.BASE_INV[j][k] for j in range(4))
                self.assertEqual(total, int(i == k))

    def test_constant_quadruple_images_and_norm(self):
        space = refcheck.Space(L1_2)
        ys = [space.vector(E1)] * 4
        images = refcheck.unit_images(ys)
        self.assertEqual(images[0], {0: 1, 1: 0})
        for image in images[1:]:
            self.assertTrue(all(c == 0 for c in image.values()))
        self.assertEqual(refcheck.op_norm(space, images), 1)

    def test_constant_certificate_is_accepted(self):
        self.assertEqual(refcheck.check_certificate(constant_certificate()), [])

    def test_scaled_operator_is_rejected(self):
        bad = scaled_s(constant_certificate(), Fraction(1001, 1000))
        failures = refcheck.check_certificate(bad)
        self.assertTrue(any(f.startswith("||S|| =") for f in failures), failures)

    def test_point_off_the_face_is_rejected(self):
        bad = moved_u0(constant_certificate(), Fraction(999, 1000))
        failures = refcheck.check_certificate(bad)
        self.assertTrue(any(f.startswith("||u0|| =") for f in failures), failures)
        self.assertTrue(any(f.startswith("||S u0|| =") for f in failures), failures)

    def test_constant_quadruple_attains_every_active_set(self):
        ys = [(Fraction(1), Fraction(0))] * 4
        for active in ((1,), (1, 2), (2, 3, 4), (1, 2, 3, 4)):
            self.assertEqual(refcheck.check_attainer(L1_2, ys, ys, active,
                                                     Fraction(1, 10)), [])

    def test_attainer_faults_are_rejected(self):
        ys = [(Fraction(1), Fraction(0))] * 4
        short = [(Fraction(9, 10), Fraction(0))] + ys[1:]
        failures = refcheck.check_attainer(L1_2, ys, short, (1, 2),
                                           Fraction(1, 5))
        self.assertTrue(any("sum over C" in f for f in failures), failures)
        far = [(Fraction(0), Fraction(1))] + ys[1:]
        failures = refcheck.check_attainer(L1_2, ys, far, (2, 3),
                                           Fraction(1, 10))
        self.assertTrue(any("above eps" in f for f in failures), failures)
        big = [(Fraction(1), Fraction(1, 2))] + ys[1:]
        failures = refcheck.check_attainer(L1_2, ys, big, (2, 3), Fraction(1))
        self.assertTrue(any("not admissible" in f for f in failures), failures)


class TestRealCertificates(unittest.TestCase):
    CASES = (("l1:4", "rational"), ("l1:inf", "rational"), ("r", "rational"),
             ("lp:2:3", "float"), ("lp:3/2:2", "float"))

    def test_program_certificates_are_accepted(self):
        for space, backend in self.CASES:
            for index in range(3):
                cert = real_certificate(space, index=index, backend=backend)
                self.assertEqual(refcheck.check_certificate(cert), [],
                                 (space, index))

    def test_perturbed_program_certificates_are_rejected(self):
        for space, backend in self.CASES:
            cert = real_certificate(space, backend=backend)
            self.assertNotEqual(
                refcheck.check_certificate(scaled_s(cert, Fraction(1001, 1000))),
                [], space)
            self.assertNotEqual(
                refcheck.check_certificate(moved_u0(cert, Fraction(999, 1000))),
                [], space)

    def test_certificate_must_match_its_input(self):
        T, x0 = harness.make_instance(parse_space("l1:4"), Fraction(3, 10), 0, 0)
        cert = real_certificate("l1:4")
        coords = [tuple(y.coords) for y in T.ys]
        self.assertEqual(refcheck.check_certificate(
            cert, T=coords, x0=x0.coords, eps=Fraction(3, 10)), [])
        other = [tuple(-c for c in y) for y in coords]
        self.assertIn("certificate T differs from the input",
                      refcheck.check_certificate(cert, T=other))

    def test_lp_rational_round_trip_is_a_false_rejection(self):
        # bpb4 rejects this certificate after the rational JSON round trip;
        # the reference checker accepts it within FLOAT_TOL.
        cert = real_certificate("lp:2:3")
        report = certify.verify_certificate(serial.certificate_from_json(cert))
        self.assertEqual(report.failures(), ("corrected_admissible",))
        self.assertEqual(refcheck.check_certificate(cert), [])

    def test_lifted_attainer_attains_on_its_active_set(self):
        for space in ("l1:4", "r"):
            for index in range(3):
                cert = real_certificate(space, index=index)
                zs, active = refcheck.lifted_attainer(cert)
                self.assertTrue(active)
                self.assertEqual(refcheck.check_attainer(
                    cert["space"], zs, zs, active, Fraction(3, 10)), [])


if __name__ == "__main__":
    unittest.main()
