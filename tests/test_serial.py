"""JSON round-trips for every serialized type, on both scalar backends."""

import json
import math
from fractions import Fraction

import pytest

from bpb4 import (
    FixRequest,
    Functional,
    GenSpec,
    Quad,
    SignedPerm,
    Vec4,
    YVec,
    correct,
    dispatch_fix,
    gen_quad,
    l1,
    lp,
    make_instance,
    reals,
    sup_space,
)
from bpb4 import serial
from bpb4.scalars import coerce, parse_scalar, scalar_to_json
from helpers import l1_request

F = Fraction


class TestScalars:
    def test_rational_strings_round_trip(self):
        assert scalar_to_json(F(-3, 7)) == "-3/7"
        assert parse_scalar("-3/7") == F(-3, 7)

    def test_decimal_strings_parse_exactly(self):
        assert parse_scalar("0.1") == F(1, 10)

    def test_float_backend(self):
        assert parse_scalar("1/4", "float") == 0.25
        assert isinstance(parse_scalar("1/4", "float"), float)

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar("1/0")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_are_rejected_where_they_enter(self, value):
        with pytest.raises(ValueError, match="not a finite scalar"):
            coerce(value)
        with pytest.raises(ValueError, match="not a finite scalar"):
            YVec(l1(2), (value, 0.0))
        with pytest.raises(ValueError, match="not a finite scalar"):
            Vec4((1.0, value, 0.0, 0.0))


class TestSpaces:
    @pytest.mark.parametrize("space", [reals(), l1(3), l1(None), lp(2, 4),
                                       sup_space(2)], ids=str)
    def test_round_trip(self, space):
        assert serial.space_from_json(serial.space_to_json(space)) == space

    def test_infinite_dim_marker(self):
        assert serial.space_to_json(l1(None))["dim"] == "inf"


class TestVectors:
    def test_vec4_round_trip(self):
        x = Vec4((F(1, 3), F(-2, 5), F(0), F(1)))
        data = json.loads(json.dumps(serial.vec4_to_json(x)))
        assert serial.vec4_from_json(data) == x

    def test_finite_yvec_is_dense(self):
        y = YVec(l1(3), (F(1, 2), 0, F(-1, 4)))
        assert serial.yvec_to_json(y) == ["1/2", "0/1", "-1/4"]

    def test_infinite_yvec_is_sparse(self):
        y = YVec(l1(None), (F(1, 2), 0, F(-1, 4)))
        data = serial.yvec_to_json(y)
        assert data == [[0, "1/2"], [2, "-1/4"]]
        back = serial.yvec_from_json(l1(None), data)
        assert back.coords == y.coords

    def test_functional_round_trip(self):
        f = Functional(l1(2), "sign-vector", (1, -1))
        back = serial.functional_from_json(l1(2), serial.functional_to_json(f))
        assert back == f


class TestQuadAndRequests:
    def test_quad_round_trip(self):
        q = gen_quad(GenSpec(l1(3), 5, "boundary"))
        data = json.loads(json.dumps(serial.quad_to_json(q)))
        assert serial.quad_from_json(data) == q

    def test_fix_request_round_trip(self):
        req = l1_request(dim=3, k=2, eps=F(1, 4), seed=1)
        data = json.loads(json.dumps(serial.fix_request_to_json(req)))
        back = serial.fix_request_from_json(data)
        assert back == req

    def test_fix_result_round_trip(self):
        req = l1_request(dim=2, k=3, eps=F(1, 4), seed=2)
        res = dispatch_fix(req)
        data = json.loads(json.dumps(serial.fix_result_to_json(res)))
        back = serial.fix_result_from_json(data)
        assert back == res


class TestCertificates:
    def test_round_trip_and_field_order(self):
        eps = F(3, 10)
        T, x0 = make_instance(l1(2), eps, 11, 0)
        cert = correct(T, x0, eps)
        data = serial.certificate_to_json(cert)
        assert list(data) == ["space", "eps", "T", "x0", "S", "u0",
                              "residuals", "isometry", "fix_label"]
        assert list(data["residuals"]) == list(serial.RESIDUAL_ORDER)
        back = serial.certificate_from_json(json.loads(json.dumps(data)))
        assert back == cert

    def test_isometry_round_trip(self):
        g = SignedPerm((2, 0, 3, 1), (1, -1, -1, 1))
        assert serial.perm_from_json(serial.perm_to_json(g)) == g

    def test_instance_round_trip(self):
        T, x0 = make_instance(l1(2), F(3, 10), 1, 0)
        data = json.loads(json.dumps(serial.instance_to_json(T, x0)))
        T2, x02 = serial.instance_from_json(data)
        assert (T2, x02) == (T, x0)
