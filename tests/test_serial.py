"""JSON round-trips for every serialized type, on both scalar backends."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from bpb4.scalars import coerce, parse_scalar, ratio_parts, scalar_to_json
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

    @pytest.mark.parametrize("backend", ["rational", "float"])
    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_are_not_scalars(self, value, backend):
        with pytest.raises(TypeError, match="booleans are not scalars"):
            parse_scalar(value, backend)

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

    def test_repeated_sparse_index_is_rejected(self):
        with pytest.raises(ValueError, match="repeated sparse index"):
            serial.yvec_from_json(l1(None), [[0, "1/2"], [0, "1/3"]])

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

    @pytest.mark.parametrize("space", [reals(), l1(2), l1(4), l1(None)],
                             ids=str)
    def test_round_trip_gives_an_equal_certificate(self, space):
        # The writer drops the zeros of finitely supported l1 vectors, so
        # equality there is equality of values, not of stored widths.
        for eps in (F(1, 10), F(3, 10), F(3, 5)):
            for index in range(12):
                cert = correct(*make_instance(space, eps, 5, index), eps)
                data = json.loads(json.dumps(serial.certificate_to_json(cert)))
                assert serial.certificate_from_json(data) == cert

    def test_isometry_round_trip(self):
        g = SignedPerm((2, 0, 3, 1), (1, -1, -1, 1))
        assert serial.perm_from_json(serial.perm_to_json(g)) == g

    def test_instance_round_trip(self):
        T, x0 = make_instance(l1(2), F(3, 10), 1, 0)
        data = json.loads(json.dumps(serial.instance_to_json(T, x0)))
        T2, x02 = serial.instance_from_json(data)
        assert (T2, x02) == (T, x0)


# The strict "p/q" reader against the general one it stands in for.
def _value_or_error(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        return ValueError


ratio_text_st = st.one_of(
    st.builds(
        "".join,
        st.tuples(st.sampled_from(["", " ", "\t"]),
                  st.sampled_from(["", "-", "+", "--", "+-", "\u2212"]),
                  st.text("0123456789_\u0663\u00b2", max_size=4),
                  st.sampled_from(["/", "/", " /", "/ ", ".", "e", "E-", ""]),
                  st.sampled_from(["", "", "-", "+"]),
                  st.text("0123456789_\u0663", max_size=4),
                  st.sampled_from(["", " ", "\n"]))),
    st.text("0123456789-+/ ._e\u0663", max_size=8))


class TestStrictReader:
    @given(ratio_text_st)
    def test_parse_scalar_agrees_with_fraction(self, text):
        expected = _value_or_error(Fraction, text)
        assert _value_or_error(parse_scalar, text) == expected
        parts = ratio_parts(text)
        if parts is not None:
            assert parts[1] > 0 and Fraction(*parts) == expected

    @pytest.mark.parametrize("text", ["1/2", "-3/6", "-0/5", "007/010"])
    def test_strict_strings_split(self, text):
        assert Fraction(*ratio_parts(text)) == Fraction(text)

    @pytest.mark.parametrize("text", [" 1/2", "+1/2", "1_0/3", "1 /2", "1/-2",
                                      "1/0", "\u0663/4", "2", "0.5", "1/2/3"])
    def test_other_strings_are_not_strict(self, text):
        assert ratio_parts(text) is None

    @given(st.data())
    def test_vector_reader_matches_per_coordinate_parsing(self, data):
        space = data.draw(st.sampled_from([l1(3), l1(None), sup_space(2),
                                           reals()]))
        value_st = st.one_of(
            st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 60)),
            st.sampled_from(["-0/3", "0/1", "2/4", "-6/8", "10/5"]),
            st.sampled_from([" 1/2", "+1/2", "0.25", "1_0/3", "3", 0.5, -0.0,
                             -2, 0, True]),
            st.sampled_from(["1/0", "x", "1 /2", None, [1]]))
        if space.infinite:
            indices = data.draw(st.lists(st.integers(0, 6), unique=True,
                                         max_size=5))
            doc = [[i, data.draw(value_st)] for i in indices]
        else:
            size = data.draw(st.sampled_from([space.dim] * 4 + [space.dim + 1]))
            doc = data.draw(st.lists(value_st, min_size=size, max_size=size))
        assert (self._outcome(lambda: serial.yvec_from_json(space, doc))
                == self._outcome(lambda: self._reference(space, doc)))

    @staticmethod
    def _reference(space, doc):
        if not space.infinite:
            return YVec(space, [parse_scalar(v) for v in doc])
        coords = [F(0)] * (1 + max((i for i, _ in doc), default=-1))
        for i, v in doc:
            coords[i] = parse_scalar(v)
        return YVec(space, coords)

    @staticmethod
    def _outcome(read):
        try:
            y = read()
        except Exception as exc:
            return type(exc)
        return y.num, y.den
