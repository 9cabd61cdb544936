"""CLI subcommands and exit codes (0 pass, 1 fail, 2 precondition, 3 usage)."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpb4 import Quad, YVec, correct, l1, lp, make_instance, reals, serial
from bpb4.cli import main, parse_space
from bpb4.scalars import FLOAT_TOL
from helpers import l1_request

F = Fraction


@pytest.fixture
def instance_file(tmp_path):
    T, x0 = make_instance(l1(2), F(3, 10), 7, 0)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(serial.instance_to_json(T, x0)))
    return str(path)


class TestParseSpace:
    def test_forms(self):
        assert parse_space("r") == reals()
        assert parse_space("l1:3") == l1(3)
        assert parse_space("l1:inf") == l1(None)
        assert parse_space("lp:2:4") == lp(2, 4)

    def test_bad_family_is_usage_error(self):
        from bpb4.cli import UsageError
        with pytest.raises(UsageError):
            parse_space("zz:3")


class TestCorrectAndVerify:
    def test_correct_then_verify(self, instance_file, tmp_path, capsys):
        cert_path = str(tmp_path / "cert.json")
        assert main(["correct", instance_file, "--eps", "3/10",
                     "--out", cert_path]) == 0
        assert main(["verify", cert_path]) == 0
        out = capsys.readouterr().out
        assert "PASS attainment" in out

    def test_lp_certificate_verifies_after_rational_round_trip(self, tmp_path,
                                                                capsys):
        # The JSON turns lp float coordinates into Fractions, but lp norms
        # stay floats, so admissibility is judged within the float tolerance.
        T, x0 = make_instance(lp(2, 3), F(3, 10), 0, 0)
        inst_path = tmp_path / "lp.json"
        inst_path.write_text(json.dumps(serial.instance_to_json(T, x0)))
        cert_path = str(tmp_path / "cert.json")
        assert main(["correct", str(inst_path), "--eps", "3/10",
                     "--out", cert_path]) == 0
        assert main(["verify", cert_path]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_verify_rejects_tampered_certificate(self, instance_file, tmp_path):
        cert_path = str(tmp_path / "cert.json")
        main(["correct", instance_file, "--eps", "3/10", "--out", cert_path])
        data = json.loads(open(cert_path).read())
        data["u0"][3] = "4/1"
        open(cert_path, "w").write(json.dumps(data))
        assert main(["verify", cert_path]) == 1

    def test_three_isometry_signs_is_exit_two(self, instance_file, tmp_path,
                                              capsys):
        cert_path = tmp_path / "cert.json"
        main(["correct", instance_file, "--eps", "3/10", "--out", str(cert_path)])
        data = json.loads(cert_path.read_text())
        data["isometry"]["signs"] = data["isometry"]["signs"][:3]
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", str(cert_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: signs must be four entries")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_precondition_failure_is_exit_two(self, tmp_path):
        # Operator attains too far from the requested point.
        sp = l1(1)
        T = Quad((YVec(sp, (1,)), YVec(sp, (F(1, 2),)),
                  YVec(sp, (F(1, 2),)), YVec(sp, (F(1, 2),))))
        path = tmp_path / "bad.json"
        from bpb4 import vertex
        path.write_text(json.dumps(serial.instance_to_json(T, vertex(4))))
        assert main(["correct", str(path), "--eps", "3/10"]) == 2

    def test_bad_eps_is_exit_two(self, instance_file):
        assert main(["correct", instance_file, "--eps", "2"]) == 2

    def test_missing_file_is_usage_error(self):
        assert main(["correct", "/nonexistent.json", "--eps", "1/4"]) == 3

    def test_float_eta_below_double_precision_is_exit_two(self, tmp_path, capsys):
        # On lp:10:2, eta(3/10) is about 2.4e-29: 1 - eta rounds to 1 in
        # double precision, and lp's eta is a float on the rational backend too.
        T, x0 = make_instance(lp(10, 2), 0.3, 0, 0)
        path = tmp_path / "lp.json"
        path.write_text(json.dumps(serial.instance_to_json(T, x0)))
        for backend in ("float", "rational"):
            assert main(["--backend", backend, "correct", str(path),
                         "--eps", "3/10"]) == 2
            err = capsys.readouterr().err
            assert "below double precision" in err
            assert "rational backend" not in err

    @pytest.mark.parametrize("eps", ["1/10", "3/10"])
    def test_float_finitely_supported_l1_is_exit_zero(self, eps, tmp_path):
        # These exited 2 while l1:inf paid for a dense limit in its eta.
        T, x0 = make_instance(l1(None), F(eps), 0, 0)
        inst, cert = tmp_path / "inf.json", tmp_path / "cert.json"
        inst.write_text(json.dumps(serial.instance_to_json(T, x0)))
        assert main(["--backend", "float", "correct", str(inst),
                     "--eps", eps, "--out", str(cert)]) == 0
        assert main(["--backend", "float", "verify", str(cert)]) == 0
        out = tmp_path / "s.csv"
        assert main(["--backend", "float", "sweep", "--space", "l1:inf",
                     "--eps", eps, "--count", "3", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4


class TestNoTracebacks:
    """Bad numbers and unwritable outputs are usage errors (exit 3)."""

    def _assert_usage_error(self, argv, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(("usage error:", "malformed input:"))
        assert "Traceback" not in err

    def test_correct_zero_denominator_eps(self, instance_file, capsys):
        self._assert_usage_error(["correct", instance_file, "--eps", "1/0"], capsys)

    def test_sweep_zero_denominator_eps(self, tmp_path, capsys):
        self._assert_usage_error(["sweep", "--space", "l1:2", "--eps", "1/0",
                                  "--count", "1", "--out",
                                  str(tmp_path / "s.csv")], capsys)

    def test_gen_zero_denominator_exponent(self, capsys):
        self._assert_usage_error(["gen", "--space", "lp:1/0:2", "--seed", "0"],
                                 capsys)

    def test_correct_unwritable_out(self, instance_file, tmp_path, capsys):
        out = str(tmp_path / "missing-dir" / "c.json")
        self._assert_usage_error(["correct", instance_file, "--eps", "3/10",
                                  "--out", out], capsys)

    def test_sweep_unwritable_out(self, tmp_path, capsys):
        out = str(tmp_path / "missing-dir" / "s.csv")
        self._assert_usage_error(["sweep", "--space", "l1:2", "--eps", "3/10",
                                  "--count", "1", "--out", out], capsys)

    def test_sweep_negative_count(self, tmp_path, capsys):
        self._assert_usage_error(["sweep", "--space", "l1:2", "--eps", "3/10",
                                  "--count", "-3", "--out",
                                  str(tmp_path / "s.csv")], capsys)

    @pytest.mark.parametrize("eps", ["0", "1", "-1/2", "3/2"])
    def test_sweep_eps_outside_unit_interval_is_exit_two(self, eps, tmp_path,
                                                        capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--space", "l1:2", "--eps", f"1/10,{eps}",
                     "--count", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: eps must lie in (0, 1)")
        assert not out.exists()

    def test_float_nan_coordinate(self, tmp_path, capsys):
        T, x0 = make_instance(l1(2), F(3, 10), 0, 0)
        data = serial.instance_to_json(T, x0, "float")
        data["T"]["ys"][2][0] = float("nan")  # json writes the NaN literal
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        self._assert_usage_error(["--backend", "float", "correct", str(path),
                                  "--eps", "3/10"], capsys)

    @pytest.mark.parametrize("space, backend, path, value, code", [
        (l1(None), "rational", ("T", "ys", 1), [[-10, "1/2"]], 3),
        (l1(None), "rational", ("T", "ys", 1), [[0, "1/2"], [0, "1/3"]], 3),
        (l1(None), "rational", ("T", "ys", 1), [[10**9, "1/2"]], 3),
        (l1(2), "rational", ("T", "ys", 0, 1), float("inf"), 3),
        (lp(2, 3), "float", ("T", "ys", 0, 1), "1e400", 3),  # not a double
        (lp(2, 3), "rational", ("T", "ys", 0, 1), 1e300, 2),  # square overflows
        (lp(2, 3), "rational", ("T", "space", "p"), "1e400", 2),
        (l1(2), "rational", ("T", "ys", 0, 1), True, 3),
        (l1(2), "float", ("x0", 2), False, 3),
    ], ids=["negative-sparse-index", "repeated-sparse-index", "huge-sparse-index",
            "infinity-literal", "float-beyond-double", "lp-norm-beyond-double",
            "lp-exponent-beyond-double", "true-coordinate", "false-x0-coordinate"])
    def test_bad_number_in_instance(self, space, backend, path, value, code,
                                    tmp_path, capsys):
        T, x0 = make_instance(space, F(3, 10), 0, 0)
        data = serial.instance_to_json(T, x0)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value  # json writes inf as the Infinity literal
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(data))
        assert main(["--backend", backend, "correct", str(file),
                     "--eps", "3/10"]) == code
        err = capsys.readouterr().err
        assert err.startswith("malformed input:" if code == 3 else "error:")
        assert "Traceback" not in err


class TestGen:
    def test_deterministic_output(self, capsys):
        assert main(["gen", "--space", "l1:3", "--seed", "4",
                     "--mode", "boundary"]) == 0
        first = capsys.readouterr().out
        main(["gen", "--space", "l1:3", "--seed", "4", "--mode", "boundary"])
        assert capsys.readouterr().out == first

    def test_bad_space_is_usage_error(self):
        assert main(["gen", "--space", "bogus:1", "--seed", "0"]) == 3

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 3


class TestSweepCommand:
    def test_byte_identical_runs(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["sweep", "--space", "l1:2", "--eps", "1/10,3/10",
                "--count", "2", "--seed", "3"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


    def test_float_eta_below_double_precision_is_exit_two(self, tmp_path, capsys):
        # As in `correct`: on lp:10:2, 1 - eta(3/10) rounds to 1 in double
        # precision, and the sweep says so before generating any instance.
        out = tmp_path / "f.csv"
        assert main(["--backend", "float", "sweep", "--space", "lp:10:2",
                     "--eps", "3/10", "--count", "3", "--out", str(out)]) == 2
        assert "below double precision" in capsys.readouterr().err
        assert not out.exists()


class TestBackendsAgree:
    """The float backend corrects l1 instances as the rational backend does."""

    @pytest.mark.parametrize("space", ["l1:2", "l1:4"])
    @pytest.mark.parametrize("eps", ["1/10", "3/10", "3/5"])
    def test_same_fix_and_residuals(self, space, eps, tmp_path):
        inst = tmp_path / "instance.json"
        for index in range(4):
            T, x0 = make_instance(parse_space(space), F(eps), 0, index)
            inst.write_text(json.dumps(serial.instance_to_json(T, x0)))
            certs = {}
            for backend in ("rational", "float"):
                out = tmp_path / f"{backend}.json"
                assert main(["--backend", backend, "correct", str(inst),
                             "--eps", eps, "--out", str(out)]) == 0
                certs[backend] = json.loads(out.read_text())
            exact, approx = certs["rational"], certs["float"]
            assert approx["fix_label"] == exact["fix_label"]
            for name, value in exact["residuals"].items():
                assert abs(float(F(value)) - approx["residuals"][name]) <= FLOAT_TOL


class TestCheckAhsp:
    def test_valid_request_passes(self, tmp_path):
        req = l1_request(dim=2, k=3, eps=F(1, 4), seed=0)
        path = tmp_path / "req.json"
        path.write_text(json.dumps(serial.fix_request_to_json(req)))
        assert main(["check-ahsp", str(path)]) == 0

    def test_insufficient_slack_is_exit_two(self, tmp_path):
        req = l1_request(dim=2, k=2, eps=F(1, 4), seed=0)
        data = serial.fix_request_to_json(req)
        data["quad"]["ys"][0] = ["1/2", "0/1"]  # destroy the pairing slack
        path = tmp_path / "req.json"
        path.write_text(json.dumps(data))
        assert main(["check-ahsp", str(path)]) == 2

    def test_inadmissible_quad_is_exit_two(self, tmp_path, capsys):
        sp = l1(2)
        big = YVec(sp, (F(9, 8), 0))  # every pairing clears its slack
        data = {"quad": serial.quad_to_json(Quad((big,) * 4)),
                "functional": {"kind": "sign-vector", "coords": [1, 1]},
                "active": [1, 2, 3, 4], "eps": "1/4"}
        path = tmp_path / "req.json"
        path.write_text(json.dumps(data))
        assert main(["check-ahsp", str(path)]) == 2
        assert "admissible" in capsys.readouterr().err


    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_functional_outside_dual_ball_is_exit_two(self, tmp_path, capsys,
                                                       backend):
        sp = lp(2, 2)
        z = YVec(sp, (0, 0))
        q = Quad((YVec(sp, (F(1, 2), 0)), YVec(sp, (0, F(1, 2))), z, z))
        data = {"quad": serial.quad_to_json(q),
                "functional": {"kind": "dual-coordinates", "coords": [10.0, 10.0]},
                "active": [1, 2], "eps": "1/10"}
        path = tmp_path / "req.json"
        path.write_text(json.dumps(data))
        assert main(["--backend", backend, "check-ahsp", str(path)]) == 2
        assert "dual unit ball" in capsys.readouterr().err


class TestBruteSearch:
    def _write(self, tmp_path, ys, active, eps):
        sp = reals()
        q = Quad(tuple(YVec(sp, (F(c),)) for c in ys))
        path = tmp_path / "search.json"
        path.write_text(json.dumps({"quad": serial.quad_to_json(q),
                                    "active": sorted(active), "eps": eps}))
        return str(path)

    def test_finds_attainer(self, tmp_path, capsys):
        path = self._write(tmp_path, (1 - F(1, 1000), 1, -1, -1), {1, 2}, "1/10")
        assert main(["brute-search", path, "--grid", "9"]) == 0
        assert json.loads(capsys.readouterr().out)["found"]

    @pytest.mark.parametrize("index", [float("inf"), 1.5, "2", True])
    def test_non_integer_active_index_is_usage_error(self, index, tmp_path,
                                                      capsys):
        path = self._write(tmp_path, (1 - F(1, 1000), 1, -1, -1), {1, 2}, "1/10")
        data = json.loads(open(path).read())
        data["active"][1] = index  # json writes inf as the Infinity literal
        open(path, "w").write(json.dumps(data))
        assert main(["brute-search", path, "--grid", "9"]) == 3
        assert capsys.readouterr().err.startswith("malformed input:")

    @pytest.mark.parametrize("eps", ["-1/10", "0/1", "3/1"])
    def test_eps_outside_unit_interval_is_exit_two(self, eps, tmp_path, capsys):
        path = self._write(tmp_path, (1 - F(1, 1000), 1, -1, -1), {1, 2}, eps)
        assert main(["brute-search", path, "--grid", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: eps must lie in (0, 1)")
        assert captured.out == ""

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_nonpositive_grid_is_exit_two(self, grid, tmp_path, capsys):
        path = self._write(tmp_path, (1 - F(1, 1000), 1, -1, -1), {1, 2}, "1/10")
        assert main(["brute-search", path, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: grid resolution must be at least 1")
        assert captured.out == ""

    def test_inconclusive_is_exit_one(self, tmp_path, capsys):
        path = self._write(tmp_path, (F(1, 2), F(1, 3), F(-1, 2), F(-1, 2)),
                           {1, 2}, "1/100")
        assert main(["brute-search", path, "--grid", "3"]) == 1


INSTANCES = tuple(
    serial.instance_to_json(*make_instance(parse_space(name), F(3, 10), 0, 0))
    for name in ("l1:2", "l1:inf", "r", "lp:2:3"))
CERTIFICATES = tuple(
    serial.certificate_to_json(correct(*serial.instance_from_json(inst), F(3, 10)))
    for inst in INSTANCES)
REQUESTS = tuple(serial.fix_request_to_json(l1_request(dim=2, k=k, eps=F(1, 4),
                                                       seed=0))
                 for k in (1, 3))
SEARCHES = tuple(
    {"quad": serial.quad_to_json(Quad(tuple(YVec(sp, (F(c),)) for c in ys))),
     "active": [1, 2], "eps": "1/10"}
    for sp, ys in ((reals(), (1 - F(1, 1000), 1, -1, -1)),
                   (l1(1), (F(1, 2), F(1, 3), F(-1, 2), F(-1, 2)))))

# Values a mutation puts in place of any node.  Integers stay small: a sparse
# l1 index of n builds an n-entry list.
junk_st = st.one_of(
    st.none(), st.booleans(), st.integers(-64, 64),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 0.5,
                     1e300, 1e-300]),
    st.sampled_from(["", "x", "1/0", "inf", "nan", "1e400", "-3/10", "2/1"]),
    st.lists(st.integers(-64, 64), max_size=3),
    st.just({}))
space_st = st.fixed_dictionaries(
    {"family": st.sampled_from(["l1", "lp", "r", "sup", "l2"])},
    optional={"dim": st.one_of(st.integers(-1, 64),
                               st.sampled_from(["inf", "x", None, 1.5])),
              "p": st.sampled_from(["2/1", "3/2", "1/1", "0/1", "1/0", 2.0,
                                    float("inf"), "x"])})


def _nodes(node, path=()):
    """(path, value) for every node below the root of a JSON tree."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _mutate(draw, doc):
    """Apply one to three mutations: drop a key, replace a node with junk or
    a bad space, or cut a list short."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        if not nodes:
            break
        path, value = draw(st.sampled_from(nodes))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["drop", "junk", "space", "short"]))
        if kind == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        elif kind == "short" and isinstance(value, list) and value:
            del value[draw(st.integers(0, len(value) - 1)):]
        elif kind == "space":
            parent[path[-1]] = draw(space_st)
        else:
            parent[path[-1]] = draw(junk_st)
    return doc


class TestMutatedJson:
    """Mutated instance, certificate, request and search files never raise
    out of ``main``; ``correct`` never reports a verification failure
    (exit 1)."""

    @given(st.data())
    @settings(max_examples=150)
    def test_correct(self, tmp_path_factory, data):
        doc = _mutate(data.draw, data.draw(st.sampled_from(INSTANCES)))
        backend = data.draw(st.sampled_from(["rational", "float"]))
        eps = data.draw(st.sampled_from(["3/10", "1/10", "0", "inf", "1/0"]))
        path = tmp_path_factory.mktemp("fuzz") / "instance.json"
        path.write_text(json.dumps(doc))
        assert main(["--backend", backend, "correct", str(path),
                     "--eps", eps]) in (0, 2, 3)

    @given(st.data())
    @settings(max_examples=150)
    def test_verify(self, tmp_path_factory, data):
        doc = _mutate(data.draw, data.draw(st.sampled_from(CERTIFICATES)))
        backend = data.draw(st.sampled_from(["rational", "float"]))
        path = tmp_path_factory.mktemp("fuzz") / "certificate.json"
        path.write_text(json.dumps(doc))
        assert main(["--backend", backend, "verify", str(path)]) in (0, 1, 2, 3)

    @given(st.data())
    @settings(max_examples=150)
    def test_check_ahsp(self, tmp_path_factory, data):
        doc = _mutate(data.draw, data.draw(st.sampled_from(REQUESTS)))
        backend = data.draw(st.sampled_from(["rational", "float"]))
        path = tmp_path_factory.mktemp("fuzz") / "request.json"
        path.write_text(json.dumps(doc))
        assert main(["--backend", backend, "check-ahsp", str(path)]) in (0, 1, 2, 3)

    @given(st.data())
    @settings(max_examples=150)
    def test_brute_search(self, tmp_path_factory, data):
        doc = _mutate(data.draw, data.draw(st.sampled_from(SEARCHES)))
        backend = data.draw(st.sampled_from(["rational", "float"]))
        path = tmp_path_factory.mktemp("fuzz") / "search.json"
        path.write_text(json.dumps(doc))
        assert main(["--backend", backend, "brute-search", str(path),
                     "--grid", "5"]) in (0, 1, 2, 3)
