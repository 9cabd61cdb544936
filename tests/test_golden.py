"""Byte-identity gate: pinned SHA-256 digests of certificate JSON, of the
checker's report on those certificates, and of sweep CSVs.

Certificates come from ``make_instance`` cases written the way ``bpb4
correct`` writes them (instance JSON round trip, then ``certificate_to_json``
rendered with ``json.dumps(..., indent=2)``); the report is the stdout of
``bpb4 verify`` on each of them; CSVs are ``sweep`` output.  A change to any
of these bytes must be deliberate: update the digest and record the reason
in CHANGES.md.  The pinned l1:inf certificates are also accepted by
``bench/refcheck.py``, a checker that shares no code with the package.
"""

import hashlib
import importlib.util
import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from bpb4 import correct, l1, lp, make_instance, reals, serial, sweep
from bpb4.cli import main
from bpb4.scalars import parse_scalar

EPS_TEXTS = ("1/10", "3/10", "3/5")
EPS = tuple(Fraction(e) for e in EPS_TEXTS)
CASES = 12  # make_instance indices per eps

CERTIFICATE_DIGESTS = {  # name: (space, backend, sha256)
    "r": (reals(), "rational",
        "0be925921ef30868bd6947e6e9a88bd70ff3fa935c548efae0fd95d2b11bdd31"),
    "l1:2": (l1(2), "rational",
        "21cf2b66fc387a375eaee81743a0eb15e567f8815480efcd2e5074e59bca456d"),
    "l1:4": (l1(4), "rational",
        "e8c40fc68889b3ac0811cf5008bd04e3e3ff67ea0661deedd7887eadc8b88935"),
    "l1:inf": (l1(None), "rational",
        "2a41e99fb2ac910402c887285b1d58089bef5d326d783baa6cd68d3f8f6fd008"),
    "lp:2:3": (lp(2, 3), "float",
        "44e210bcf1523c25c53be888ea5f7a5f8f2b3516ccefc6843d3aa0b4ae90e7e6"),
}

VERIFY_DIGESTS = {  # name: sha256 of `bpb4 verify` stdout, certificate by certificate
    "r":
        "c6fe4ede514fb9567a179773cdd965ce228af3381c230d0a27da4e95089febbf",
    "l1:2":
        "dba8e9ce42a51b41652267869456735f6c6878fcca8b634fc8c015d16da64fd2",
    "l1:4":
        "7fe6ab253cf44a310da8489393a77daf544f4104e291e34576b47d3b898b92de",
    "l1:inf":
        "4ad85badb3d33207f3755352c316c925ab83a9162341ef342a293ca0d400c1bf",
    "lp:2:3":
        "b021dad7f5627e508106eb3308dff865d0750c7273444d7ea9e165b59f83f3df",
}

SWEEP_COUNT = 20
SWEEP_DIGESTS = {  # name: (space, sha256)
    "l1:2": (l1(2),
        "b191e092bd6f3101eaa19c6d00c81fdba89fce1e8fb32849a5423f265cd8f9d5"),
    "l1:4": (l1(4),
        "2a3cad10e3c69ac218fe109610d82fc2fdc5fc7545570f1fcaaf1acd92d0ffe3"),
    "l1:inf": (l1(None),
        "e635fdd1b4fbac53489cdcccbf407ad13de9684f80e1020172a93239f8f6d83b"),
    "r": (reals(),
        "31cf693c74a39b3381a3ed8f015c3fece14f969dd8be84000d0fc6ac43fa0154"),
    "lp:2:3": (lp(2, 3),
        "f24ed53b0d6563439f71f251887c7a9e555b12d1feaf60c2d862017007d7ce4c"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def certificate_texts(space, backend: str):
    parts = []
    for eps_text, eps in zip(EPS_TEXTS, EPS):
        for index in range(CASES):
            T, x0 = make_instance(space, eps, 0, index)
            data = json.loads(json.dumps(serial.instance_to_json(T, x0)))
            T, x0 = serial.instance_from_json(data, backend)
            cert = correct(T, x0, parse_scalar(eps_text, backend))
            parts.append(json.dumps(serial.certificate_to_json(cert, backend),
                                    indent=2))
    return tuple(parts)


def certificates_text(space, backend: str) -> str:
    return "\n".join(certificate_texts(space, backend)) + "\n"


@pytest.mark.parametrize("name", sorted(CERTIFICATE_DIGESTS))
def test_certificate_bytes(name):
    space, backend, digest = CERTIFICATE_DIGESTS[name]
    assert _sha(certificates_text(space, backend)) == digest


@pytest.mark.parametrize("name", sorted(VERIFY_DIGESTS))
def test_verify_report_bytes(name, tmp_path, capsys):
    space, backend, _ = CERTIFICATE_DIGESTS[name]
    path = tmp_path / "certificate.json"
    report = []
    for text in certificate_texts(space, backend):
        path.write_text(text + "\n")
        assert main(["--backend", backend, "verify", str(path)]) == 0
        report.append(capsys.readouterr().out)
    assert _sha("".join(report)) == VERIFY_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_sweep_csv_bytes(name):
    space, digest = SWEEP_DIGESTS[name]
    csv_text = sweep(space, EPS, SWEEP_COUNT, seed=0)[1]
    assert _sha(csv_text) == digest


def test_finitely_supported_l1_certificates_pass_refcheck():
    path = Path(__file__).resolve().parent.parent / "bench" / "refcheck.py"
    spec = importlib.util.spec_from_file_location("refcheck", path)
    refcheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(refcheck)
    space, backend, _ = CERTIFICATE_DIGESTS["l1:inf"]
    texts = certificate_texts(space, backend)
    assert len(texts) == len(EPS) * CASES
    for text in texts:
        assert refcheck.check_certificate(json.loads(text)) == []
