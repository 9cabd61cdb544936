"""bpb4 benchmark: certified corrections and attainment searches per CPU second.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload l1-exact --seed 3 --seconds 20 --trace 0

Workloads (bench/README.md says why each exists):

- ``l1-exact``: ``correct`` -> certificate JSON -> ``verify_certificate``
  over l1:4 and l1:inf on the rational backend;
- ``uc-float``: the same over lp:2:3, lp:3/2:2 (float coordinates) and r,
  plus fixed probes of the lp rational round-trip false rejection;
- ``brute-search``: ``brute_ahsp_search`` on near-face quadruples over r
  and l1:1, plus companion corrections over the same spaces.

The seed only feeds the input generators; bpb4 receives the generated
instances.  A run repeats whole rounds over the same inputs until
``--seconds`` of wall time have passed.  Every output is checked by
``refcheck``, which shares no code with bpb4.  Times are process CPU time
scaled to a reference machine speed (see ``speed``).  The last line of
standard output is one JSON object: end-to-end metrics, or with
``--trace 1`` per-layer metrics.  Result and span files go to bench/out/.
"""

from __future__ import annotations

import argparse
from array import array
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import refcheck
from spans import Tracer
from speed import SpeedSampler, clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

EPS_GRID = (Fraction(1, 10), Fraction(3, 10), Fraction(3, 5))

#: Active sets for brute-search.  Each holds index 1, the outermost slot of
#: the enumeration, so every search walks nearly the whole grid product and
#: costs about the same; sets without it finish 10-100x sooner.
SEARCH_ACTIVE = ((1, 2), (1, 3), (1, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4),
                 (1, 2, 3, 4))
SEARCH_GRID = 12
SEARCH_EPS = Fraction(1, 10)
#: Near-face slack: every y_i lies within SEARCH_SLACK/4 < SEARCH_EPS of 1,
#: so each grid reaches the point 1 and the search always finds an attainer.
SEARCH_SLACK = Fraction(1, 10)

#: Seed-independent lp instances, (space, eps, index) at generator seed 0,
#: whose certificates verify_certificate rejects after the rational JSON
#: round trip (corrected_admissible slack of about -1e-15).
PROBES = (("lp:2:3", Fraction(3, 10), 0), ("lp:2:3", Fraction(3, 5), 1),
          ("lp:3/2:2", Fraction(1, 10), 0), ("lp:3/2:2", Fraction(3, 10), 2),
          ("lp:3/2:2", Fraction(3, 5), 1))

# Per-layer metrics: (metric, record name, field), per correction instance ...
CORRECTION_LAYERS = (
    ("certify.correct.self_ms", "certify.correct", "self_s"),
    ("certify.verify_certificate.self_ms", "certify.verify_certificate", "self_s"),
    ("cube.reduce_to_base.ms", "cube.reduce_to_base", "s"),
    ("fixes.convex_fix.self_ms", "fixes.convex_fix", "self_s"),
    ("fixes.singleton_fix.ms", "fixes.singleton_fix", "s"),
    ("fixes.l1_fix.self_ms", "fixes.l1_fix", "self_s"),
    ("fixes.dense_lift.self_ms", "fixes.dense_lift", "self_s"),
    ("fixes.repair_nonnegative.ms", "fixes.repair_nonnegative", "s"),
    ("fixes.uniformly_convex_fix.self_ms", "fixes.uniformly_convex_fix", "self_s"),
    ("quadop.op_norm.calls", "quadop.op_norm", "calls"),
    ("quadop.op_norm.ms", "quadop.op_norm", "s"),
    ("quadop.check_membership.calls", "quadop.check_membership", "calls"),
    ("quadop.check_membership.ms", "quadop.check_membership", "s"),
    ("quadop.apply.calls", "quadop.apply", "calls"),
    ("quadop.apply.ms", "quadop.apply", "s"),
    ("spaces.norm.calls", "spaces.norm", "calls"),
    ("spaces.norm.ms", "spaces.norm", "s"),
    ("spaces.support_functional.ms", "spaces.support_functional", "s"),
    ("scalars.coerce.calls", "scalars.coerce", "calls"),
    ("serial.certificate_to_json.ms", "serial.certificate_to_json", "s"),
    ("serial.certificate_from_json.ms", "serial.certificate_from_json", "s"),
)
# ... and per search.
SEARCH_LAYERS = (
    ("harness.brute_ahsp_search.ms", "harness.brute_ahsp_search", "s"),
    ("harness.brute_search.combos", "harness.active_sum_norm", "calls"),
    ("harness.brute_search.membership_checks", "harness.check_membership", "calls"),
)


@dataclass
class Lib:
    certify: object
    cli: object
    cube: object
    fixes: object
    harness: object
    quadop: object
    serial: object
    spaces: object


def load_program() -> Lib:
    """Import bpb4 from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "bpb4" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bpb4 sources under {src}")
    sys.path.insert(0, str(src))
    import bpb4
    from bpb4 import certify, cli, cube, fixes, harness, quadop, serial, spaces
    if Path(bpb4.__file__).resolve().parent != src / "bpb4":
        raise SystemExit(f"bench: imported bpb4 from {bpb4.__file__}, not {src}")
    return Lib(certify, cli, cube, fixes, harness, quadop, serial, spaces)


@dataclass
class Op:
    """One operation of a round: a correction instance or a brute search."""

    space: object
    eps: Fraction
    T: object = None  # correction: operator quadruple and point
    x0: object = None
    backend: str = "rational"
    audit: bool = False  # also search the certificate's lifted attainer
    quad: object = None  # search: quadruple and active set
    active: tuple = ()


def build_ops(lib: Lib, workload: str, seed: int):
    """The operations of one round, generated from the seed."""
    space = lib.cli.parse_space

    def corrections(names, per_cell, backend=lambda sp: "rational",
                    audit=lambda sp: False):
        ops = []
        for name in names:
            sp = space(name)
            for eps in EPS_GRID:
                for i in range(per_cell):
                    T, x0 = lib.harness.make_instance(sp, eps, seed, i)
                    ops.append(Op(sp, eps, T, x0, backend(sp), audit(sp)))
        return ops

    if workload == "l1-exact":
        return corrections(("l1:4", "l1:inf"), 80,
                           audit=lambda sp: not sp.infinite)
    if workload == "uc-float":
        ops = corrections(("lp:2:3", "lp:3/2:2", "r"), 80,
                          backend=lambda sp: "float" if sp.family == "lp"
                          else "rational",
                          audit=lambda sp: sp.family == "r")
        for name, eps, index in PROBES:
            T, x0 = lib.harness.make_instance(space(name), eps, 0, index)
            ops.append(Op(space(name), eps, T, x0))
        return ops
    if workload == "brute-search":
        searches = []
        for k, active in enumerate(SEARCH_ACTIVE):
            sp = space(("r", "l1:1")[k % 2])
            spec = lib.harness.GenSpec(sp, seed * 100 + k, "near-face",
                                       SEARCH_SLACK)
            searches.append(Op(sp, SEARCH_EPS, active=active,
                               quad=lib.harness.gen_quad(spec)))
        # Companion corrections run in slices between the searches, so that
        # their samples spread over the whole run like the searches' do.
        companions = corrections(("r", "l1:1"), 80)
        step = -(-len(companions) // len(searches))
        return [op for k, search in enumerate(searches)
                for op in [search] + companions[k * step:(k + 1) * step]]
    raise SystemExit(f"bench: unknown workload {workload!r}")


@dataclass
class Outcome:
    ok: bool = True  # False: the program rejected its own output
    text: str = ""  # certificate JSON, or the search result's coordinates
    found: object = None  # search result as coordinate tuples
    correct: tuple = ()  # CPU clock intervals (start, end) of the timed calls
    verify: tuple = ()
    search: tuple = ()
    label: str = ""
    problems: tuple = ()  # reference-checker findings on the audit search


def _coords(q):
    return [tuple(y.coords) for y in q.ys]


def run_op(lib: Lib, op: Op) -> Outcome:
    """Run one operation; time only the calls into bpb4."""
    certify, serial, harness = lib.certify, lib.serial, lib.harness
    if op.quad is not None:
        start = clock()
        found = harness.brute_ahsp_search(op.quad, op.active, op.eps,
                                          resolution=SEARCH_GRID)
        search = (start, clock())
        if found is None:
            return Outcome(ok=False, search=search)
        found = _coords(found)
        return Outcome(text=repr(found), found=found, search=search)

    t0 = clock()
    cert = certify.correct(op.T, op.x0, op.eps)
    text = json.dumps(serial.certificate_to_json(cert, op.backend))
    t1 = clock()
    report = certify.verify_certificate(
        serial.certificate_from_json(json.loads(text), op.backend))
    t2 = clock()
    out = Outcome(ok=report.ok, text=text, correct=(t0, t1), verify=(t1, t2),
                  label=cert.fix_label)
    if op.audit and report.ok:
        # The certificate's S o g attains on the support of g^-1 u0, so the
        # search returns its input at once: enumeration is bypassed here.
        # A lift that does not attain is a wrong certificate; it is reported
        # instead of being searched (that search could take minutes).
        space = serial.space_to_json(op.space)
        zs, active = refcheck.lifted_attainer(json.loads(text))
        out.problems = tuple(refcheck.check_attainer(space, zs, zs, active,
                                                     op.eps))
        if out.problems:
            return out
        lifted = lib.quadop.Quad([lib.spaces.YVec(op.space, z) for z in zs])
        start = clock()
        found = harness.brute_ahsp_search(lifted, active, op.eps,
                                          resolution=SEARCH_GRID)
        out.search = (start, clock())
        if found is None:
            out.ok = False
        else:
            out.problems = tuple(refcheck.check_attainer(
                space, zs, _coords(found), active, op.eps))
    return out


def check_op(lib: Lib, op: Op, out: Outcome):
    """Reference-check one output (certificate or search result)."""
    space = lib.serial.space_to_json(op.space)
    if op.quad is not None:
        return refcheck.check_attainer(space, _coords(op.quad), out.found,
                                       op.active, op.eps)
    eps = op.eps if op.backend == "rational" else float(op.eps)
    return refcheck.check_certificate(json.loads(out.text), T=_coords(op.T),
                                      x0=op.x0.coords, eps=eps)


class Run:
    """Samples and counts gathered over the rounds of one run.

    Each round is turned into reference times as soon as it ends, so that
    what the run keeps grows by a few numbers per operation and round.
    """

    def __init__(self, lib: Lib, ops, sampler: SpeedSampler):
        self.lib, self.ops, self.sampler = lib, ops, sampler
        self.attempted = self.failed = 0
        self.times = defaultdict(lambda: defaultdict(lambda: array("d")))
        self.certs, self.cert_s = 0, 0.0  # certificates, reference seconds
        self.sizes = {}  # op index -> certificate bytes
        self.labels = Counter()  # fix labels of the first round
        self.problems = []
        self.errors = []
        self.checked = {}  # op index -> output text the checker accepted
        self.last = {}  # op index -> (output text, reference s), latest round
        self.mismatches = 0  # traced outputs that differ from the round before
        self.overhead_s = []  # per traced round: mean traced - untraced op time
        self.factors = {}  # (round, op index) -> speed factor, traced rounds

    def round(self, number: int, tracer: Optional[Tracer] = None):
        """Run every operation once, reference-check it and account it."""
        done = []
        for index, op in enumerate(self.ops):
            self.attempted += 1
            if tracer is not None:
                tracer.op = (number, index)
            try:
                out = run_op(self.lib, op)
            except Exception:  # a fault of the program: count it, keep going
                self.failed += 1
                self.errors.append(traceback.format_exc())
                continue
            finally:
                if tracer is not None:
                    tracer.op = None
            self.failed += not out.ok
            self._check(index, op, out)
            done.append((index, out))
        self._account(number, done, tracer is not None)

    def _check(self, index, op, out):
        if out.problems:
            self.problems.append((index, list(out.problems)))
        if out.text and self.checked.get(index) != out.text:
            found = check_op(self.lib, op, out)
            if found:
                self.problems.append((index, found))
            else:
                self.checked[index] = out.text

    def _account(self, number, done, traced):
        last, self.last = self.last, {}
        extra = []
        for index, out in done:
            spans = {"correct": out.correct, "verify": out.verify,
                     "search": out.search}
            t = {kind: self.sampler.reference(*span)
                 for kind, span in spans.items() if span}
            op_s = sum(t.values())
            self.last[index] = (out.text, op_s)
            if traced:
                cpu = sum(b - a for a, b in filter(None, spans.values()))
                self.factors[number, index] = op_s / cpu
                text, before = last.get(index, (None, None))
                self.mismatches += text != out.text
                if before is not None:
                    extra.append(op_s - before)
            if not out.ok:
                continue
            for kind, seconds in t.items():
                self.times[kind][index].append(1000.0 * seconds)
            if out.verify:
                self.certs += 1
                self.cert_s += t["correct"] + t["verify"]
                self.sizes[index] = len(out.text.encode())
                if number == 0:
                    self.labels[out.label] += 1
        if traced:
            self.overhead_s.append(sum(extra) / len(self.ops))

    def per_instance(self, kind):
        """Each instance's median over the rounds, in ms."""
        return [statistics.median(v) for v in self.times[kind].values()]

    def end_to_end(self, setup_s):
        """The end-to-end metrics; 0 where every operation failed."""
        correct, verify = self.per_instance("correct"), self.per_instance("verify")
        median = lambda xs: statistics.median(xs) if xs else 0.0
        p95 = lambda xs: statistics.quantiles(xs, n=20)[-1] if len(xs) > 1 else 0.0
        return {
            "setup_s": (setup_s, "s"),
            "correct_ms": (median(correct), "ms"),
            "correct_ms_p95": (p95(correct), "ms"),
            "verify_ms": (median(verify), "ms"),
            "verify_ms_p95": (p95(verify), "ms"),
            "certs_per_s": (self.certs / self.cert_s if self.certs else 0.0, "1/s"),
            "cert_bytes": (median(list(self.sizes.values())), "bytes"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "search_ms": (median(self.per_instance("search")), "ms"),
        }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_tracer(lib: Lib) -> Tracer:
    t = Tracer()
    c, f, s, h = lib.certify, lib.fixes, lib.serial, lib.harness
    for module, attr, name in (
            (c, "correct", "certify.correct"),
            (c, "verify_certificate", "certify.verify_certificate"),
            (c, "reduce_to_base", "cube.reduce_to_base"),
            (c, "convex_fix", "fixes.convex_fix"),
            (f, "l1_fix", "fixes.l1_fix"),
            (f, "dense_lift", "fixes.dense_lift"),
            (f, "uniformly_convex_fix", "fixes.uniformly_convex_fix"),
            (f, "singleton_fix", "fixes.singleton_fix"),
            (f, "repair_nonnegative", "fixes.repair_nonnegative"),
            (s, "certificate_to_json", "serial.certificate_to_json"),
            (s, "certificate_from_json", "serial.certificate_from_json"),
            (h, "make_instance", "harness.make_instance"),
            (h, "brute_ahsp_search", "harness.brute_ahsp_search")):
        t.stage(module, attr, name)
    for module, attr, name in (
            (c, "op_norm", "quadop.op_norm"),
            (c, "check_membership", "quadop.check_membership"),
            (f, "check_membership", "quadop.check_membership"),
            (c, "apply", "quadop.apply"),
            (c, "norm", "spaces.norm"),
            (f, "norm", "spaces.norm"),
            (lib.quadop, "norm", "spaces.norm"),
            (lib.spaces, "norm", "spaces.norm"),
            (f, "support_functional", "spaces.support_functional")):
        t.counter(module, attr, name)
    for module, attr, name in (
            (lib.spaces, "coerce", "scalars.coerce"),
            (lib.cube, "coerce", "scalars.coerce"),
            (h, "active_sum_norm", "harness.active_sum_norm"),
            (h, "check_membership", "harness.check_membership")):
        t.counter(module, attr, name, timed=False)
    return t


def per_layer(tracer: Tracer, run: Run, traced_rounds, setup_factor):
    """Per-layer metrics: means per correction instance or per search.

    Span and counter seconds are scaled by their operation's speed factor.
    """
    metrics, ops = {}, run.ops
    for layers, indices in (
            (CORRECTION_LAYERS, [i for i, op in enumerate(ops) if op.quad is None]),
            (SEARCH_LAYERS, [i for i, op in enumerate(ops)
                             if op.quad is not None or op.audit])):
        keys = [(tag, i) for tag in traced_rounds for i in indices]
        totals = tracer.totals(keys, run.factors)
        for metric, record, field in layers:
            value = totals[record][field] / max(len(keys), 1)
            if field == "calls":
                metrics[metric] = (value, "count")
            else:
                metrics[metric] = (1000.0 * value, "ms")
    made = tracer.totals(["setup"], {"setup": setup_factor})["harness.make_instance"]
    metrics["harness.make_instance.ms"] = (
        1000.0 * made["s"] / max(made["calls"], 1), "ms")
    metrics["trace.overhead_ms"] = (
        1000.0 * statistics.mean(run.overhead_s), "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("l1-exact", "uc-float", "brute-search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    try:
        return measure(args, sampler)
    finally:
        sampler.stop()


def measure(args, sampler: SpeedSampler) -> int:
    lib = load_program()
    tracer = make_tracer(lib) if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.op = "setup"
    ops = build_ops(lib, args.workload, args.seed)
    setup_end = clock()  # set-up is timed from the process's start
    if tracer is not None:
        tracer.op = None
        tracer.uninstall()

    run = Run(lib, ops, sampler)
    deadline = time.perf_counter() + args.seconds
    number = 0
    while True:
        run.round(number)
        number += 1
        if tracer is not None:  # each plain round is followed by a traced one
            tracer.install()
            try:
                run.round(number, tracer)
            finally:
                tracer.uninstall()
            number += 1
        if time.perf_counter() >= deadline:
            break
    sampler.stop()
    setup_s = sampler.reference(0.0, setup_end)

    if tracer is None:
        metrics = run.end_to_end(setup_s)
    else:
        if run.mismatches:
            run.problems.append((None, [f"{run.mismatches} traced outputs "
                                        "differ from the untraced run's"]))
        metrics = per_layer(tracer, run, range(1, number, 2),
                            setup_s / setup_end)
    correct = not run.problems
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    labels = dict(run.labels)
    record = dict(result, workload=args.workload, seed=args.seed,
                  operations_per_round=len(ops), rounds=number,
                  fix_labels=labels, setup_cpu_s=setup_end,
                  speed_samples=len(sampler.at), problems=run.problems[:20],
                  errors=run.errors[:3])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"spans": tracer.spans,
             "counts": [[op, name, c, s] for (op, name), (c, s)
                        in tracer.counts.items()]}) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  {len(ops)} operations "
          f"per round  {number} rounds  fix labels {labels}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.4f} {unit}")
    print(f"  attempted {run.attempted}  failed {run.failed}  correct {correct}")
    for index, found in run.problems[:5]:
        print(f"bench: check failed at operation {index}: {found}",
              file=sys.stderr)
    for error in run.errors[:1]:
        print(error, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
