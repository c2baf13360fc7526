"""Seeded inputs, jobs and output checks of the three benchmark workloads.

Each workload is a closed loop over a fixed cycle of jobs generated from
the seed. A workload object offers:

    setup()            generate the inputs from the seed; for
                       dense-highprec also expand every curve (its curves
                       are chosen once, when the object is made, and are
                       not part of set-up). Repeatable: the same seed
                       gives the same inputs every time.
    jobs               one JSON-able description per job of the cycle
    run(i)             perform job i and return its raw result
    run_inprocess(i)   the same job without a child process (traced runs)
    canon(i, raw)      canonical output text of a raw result
    check(i, text)     why job i's output is wrong, or None
    oracle(texts)      {job: reason} for outputs that disagree with the
                       other prescription; texts[i] is job i's output

The library is reached only through module attributes (`period.nu1`, not
a name imported from it), so the tracer's wrappers see every call.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction

from periodjet import cli, curve, laurent, period, witt

from layertrace import coeff_bits

# dense-highprec: each curve is the median-height one of CURVE_DRAWS draws,
# by the bit size of y expanded to PROBE_PRECISION; field truncations are
# spread over this share of the curve's precision
CURVE_DRAWS = 9
PROBE_PRECISION = 40
TRUNC_SHARE = (0.25, 0.75)
# ell_k_n order; the oracle rebuilds its two-block set-partition sum
ELL_K = 2
# cli-oneshot: the invalid request kinds and their documented exit codes
# (literals, so that a change of the codes in cli.py shows as failures)
INVALID = (("malformed-json", 2), ("precision-below-floor", 3),
           ("elln-five-fields", 4))
CHILD_TIMEOUT_S = 60


def rat(q):
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


def _nonzero(height):
    return [c for c in range(-height, height + 1) if c]


def _small_int_curve(rng, genus, height):
    """Nonzero integer coefficients: a zero coefficient thins out the
    y-series and makes the curve markedly cheaper than its neighbours."""
    while True:
        coeffs = [rng.choice(_nonzero(height)) for _ in range(2 * genus + 1)]
        try:
            return curve.HyperellipticCurve(coeffs + [1])
        except ValueError:
            continue  # p not squarefree: outside the curve domain, redraw


def _dense_curve(rng, genus, height):
    """The median-height curve of CURVE_DRAWS seeded draws.

    Cost grows with the bit size of the y-series coefficients, and that
    size varies about twofold between random curves of one height bound.
    Height is the bit size of y expanded to PROBE_PRECISION, which
    predicts the size at high precision; taking the median draw keeps the
    arithmetic size, and so the run time, about the same from seed to
    seed.
    """
    found = []
    while len(found) < CURVE_DRAWS:
        coeffs = [Fraction(rng.randint(-height, height),
                           rng.randint(1, height))
                  for _ in range(2 * genus + 1)]
        try:
            c = curve.HyperellipticCurve(coeffs + [1])
        except ValueError:
            continue
        y = curve.expand_curve(c, PROBE_PRECISION).y_series
        found.append((coeff_bits(y), len(found), c))
    return sorted(found, key=lambda t: t[:2])[CURVE_DRAWS // 2][2]


def _curve_file(c, path):
    with open(path, "w") as fh:
        json.dump({"p": [rat(x) for x in c.p_coeffs]}, fh)
    return path


def _canon_matrix(m):
    return json.dumps({"basis_gaps": list(m.basis_gaps),
                       "entries": [[rat(x) for x in row]
                                   for row in m.entries]})


def _canon_sum(terms, interpretation):
    return json.dumps({"terms": sorted(sorted(_canon_matrix(m) for m in t)
                                       for t in terms),
                       "interpretation": interpretation})


def _two_block_partitions(n):
    """Partitions of range(n) into two nonempty blocks, order kept."""
    for mask in range(1 << (n - 1)):
        a = [0] + [i for i in range(1, n) if mask >> (i - 1) & 1]
        b = [i for i in range(1, n) if not mask >> (i - 1) & 1]
        if b:
            yield a, b


def _call_main(argv):
    """cli.main in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects before main's handlers
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class CheckSuite(object):
    """`periodjet check` in-process: the fixture suite, then the suite on
    one seeded small-height curve at default precision."""

    def __init__(self, params, seed, workdir):
        self.params, self.seed, self.workdir = params, seed, workdir
        self.jobs = []

    def setup(self):
        spec = self.params["seeded_curve"]
        rng = random.Random(self.seed)
        c = _small_int_curve(rng, spec["genus"], spec["height"])
        path = _curve_file(c, os.path.join(self.workdir, "check-curve.json"))
        self.jobs = [{"args": ["check"], "curve": "the two fixtures"},
                     {"args": ["check", "--curve", path],
                      "curve": [rat(x) for x in c.p_coeffs]}]

    def run(self, i):
        return _call_main(self.jobs[i]["args"])

    run_inprocess = run

    def canon(self, i, raw):
        code, out, _ = raw
        try:
            report = json.loads(out)
            for row in report["checks"]:
                del row["seconds"]
        except (ValueError, KeyError, TypeError):
            return "exit=%d\n%s" % (code, out)
        return "exit=%d\n%s" % (code, json.dumps(report, sort_keys=True))

    def check(self, i, text):
        head, _, body = text.partition("\n")
        if head != "exit=0":
            return "check exited with %s" % head
        report = json.loads(body)
        bad = [r["name"] for r in report["checks"] if r["status"] != "pass"]
        if bad or report["failed"] is not None:
            return "rows not passing: %s" % ", ".join(bad)
        return None

    def oracle(self, texts):
        return {}


class DenseHighprec(object):
    """Differential requests on dense rational curves expanded once at
    high precision; each result is checked against the other
    prescription."""

    def __init__(self, params, seed, workdir):
        self.params = params
        self.jobs, self.requests, self.expansions = [], [], []
        rng = random.Random(seed)
        self.curves = [_dense_curve(rng, spec["genus"], params["height"])
                       for spec in params["curves"]]
        self.rng_state = rng.getstate()  # the fields are drawn from here

    def setup(self):
        p = self.params
        rng = random.Random()
        rng.setstate(self.rng_state)
        curves = self.curves
        window = list(range(p["field_window"][0], p["field_window"][1] + 1))
        nfields = {"nu1": 1, "ell2": 2, "nu2": 2,
                   "ell1_n": p["ell1_n_order"], "ell_k_n": p["ell_k_n"]["n"]}
        requests = []
        lo, hi = TRUNC_SHARE
        for c, spec in enumerate(p["curves"]):
            prec = spec["precision"]
            for kind, count in sorted(p["requests_per_curve"].items()):
                if kind == "ell_k_n" and prec > p["ell_k_n"]["max_precision"]:
                    continue
                for k in range(count):
                    # truncations evenly spread over the range: job costs
                    # form a continuum, so the median job does not sit on
                    # a gap, and their mix is the same for every seed
                    share = lo + (hi - lo) * (k + 0.5) / count
                    trunc = int(share * prec)
                    fields = [self._field(rng, window, trunc)
                              for _ in range(nfields[kind])]
                    requests.append((kind, c, fields))
        rng.shuffle(requests)
        self.expansions = []  # drop a previous repeat's expansions first
        self.expansions = [curve.expand_curve(c, spec["precision"])
                           for c, spec in zip(curves, p["curves"])]
        self.requests = requests
        self.jobs = [{"request": kind,
                      "curve": [rat(x) for x in curves[c].p_coeffs],
                      "precision": p["curves"][c]["precision"],
                      "fields": [laurent.to_json(f.f) for f in fields]}
                     for kind, c, fields in requests]

    def _field(self, rng, window, trunc):
        """Every field reaches the window's lowest exponent, so every
        request reduces from the same pole depth."""
        h = self.params["height"]
        exps = [window[0]] + rng.sample(window[1:],
                                        self.params["field_terms"] - 1)
        coeffs = {e: Fraction(rng.choice(_nonzero(h)), rng.randint(1, h))
                  for e in exps}
        return witt.WittElement(laurent.LaurentSeries(coeffs, trunc))

    def run(self, i):
        kind, c, fs = self.requests[i]
        exp = self.expansions[c]
        if kind == "nu1":
            return period.nu1(fs[0], exp)
        if kind == "ell2":
            return period.ell2(fs[0], fs[1], exp)
        if kind == "nu2":
            return period.nu2(period.canonical_second_rep(fs[0], fs[1]), exp)
        if kind == "ell1_n":
            return period.ell1_n(fs, exp)
        return period.ell_k_n(fs, ELL_K, exp)

    run_inprocess = run

    def canon(self, i, raw):
        if self.requests[i][0] == "ell_k_n":
            return _canon_sum(raw.terms, raw.interpretation)
        return _canon_matrix(raw)

    def check(self, i, text):
        return None

    def _other_route(self, i):
        kind, c, fs = self.requests[i]
        exp = self.expansions[c]
        if kind == "nu1":
            return _canon_matrix(period.ell1_n_contraction(fs[:1], exp))
        if kind == "ell2":
            return _canon_matrix(period.ell2_via_lie(fs[0], fs[1], exp))
        if kind == "nu2":
            return _canon_matrix(period.ell2(fs[0], fs[1], exp))
        if kind == "ell1_n":
            return _canon_matrix(period.ell1_n_contraction(fs, exp))
        terms = [tuple(period.ell1_n_contraction([fs[j] for j in block], exp)
                       for block in blocks)
                 for blocks in _two_block_partitions(len(fs))]
        flag = "set-partition" if len(fs) > 2 else None
        return _canon_sum(terms, flag)

    def oracle(self, texts):
        names = {"nu1": "ell1_n_contraction", "ell2": "ell2_via_lie",
                 "nu2": "ell2", "ell1_n": "ell1_n_contraction",
                 "ell_k_n": "ell1_n_contraction blocks"}
        bad = {}
        for i, text in texts.items():
            if text != self._other_route(i):
                bad[i] = "%s disagrees with %s" % (self.requests[i][0],
                                                   names[self.requests[i][0]])
        return bad


class CliOneshot(object):
    """A seeded mix of real `python -m periodjet.cli` calls, one child at a
    time; about one in ten is invalid and must exit with its code."""

    def __init__(self, params, seed, workdir):
        self.params, self.seed, self.workdir = params, seed, workdir
        self.jobs = []
        self.env = dict(os.environ)
        self.env.pop("PERIODJET_PRECISION", None)
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def setup(self):
        p = self.params
        rng = random.Random(self.seed)
        spec = p["seeded_curve"]
        curves = [curve.HyperellipticCurve(c) for c in cli.FIXTURE_CURVES]
        curves.append(_small_int_curve(rng, spec["genus"], spec["height"]))
        paths = [_curve_file(c, os.path.join(self.workdir, "cli-%d.json" % k))
                 for k, c in enumerate(curves)]
        jobs = []
        for c, path in zip(curves, paths):
            trunc = curve.default_precision(c.genus) - (4 * c.genus + 4)
            for kind, args in self._valid_requests(rng, path, trunc):
                jobs.append({"args": args, "expect": 0, "kind": kind,
                             "curve": [rat(x) for x in c.p_coeffs]})
        n_invalid = round(p["error_share"] * len(jobs) / (1 - p["error_share"]))
        for j in range(n_invalid):
            kind, code = INVALID[j % len(INVALID)]
            k = rng.randrange(len(curves))
            c, path = curves[k], paths[k]
            trunc = curve.default_precision(c.genus) - (4 * c.genus + 4)
            if kind == "malformed-json":
                args = ["compute", "nu1", "--curve", path, "--fields",
                        json.dumps(self._field(rng, trunc))[:-1]]
            elif kind == "precision-below-floor":
                args = ["info", "--curve", path,
                        "--precision", str(4 * c.genus + 3)]
            else:
                args = ["compute", "elln", "--curve", path, "--fields",
                        json.dumps([self._field(rng, trunc)
                                    for _ in range(5)])]
            jobs.append({"args": args, "expect": code, "kind": kind,
                         "curve": [rat(x) for x in c.p_coeffs]})
        rng.shuffle(jobs)
        self.jobs = jobs

    def _valid_requests(self, rng, path, trunc):
        """`info` and `compute` for every WHICH on one curve, as
        (kind, argv) pairs; `ell2` and `ell2-lie` share their fields."""
        def field():
            return self._field(rng, trunc)

        def compute(which, fields):
            return ["compute", which, "--curve", path,
                    "--fields", json.dumps(fields)]

        nu1 = compute("nu1", field())
        pair = [field(), field()]
        d2phi = compute("d2phi", [field(), field()])
        nu2 = compute("nu2", {"upsilon": field(),
                              "sym_pairs": [[field(), field()]]})
        ii = compute("ii", [field(), field()])
        elln1 = compute("elln", [field() for _ in range(3)])
        elln2 = compute("elln", [field() for _ in range(3)]) + ["--k", "2"]
        return [("info", ["info", "--curve", path]), ("nu1", nu1),
                ("ell2", compute("ell2", pair)),
                ("ell2-lie", compute("ell2-lie", pair)),
                ("d2phi", d2phi), ("nu2", nu2), ("ii", ii),
                ("elln:1", elln1), ("elln:2", elln2)]

    def _field(self, rng, trunc):
        p = self.params
        lo, hi = p["field_window"]
        h = p["field_height"]
        exps = rng.sample(range(lo, hi + 1), rng.randint(*p["field_terms"]))
        return {"trunc": trunc,
                "coeffs": {str(e): rat(Fraction(rng.choice(_nonzero(h)),
                                                rng.randint(1, h)))
                           for e in exps}}

    def run(self, i):
        """One child process; returns (exit code, stdout, stderr, maxrss KiB)."""
        argv = [sys.executable, "-m", "periodjet.cli"] + self.jobs[i]["args"]
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(err_path, "w+") as err:
            child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                     env=self.env)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                out = child.stdout.read()
                child.stdout.close()
                # reap it ourselves: wait4 also reports the child's rusage
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
            child.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            return (child.returncode, out.decode(), err.read(),
                    usage.ru_maxrss)

    def run_inprocess(self, i):
        return _call_main(self.jobs[i]["args"]) + (0,)

    def canon(self, i, raw):
        return "exit=%d\n%s" % (raw[0], raw[1])

    def check(self, i, text):
        head, _, body = text.partition("\n")
        want = self.jobs[i]["expect"]
        if head != "exit=%d" % want:
            return "%s, expected exit=%d" % (head, want)
        if want == 0:
            json.loads(body)
        elif body:
            return "error exit wrote to stdout"
        return None

    def oracle(self, texts):
        """compute ell2 against compute ell2-lie on the same fields."""
        by_fields = {}
        for i, job in enumerate(self.jobs):
            if job["kind"] in ("ell2", "ell2-lie"):
                key = (job["args"][3], job["args"][5])
                by_fields.setdefault(key, {})[job["kind"]] = i
        bad = {}
        for pair in by_fields.values():
            a, b = pair.get("ell2"), pair.get("ell2-lie")
            if not all(texts.get(j, "").startswith("exit=0\n")
                       for j in (a, b)):
                continue  # a failed exit is already reported by check()
            ra = json.loads(texts[a].partition("\n")[2])["result"]
            rb = json.loads(texts[b].partition("\n")[2])["result"]
            if ra != rb:
                bad[a] = bad[b] = "compute ell2 and compute ell2-lie differ"
        return bad


WORKLOADS = {"check-suite": CheckSuite, "dense-highprec": DenseHighprec,
             "cli-oneshot": CliOneshot}


def make(name, params, seed, workdir):
    return WORKLOADS[name](params[name], seed, workdir)
