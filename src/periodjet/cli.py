"""Command-line front end: curve ingestion, expansion info, every
period-map differential, and an embedded invariant check suite.

Subcommands:

    periodjet info    --curve FILE [--precision N] [--out FILE]
    periodjet compute WHICH --curve FILE --fields JSON
                      [--n N] [--k K] [--precision N] [--out FILE]
    periodjet check   [--curve FILE] [--precision N] [--out FILE]

WHICH is one of nu1, ell2, ell2-lie, d2phi, nu2, ii, elln. Output is JSON
with sorted keys and canonical "p/q" rationals, so identical configuration
yields byte-identical bytes for info and compute; check reports include
wall-clock timings, which is the one non-reproducible field.

check runs its rows on every CPU the process may use: a forked child per
CPU claims them one at a time from one queue of every task index, written
before the first fork, until it is empty, and this process claims what
they leave once each has ended. The report, its row order and its bytes
but for the timings are those of a serial run, and so are the first
failure and the exit code. One rule gives that: a row that was not
delivered where it was claimed (its child stopped, or it raised an
exception that is not a row) runs in this process, in task order, after
every child is read, so a row that raised runs a second time before its
exception propagates. Each row's "seconds" is timed in the process that
ran it. `taskset -c 0 periodjet check` gives a serial run.

Precision resolution order: --precision flag, then the "precision" field
of the curve file, then the PERIODJET_PRECISION environment variable,
then the default 8g+24; check without --curve resolves it for each
fixture curve. A precision above MAX_PRECISION from any of them is a
precision error, and so is a curve whose precision floor 4g+4 is above
it.

Exit codes: 0 success, 1 invariant failure, 2 input error, 3 precision
error, 4 unsupported order, 5 internal error (an uncaught exception,
reported on one line without a traceback).
"""

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction

from .curve import (
    GenusAboveLimit, HyperellipticCurve, curve_from_json, curve_to_json,
    default_precision, expand_curve, precision_floor)
from .hodge import (
    UnreducibleExponent, duality_det, hom_to_json, is_symmetric_hom)
from .laurent import (
    LaurentSeries, PrecisionExhausted, int_from_key, rational_to_str,
    symplectic_pair)
from .laurent import from_json as series_from_json
from .period import (
    UnsupportedOrder, canonical_second_rep, d2Phi, ell2, ell2_via_lie,
    ell1_n, ell1_n_contraction, ell_k_n, fundamental_form_II, jet_to_json,
    nu1, nu2, sym_sum_to_json, t2rep_from_json)
from .witt import (
    WittElement, diffop_apply, diffop_compose, phi, sp_witness, witt_bracket)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_PRECISION = 3
EXIT_ORDER = 4
EXIT_INTERNAL = 5

# The command line refuses a working precision above this: the cost grows
# steeply with it (info on a dense genus-3 curve took 1.8 s at 1024, 9 s at
# 1600 and 99 s at 3200 on a 2-vCPU Xeon VM). The library takes any
# precision.
MAX_PRECISION = 1024
# the largest genus whose precision floor 4g + 4 is within the ceiling
MAX_GENUS = (MAX_PRECISION - 4) // 4

FIXTURE_CURVES = ([1, 0, 0, 0, 0, 1],          # y^2 = x^5 + 1
                  [1, -1, 0, 0, 0, 0, 0, 1])   # y^2 = x^7 - x + 1

# frozen regression values for the two fixture curves, keyed by the
# canonical coefficient strings of p
EXPECTED_REGRESSIONS = {
    ("1/1", "0/1", "0/1", "0/1", "0/1", "1/1"): {
        "gaps_O": [1, 3],
        "gaps_Theta": [1, 3, 5],
        "duality_det": "-4/1",
        "nu1_z^-1": [["0/1", "2/1"], ["0/1", "0/1"]],
        "ell2_z^-1": [["-2/1", "0/1"], ["0/1", "2/1"]],
    },
    ("1/1", "-1/1", "0/1", "0/1", "0/1", "0/1", "0/1", "1/1"): {
        "gaps_O": [1, 3, 5],
        "gaps_Theta": [1, 2, 3, 5, 7, 9],
        "duality_det": "-8/1",
        "nu1_z^-1": [["0/1", "0/1", "2/1"],
                     ["0/1", "0/1", "0/1"],
                     ["0/1", "0/1", "0/1"]],
        "ell2_z^-1": [["0/1", "-2/1", "0/1"],
                      ["0/1", "0/1", "2/1"],
                      ["0/1", "0/1", "0/1"]],
    },
}


class CheckFailure(Exception):
    """An invariant check did not hold; the message names the witness."""


# The exit code of each refusal, by exception class; any other exception
# is an internal error.
EXIT_CODES = {
    CheckFailure: EXIT_INVARIANT,
    ValueError: EXIT_INPUT,
    KeyError: EXIT_INPUT,
    OSError: EXIT_INPUT,
    PrecisionExhausted: EXIT_PRECISION,
    UnreducibleExponent: EXIT_PRECISION,
    UnsupportedOrder: EXIT_ORDER,
}


def _refusal(e):
    """Exit code and message of a refusal in EXIT_CODES; a precision
    error's message names its type."""
    code = next(EXIT_CODES[c] for c in type(e).__mro__ if c in EXIT_CODES)
    if code == EXIT_PRECISION:
        return code, "%s: %s" % (type(e).__name__, e)
    return code, str(e)


def poly_label(curve):
    """Readable form of p, e.g. 'x^5 + 1' or 'x^7 - x + 1'."""
    parts = []
    for d in range(len(curve.p_coeffs) - 1, -1, -1):
        c = curve.p_coeffs[d]
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            body = "x" if d == 1 else "x^%d" % d
            if mag != 1:
                body = "%s %s" % (mag, body)
        if not parts:
            parts.append(body if c > 0 else "-%s" % body)
        else:
            parts.append("+ %s" % body if c > 0 else "- %s" % body)
    return " ".join(parts) if parts else "0"


def _dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(payload, out):
    text = _dumps(payload)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_field_list(raw, want=None):
    """--fields JSON: a series object or a list of them."""
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list) or not raw:
        raise ValueError("fields must be a series object or a list of them")
    fields = [WittElement(series_from_json(item)) for item in raw]
    if want is not None and len(fields) != want:
        raise ValueError("expected %d field(s), got %d" % (want, len(fields)))
    return fields


def _matrix_payload(m, exp):
    return {"matrix": hom_to_json(m), "symmetry": is_symmetric_hom(m, exp)}


def _expand(curve, precision):
    # the expansion rejects precisions below its floor with ValueError;
    # at the command line that is a precision error, not a parse error
    try:
        return expand_curve(curve, precision)
    except ValueError as e:
        raise PrecisionExhausted(str(e))


def cmd_info(curve, precision):
    exp = _expand(curve, precision)
    return {
        "command": "info",
        "curve": curve_to_json(curve, precision),
        "polynomial": poly_label(curve),
        "genus": curve.genus,
        "gaps_O": list(exp.gaps_O),
        "gaps_Theta": list(exp.gaps_Theta),
        "k0_pole_orders": [m for m, _ in exp.k0_basis],
        "theta_pole_orders": [m for m, _ in exp.theta_basis],
        "h10_orders": [s.order() for s in exp.h10_basis],
        "dim_h1_O": len(exp.gaps_O),
        "dim_h1_Theta": len(exp.gaps_Theta),
    }


def cmd_compute(curve, precision, which, raw, n, k):
    # every input is read and checked before the curve is expanded
    if which != "elln" and (n is not None or k is not None):
        raise ValueError("--n/--k only apply to elln")
    if raw is None:
        raise ValueError("compute needs --fields")
    if which == "nu2":
        if not isinstance(raw, dict) or "upsilon" not in raw:
            raise ValueError(
                "nu2 takes a second-order representative object with "
                "upsilon and sym_pairs")
        rep = t2rep_from_json(raw)
    else:
        fields = _parse_field_list(
            raw, want={"nu1": 1, "elln": None}.get(which, 2))
        if which == "elln" and n is not None and n != len(fields):
            raise ValueError("--n %d does not match %d supplied fields"
                             % (n, len(fields)))
    exp = _expand(curve, precision)
    base = {
        "command": "compute",
        "which": which,
        "curve": curve_to_json(curve, precision),
    }

    if which in ("nu1", "ell2", "ell2-lie"):
        # built per call: a patched or traced module attribute is the one
        # that runs
        fn = {"nu1": nu1, "ell2": ell2, "ell2-lie": ell2_via_lie}[which]
        base["result"] = _matrix_payload(fn(*fields, exp), exp)
    elif which == "d2phi":
        jet = d2Phi(*fields, exp)
        base["result"] = {
            "jet": jet_to_json(jet),
            "symmetry": {
                "linear": is_symmetric_hom(jet.linear, exp),
                "quadratic": [[is_symmetric_hom(a, exp),
                               is_symmetric_hom(b, exp)]
                              for a, b in jet.quadratic],
            },
        }
    elif which == "nu2":
        base["result"] = _matrix_payload(nu2(rep, exp), exp)
    elif which == "ii":
        m, interpretation = fundamental_form_II(*fields, exp)
        payload = _matrix_payload(m, exp)
        payload["interpretation"] = interpretation
        base["result"] = payload
    elif which == "elln":
        if k is None or k == 1:
            base["result"] = _matrix_payload(ell1_n(fields, exp), exp)
        else:
            s = ell_k_n(fields, k, exp)
            base["result"] = {
                "sum": sym_sum_to_json(s),
                "symmetry": [[is_symmetric_hom(m, exp) for m in term]
                             for term in s.terms],
            }
    return base


# --- the embedded check suite ----------------------------------------------

def _random_sparse_field(rng):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        coeffs[rng.randint(-6, 6)] = Fraction(
            rng.choice([-3, -2, -1, 1, 2, 3]))
    return WittElement(LaurentSeries(coeffs))


def _drop_constant(s):
    return s - LaurentSeries.monomial(0, s.coeffs.get(0, 0))


def _check_lie_homomorphism():
    for a in range(-5, 6):
        for b in range(-5, 6):
            za, zb = WittElement.monomial(a), WittElement.monomial(b)
            lhs = phi(witt_bracket(za, zb))
            rhs = diffop_compose(phi(za), phi(zb)) - \
                diffop_compose(phi(zb), phi(za))
            if lhs != rhs:
                raise CheckFailure(
                    "phi([z^%d d, z^%d d]) != commutator" % (a, b))


def _check_sp_witness():
    rng = random.Random(804)
    for i in range(50):
        zeta = _random_sparse_field(rng)
        if not sp_witness(phi(zeta), 8):
            raise CheckFailure("phi(%s) failed the pairing witness" % zeta)


def _check_pair_action_embedding():
    # The symmetric pair sum (1/2) sum_j z^-j z^(j+k) acts on x by
    # h k -> <h, x> k + <k, x> h; on a monomial z^m only j = m and
    # j = -(m+k) contribute. The target space carries no constant term,
    # so the comparison drops the degree-zero coefficient.
    for k in range(-4, 5):
        zeta = WittElement.monomial(k + 1)
        for m in range(-8, 9):
            if m == 0:
                continue
            x = LaurentSeries.monomial(m)
            acted = LaurentSeries.zero()
            for j in {m, -(m + k)}:
                if j == 0:
                    continue
                h = LaurentSeries.monomial(-j)
                kk = LaurentSeries.monomial(j + k)
                acted = acted + (
                    kk.scaled(symplectic_pair(h, x)) +
                    h.scaled(symplectic_pair(kk, x))).scaled(Fraction(1, 2))
            direct = diffop_apply(phi(zeta), x)
            if _drop_constant(acted) != _drop_constant(direct):
                raise CheckFailure(
                    "pair action disagrees with the vector field at "
                    "k=%d, m=%d" % (k, m))


def _check_curve_expansion(exp):
    g = exp.curve.genus
    resid = exp.y_series * exp.y_series - exp.curve.p_at(exp.x_series)
    if not resid.is_visible_zero():
        raise CheckFailure("y^2 - p(x) has visible terms: %s" % resid)
    for m, e in exp.k0_basis:
        for m2, e2 in exp.k0_basis:
            if symplectic_pair(e, e2) != 0:
                raise CheckFailure(
                    "<pole %d, pole %d> != 0 inside the function space"
                    % (m, m2))
        for gi in exp.h10_basis:
            if symplectic_pair(e, gi) != 0:
                raise CheckFailure(
                    "function of pole %d pairs with an integral" % m)
    if len(exp.gaps_O) != g:
        raise CheckFailure("expected %d function gaps, got %r"
                           % (g, exp.gaps_O))
    if len(exp.gaps_Theta) != 3 * g - 3:
        raise CheckFailure("expected %d field gaps, got %r"
                           % (3 * g - 3, exp.gaps_Theta))


def _check_serre_duality(exp):
    if duality_det(exp) == 0:
        raise CheckFailure("duality matrix is singular")


def _check_first_differential_vanishing(exp):
    rng = random.Random(912)
    for m, t in exp.theta_basis:
        if not nu1(t, exp).is_zero():
            raise CheckFailure("nu1 != 0 on the field of pole %d" % m)
    for e in (3, 4):
        if not nu1(WittElement.monomial(e), exp).is_zero():
            raise CheckFailure("nu1 != 0 on z^%d d/dz" % e)
    for _ in range(5):
        zeta = _random_sparse_field(rng)
        t = exp.theta_basis[0][1].scaled(rng.randint(1, 3)) + \
            WittElement.monomial(3, rng.randint(-2, 2)) + \
            WittElement.monomial(4, rng.randint(-2, 2))
        if nu1(zeta + t, exp) != nu1(zeta, exp):
            raise CheckFailure("nu1 moved under a trivial direction")


def _check_second_order_routes(exp):
    for a in range(-6, 7):
        for b in range(-6, 7):
            f1, f2 = WittElement.monomial(a), WittElement.monomial(b)
            if ell2(f1, f2, exp) != ell2_via_lie(f1, f2, exp):
                raise CheckFailure(
                    "operator and contraction routes differ at "
                    "(z^%d, z^%d)" % (a, b))


def _check_commutator_sign(exp):
    rng = random.Random(1123)
    for i in range(100):
        f1 = _random_sparse_field(rng)
        f2 = _random_sparse_field(rng)
        diff = ell2(f1, f2, exp) - ell2(f2, f1, exp)
        if diff != nu1(witt_bracket(f1, f2), exp):
            raise CheckFailure(
                "commutator identity broke with sign +1 at pair %d" % i)


def _check_second_rep_consistency(exp):
    rng = random.Random(1301)
    for i in range(50):
        zeta = _random_sparse_field(rng)
        xi = _random_sparse_field(rng)
        if nu2(canonical_second_rep(zeta, xi), exp) != ell2(zeta, xi, exp):
            raise CheckFailure(
                "canonical representative disagrees with ell2 at pair %d" % i)


def _check_higher_order_routes(exp):
    rng = random.Random(1510)
    for _ in range(5):
        f1, f2 = _random_sparse_field(rng), _random_sparse_field(rng)
        if ell1_n_contraction([f1], exp) != nu1(f1, exp):
            raise CheckFailure("order-1 routes differ")
        if ell1_n_contraction([f1, f2], exp) != ell2(f1, f2, exp):
            raise CheckFailure("order-2 routes differ")
    for i in range(20):
        fields = [WittElement.monomial(rng.randint(-6, 6))
                  for _ in range(3)]
        if ell1_n(fields, exp) != ell1_n_contraction(fields, exp):
            raise CheckFailure("order-3 routes differ at triple %d" % i)


def _check_fixture_regressions(exp):
    want = EXPECTED_REGRESSIONS.get(tuple(rational_to_str(c)
                                          for c in exp.curve.p_coeffs))
    if want is None:
        return
    if list(exp.gaps_O) != want["gaps_O"]:
        raise CheckFailure("function gaps %r, expected %r"
                           % (list(exp.gaps_O), want["gaps_O"]))
    if list(exp.gaps_Theta) != want["gaps_Theta"]:
        raise CheckFailure("field gaps %r, expected %r"
                           % (list(exp.gaps_Theta), want["gaps_Theta"]))
    got_det = rational_to_str(duality_det(exp))
    if got_det != want["duality_det"]:
        raise CheckFailure("duality determinant %s, expected %s"
                           % (got_det, want["duality_det"]))
    z1 = WittElement.monomial(-1)
    got = hom_to_json(nu1(z1, exp))["entries"]
    if got != want["nu1_z^-1"]:
        raise CheckFailure("nu1(z^-1 d/dz) drifted from %r" % want["nu1_z^-1"])
    got = hom_to_json(ell2(z1, z1, exp))["entries"]
    if got != want["ell2_z^-1"]:
        raise CheckFailure("ell2(z^-1, z^-1) drifted from %r"
                           % want["ell2_z^-1"])


GLOBAL_CHECKS = [
    ("lie-homomorphism", _check_lie_homomorphism),
    ("sp-witness", _check_sp_witness),
    ("pair-action-embedding", _check_pair_action_embedding),
]

CURVE_CHECKS = [
    ("curve-expansion", _check_curve_expansion),
    ("serre-duality", _check_serre_duality),
    ("first-differential-vanishing", _check_first_differential_vanishing),
    ("second-order-route-equivalence", _check_second_order_routes),
    ("commutator-sign", _check_commutator_sign),
    ("second-rep-consistency", _check_second_rep_consistency),
    ("higher-order-routes", _check_higher_order_routes),
    ("fixture-regressions", _check_fixture_regressions),
]


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _run_row(task):
    """One check as a report row, and the exit code of its status."""
    name, label, fn, fn_args = task
    t0 = time.perf_counter()
    try:
        fn(*fn_args)
        status, code = "pass", EXIT_OK
    except (CheckFailure, PrecisionExhausted, UnreducibleExponent) as e:
        code, message = _refusal(e)
        status = ("fail: " if code == EXIT_INVARIANT else "error: ") + message
    return {"name": name, "curve": label, "status": status,
            "seconds": round(time.perf_counter() - t0, 3)}, code


def _claim(tasks, claims):
    """Rows of the tasks whose indices this process claims, one at a
    time, from the iterable claims, run up to the first exception that
    is not a row: {index: (row, code)}."""
    done = {}
    for i in claims:
        try:
            done[i] = _run_row(tasks[i])
        except Exception:  # the row runs again in _run_tasks
            break
    return done


def _claims(queue):
    """The task indices read from the pipe queue, 2 bytes each, until it
    is empty. Each read takes one whole index, which no other reader of
    the pipe then gets."""
    while True:
        index = os.read(queue, 2)
        if not index:
            return
        yield int.from_bytes(index, "big")


def _fork(tasks, queue):
    """A child process that claims rows from the queue on what it
    inherits and writes them, as JSON, to a pipe; returns (pid, the
    pipe's read end). The child writes nothing else, flushes no
    inherited buffer, and stops at its first exception that is not a
    row."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            done = _claim(tasks, _claims(queue))
            data = json.dumps([[i, row, code]
                               for i, (row, code) in done.items()]).encode()
            while data:
                data = data[os.write(w, data):]
        finally:
            os._exit(0)
    os.close(w)
    return pid, r


# The most tasks whose indices, 2 bytes each, fit a pipe before any
# process reads it: 512 bytes is POSIX's least PIPE_BUF, and a write of
# at most PIPE_BUF bytes to an empty pipe completes at once. check makes
# 3 + 8 per curve, at most 19; a longer list runs serially.
MAX_QUEUED_TASKS = 256


def _claim_forked(tasks, forks):
    """The rows that up to forks children claim from one queue of every
    task index, and that this process claims from what they leave once
    each has ended: {index: (row, code)}. The queue is written whole,
    and its write end closed, before the first fork."""
    queue, w = os.pipe()
    children = []
    try:
        try:
            os.write(w, b"".join(i.to_bytes(2, "big")
                                 for i in range(len(tasks))))
        finally:
            os.close(w)
        for _ in range(forks):
            try:
                children.append(_fork(tasks, queue))
            except OSError:  # no process to spare: the others claim more
                break
        done = {}
        for _, fd in children:
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()  # to EOF, when the child exits
            try:
                delivered = json.loads(data)
            except ValueError:  # cut short: its rows run in _run_tasks
                delivered = []
            done.update((i, (row, code)) for i, row, code in delivered)
        done.update(_claim(tasks, _claims(queue)))
    finally:
        os.close(queue)
        for pid, fd in children:
            os.close(fd)
            os.waitpid(pid, 0)
    return done


def _run_tasks(tasks):
    """(row, code) of every task, in task order, exactly as running them
    one after another gives them.

    The rows run on one worker per CPU this process may run on. One
    worker is this process, which runs them in order; more are forked
    children (none where os.fork is missing or fails, where threads run,
    which a fork could deadlock, or where the tasks are more than
    MAX_QUEUED_TASKS), which claim the task indices one at a time from
    one queue until it is empty (see _claim_forked), so a child that
    meets long rows claims fewer. This process claims only what the
    children leave, after each has ended, so the rows it runs do not
    depend on their timing. One rule recovers the rest: a task that gave
    no row where it was claimed, because its child stopped or it raised
    an exception that is not a row, runs here, in task order, after every
    child is read. So the exception raised is the one the serial loop
    meets first, and a task that raised runs a second time before its
    exception propagates.
    """
    threading = sys.modules.get("threading")
    workers = min(_usable_cpus(), len(tasks))
    if not hasattr(os, "fork") or len(tasks) > MAX_QUEUED_TASKS or (
            threading is not None and threading.active_count() > 1):
        workers = 1
    if workers == 1:
        done = _claim(tasks, range(len(tasks)))
    else:
        done = _claim_forked(tasks, workers)
    return [done[i] if i in done else _run_row(tasks[i])
            for i in range(len(tasks))]


def run_checks(expansions):
    """Run every check over the given expansions. Returns (report, exit
    code); the report lists each check with status and timing, and names
    the first failure. The checks run on every CPU the process may use
    (see _run_tasks); the report is the one a serial run gives, but for
    the timings, each taken in the process that ran its check."""
    tasks = [(name, None, fn, ()) for name, fn in GLOBAL_CHECKS]
    for exp in expansions:
        label = poly_label(exp.curve)
        tasks += [(name, label, fn, (exp,)) for name, fn in CURVE_CHECKS]
    results = _run_tasks(tasks)
    failed, code = next(((row["name"], code) for row, code in results
                         if code != EXIT_OK), (None, EXIT_OK))
    return {"command": "check",
            "checks": [row for row, _ in results],
            "failed": failed}, code


def cmd_check(curve, precision, precision_flag):
    """The suite on the given curve, or without one on the fixture curves
    at the precision that precision_flag, the environment or the default
    gives each."""
    if curve is not None:
        curves = [(curve, precision)]
    else:
        curves = [(c, _resolve_precision(precision_flag, None, c.genus))
                  for c in map(HyperellipticCurve, FIXTURE_CURVES)]
    return run_checks([_expand(c, p) for c, p in curves])


# --- argument plumbing ------------------------------------------------------

def _resolve_precision(flag_value, file_value, genus):
    if flag_value is not None:
        precision, source = flag_value, "--precision"
    elif file_value is not None:
        precision, source = file_value, "the curve file"
    else:
        env = os.environ.get("PERIODJET_PRECISION")
        if env is None:
            precision, source = default_precision(genus), "the default 8g + 24"
        else:
            try:
                precision = int_from_key(env, "PERIODJET_PRECISION")
            except ValueError:
                raise ValueError(
                    "PERIODJET_PRECISION must be an integer, got %r" % env)
            source = "PERIODJET_PRECISION"
    if precision > MAX_PRECISION:
        raise PrecisionExhausted(
            "precision %d from %s is above the ceiling MAX_PRECISION = %d"
            % (precision, source, MAX_PRECISION))
    return precision


def _parse_json(text, what):
    """json.loads, reporting input that is not JSON, input nested past the
    parser's recursion limit, and an object that repeats a key, as input
    errors that name the input."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError("%s JSON repeats the key %r" % (what, key))
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise ValueError("%s JSON is nested too deeply" % what)
    except json.JSONDecodeError as e:
        raise ValueError("%s JSON is not valid: %s" % (what, e))


def _load_job(args):
    """The curve of --curve and its resolved precision (both None without
    --curve), and the parsed --fields (None without it)."""
    curve = precision = fields = None
    if args.curve is not None:
        with open(args.curve) as fh:
            text = fh.read()
        try:
            curve, file_precision = curve_from_json(
                _parse_json(text, "curve"), max_genus=MAX_GENUS)
        except GenusAboveLimit as e:
            raise PrecisionExhausted(
                "a genus-%d curve needs precision at least 4g+4 = %d, above "
                "the ceiling MAX_PRECISION = %d"
                % (e.genus, precision_floor(e.genus), MAX_PRECISION))
        precision = _resolve_precision(args.precision, file_precision,
                                       curve.genus)
    if getattr(args, "fields", None) is not None:
        fields = _parse_json(args.fields, "--fields")
    return curve, precision, fields


def _int_flag(text):
    """An int option (--precision, --n, --k) read as PERIODJET_PRECISION
    is, by int_from_key; the refusal reads as argparse's own for an int
    option."""
    try:
        return int_from_key(text, "an int option")
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % (text,))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="periodjet",
        description="exact differentials of the period map of a "
                    "hyperelliptic curve")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, curve_required):
        p.add_argument("--curve", metavar="FILE", required=curve_required,
                       help="curve JSON file {\"p\": [...], \"precision\"?}")
        p.add_argument("--precision", type=_int_flag, metavar="N")
        p.add_argument("--out", metavar="FILE",
                       help="write the JSON report here instead of stdout")

    p_info = sub.add_parser("info", help="genus, gaps, basis pole orders")
    common(p_info, True)

    p_compute = sub.add_parser("compute", help="one period-map differential")
    p_compute.add_argument(
        "which",
        choices=["nu1", "ell2", "ell2-lie", "d2phi", "nu2", "ii", "elln"])
    common(p_compute, True)
    p_compute.add_argument("--fields", metavar="JSON",
                           help="series JSON, a list of them, or for nu2 a "
                                "second-order representative object")
    p_compute.add_argument("--n", type=_int_flag, metavar="N",
                           help="consistency check: number of fields (elln)")
    p_compute.add_argument("--k", type=_int_flag, metavar="K",
                           help="block count for elln (default 1)")

    p_check = sub.add_parser("check", help="run the invariant suite")
    common(p_check, False)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as e:  # a fault of the program, not of its input
        print("periodjet: internal error: %s: %s"
              % (type(e).__name__, " ".join(str(e).splitlines())),
              file=sys.stderr)
        return EXIT_INTERNAL


def _run(args):
    try:
        curve, precision, fields = _load_job(args)
        if args.subcommand == "info":
            payload, code = cmd_info(curve, precision), EXIT_OK
        elif args.subcommand == "compute":
            payload, code = cmd_compute(curve, precision, args.which, fields,
                                        args.n, args.k), EXIT_OK
        else:
            payload, code = cmd_check(curve, precision, args.precision)
        _emit(payload, args.out)
    except tuple(EXIT_CODES) as e:
        code, message = _refusal(e)
        print("periodjet: %s" % message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
