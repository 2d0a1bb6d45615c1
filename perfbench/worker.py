"""Runs one workload's requests in process, closed loop, one client.

Started by run.py as the only child process, from the checkout root with
``PYTHONPATH=src``.  Reads a job (JSON) on stdin.  Streams one JSON line per
op to stdout, [latency, output, error], as the op completes, so the op
records never accumulate in this process and its peak RSS is the program's.
Each phase ends with a line holding the phase name, the peak RSS
(untraced phase) or the tracer's totals (traced phase).

A job has one or two phases.  ``plain`` runs the ops untraced; ``traced``
installs the wrappers of tracing.py first.  Each phase starts from the first
round, so both phases time the same request mix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# The program's import cost is measured separately, by run.py.
from qu21 import cli, verify, weylracah  # noqa: E402
from qu21.qarith import EvalContext  # noqa: E402
from qu21.repspace import Signature, TBasisLabel, UBasisLabel  # noqa: E402

from inputs import LARGE_Q, LARGE_SIG, LARGE_WINDOW, PRECISION  # noqa: E402
from loop import closed_loop  # noqa: E402
from tracing import Tracer  # noqa: E402


def _racah_args(req):
    return weylracah.RacahArgs.make(*(Fraction(x) for x in req["args"]))


# The ops call the program through its module attributes at call time, so
# the traced phase sees the installed wrappers.
def op_verify_large(_req):
    reports = verify.run_all_checks(
        Signature(*LARGE_SIG), Fraction(LARGE_Q), mode="float",
        truncation=verify.Truncation(*LARGE_WINDOW), precision=PRECISION)
    return [[r.name, r.passed, r.note, r.columns_checked] for r in reports]


def op_exact(req):
    rad = weylracah.qracah_exact(EvalContext.exact(Fraction(req["q"])), _racah_args(req))
    return [rad.sign, rad.qpower, hex(rad.radicand.numerator),
            hex(rad.radicand.denominator)]


def op_float(req):
    ctx = EvalContext.floating(Fraction(req["q"]), PRECISION)
    return str(weylracah.qracah(ctx, _racah_args(req)))


def op_bracket(req):
    ctx = EvalContext.floating(Fraction(req["q"]), PRECISION)
    sig = Signature(*req["sig"])
    k, ell, mu = req["u"]
    s, p, m = req["t"]
    u = UBasisLabel(k, ell, Fraction(sig.f1 - sig.f2 - k + ell, 2), Fraction(mu))
    t = TBasisLabel(s, p, Fraction(sig.f2 - sig.f3 + p + s - 2, 2), Fraction(m))
    return [str(weylracah.weyl_coefficient(ctx, sig, u, t)),
            str(weylracah.weyl_via_racah(ctx, sig, u, t, form="a")),
            str(weylracah.weyl_via_racah(ctx, sig, u, t, form="b"))]


def op_cli(req):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(req["argv"])
        except SystemExit as exc:          # argparse exits on usage errors
            code = exc.code
    return {"code": code, "out": buf.getvalue()}


OPS = {"verify-large": op_verify_large, "exact": op_exact, "float": op_float,
       "bracket": op_bracket}


def run_op(req):
    fn = op_cli if "argv" in req else OPS[req["kind"]]
    t0 = perf_counter()
    try:
        out = fn(req)
        err = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, err = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, err


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")


def main():
    job = json.load(sys.stdin)
    rounds = job["rounds"]
    for phase, seconds in job["phases"]:
        tracer = None
        if phase == "traced":
            tracer = Tracer()
            tracer.install()
        ops = 0

        def step(req):
            nonlocal ops
            if tracer is not None:
                tracer.op = ops
            ops += 1
            emit(run_op(req))

        closed_loop(rounds, seconds, step)
        end = {"phase": phase}
        if tracer is not None:
            tracer.uninstall()
            end["trace"] = tracer.summary()
            if job.get("spans_path"):
                tracer.write_spans(job["spans_path"])
        else:
            end["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        emit(end)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
