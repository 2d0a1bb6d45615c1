"""Correctness checks on every op, run outside the timed region.

Each op gets one of three verdicts:

* failed: the op raised, or an output contradicts an exact reference (a
  golden file, the classical oracle, a verify report, an exit code).  Failed
  ops count in the result's ``failed`` and make ``correct`` false.
* miss: a floating-point value is further than TOLERANCE from its reference
  (the exact value, or the other evaluations of the same bracket).  The
  known float-cancellation defect (ROADMAP item 2) shows up here, so misses
  lower ``ok_frac`` but are not failures.
* ok.

References are computed by the parent process, from the checkout's own
program and tests/ (golden files, oracles.py), after the timed loop ended.
"""

from __future__ import annotations

import importlib.util
import json
from fractions import Fraction

import mpmath

from inputs import DESK_Q, GOLDEN_BASIS, GOLDEN_RACAH

TOLERANCE = 1e-10          # the verify suite's default tolerance
REF_DPS = 80               # digits used to compare float values

# The 56 report names of the large config at the seed commit, in order.
LARGE_REPORTS = (
    ["su11-raising-t", "su11-lowering-t", "su11-commutator-t",
     "su11-raising-u", "su11-lowering-u", "su11-commutator-u"]
    + [f"herm-{n}-{b}" for b in "ut"
       for n in ("compact", "noncompact", "a13-first", "a13-second",
                 "form-agreement")]
    + ["casimir-eigenvalue", "casimir-separation", "norm-recursions",
       "weyl-orthogonality", "intertwiner"]
    + [f"projector-{n}-T{t}" for t in ("1", "3/2", "2", "5/2", "3", "7/2", "4")
       for n in ("diagonal", "annihilation", "leading", "spectral", "power")])

DESK_SUMMARY = "all checks passed: 56/56"


class Checker:
    """Holds the references one run needs; ``verdict(op)`` checks one op."""

    def __init__(self, root):
        self.root = root
        self._mp = mpmath.mp.clone()
        self._mp.dps = REF_DPS
        self._exact_values = {}
        self._golden = {}
        self._oracle = None
        self.float_digits = []      # digits of float qracah vs exact

    # -- references ----------------------------------------------------------

    def golden(self, name):
        if name not in self._golden:
            with open(f"{self.root}/tests/golden/{name}", "rb") as fh:
                self._golden[name] = fh.read()
        return self._golden[name]

    def oracle(self):
        if self._oracle is None:
            spec = importlib.util.spec_from_file_location(
                "oracles", f"{self.root}/tests/oracles.py")
            self._oracle = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(self._oracle)
        return self._oracle

    def exact_value(self, q, args):
        """The exact q-Racah value at REF_DPS digits, from qracah_exact."""
        key = (q, tuple(args))
        if key not in self._exact_values:
            from qu21.qarith import EvalContext
            from qu21.weylracah import RacahArgs, qracah_exact
            rad = qracah_exact(EvalContext.exact(Fraction(q)),
                               RacahArgs.make(*(Fraction(a) for a in args)))
            self._exact_values[key] = rad.to_float(
                EvalContext.floating(Fraction(q), REF_DPS))
        return self._exact_values[key]

    # -- verdicts --------------------------------------------------------------

    def verdict(self, op):
        """'ok', 'miss' or 'failed: <reason>'."""
        if op["err"] is not None:
            return f"failed: {op['err']}"
        kind = op["kind"]
        out = op["out"]
        if kind == "verify-large":
            return self._verify_large(out)
        if "argv" in op["req"]:
            return self._desk(kind, out)
        check = {"exact": self._exact, "float": self._float,
                 "bracket": self._bracket}[kind]
        return check(op["req"], out)

    def _verify_large(self, reports):
        names = [r[0] for r in reports]
        if names != LARGE_REPORTS:
            return f"failed: report names differ ({len(names)} reports)"
        bad = [r[0] for r in reports if not r[1]]
        return f"failed: {bad}" if bad else "ok"

    def _desk(self, kind, out):
        if out["code"] != 0:
            return f"failed: {kind} exit code {out['code']}"
        text = out["out"]
        if kind in ("verify", "verify-exact"):
            last = text.rstrip("\n").rsplit("\n", 1)[-1]
            return "ok" if last == DESK_SUMMARY else f"failed: {last!r}"
        if kind in ("basis", "racah"):
            name = (GOLDEN_BASIS if kind == "basis" else GOLDEN_RACAH)[1]
            if text.encode() != self.golden(name):
                return f"failed: {kind} output differs from {name}"
            return "ok"
        rows = json.loads(text)["rows"]
        if not rows:
            return f"failed: {kind} printed no rows"
        if kind == "weyl":
            ok = all(r["within_tolerance"] == "true" for r in rows)
            return "ok" if ok else "miss"
        # matrix: each printed value against sign * q^qpower * sqrt(radicand)
        q = Fraction(DESK_Q)
        mp = self._mp
        for r in rows:
            rad = Fraction(r["radicand"])
            want = (int(r["sign"]) * mp.power(mp.mpf(q.numerator) / q.denominator,
                                              int(r["qpower"]))
                    * mp.sqrt(mp.mpf(rad.numerator) / rad.denominator))
            if abs(mp.mpf(r["value"]) - want) > TOLERANCE:
                return "miss"
        return "ok"

    def _exact(self, req, out):
        sign, _qpower, num, den = out
        num, den = int(num, 16), int(den, 16)
        if sign not in (-1, 0, 1) or (sign == 0) != (num == 0) or den <= 0:
            return f"failed: malformed radical {out[:2]}"
        args = [Fraction(a) for a in req["args"]]
        if Fraction(req["q"]) == 1 and max(args) <= 2:
            from qu21.qarith import EvalContext, SignedRadical
            got = SignedRadical.make(sign, out[1], Fraction(num, den))
            want = self.oracle().recoupling_exact(*args)
            if not got.same_value(want, EvalContext.exact(1)):
                return f"failed: {req['args']} differs from the oracle"
        return "ok"

    def _float(self, req, out):
        got = self._mp.mpf(out)
        want = self.exact_value(req["q"], req["args"])
        err = abs(got - want)
        scale = abs(want) or 1
        digits = REF_DPS if err == 0 else float(-self._mp.log10(err / scale))
        self.float_digits.append(digits)
        return "ok" if err <= TOLERANCE else "miss"

    def _bracket(self, _req, out):
        c, a, b = (self._mp.mpf(x) for x in out)
        worst = max(abs(c - a), abs(c - b), abs(a - b))
        return "ok" if worst <= TOLERANCE else "miss"
