"""In-memory tracing of the program's layers, installed from outside.

The program is not edited: ``install`` replaces the public functions of the
six modules with timing wrappers.  The modules import each other's names
with ``from .x import name``, so a wrapper is installed in every module
namespace (and the cli's ``HANDLERS`` table) that holds the original object.

Three kinds of wrapper:

* recorded spans (layer boundaries a later change is likely to move): name,
  start, end, parent span and op id are appended to ``Tracer.spans``;
* timed calls (the remaining public functions): they take part in self-time
  accounting but are not stored one by one;
* counted calls (the q-arithmetic methods, called over 10^5 times per op):
  a counter only.

Every timed wrapper keeps per-name totals of calls, inclusive time and self
time (inclusive time minus the time covered by directly nested wrappers).
"""

from __future__ import annotations

import inspect
import json
import math
from collections import defaultdict
from time import perf_counter

RECORDED = {
    "repspace.enumerate_u_basis", "repspace.enumerate_t_basis",
    "generators.basis_action",
    "weylracah.weyl_block", "weylracah.weyl_coefficient",
    "weylracah.weyl_coefficient_exact", "weylracah.qracah",
    "weylracah.qracah_exact", "weylracah.weyl_via_racah",
    "verify.TruncatedRep", "verify.run_all_checks",
    "verify.check_su11_relations", "verify.check_hermiticity",
    "verify.check_casimir", "verify.check_norm_recursions",
    "verify.check_weyl_orthogonality", "verify.check_intertwiner",
    "verify.check_projector",
    "cli.main",
}

COUNTED = ("qnum", "qfact", "qfact_inv")


def _digits(n: int) -> int:
    """Decimal digits of |n| from its bit length (no int-to-str limit)."""
    return int(abs(n).bit_length() * math.log10(2)) + 1


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, op id)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.counts = defaultdict(int)
        self.stack = []          # [span id, time covered by children]
        self.op = None
        self._next = 0
        self._installed = []

    # -- wrappers ------------------------------------------------------------

    def timed(self, name, fn, record, after=None):
        stats, stack, spans = self.stats, self.stack, self.spans

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if record:
                    spans.append((sid, name, t0, t1, parent, self.op))
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def _replace(self, namespaces, original, wrapper):
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    self._installed.append((ns, key, original))
                    ns[key] = wrapper

    def _patch_class(self, cls, attr, wrapper):
        self._installed.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        import qu21.cli as cli
        import qu21.generators as generators
        import qu21.qarith as qarith
        import qu21.repspace as repspace
        import qu21.verify as verify
        import qu21.weylracah as weylracah

        modules = [qarith, repspace, generators, weylracah, verify, cli]
        ctx_cls, rad_cls = qarith.EvalContext, qarith.SignedRadical
        for meth in COUNTED:
            self._patch_class(ctx_cls, meth,
                              self.counted(f"qarith.{meth}", vars(ctx_cls)[meth]))
        self._patch_class(rad_cls, "add_exact",
                          self.counted("qarith.add_exact", rad_cls.add_exact))
        self._patch_class(ctx_cls, "__init__",
                          self.timed("qarith.context_build",
                                     vars(ctx_cls)["__init__"], False))
        rep_cls = verify.TruncatedRep
        self._patch_class(rep_cls, "__init__",
                          self.timed("verify.TruncatedRep",
                                     vars(rep_cls)["__init__"], True,
                                     after=_after_rep))
        after = {
            "repspace.enumerate_u_basis": _after_labels,
            "repspace.enumerate_t_basis": _after_labels,
            "generators.basis_action": _after_terms,
            "weylracah.qracah_exact": _after_radicand,
            "verify.run_all_checks": _after_reports,
        }
        namespaces = [vars(mod) for mod in modules] + [cli.HANDLERS]
        for mod in modules[1:]:
            layer = mod.__name__.split(".")[-1]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.timed(name, fn, name in RECORDED,
                                     after.get(name))
                self._replace(namespaces, fn, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._installed):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._installed.clear()

    # -- results ---------------------------------------------------------------

    def summary(self):
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts), "spans": len(self.spans)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _after_rep(tracer, args, _result):
    rep = args[0]
    tracer.counts["verify.rep_nnz"] += sum(len(m) for m in rep.matrices.values())


def _after_labels(tracer, _args, result):
    tracer.counts["repspace.labels"] += len(result)


def _after_terms(tracer, _args, result):
    tracer.counts["generators.terms"] += len(result)


def _after_radicand(tracer, _args, result):
    if result.sign:
        digits = max(_digits(result.radicand.numerator),
                     _digits(result.radicand.denominator))
        key = "weylracah.radicand_digits.max"
        tracer.counts[key] = max(tracer.counts[key], digits)


def _after_reports(tracer, _args, reports):
    tracer.counts["verify.reports"] += len(reports)
    tracer.counts["verify.vacuous_passes"] += sum(
        r.passed and "no coverage" in r.note for r in reports)
    tracer.counts["verify.columns_checked"] += sum(
        r.columns_checked for r in reports)
