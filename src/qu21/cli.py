"""Command line surface: basis tables, matrix elements, brackets, checks.

Subcommands:

    basis    enumerate one basis with weights, exact squared norms and
             (U basis) the triangular pattern of each label
    matrix   nonzero matrix elements of one generator in one basis, with
             exact sign / q-power / radicand and a floating value
    weyl     the transformation block at one weight (exact mode adds sign /
             q-power / radicand), optionally compared against its q-Racah
             evaluation; exit code 1 if any entry is out of tolerance
    racah    a single q-Racah coefficient from six half-integer arguments
    verify   the full identity-check suite; exit code 1 on any failure

Output is JSON ({"config": ..., "rows": [...]}) or RFC-4180 CSV; both carry
identical string values.  Floating values are printed with round-half-even
at the configured number of significant digits; the value of a matrix
element, bracket or q-Racah coefficient is its exact radical rounded once,
from the radical's integers, to those digits (format_root), in either mode;
exact mode adds the radical's sign, q-power and radicand.  Exit codes:
0 success, 1 verification failure, 2 usage or domain error.

A process loads only the layers its subcommand runs.  Importing this module
loads qarith and repspace (and argparse and decimal); basis and matrix add
generators, weyl and racah add weylracah, and verify adds verify (which
loads both).  json or csv is loaded only for the format asked; verify's
text report needs neither.  Without a bytecode cache
(PYTHONDONTWRITEBYTECODE=1, so every start compiles what it imports), the
imports take about 17 ms for the module alone, 22 ms for basis or matrix,
19 ms for weyl or racah and 33 ms for verify (Python 3.11, shared 2-core
Linux container, medians of 15 fresh processes).  No subcommand loads
inspect: the package's records are slotted classes (qu21.records), because
generating them at import cost every start about 10 ms more.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from decimal import Context as DecimalContext, Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from math import floor, isqrt
from typing import Dict, List, Optional, Sequence

from .errors import QAlgebraError
from .qarith import EvalContext, SignedRadical, exact_fraction
from .repspace import (Signature, Weight, classify, enumerate_t_basis,
                       enumerate_u_basis, gg_from_label, weight_of_t,
                       weight_of_u)

DEFAULT_PRECISION = 50

# Layer names kept readable as attributes of this module (the benchmark's
# tracer test reads cli.basis_action), with the module that owns each.  A
# name is read from its owner on every access (PEP 562) and never bound
# here, so a wrapper installed in the owner, and its removal, shows through.
_DEFERRED = {
    **dict.fromkeys(("GENERATORS", "basis_action", "norm_t_sq", "norm_u_sq"),
                    "qu21.generators"),
    **dict.fromkeys(("Truncation", "run_all_checks"), "qu21.verify"),
    **dict.fromkeys(("RacahArgs", "qracah_exact", "weyl_block",
                     "weyl_via_racah"), "qu21.weylracah"),
    "csv": "csv", "json": "json",
}


def __getattr__(name: str):
    owner = _DEFERRED.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(owner)
    return module if owner == name else getattr(module, name)


class UsageError(Exception):
    """Bad arguments or domain errors surfaced to the user (exit 2)."""


# ----------------------------------------------------------------------------
# parsing and formatting helpers
# ----------------------------------------------------------------------------


def _parse_q(text: str, exact: bool) -> Fraction:
    """q as an exact Fraction; in exact mode a decimal spelling is refused."""
    decimal = "/" not in text and ("." in text or "e" in text.lower())
    try:
        if "/" in text:
            q = Fraction(text)
        else:
            q = Fraction(Decimal(text)) if decimal else Fraction(int(text))
    except (ValueError, ArithmeticError):
        raise UsageError(f"cannot parse q value {text!r}")
    if exact and decimal:
        raise UsageError("exact mode needs a rational q (use a/b form)")
    return q


def _parse_weight(text: str) -> Weight:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--weight wants three comma-separated integers, got {text!r}")
    try:
        return Weight(*(int(p) for p in parts))
    except ValueError:
        raise UsageError(f"--weight components must be integers, got {text!r}")


def _parse_half_integer(text: str) -> Fraction:
    try:
        v = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse half-integer {text!r}")
    if (2 * v).denominator != 1:
        raise UsageError(f"{text!r} is not a half-integer")
    return v


def _check_tolerance(tolerance: float) -> None:
    """A tolerance must be a finite positive number (not NaN)."""
    if not 0 < tolerance < float("inf"):
        raise UsageError(f"--tolerance must be finite and positive, "
                         f"got {tolerance!r}")


def _check_digits(digits: int) -> None:
    if digits < 1:
        raise ValueError(f"precision must be at least 1 digit, got {digits}")


def format_float(value, digits: int) -> str:
    """Deterministic decimal string, round-half-even, significant digits;
    ValueError if digits < 1."""
    _check_digits(digits)
    fr = exact_fraction(value)
    ctx = DecimalContext(prec=digits, rounding=ROUND_HALF_EVEN)
    return str(ctx.divide(Decimal(fr.numerator), Decimal(fr.denominator)))


def _frac_str(v: Fraction) -> str:
    """a/b, or a when b = 1; Decimal prints ints of any length."""
    num = str(Decimal(v.numerator))
    return f"{num}/{Decimal(v.denominator)}" if v.denominator != 1 else num


def format_root(sign: int, square: Fraction, digits: int) -> str:
    """sign * sqrt(square) as format_float prints it, rounded once.

    The root is rounded half-even straight to `digits` significant decimal
    digits from the integers of square, with no binary value in between.
    m = isqrt(floor(square 100^k)) has more than `digits` digits; when the
    floor or the root drops anything, the root lies strictly above m, and
    m decides the rounding as a sticky digit would.  A root that is a
    dyadic rational keeps format_float's exact form ("2", "0.5"), as a
    binary float of it printed; every other root prints `digits` digits.
    ValueError if digits < 1.
    """
    _check_digits(digits)
    num, den = square.numerator, square.denominator
    if sign == 0 or num == 0:
        return format_float(Fraction(0), digits)
    # 10^(e10 + 1) <= sqrt(num / den), from the bit lengths
    e10 = floor((num.bit_length() - 1 - den.bit_length()) * 0.150514) - 2
    k = digits - e10
    if k >= 0:
        quot, rem = divmod(num * 100 ** k, den)
    else:
        quot, rem = divmod(num, den * 100 ** -k)
    m = isqrt(quot)
    exact = not rem and m * m == quot
    if exact:
        value = sign * m / Fraction(10) ** k
        if value.denominator & (value.denominator - 1) == 0:
            return format_float(value, digits)
    drop = len(str(m)) - digits
    lead, tail = divmod(m, 10 ** drop)
    half = 5 * 10 ** (drop - 1)
    if tail > half or (tail == half and (not exact or lead % 2)):
        lead += 1
        if lead == 10 ** digits:
            lead, drop = lead // 10, drop + 1
    return str(Decimal((sign < 0, tuple(map(int, str(lead))), drop - k)))


def _radical_columns(rad: SignedRadical, ectx: EvalContext,
                     digits: int) -> Dict[str, str]:
    """sign / qpower / radicand of an exact radical and its value, rounded
    once to `digits` digits (format_root); ectx is an exact context."""
    return {"sign": str(rad.sign), "qpower": str(rad.qpower),
            "radicand": _frac_str(rad.radicand),
            "value": format_root(rad.sign, rad.squared(ectx), digits)}


# ----------------------------------------------------------------------------
# emitters
# ----------------------------------------------------------------------------


def emit(config: Dict[str, str], rows: List[Dict[str, str]],
         fmt: str, out) -> None:
    if fmt == "json":
        import json
        json.dump({"config": config, "rows": rows}, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        import csv
        keys: List[str] = []
        for row in rows:
            for k in row:
                if k not in keys:
                    keys.append(k)
        writer = csv.DictWriter(out, fieldnames=keys, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    else:
        raise UsageError(f"unknown format {fmt!r}")


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------


def _base_config(args, q: Fraction) -> Dict[str, str]:
    cfg = {"command": args.command, "q": _frac_str(q), "mode": args.mode,
           "precision": str(args.precision)}
    if getattr(args, "sig", None) is not None:
        cfg["sig"] = args.sig
    for name in ("lmax", "smax", "depth"):
        if hasattr(args, name):
            cfg[name] = str(getattr(args, name))
    return cfg


def cmd_basis(args, out) -> int:
    from .generators import norm_t_sq, norm_u_sq
    sig = Signature.parse(args.sig)
    q = _parse_q(args.q, exact=False)
    ctx = EvalContext.exact(q)
    rows: List[Dict[str, str]] = []
    if args.basis == "u":
        for lab in enumerate_u_basis(sig, args.lmax):
            w = weight_of_u(sig, lab)
            rows.append({
                "k": str(lab.k), "ell": str(lab.ell),
                "U": _frac_str(lab.U), "MU": _frac_str(lab.MU),
                "m1": str(w.m1), "m2": str(w.m2), "m3": str(w.m3),
                "norm_sq": _frac_str(norm_u_sq(ctx, sig, lab.k, lab.ell)),
                "pattern": str(gg_from_label(sig, lab)),
            })
    else:
        for lab in enumerate_t_basis(sig, args.smax, args.depth):
            w = weight_of_t(sig, lab)
            rows.append({
                "s": str(lab.s), "p": str(lab.p),
                "T": _frac_str(lab.T), "M": _frac_str(lab.M),
                "m1": str(w.m1), "m2": str(w.m2), "m3": str(w.m3),
                "norm_sq": _frac_str(norm_t_sq(ctx, sig, lab.s, lab.p)),
            })
    cfg = _base_config(args, q)
    cfg["basis"] = args.basis
    cfg["series"] = classify(sig).value
    emit(cfg, rows, args.format, out)
    return 0


def cmd_matrix(args, out) -> int:
    from .generators import GENERATORS, basis_action
    sig = Signature.parse(args.sig)
    q = _parse_q(args.q, exact=False)
    if args.gen not in GENERATORS:
        raise UsageError(f"unknown generator {args.gen!r}; expected one of "
                         + ", ".join(GENERATORS))
    ectx = EvalContext.exact(q)
    if args.basis == "u":
        labels = enumerate_u_basis(sig, args.lmax)
    else:
        labels = enumerate_t_basis(sig, args.smax, args.depth)
    rows = []
    for lab in labels:
        for tgt, coeff in basis_action(ectx, sig, args.basis, args.gen, lab):
            rows.append({"source": str(lab), "target": str(tgt),
                         **_radical_columns(coeff, ectx, args.precision)})
    cfg = _base_config(args, q)
    cfg["basis"] = args.basis
    cfg["gen"] = args.gen
    emit(cfg, rows, args.format, out)
    return 0


def cmd_weyl(args, out) -> int:
    from .weylracah import weyl_block, weyl_via_racah
    sig = Signature.parse(args.sig)
    exact = args.mode == "exact"
    q = _parse_q(args.q, exact)
    _check_tolerance(args.tolerance)
    fctx = EvalContext.floating(q, precision=args.precision)
    ectx = EvalContext.exact(q)
    weight = _parse_weight(args.weight)
    block = weyl_block(ectx, sig, weight)
    rows = []
    digits = args.precision
    all_within = True
    for i, ul in enumerate(block.u_labels):
        for j, tl in enumerate(block.t_labels):
            entry = block.entries[i][j]
            cols = _radical_columns(entry, ectx, digits)
            row = {"u_label": str(ul), "t_label": str(tl),
                   **(cols if exact else {"value": cols["value"]})}
            if args.via_racah:
                # the block entry is form a; each form is printed as value
                # is, its exact radical rounded once; the difference is that
                # of the values rounded once to the fixed-point scale 2^-F
                # (a bracket is at most 1)
                forms = (entry, weyl_via_racah(ectx, sig, ul, tl, form="b"))
                fixed = [x.to_fixed(fctx) for x in forms]
                diff = Fraction(abs(fixed[0] - fixed[1]),
                                1 << fctx.fixed_bits())
                within = diff <= args.tolerance
                all_within = all_within and within
                for name, x in zip(("racah_form_a", "racah_form_b"), forms):
                    row[name] = format_root(x.sign, x.squared(ectx), digits)
                row["difference"] = format_float(diff, 3)
                row["within_tolerance"] = str(within).lower()
            rows.append(row)
    cfg = _base_config(args, q)
    cfg["weight"] = args.weight
    emit(cfg, rows, args.format, out)
    return 0 if all_within else 1


def cmd_racah(args, out) -> int:
    from .weylracah import RacahArgs, qracah_exact
    exact = args.mode == "exact"
    q = _parse_q(args.q, exact)
    vals = [_parse_half_integer(t) for t in args.args]
    racah_args = RacahArgs(*vals)
    row = {k: _frac_str(v) for k, v in
           zip("abedcf", racah_args.as_tuple())}
    ectx = EvalContext.exact(q)
    cols = _radical_columns(qracah_exact(ectx, racah_args), ectx,
                            args.precision)
    row.update(cols if exact else {"value": cols["value"]})
    emit(_base_config(args, q), [row], args.format, out)
    return 0


def cmd_verify(args, out) -> int:
    from .verify import Truncation, run_all_checks
    sig = Signature.parse(args.sig)
    q = _parse_q(args.q, args.mode == "exact")
    _check_tolerance(args.tolerance)
    trunc = Truncation(args.lmax, args.smax, args.depth)
    checks = tuple(args.checks.split(",")) if args.checks else None
    reports = run_all_checks(sig, q, mode=args.mode, truncation=trunc,
                             tolerance=args.tolerance, precision=args.precision,
                             flip_entry=args.flip_entry, checks=checks)
    all_pass = all(r.passed for r in reports)
    if args.format == "text":
        for r in reports:
            out.write(r.line() + "\n")
        out.write(f"{'all checks passed' if all_pass else 'CHECKS FAILED'}: "
                  f"{sum(r.passed for r in reports)}/{len(reports)}\n")
    else:
        rows = [{
            "check": r.name, "passed": str(r.passed).lower(),
            "max_residual": format_float(_res_fraction(r.max_residual), 12),
            "tolerance": format_float(Fraction(str(r.tolerance)) if r.tolerance
                                      else Fraction(0), 3),
            "location": r.location, "columns": str(r.columns_checked),
            "note": r.note,
        } for r in reports]
        emit(_base_config(args, q), rows, args.format, out)
    return 0 if all_pass else 1


def _res_fraction(x: float) -> Fraction:
    return Fraction(x) if x else Fraction(0)


# ----------------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------------


def _int_at_least(text: str, least: int, what: str) -> int:
    try:
        value = int(text)
        if value >= least:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")


def _window_bound(text: str) -> int:
    """argparse type of --lmax, --smax and --depth: a nonnegative integer."""
    return _int_at_least(text, 0, "nonnegative")


def _precision(text: str) -> int:
    """argparse type of --precision: a positive integer."""
    return _int_at_least(text, 1, "positive")


def _add_common(sp, *, sig=True, trunc=True):
    if sig:
        sp.add_argument("--sig", required=True,
                        help="signature f1,f2,f3 (integers)")
    sp.add_argument("--q", default="1", help="deformation parameter: a/b or decimal")
    sp.add_argument("--mode", choices=("exact", "float"), default="float")
    # a string default goes through type inside parse_args, so a bad
    # QU21_PRECISION is refused as --precision is
    sp.add_argument("--precision", type=_precision,
                    default=os.environ.get("QU21_PRECISION", str(DEFAULT_PRECISION)),
                    help="working precision in decimal digits")
    if trunc:
        sp.add_argument("--lmax", type=_window_bound, default=6,
                        help="U-basis ell bound")
        sp.add_argument("--smax", type=_window_bound, default=6,
                        help="T-basis s bound")
        sp.add_argument("--depth", type=_window_bound, default=6,
                        help="T-basis M - T - 1 bound")
    sp.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qu21",
        description="bases, matrix elements and identity checks for "
                    "lowest-weight representations of the q-deformed u(2,1)")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("basis", help="enumerate one basis with norms")
    _add_common(b)
    b.add_argument("--basis", choices=("u", "t"), default="u")
    b.add_argument("--format", choices=("json", "csv"), default="json")

    m = sub.add_parser("matrix", help="matrix elements of one generator")
    _add_common(m)
    m.add_argument("--gen", required=True, help="generator name A11..A33")
    m.add_argument("--basis", choices=("u", "t"), default="u")
    m.add_argument("--format", choices=("json", "csv"), default="json")

    w = sub.add_parser("weyl", help="transformation block at one weight")
    _add_common(w, trunc=False)
    w.add_argument("--weight", required=True, help="weight m1,m2,m3")
    w.add_argument("--via-racah", action="store_true", dest="via_racah",
                   help="also evaluate through q-Racah coefficients")
    w.add_argument("--tolerance", type=float, default=1e-10)
    w.add_argument("--format", choices=("json", "csv"), default="json")

    r = sub.add_parser("racah", help="one q-Racah coefficient")
    _add_common(r, sig=False, trunc=False)
    r.add_argument("args", nargs=6, metavar="X",
                   help="six half-integers: a b e d c f")
    r.add_argument("--format", choices=("json", "csv"), default="json")

    v = sub.add_parser("verify", help="run the identity-check suite")
    _add_common(v)
    v.add_argument("--tolerance", type=float, default=1e-10)
    v.add_argument("--flip-entry", dest="flip_entry", default=None,
                   help="test hook: flip the sign of one table entry "
                        "(U1..U10, T1..T10)")
    v.add_argument("--checks", default=None,
                   help="comma-separated subset of checks to run")
    v.add_argument("--format", choices=("text", "json", "csv"), default="text")
    return ap


HANDLERS = {"basis": cmd_basis, "matrix": cmd_matrix, "weyl": cmd_weyl,
            "racah": cmd_racah, "verify": cmd_verify}


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handler = HANDLERS[args.command]
    try:
        if args.out:
            buf = io.StringIO()
            code = handler(args, buf)
            with open(args.out, "w", newline="") as fh:
                fh.write(buf.getvalue())
        else:
            code = handler(args, sys.stdout)
        return code
    except (UsageError, QAlgebraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
