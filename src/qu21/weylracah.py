"""Transformation brackets between the two reductions and q-Racah coefficients.

The overlap <U|T>_q between a U-basis and a T-basis vector of the same weight
is computed two independent ways:

1. directly, from its closed-form square-root prefactor and single balanced
   q-factorial sum, in one summation convention (over n; the printed
   alternative over r = k - n is the same sum re-indexed, so it is no
   independent check);
2. through the general q-Racah coefficient U_q(a b e d; c f) under the
   substitution (a, b, c, d, e, f) = (T, j3, j2, U, j1, j) built from the two
   labels, times a dimension factor and phase.

The agreement of the two paths, together with orthogonality of the resulting
weight blocks and the intertwining property against the generator tables, is
what the verify module checks.

Conventions for U_q(a b e d; c f): triangle conditions on (a,b,c), (a,e,f),
(c,d,e), (b,d,f); arguments outside any triangle give 0 by convention, as do
non-half-integer or negative arguments.

Half-integer arguments are read once as doubled integers (2a, 2U, 2M, ...),
and every q-factorial argument is formed from them in integer arithmetic.
One integer test on the doubled arguments decides the triangle conditions,
for racah_triangles_ok, the q-Racah sum and racah_args_from_rep alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .errors import EmptyWeightSpace, InconsistentLabels, WeightMismatch
from .qarith import EvalContext, Scalar, SignedRadical
from .repspace import (
    Signature,
    TBasisLabel,
    UBasisLabel,
    Weight,
    require_t_label,
    require_u_label,
    t_labels_at_weight,
    u_labels_at_weight,
    weight_of_t,
    weight_of_u,
)

# ----------------------------------------------------------------------------
# direct transformation bracket
# ----------------------------------------------------------------------------


def _check_match(sig: Signature, u: UBasisLabel, t: TBasisLabel) -> None:
    require_u_label(sig, u)
    require_t_label(sig, t)
    wu, wt = weight_of_u(sig, u), weight_of_t(sig, t)
    if wu != wt:
        raise WeightMismatch(
            f"labels live at different weights: {u} -> {wu}, {t} -> {wt}")


def _two(x) -> int:
    """2x as an int for a half-integer x (an int or Fraction)."""
    den = x.denominator
    if den == 1:
        return 2 * x.numerator
    if den == 2:
        return x.numerator
    raise TypeError(f"expected a half-integer, got {x!r}")


def weyl_prefactor_sq(ctx: EvalContext, sig: Signature,
                      u: UBasisLabel, t: TBasisLabel) -> Scalar:
    """Square of the positive prefactor of the bracket <U|T>_q.

    u and t must be valid labels at one weight; weyl_coefficient checks that.
    """
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    k, ell, s, p = u.k, u.ell, t.s, t.p
    twoU, twoMU, twoT, twoM = _two(u.U), _two(u.MU), _two(t.T), _two(t.M)
    x = (twoM - twoT) // 2 - 1
    num = (ctx.qnum(twoU + 1) * ctx.qnum(twoT + 1)
           * ctx.qfact(k) * ctx.qfact(x) * ctx.qfact((twoU + twoMU) // 2)
           * ctx.qfact((twoT + twoM) // 2)
           * ctx.qfact(f12 - k) * ctx.qfact(f12 + ell + 1)
           * ctx.qfact(f23 + s - 2) * ctx.qfact(f23 + p - 2))
    den = (ctx.qfact(s) * ctx.qfact(p) * ctx.qfact(ell)
           * ctx.qfact((twoU - twoMU) // 2) * ctx.qfact(f13 + s - 1)
           * ctx.qfact(f12 - p) * ctx.qfact(f23 + k - 2)
           * ctx.qfact(f13 + ell - 1))
    return num / den


def weyl_sum(ctx: EvalContext, sig: Signature,
             u: UBasisLabel, t: TBasisLabel) -> Scalar:
    """The balanced q-factorial sum of the bracket, indexed by n."""
    f13, f23 = sig.f1 - sig.f3, sig.f2 - sig.f3
    k, ell, s, p = u.k, u.ell, t.s, t.p
    twoU, twoMU = _two(u.U), _two(u.MU)
    drop = (twoU - twoMU) // 2
    total = ctx.zero()
    for n in range(0, k + 1):
        sign = -1 if (k + n) % 2 else 1
        term = (ctx.qfact(drop + k - n) * ctx.qfact(ell + k - n)
                * ctx.qfact(f13 + ell + k - n - 1)
                * ctx.qfact_inv(n) * ctx.qfact_inv(k - n)
                * ctx.qfact_inv(twoU + 1 + k - n)
                * ctx.qfact_inv(ell - s + k - n)
                * ctx.qfact_inv(f23 + p + ell + k - n - 1))
        total = total + sign * term
    return total


def _signed_root(ctx: EvalContext, sign: int, pref: Scalar, total: Scalar):
    """sign * sqrt(pref) * total: a scalar, or a SignedRadical in exact mode."""
    if not ctx.is_exact():
        return sign * ctx.sqrt(pref) * total
    if total == 0:
        return SignedRadical.zero()
    return SignedRadical.make(sign * (1 if total > 0 else -1), 0,
                              pref * total * total)


def _bracket(ctx: EvalContext, sig: Signature, u: UBasisLabel, t: TBasisLabel):
    """<U|T>_q for labels already known to be valid and at one weight."""
    return _signed_root(ctx, 1, weyl_prefactor_sq(ctx, sig, u, t),
                        weyl_sum(ctx, sig, u, t))


def weyl_coefficient_exact(ctx: EvalContext, sig: Signature,
                           u: UBasisLabel, t: TBasisLabel) -> SignedRadical:
    """<U|T>_q as an exact SignedRadical (requires an exact-mode context)."""
    if not ctx.is_exact():
        raise ValueError("weyl_coefficient_exact requires an exact-mode context")
    _check_match(sig, u, t)
    return _bracket(ctx, sig, u, t)


def weyl_coefficient(ctx: EvalContext, sig: Signature,
                     u: UBasisLabel, t: TBasisLabel) -> Scalar:
    """<U|T>_q as a context scalar (float contexts; real valued)."""
    if ctx.is_exact():
        raise ValueError("use weyl_coefficient_exact for exact-mode contexts")
    _check_match(sig, u, t)
    return _bracket(ctx, sig, u, t)


@dataclass(frozen=True)
class WeylBlock:
    """Orthogonal change-of-basis block at one weight.

    rows follow u_labels (ascending U), columns follow t_labels (ascending T);
    entries[i][j] = <u_i | t_j>_q, a context scalar, or a SignedRadical in
    exact mode.  At full label range the block is square.
    """

    weight: Weight
    u_labels: Tuple[UBasisLabel, ...]
    t_labels: Tuple[TBasisLabel, ...]
    entries: Tuple[Tuple[Scalar, ...], ...]


def weyl_block(ctx: EvalContext, sig: Signature, weight: Weight) -> WeylBlock:
    """The complete (full-range) block at a weight; EmptyWeightSpace if none.

    Labels are checked once per block, each against the first label of the
    other basis, not once per entry.  Entries are SignedRadicals in exact mode.
    """
    us = u_labels_at_weight(sig, weight)
    ts = t_labels_at_weight(sig, weight)
    if not us or not ts:
        raise EmptyWeightSpace(f"no basis labels at weight {weight} of {sig}")
    for u in us:
        _check_match(sig, u, ts[0])
    for t in ts[1:]:
        _check_match(sig, us[0], t)
    entries = tuple(tuple(_bracket(ctx, sig, u, t) for t in ts) for u in us)
    return WeylBlock(weight, tuple(us), tuple(ts), entries)


# ----------------------------------------------------------------------------
# q-Racah coefficients
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class RacahArgs:
    """Arguments of U_q(a b e d; c f), stored as Fractions.

    In recoupling terms this is the unitary bracket
    <(a b) c, d; e | a, (b d) f; e>: triangles (a,b,c), (c,d,e), (b,d,f),
    (a,e,f).
    """

    a: Fraction
    b: Fraction
    e: Fraction
    d: Fraction
    c: Fraction
    f: Fraction

    @classmethod
    def make(cls, a, b, e, d, c, f) -> "RacahArgs":
        return cls(*(Fraction(x) for x in (a, b, e, d, c, f)))

    def as_tuple(self):
        return (self.a, self.b, self.e, self.d, self.c, self.f)


def _triangles_ok(a: int, b: int, e: int, d: int, c: int, f: int) -> bool:
    """The q-Racah argument test on doubled arguments (2a, 2b, 2e, 2d, 2c, 2f).

    All six are nonnegative, and (a,b,c), (a,e,f), (c,d,e), (b,d,f) are
    triangles with integral perimeters (even doubled sums).
    """
    if min(a, b, e, d, c, f) < 0:
        return False
    for x, y, z in ((a, b, c), (a, e, f), (c, d, e), (b, d, f)):
        if (x + y + z) % 2 or x + y < z or x + z < y or y + z < x:
            return False
    return True


def _doubled(args: RacahArgs):
    """(2a, 2b, 2e, 2d, 2c, 2f) as ints if the arguments pass the triangle
    test; None if they do not or are not all half-integers."""
    try:
        twice = tuple(map(_two, args.as_tuple()))
    except TypeError:
        return None
    return twice if _triangles_ok(*twice) else None


def racah_triangles_ok(args: RacahArgs) -> bool:
    """True when U_q(a b e d; c f) is inside its triangles (see _triangles_ok)."""
    return _doubled(args) is not None


def _qracah_parts(ctx: EvalContext, args: RacahArgs):
    """(phase_sign, prefactor_square, sum) of U_q; the sum is 0 out of triangle."""
    twice = _doubled(args)
    if twice is None:
        return 1, ctx.zero(), ctx.zero()
    # from here on a..f hold the doubled arguments 2a..2f; every halved sum
    # below is an integer (an even doubled sum) by the triangle test
    a, b, e, d, c, f = twice
    phase = -1 if (a + d - c - f) % 4 else 1
    abc, bdf = (a + b + c) // 2, (b + d + f) // 2
    pref_num = (ctx.qnum(c + 1) * ctx.qnum(f + 1)
                * ctx.qfact(abc + 1) * ctx.qfact(bdf + 1)
                * ctx.qfact((a - b + c) // 2) * ctx.qfact((-a + b + c) // 2)
                * ctx.qfact((a + e - f) // 2) * ctx.qfact((b - d + f) // 2)
                * ctx.qfact((-b + d + f) // 2) * ctx.qfact((-c + d + e) // 2))
    pref_den = (ctx.qfact((a + e + f) // 2 + 1) * ctx.qfact((c + d + e) // 2 + 1)
                * ctx.qfact((a + b - c) // 2) * ctx.qfact((a - e + f) // 2)
                * ctx.qfact((b + d - f) // 2) * ctx.qfact((c + d - e) // 2)
                * ctx.qfact((c - d + e) // 2) * ctx.qfact((-a + e + f) // 2))
    bc_a, bf_d = (-a + b + c) // 2, (b - d + f) // 2
    bcf_e, bcef = (b + c - e + f) // 2, (b + c + e + f) // 2
    total = ctx.zero()
    for n in range(0, min(bc_a, bf_d) + 1):
        sign = -1 if n % 2 else 1
        term = (ctx.qfact(b - n) * ctx.qfact(bcf_e - n)
                * ctx.qfact(bcef + 1 - n)
                * ctx.qfact_inv(n) * ctx.qfact_inv(bc_a - n)
                * ctx.qfact_inv(bf_d - n) * ctx.qfact_inv(abc + 1 - n)
                * ctx.qfact_inv(bdf + 1 - n))
        total = total + sign * term
    return phase, pref_num / pref_den, total


def qracah_exact(ctx: EvalContext, args: RacahArgs) -> SignedRadical:
    """U_q(a b e d; c f) as an exact SignedRadical (exact-mode context)."""
    if not ctx.is_exact():
        raise ValueError("qracah_exact requires an exact-mode context")
    return _signed_root(ctx, *_qracah_parts(ctx, args))


def qracah(ctx: EvalContext, args: RacahArgs) -> Scalar:
    """U_q(a b e d; c f) as a context scalar; 0 outside the triangles."""
    if ctx.is_exact():
        raise ValueError("exact qracah values are radicals; use qracah_exact")
    return _signed_root(ctx, *_qracah_parts(ctx, args))


def racah_args_from_rep(sig: Signature, u: UBasisLabel, t: TBasisLabel) -> RacahArgs:
    """The substitution (a, b, c, d, e, f) = (T, j3, j2, U, j1, j).

    j3 = (ell + k)/2, j2 = (f2 - f3 + p - s + ell + k - 2)/2,
    j1 = (f1 - f3 - p + s - 2)/2, j = (f1 - f2)/2.  Raises WeightMismatch for
    labels at different weights and InconsistentLabels if the resulting
    arguments are not jointly realizable (which cannot happen for matched
    valid labels; the check guards corrupted inputs).
    """
    _check_match(sig, u, t)
    k, ell, s, p = u.k, u.ell, t.s, t.p
    twice = (sig.f2 - sig.f3 + p + s - 2, ell + k,             # 2T, 2 j3
             sig.f1 - sig.f3 - p + s - 2,                      # 2 j1
             sig.f1 - sig.f2 - k + ell,                        # 2U
             sig.f2 - sig.f3 + p - s + ell + k - 2,            # 2 j2
             sig.f1 - sig.f2)                                  # 2 j
    args = RacahArgs(*(Fraction(x, 2) for x in twice))
    if not _triangles_ok(*twice):
        raise InconsistentLabels(f"arguments {args} violate a triangle condition")
    return args


def weyl_via_racah(ctx: EvalContext, sig: Signature,
                   u: UBasisLabel, t: TBasisLabel, form: str = "a") -> Scalar:
    """<U|T>_q computed through the q-Racah coefficient.

    form 'a':  (-1)^s sqrt([2U+1][2T+1] / ([2 j2+1][2 j+1])) U_q(T j3 j1 U; j2 j)
    form 'b':  (-1)^k U_q(j1 j2 j j3; U T)

    Both forms must agree with each other and with weyl_coefficient.
    """
    args = racah_args_from_rep(sig, u, t)
    a, b, e, d, c, f = args.as_tuple()
    if form == "a":
        sign = -1 if t.s % 2 else 1
        ratio = (ctx.qnum(_two(d) + 1) * ctx.qnum(_two(a) + 1)
                 / (ctx.qnum(_two(c) + 1) * ctx.qnum(_two(f) + 1)))
        return sign * ctx.sqrt(ratio) * qracah(ctx, args)
    if form == "b":
        sign = -1 if u.k % 2 else 1
        permuted = RacahArgs(e, c, f, b, d, a)
        return sign * qracah(ctx, permuted)
    raise ValueError(f"form must be 'a' or 'b', got {form!r}")
