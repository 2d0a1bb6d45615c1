"""Transformation brackets between the two reductions and q-Racah coefficients.

The overlap <U|T>_q between a U-basis and a T-basis vector of the same weight
is computed two independent ways:

1. directly, from its closed-form square-root prefactor and single balanced
   q-factorial sum, indexed by n;
2. through the general q-Racah coefficient U_q(a b e d; c f) under the
   substitution (a, b, c, d, e, f) = (T, j3, j2, U, j1, j) built from the two
   labels, times a dimension factor and phase.

The agreement of the two paths, together with orthogonality of the resulting
weight blocks and the intertwining property against the generator tables, is
what the verify module checks.

Both closed forms have one shape: a signed square root of a q-factorial
ratio times a single alternating q-factorial sum.  One private evaluator,
_racah_form, computes that shape in either mode; the bracket and the q-Racah
coefficient only build its argument lists from their own formulas, so the
two paths above stay independent.

Conventions for U_q(a b e d; c f): triangle conditions on (a,b,c), (a,e,f),
(c,d,e), (b,d,f); arguments outside any triangle give 0 by convention, as do
non-half-integer or negative arguments.

Half-integer arguments are read once as doubled integers (2a, 2U, 2M, ...),
and every q-factorial argument is formed from them in integer arithmetic.
One integer test on the doubled arguments decides the triangle conditions,
for racah_triangles_ok and the q-Racah sum alike.

A label is checked where a caller hands it in, and trusted after that:
weyl_block takes the labels repspace enumerates at its weight unchecked, and
racah_args_from_rep does not re-test the triangles that any U and T label of
one weight satisfy.  The tests hold both facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Tuple

from .errors import EmptyWeightSpace, WeightMismatch
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


def _racah_form(ctx: EvalContext, sign: int, dims, pref_num, pref_den,
                tops, bottoms):
    """sign * sqrt(P) * S, the shape of both the bracket and U_q.

    With dims = (x, y):
        P = [x][y] prod_{a in pref_num} [a]! / prod_{b in pref_den} [b]!,
        S = sum_n (-1)^n prod_{t in tops} [t - n]!
                         / ([n]! prod_{u in bottoms} [u - n]!),
    over n = 0..min(bottoms), the range on which every [u - n]! is defined.
    Factors are multiplied left to right in the order given.  Returns a
    context scalar, or a SignedRadical in exact mode.
    """
    qfact, qfact_inv = ctx.qfact, ctx.qfact_inv
    x, y = dims
    pref = (reduce(mul, map(qfact, pref_num), ctx.qnum(x) * ctx.qnum(y))
            / reduce(mul, map(qfact, pref_den)))
    total = ctx.zero()
    for n in range(min(bottoms) + 1):
        term = reduce(mul, [qfact(t - n) for t in tops] + [qfact_inv(n)]
                      + [qfact_inv(u - n) for u in bottoms])
        total = total - term if n % 2 else total + term
    if not ctx.is_exact():
        return sign * ctx.sqrt(pref) * total
    if total == 0:
        return SignedRadical.zero()
    return SignedRadical.make(sign if total > 0 else -sign, 0,
                              pref * total * total)


def _bracket(ctx: EvalContext, sig: Signature, u: UBasisLabel, t: TBasisLabel):
    """<U|T>_q for labels already known to be valid and at one weight."""
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    k, ell, s, p = u.k, u.ell, t.s, t.p
    twoU, twoMU, twoT, twoM = _two(u.U), _two(u.MU), _two(t.T), _two(t.M)
    drop = (twoU - twoMU) // 2
    # the sum's sign (-1)^(k + n) contributes its (-1)^k to the overall sign
    return _racah_form(
        ctx, -1 if k % 2 else 1, (twoU + 1, twoT + 1),
        (k, (twoM - twoT) // 2 - 1, (twoU + twoMU) // 2, (twoT + twoM) // 2,
         f12 - k, f12 + ell + 1, f23 + s - 2, f23 + p - 2),
        (s, p, ell, drop, f13 + s - 1, f12 - p, f23 + k - 2, f13 + ell - 1),
        (drop + k, ell + k, f13 + ell + k - 1),
        (k, twoU + 1 + k, ell - s + k, f23 + p + ell + k - 1))


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

    The labels are those repspace enumerates at this weight, so none is
    checked again.  Entries are SignedRadicals in exact mode.
    """
    us = u_labels_at_weight(sig, weight)
    ts = t_labels_at_weight(sig, weight)
    if not us or not ts:
        raise EmptyWeightSpace(f"no basis labels at weight {weight} of {sig}")
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


def _qracah(ctx: EvalContext, args: RacahArgs):
    """U_q(a b e d; c f) in either mode; 0 outside the triangles."""
    twice = _doubled(args)
    if twice is None:
        return SignedRadical.zero() if ctx.is_exact() else ctx.zero()
    # from here on a..f hold the doubled arguments 2a..2f; every halved sum
    # below is an integer (an even doubled sum) by the triangle test
    a, b, e, d, c, f = twice
    abc, bdf = (a + b + c) // 2, (b + d + f) // 2
    return _racah_form(
        ctx, -1 if (a + d - c - f) % 4 else 1, (c + 1, f + 1),
        (abc + 1, bdf + 1, (a - b + c) // 2, (-a + b + c) // 2,
         (a + e - f) // 2, (b - d + f) // 2, (-b + d + f) // 2,
         (-c + d + e) // 2),
        ((a + e + f) // 2 + 1, (c + d + e) // 2 + 1, (a + b - c) // 2,
         (a - e + f) // 2, (b + d - f) // 2, (c + d - e) // 2,
         (c - d + e) // 2, (-a + e + f) // 2),
        (b, (b + c - e + f) // 2, (b + c + e + f) // 2 + 1),
        ((-a + b + c) // 2, (b - d + f) // 2, abc + 1, bdf + 1))


def qracah_exact(ctx: EvalContext, args: RacahArgs) -> SignedRadical:
    """U_q(a b e d; c f) as an exact SignedRadical (exact-mode context)."""
    if not ctx.is_exact():
        raise ValueError("qracah_exact requires an exact-mode context")
    return _qracah(ctx, args)


def qracah(ctx: EvalContext, args: RacahArgs) -> Scalar:
    """U_q(a b e d; c f) as a context scalar; 0 outside the triangles."""
    if ctx.is_exact():
        raise ValueError("exact qracah values are radicals; use qracah_exact")
    return _qracah(ctx, args)


def racah_args_from_rep(sig: Signature, u: UBasisLabel, t: TBasisLabel) -> RacahArgs:
    """The substitution (a, b, c, d, e, f) = (T, j3, j2, U, j1, j).

    j3 = (ell + k)/2, j2 = (f2 - f3 + p - s + ell + k - 2)/2,
    j1 = (f1 - f3 - p + s - 2)/2, j = (f1 - f2)/2.  Raises LabelOutOfDomain
    for a label outside sig and WeightMismatch for labels at different
    weights.  Valid labels of one weight always give arguments inside all
    four triangles, so the arguments are not tested again.
    """
    _check_match(sig, u, t)
    k, ell, s, p = u.k, u.ell, t.s, t.p
    twice = (sig.f2 - sig.f3 + p + s - 2, ell + k,             # 2T, 2 j3
             sig.f1 - sig.f3 - p + s - 2,                      # 2 j1
             sig.f1 - sig.f2 - k + ell,                        # 2U
             sig.f2 - sig.f3 + p - s + ell + k - 2,            # 2 j2
             sig.f1 - sig.f2)                                  # 2 j
    return RacahArgs(*(Fraction(x, 2) for x in twice))


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
