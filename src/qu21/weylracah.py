"""Transformation brackets between the two reductions and q-Racah coefficients.

The overlap <U|T>_q between a U-basis and a T-basis vector of the same weight
is computed directly, from its closed-form square-root prefactor and single
balanced q-factorial sum, indexed by n (_bracket_args).  weyl_via_racah
evaluates it through the general q-Racah coefficient U_q(a b e d; c f) in
two forms:

a. under the substitution (a, b, c, d, e, f) = (T, j3, j2, U, j1, j) built
   from the two labels, times a dimension factor and phase.  This is the
   direct bracket re-indexed: its _racah_form arguments equal
   _bracket_args as multisets, sign included, so it runs the same sum;
b. U_q(j1 j2 j j3; U T), a Racah symmetry of form a with a different sum.

The independent checks of the bracket are form b, orthogonality of the
weight blocks and the intertwining property against both generator tables
(the verify module), and the q-Clebsch-Gordan oracle of the tests.

Both closed forms have one shape: a signed square root of a q-factorial
ratio times a single alternating q-factorial sum.  One private evaluator,
_racah_form, computes that shape in either mode; the bracket and the q-Racah
coefficient only build its argument lists (_bracket_args, _qracah_doubled).
The dimension factor and phase of form a fold into the q-Racah
coefficient's own root and sign, so each form is one _racah_form call.
verify.complete_blocks evaluates the same bracket argument lists and rounds
the evaluator's unreduced integers straight to its fixed-point scale.

At a rational q = r/s in lowest terms, z = rs, every q-factorial is an
integer over a power of z: [m]! = F_m / z^(m(m-1)/2), F_m = G_1 ... G_m
(qarith.QIntegers).  The prefactor becomes one integer power of each G_m
times one power of z, and the alternating sum one integer Horner recurrence
over its term ratios, so no term is reduced on its own.  Every context has
these tables (a float or mpf q is read as its exact binary rational).  Exact
mode returns the radicand as a Fraction, reduced through its square root
part; float mode rounds the same exact value once to its precision, so
cancellation in the sum costs it no digit, and the bracket and both forms
give the same bits wherever the algebra holds.

Conventions for U_q(a b e d; c f): triangle conditions on (a,b,c), (a,e,f),
(c,d,e), (b,d,f); arguments outside any triangle give 0 by convention, as do
non-half-integer or negative arguments.

Half-integer arguments are read once as doubled integers (2a, ..., 2f),
and every q-factorial argument is formed from them in integer arithmetic.
One integer test on the doubled arguments decides the triangle conditions,
for racah_triangles_ok and the q-Racah sum alike.

The bracket and the q-Racah substitution are formed from the integer label
keys of repspace.  A label pair a caller hands in is read and checked once,
by require_u_label and require_t_label, and its weights compared in
integers; weyl_block reads the keys of the labels repspace enumerates at its
weight unchecked.  Neither racah_args_from_rep nor weyl_via_racah re-tests
the triangles that any U and T label of one weight satisfy.  The tests hold
these facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Tuple

from .errors import ConstraintViolation, EmptyWeightSpace, WeightMismatch
from .qarith import EvalContext, QIntegers, SignedRadical, _tri, rounded_root
from .repspace import (
    Signature,
    TBasisLabel,
    UBasisLabel,
    Weight,
    _scaled,
    _t_key,
    _t_weight,
    _two_t,
    _two_u,
    _u_key,
    _u_weight,
    require_t_label,
    require_u_label,
    t_labels_at_weight,
    u_labels_at_weight,
)

if TYPE_CHECKING:
    import mpmath

# ----------------------------------------------------------------------------
# direct transformation bracket
# ----------------------------------------------------------------------------


def _check_match(sig: Signature, u: UBasisLabel, t: TBasisLabel):
    """The checked keys of u and t; WeightMismatch unless at one weight."""
    ukey, tkey = require_u_label(sig, u), require_t_label(sig, t)
    wu, wt = _u_weight(sig, ukey), _t_weight(sig, tkey)
    if wu != wt:
        raise WeightMismatch(
            f"labels live at different weights: {u} -> {wu}, {t} -> {wt}")
    return ukey, tkey


def _racah_form(ctx: EvalContext, sign: int, dims, pref_num, pref_den,
                tops, bottoms):
    """sign * sqrt(P) * S, the shape of both the bracket and U_q.

    With dims = (x, y):
        P = [x][y] prod_{a in pref_num} [a]! / prod_{b in pref_den} [b]!,
        S = sum_n (-1)^n prod_{t in tops} [t - n]!
                         / ([n]! prod_{u in bottoms} [u - n]!),
    over n = 0..min(bottoms), the range on which every [u - n]! is defined;
    every t in tops is at least min(bottoms), and x, y >= 1.

    The value is evaluated exactly on the integer tables of q (ctx.ints,
    _racah_form_exact).  An exact context returns it as a SignedRadical; a
    float one rounds it once to its own precision (qarith.rounded_root), so
    the float value is the exact one correctly rounded.
    """
    sign, root_num, root_den, rest = _racah_form_exact(
        ctx.ints, sign, dims, pref_num, pref_den, tops, bottoms)
    if not ctx.is_exact():
        return rounded_root(ctx, sign, root_num * root_num * rest,
                            root_den * root_den)
    if sign == 0:
        return SignedRadical.zero()
    # the gcd that reduces the root runs on half the bits of the radicand;
    # squaring it needs none, and rest is a few small factors
    return SignedRadical(sign, 0, Fraction(root_num, root_den) ** 2 * rest)


def _racah_form_exact(ints: QIntegers, sign: int, dims, pref_num, pref_den,
                      tops, bottoms):
    """_racah_form on the integer tables of q = r/s, z = rs (qarith.QIntegers):
    [m] = G_m / z^(m-1) and [m]! = F_m / z^tri(m), F_m = G_1 ... G_m.

    With N = min(bottoms), S = T_0 (1 + rho_0 (1 + rho_1 (... rho_(N-1)))),
    where T_0 = prod_t [t]! / prod_u [u]! is the n = 0 term and

        rho_k = T_(k+1) / T_k = -prod_u [u - k] / ([k + 1] prod_t [t - k])
              = -(a_k / b_k) z^e_k,

    a_k = prod_u G_(u-k) and b_k = G_(k+1) prod_t G_(t-k).  The Horner
    recurrence h/d <- 1 - a_k h / (b_k d) runs from k = N - 1 down to 0 in
    integers, with each z^e_k multiplied into a_k or b_k.  The b_k multiply
    to F_N prod_t F_t / F_(t-N), so S = h prod_t F_(t-N) / (F_N prod_u F_u)
    times a power of z, and d is never divided out.  The radicand P S^2 is
    then h^2 times one power of each G_i, counted over every F_m it
    divides, and one power of z.  h carries the sign of S (d > 0).

    Each power G^e splits as (G^(e // 2))^2 G^(e % 2), and so does the power
    of z.  Returns the exact value as integers (sign, root_num, root_den,
    rest): sign * (root_num / root_den) * sqrt(rest), where root_num takes
    |h| and the G and z halves of positive exponent, root_den those of
    negative exponent, the fraction is not reduced, and rest is a product of
    distinct G_i and at most one z; (0, 0, 1, 0) when S = 0.
    """
    x, y = dims
    last = min(bottoms)
    top = max(x, y, *pref_num, *pref_den, *tops, *bottoms)
    g = ints.g_table(top)
    z = ints.z
    more = len(bottoms) - len(tops)
    # e_k = sum(t - k - 1) - sum(u - k - 1) + k = base + (more + 1) k
    base = sum(tops) - sum(bottoms) + more
    h = d = 1
    zpow = 0    # the power of z moved into the b_k
    for k in range(last - 1, -1, -1):
        a, b = 1, g[k + 1]
        for u in bottoms:
            a *= g[u - k]
        for t in tops:
            b *= g[t - k]
        e = base + (more + 1) * k
        if e >= 0:
            a *= z ** e
        else:
            b *= z ** -e
            zpow -= e
        h, d = b * d - a * h, b * d
    if h == 0:
        return 0, 0, 1, 0
    # count[m] is the power of F_m in the radicand.  First P, which is
    # prod_m ([m]!)^count[m] with [x] = [x]! / [x - 1]!, and the power of z
    # of P and of S^2 = (T_0 h / d)^2
    ups, downs = (x, y, *pref_num), (x - 1, y - 1, *pref_den)
    count = [0] * (top + 1)
    for m in ups:
        count[m] += 1
    for m in downs:
        count[m] -= 1
    zexp = (2 * (sum(map(_tri, bottoms)) - sum(map(_tri, tops)) - zpow)
            - sum(map(_tri, ups)) + sum(map(_tri, downs)))
    # then the F_m of S^2, S = h prod_t F_(t-N) / (F_N prod_u F_u) z^...
    for t in tops:
        count[t - last] += 2
    for m in (last, *bottoms):
        count[m] -= 2
    root_num, root_den, rest = abs(h), 1, 1
    e = 0
    for i in range(top, 0, -1):
        e += count[i]              # G_i is a factor of every F_m with m >= i
        if e > 1:
            root_num *= g[i] ** (e >> 1)
        elif e < 0:
            root_den *= g[i] ** -(e >> 1)
        if e & 1:
            rest *= g[i]
    if zexp >= 0:
        root_num *= z ** (zexp >> 1)
    else:
        root_den *= z ** -(zexp >> 1)
    if zexp & 1:
        rest *= z
    return (sign if h > 0 else -sign), root_num, root_den, rest


def _bracket_args(sig: Signature, ukey, tkey):
    """The arguments (sign, dims, pref_num, pref_den, tops, bottoms) of
    _racah_form that give <U|T>_q, for the keys of two labels of sig at one
    weight."""
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    (k, ell, twoMU), (s, p, twoM) = ukey, tkey
    twoU, twoT = _two_u(sig, k, ell), _two_t(sig, s, p)
    drop = (twoU - twoMU) // 2
    # the sum's sign (-1)^(k + n) contributes its (-1)^k to the overall sign
    return (-1 if k % 2 else 1, (twoU + 1, twoT + 1),
            (k, (twoM - twoT) // 2 - 1, (twoU + twoMU) // 2, (twoT + twoM) // 2,
             f12 - k, f12 + ell + 1, f23 + s - 2, f23 + p - 2),
            (s, p, ell, drop, f13 + s - 1, f12 - p, f23 + k - 2, f13 + ell - 1),
            (drop + k, ell + k, f13 + ell + k - 1),
            (k, twoU + 1 + k, ell - s + k, f23 + p + ell + k - 1))


def _bracket(ctx: EvalContext, sig: Signature, ukey, tkey):
    """<U|T>_q for the keys of two labels of sig at one weight."""
    return _racah_form(ctx, *_bracket_args(sig, ukey, tkey))


def weyl_coefficient_exact(ctx: EvalContext, sig: Signature,
                           u: UBasisLabel, t: TBasisLabel) -> SignedRadical:
    """<U|T>_q as an exact SignedRadical (requires an exact-mode context)."""
    if not ctx.is_exact():
        raise ValueError("weyl_coefficient_exact requires an exact-mode context")
    return _bracket(ctx, sig, *_check_match(sig, u, t))


def weyl_coefficient(ctx: EvalContext, sig: Signature,
                     u: UBasisLabel, t: TBasisLabel) -> mpmath.mpf:
    """<U|T>_q rounded once to a float context's precision."""
    if ctx.is_exact():
        raise ValueError("use weyl_coefficient_exact for exact-mode contexts")
    return _bracket(ctx, sig, *_check_match(sig, u, t))


@dataclass(frozen=True)
class WeylBlock:
    """Orthogonal change-of-basis block at one weight.

    rows follow u_labels (ascending U), columns follow t_labels (ascending T);
    entries[i][j] = <u_i | t_j>_q: a SignedRadical in exact mode, its value
    rounded once (an mpf) in float mode.  At full label range the block is
    square.
    """

    weight: Weight
    u_labels: Tuple[UBasisLabel, ...]
    t_labels: Tuple[TBasisLabel, ...]
    entries: Tuple[Tuple[object, ...], ...]


def weyl_block(ctx: EvalContext, sig: Signature, weight: Weight) -> WeylBlock:
    """The complete (full-range) block at a weight; EmptyWeightSpace if none.

    The labels are those repspace enumerates at this weight, so their keys
    are read unchecked.  Entries are SignedRadicals in exact mode.
    """
    us, ts = u_labels_at_weight(sig, weight), t_labels_at_weight(sig, weight)
    if not us or not ts:
        raise EmptyWeightSpace(f"no basis labels at weight {weight} of {sig}")
    ukeys, tkeys = list(map(_u_key, us)), list(map(_t_key, ts))
    entries = tuple(tuple(_bracket(ctx, sig, u, t) for t in tkeys)
                    for u in ukeys)
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
        twice = tuple(_scaled(x, 2, "argument") for x in args.as_tuple())
    except ConstraintViolation:
        return None
    return twice if _triangles_ok(*twice) else None


def racah_triangles_ok(args: RacahArgs) -> bool:
    """True when U_q(a b e d; c f) is inside its triangles (see _triangles_ok)."""
    return _doubled(args) is not None


def _qracah(ctx: EvalContext, args: RacahArgs):
    """U_q(a b e d; c f) in either mode; 0 outside the triangles."""
    twice = _doubled(args)
    if twice is None:
        return SignedRadical.zero() if ctx.is_exact() else rounded_root(ctx, 0, 0, 1)
    return _qracah_doubled(ctx, *twice)


def _qracah_doubled(ctx: EvalContext, a: int, b: int, e: int, d: int,
                    c: int, f: int, dims=None):
    """U_q from the doubled arguments 2a..2f, which pass _triangles_ok.

    Here a..f hold the doubled arguments; every halved sum below is an
    integer (an even doubled sum) by the triangle test.  U_q's root holds
    [c + 1][f + 1] (2c + 1 and 2f + 1 for the halved c, f); dims = (x, y),
    when given, replaces that pair, which multiplies the value by
    sqrt([x][y] / ([c + 1][f + 1])) within the same one evaluation.
    """
    abc, bdf = (a + b + c) // 2, (b + d + f) // 2
    return _racah_form(
        ctx, -1 if (a + d - c - f) % 4 else 1, dims or (c + 1, f + 1),
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


def qracah(ctx: EvalContext, args: RacahArgs) -> mpmath.mpf:
    """U_q(a b e d; c f) rounded once to a float context's precision; 0
    outside the triangles."""
    if ctx.is_exact():
        raise ValueError("exact qracah values are radicals; use qracah_exact")
    return _qracah(ctx, args)


def _rep_doubled(sig: Signature, ukey, tkey):
    """(2T, 2 j3, 2 j1, 2U, 2 j2, 2 j): the doubled arguments (2a, 2b, 2e,
    2d, 2c, 2f) of the substitution (a, b, c, d, e, f) = (T, j3, j2, U, j1, j)
    for the keys of two labels of sig at one weight.  They are inside all
    four triangles."""
    (k, ell, _), (s, p, _) = ukey, tkey
    twoT = _two_t(sig, s, p)
    return (twoT, ell + k,                                     # 2T, 2 j3
            sig.f1 - sig.f3 - p + s - 2,                       # 2 j1
            _two_u(sig, k, ell),                               # 2U
            twoT - 2 * s + ell + k,                            # 2 j2
            sig.f1 - sig.f2)                                   # 2 j


def racah_args_from_rep(sig: Signature, u: UBasisLabel, t: TBasisLabel) -> RacahArgs:
    """The substitution (a, b, c, d, e, f) = (T, j3, j2, U, j1, j).

    j3 = (ell + k)/2, j2 = (f2 - f3 + p - s + ell + k - 2)/2,
    j1 = (f1 - f3 - p + s - 2)/2, j = (f1 - f2)/2.  Raises LabelOutOfDomain
    for a label outside sig and WeightMismatch for labels at different
    weights.  Valid labels of one weight always give arguments inside all
    four triangles, so the arguments are not tested again.  This is the
    Fraction view of the doubled arguments weyl_via_racah evaluates.
    """
    return RacahArgs(*(Fraction(x, 2)
                       for x in _rep_doubled(sig, *_check_match(sig, u, t))))


def weyl_via_racah(ctx: EvalContext, sig: Signature,
                   u: UBasisLabel, t: TBasisLabel, form: str = "a"):
    """<U|T>_q computed through the q-Racah coefficient, in either mode.

    form 'a':  (-1)^s sqrt([2U+1][2T+1] / ([2 j2+1][2 j+1])) U_q(T j3 j1 U; j2 j)
    form 'b':  (-1)^k U_q(j1 j2 j j3; U T)

    Both forms must agree with each other and with the direct bracket.  The
    labels are checked once; both forms then take the doubled substitution
    straight to the q-Racah argument map.  Form a's dimension factor
    cancels the [2 j2+1][2 j+1] under U_q's root, so it passes [2U+1][2T+1]
    as that root's pair in their place.  So each form, like the direct
    bracket, is one exact evaluation: a SignedRadical in exact mode, rounded
    once in float mode, where the three agree to the last bit.
    """
    ukey, tkey = _check_match(sig, u, t)
    a, b, e, d, c, f = _rep_doubled(sig, ukey, tkey)
    if form == "a":
        value = _qracah_doubled(ctx, a, b, e, d, c, f, (d + 1, a + 1))
        return -value if tkey[0] % 2 else value
    if form == "b":
        value = _qracah_doubled(ctx, e, c, f, b, d, a)
        return -value if ukey[0] % 2 else value
    raise ValueError(f"form must be 'a' or 'b', got {form!r}")
