"""Exact q-number arithmetic, and the one rounding of a radical to a float.

The symmetric q-bracket is used throughout:

    [n] = (q^n - q^-n) / (q - q^-1),      [n]! = [1][2]...[n],  [0]! = 1.

The classical point q = 1 is handled as an explicit limit ([n] -> n), never by
numerically approaching it.  [n]! and 1/[n]! are defined for n >= 0 only; every
finite sum in this package bounds its own range.

At a rational q = r/s in lowest terms every q-number is an integer over a
power of z = rs (QIntegers):

    [m] = G_m / z^(m-1),    [m]! = F_m / z^(m(m-1)/2),

with G_m = (r^2m - s^2m) / (r^2 - s^2) (G_m = m at q = 1) and F_m = G_1 ... G_m.
Every context holds these tables, of q read as the exact rational it is: an
int or a Fraction as given, a float or an mpf as its binary rational
(exact_fraction); one table set is kept per exact q, whatever the mode or
precision.  Products of brackets and of factorials are formed on them in
integers (_brackets, _factorial_ratio), for the generator tables, the norms
and EvalContext's [n], [n]! and 1/[n]!; the q-Racah evaluator of weylracah
reads them too.  In both modes q^w, [n], [n]!, 1/[n]! and [x]^2 are exact
Fractions.

A value that leaves the rationals is a radical, sign sqrt(x) with x
rational.  Exact mode keeps it exact (SignedRadical); a float context only
rounds it, once: to its precision (rounded_root, SignedRadical.to_float), or
to its fixed-point scale 2^-F, F its working bits plus _GUARD_BITS
(fixed_bits, to_fixed, fixed_root), which is what verify's checks compute
on.  So every float value is an exact value rounded once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import inf, isqrt

from .errors import NegativeFactorial, RadicalIncompatible
from .records import Record, _set

_EXACT = "exact"
_FLOAT = "float"

# Float contexts at this many distinct precisions keep their mpmath context
# (about 42 KiB each); a context evicted beyond that is rebuilt on demand.
_MP_CONTEXTS = 8

# Contexts of this many distinct exact q keep their q-number tables.  A q
# evicted beyond that gets fresh tables, which compute the same values.
_Q_TABLES = 32


def _as_int(n) -> int:
    """Coerce an int or integral Fraction to int, rejecting anything else."""
    if isinstance(n, int):
        return n
    if isinstance(n, Fraction) and n.denominator == 1:
        return int(n)
    raise TypeError(f"expected an integer bracket argument, got {n!r}")


class QIntegers:
    """The integer q-number table G_m of a rational q = r/s > 0, and z = rs.

    G_m = sum_{i<m} r^2i s^2(m-1-i), so G_0 = 0, G_1 = 1 and G_m = m at
    q = 1; F_m = G_1 ... G_m, with F_0 = 1.  Then [m] = G_m / z^(m-1) and
    [m]! = F_m / z^(m(m-1)/2) with z = rs; G_m and F_m are prime to z, so
    both fractions are already in lowest terms.  The tables of G and F grow
    on demand, through G_(m+1) = r^2 G_m + s^2m and F_(m+1) = F_m G_(m+1),
    and an entry never changes.
    """

    __slots__ = ("z", "_r2", "_s2", "_g", "_f")

    def __init__(self, q: Fraction):
        r, s = q.numerator, q.denominator
        self.z = r * s
        self._r2, self._s2 = r * r, s * s
        self._g = [0, 1]
        self._f = [1, 1]

    def g_table(self, n: int):
        """The list G_0, G_1, ..., G_N for some N >= n; read, never write."""
        g, r2, s2 = self._g, self._r2, self._s2
        for m in range(len(g) - 1, n):
            g.append(r2 * g[m] + s2 ** m)
        return g

    def f_table(self, n: int):
        """The list F_0, F_1, ..., F_N for some N >= n; read, never write."""
        f = self._f
        if len(f) <= n:
            g = self.g_table(n)
            for m in range(len(f), n + 1):
                f.append(f[m - 1] * g[m])
        return f

    def qpow2(self, e: int):
        """q^(2e) = (r^2 / s^2)^e as a pair (numerator, denominator)."""
        if e >= 0:
            return self._r2 ** e, self._s2 ** e
        return self._s2 ** -e, self._r2 ** -e


def _tri(m: int) -> int:
    """m(m-1)/2, the power of 1/z in [m]! (see QIntegers)."""
    return m * (m - 1) // 2


def _brackets(ints: QIntegers, nums, dens, neg: int = 0, num: int = 1,
              den: int = 1):
    """(-1)^neg num / den times prod [a] / prod [b] over a in nums, b in
    dens, as ints (neg, N, D): the ratio is (-1)^neg N / D, with N >= 0 and
    D > 0 (given num >= 0 and den > 0).

    [m] = G_m / z^(m-1) and [-m] = -[m] (QIntegers); no gcd is taken.  The
    table of G grows only when an argument passes its end.
    """
    g = ints.g_table(0)
    zexp = 0
    for a in nums:
        if a < 0:
            a, neg = -a, neg ^ 1
        if a >= len(g):
            g = ints.g_table(a)
        num *= g[a]
        zexp -= a - 1
    for b in dens:
        if b < 0:
            b, neg = -b, neg ^ 1
        if b >= len(g):
            g = ints.g_table(b)
        den *= g[b]
        zexp += b - 1
    if zexp >= 0:
        return neg, num * ints.z ** zexp, den
    return neg, num, den * ints.z ** -zexp


def _bracket_fraction(ints: QIntegers, nums, dens) -> Fraction:
    """prod [a] / prod [b] over a in nums, b in dens (_brackets), as one
    Fraction."""
    neg, num, den = _brackets(ints, tuple(nums), tuple(dens))
    return Fraction(-num if neg else num, den)


def _factorial_ratio(ints: QIntegers, nums, dens) -> Fraction:
    """prod [a]! / prod [b]! over a in nums, b in dens, as one Fraction.

    [m]! = F_m / z^(m(m-1)/2) (QIntegers): the F_m and the power of z
    multiply in integers, and the Fraction is formed once.
    NegativeFactorial for a negative argument.
    """
    if min(nums + dens) < 0:
        raise NegativeFactorial(f"[{min(nums + dens)}]! is undefined")
    f = ints.f_table(max(nums + dens))
    num = den = 1
    for a in nums:
        num *= f[a]
    for b in dens:
        den *= f[b]
    zexp = sum(map(_tri, dens)) - sum(map(_tri, nums))
    if zexp >= 0:
        return Fraction(num * ints.z ** zexp, den)
    return Fraction(num, den * ints.z ** -zexp)


def sqrt_fraction(value: Fraction):
    """Exact square root of a nonnegative Fraction, or None if not a square."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


# Bits beyond a float context's precision that rounded_root computes before
# its one rounding to that precision; with its sticky bit any count of at
# least 2 gives the same, correctly rounded result.  The fixed-point scale of
# a float context carries this many bits beyond its precision too.
_GUARD_BITS = 16


def _root_bits(num: int, den: int, k: int):
    """(man, k'): man 2^-k' is sqrt(num / den) truncated to k bits after the
    point, with a sticky bit appended (man -> 2 man + 1, k' = k + 1) when
    the truncation drops anything; k' = k when the root is exact.

    num >= 0 and den > 0 are ints.  So a rounding of man 2^-k' that keeps at
    most k - 1 bits after the point rounds exactly as the root itself would.
    """
    if k >= 0:
        quot, rem = divmod(num << 2 * k, den)
    else:
        quot, rem = divmod(num, den << -2 * k)
    man = isqrt(quot)
    if rem or man * man != quot:
        return 2 * man + 1, k + 1
    return man, k


def rounded_root(ctx: "EvalContext", sign: int, num: int, den: int):
    """sign * sqrt(num / den) correctly rounded to the float context ctx.

    num >= 0 and den > 0 are ints, in any common scale.  The root is taken
    to at least wp = precision + _GUARD_BITS bits, with a sticky bit
    (_root_bits), so one rounding to nearest at the context's precision
    rounds exactly as the root itself would, whatever the scale of num and
    den.  Returns the context's zero when sign or num is 0.  The mpf of
    (man, exp) is man 2^exp rounded to nearest at the context's precision
    (mpmath's from_man_exp), so no mpmath name is imported here.
    """
    mp = ctx._mp
    if sign == 0 or num == 0:
        return mp.zero
    man, k = _root_bits(num, den, mp.prec + _GUARD_BITS
                        + (den.bit_length() - num.bit_length() + 2) // 2)
    return mp.mpf((man if sign > 0 else -man, -k))


def _round_div(num: int, den: int) -> int:
    """num / den rounded to the nearest int, ties to even (den > 0)."""
    quot, rem = divmod(num, den)
    half = 2 * rem - den
    return quot + 1 if half > 0 or (half == 0 and quot & 1) else quot


def fixed_root(sign: int, num: int, den: int, bits: int) -> int:
    """sign * sqrt(num / den) rounded once to the nearest multiple of
    2^-bits (ties to even), as the int n of n 2^-bits.

    num >= 0 and den > 0 are ints, in any common scale.  With
    X = (num / den) 4^bits, r = isqrt(floor(4X)) = floor(2 sqrt(X)), so the
    nearest int to sqrt(X) is (r + 1) // 2, unless 2 sqrt(X) is exactly the
    odd r, a tie, which goes to the even neighbour.  0 when sign or num
    is 0.
    """
    if sign == 0 or num == 0:
        return 0
    quot, rem = divmod(num << 2 * bits + 2, den)
    r = isqrt(quot)
    n = (r + 1) >> 1
    if n & 1 and r & 1 and not rem and r * r == quot:
        n -= 1
    return n if sign > 0 else -n


@lru_cache(maxsize=_MP_CONTEXTS)
def _mp_context(precision: int):
    """The mpmath context shared by every float EvalContext at this precision.

    mpmath is imported here, where the first mpf is made, so a run that
    makes none (verify, basis, matrix, exact racah) never loads it.
    """
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = precision
    return ctx


def exact_fraction(x) -> Fraction:
    """x as the exact Fraction it is: an mpf from its mantissa and binary
    exponent, anything else (an int, a Fraction, a float) by Fraction(x).

    Raises ValueError for an mpf that is not finite, and whatever
    Fraction(x) raises otherwise (OverflowError for a float infinity).
    """
    if not hasattr(x, "_mpf_"):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    if not man:
        if exp:
            raise ValueError(f"not a finite value: {x!r}")
        return Fraction(0)
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


@lru_cache(maxsize=_Q_TABLES)
def _q_tables(q):
    """The q-number tables of every EvalContext of this q, in either mode.

    Returns q as the exact Fraction it is (exact_fraction), its QIntegers
    and the qpow memo, whose entries are exact Fractions.  A key that is
    not a Fraction (an int, a float, an mpf) takes the tables of its
    exact_fraction; so one exact q has one table set (2, Fraction(2) and
    2.0 share it), which the exact context and the float contexts at every
    precision share.  A table entry is a fixed function
    of (q, n), so which context fills a table, and when, never changes a
    value.  Raises ValueError unless q is finite and positive (a raise is
    not cached).
    """
    try:
        value = exact_fraction(q)
    except (OverflowError, TypeError, ValueError):
        if not (q != q or q in (inf, -inf)):  # not a NaN or an infinity
            raise
        value = 0
    if value <= 0:
        raise ValueError("q must be finite and positive")
    if type(q) is not Fraction:
        return _q_tables(value)
    return value, QIntegers(value), {}


class EvalContext:
    """Immutable evaluation backend for all q-arithmetic.

    q is a positive rational: an int or a Fraction as given, a float or an
    mpf as the binary rational it is (exact_fraction).  In both modes every
    q-number (qpow, qnum, qfact, qfact_inv, qbracket_half_sq) is an exact
    Fraction; the mode only decides how a value that leaves the rationals
    (a radical, a SignedRadical) is given back.

    mode 'exact':  radicals stay exact SignedRadicals.  No mpmath context is
                   built.
    mode 'float':  radicals are rounded once, at ``precision`` decimal
                   digits (rounded_root, SignedRadical.to_float), or to the
                   fixed-point scale 2^-F (fixed_bits, to_fixed,
                   SignedRadical.to_fixed).  The mpf results live on an
                   mpmath context that every float EvalContext of that
                   precision shares (one per precision, from a bounded
                   memo), built when the first mpf is made; the
                   fixed-point scale needs none.  No code may change that
                   context's precision; so
                   instances never interfere with each other or with the
                   global mpmath state.

    All operations are pure; the only internal mutation is the growth of
    the tables on demand.  ``ints`` holds the integer tables G_m and F_m
    (see QIntegers) of q; qnum, qfact and qfact_inv read them
    (_bracket_fraction, _factorial_ratio), as do weylracah for q-Racah
    values and brackets, the generator tables for their matrix elements and
    SignedRadical.to_float for its q-power; qpow keeps a memo of q^w.
    Every context of one exact q, in either mode and at every precision,
    shares these tables, taken at construction from a process-wide memo of
    the ``_Q_TABLES`` (32) most recently used q (_q_tables); so a table
    keeps every entry up to the largest n that any context of its q asked
    for.  A context keeps the tables it took even after its q is evicted,
    and a later context of that q starts fresh ones.  Each entry is exact,
    so a value never depends on the order of calls, on sharing or on
    eviction.

    as_float gives the float companion of a context: the same q, and so the
    same tables, at a precision.
    """

    __slots__ = ("mode", "q", "precision", "ints", "_qpow_memo")

    def __init__(self, mode: str, q, precision: int = 50):
        if mode not in (_EXACT, _FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.precision = int(precision)
        if self.precision < 1:
            raise ValueError(f"precision must be at least 1 digit, got {precision}")
        self.q, self.ints, self._qpow_memo = _q_tables(q)

    @property
    def _mp(self):
        """The shared mpmath context of this float context's precision
        (_mp_context), built on first use; None in exact mode."""
        return _mp_context(self.precision) if self.mode == _FLOAT else None

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls, q) -> "EvalContext":
        return cls(_EXACT, q)

    @classmethod
    def floating(cls, q, precision: int = 50) -> "EvalContext":
        return cls(_FLOAT, q, precision)

    def as_float(self, precision: int | None = None) -> "EvalContext":
        """A float-mode companion context at the same q."""
        if self.mode == _FLOAT and (precision is None or precision == self.precision):
            return self
        prec = self.precision if precision is None else precision
        return EvalContext(_FLOAT, self.q, prec)

    # -- basic values ------------------------------------------------------

    def is_exact(self) -> bool:
        return self.mode == _EXACT

    def is_classical(self) -> bool:
        """True at the classical point q = 1."""
        return self.q == 1

    def qpow(self, w) -> Fraction:
        """q**w for integer w."""
        w = _as_int(w)
        memo = self._qpow_memo
        if w not in memo:
            memo[w] = self.q ** w
        return memo[w]

    # -- brackets and factorials --------------------------------------------

    def qnum(self, n) -> Fraction:
        """Symmetric q-bracket [n]; [n] -> n at q = 1, [-n] = -[n]."""
        return _bracket_fraction(self.ints, (_as_int(n),), ())

    def qfact(self, n) -> Fraction:
        """q-factorial [n]! with [0]! = 1; raises NegativeFactorial for n < 0."""
        return _factorial_ratio(self.ints, (_as_int(n),), ())

    def qfact_inv(self, n) -> Fraction:
        """1/[n]!; raises NegativeFactorial for n < 0."""
        return _factorial_ratio(self.ints, (), (_as_int(n),))

    def qbracket_half_sq(self, two_x) -> Fraction:
        """[x]^2 for the half-integer x = two_x / 2.

        Although [x] itself leaves the rational field for half-integer x, its
        square (q^{2x} - 2 + q^{-2x}) / (q - q^-1)^2 does not.
        """
        two_x = _as_int(two_x)
        if self.is_classical():
            return Fraction(two_x, 2) ** 2
        q = self.q
        return (self.qpow(two_x) - 2 + self.qpow(-two_x)) / (q - q ** -1) ** 2

    # -- fixed point ---------------------------------------------------------

    def fixed_bits(self) -> int:
        """F = working bits + _GUARD_BITS: a fixed-point int n of this float
        context stands for n 2^-F.

        The working bits are those of its mpmath context, by mpmath's own
        formula for the bits of ``precision`` digits (libmp.dps_to_prec),
        so no mpmath context is built for them.
        """
        if self.mode == _EXACT:
            raise ValueError("fixed_bits requires a float-mode context")
        bits = max(1, round((self.precision + 1) * 3.3219280948873626))
        return bits + _GUARD_BITS

    def to_fixed(self, x) -> int:
        """x rounded once to the nearest n 2^-F (ties to even), as the int n.

        x is an int or a Fraction (rounded exactly), or a SignedRadical (see
        SignedRadical.to_fixed).
        """
        bits = self.fixed_bits()
        if isinstance(x, int):
            return x << bits
        if isinstance(x, SignedRadical):
            return x.to_fixed(self)
        return _round_div(x.numerator << bits, x.denominator)

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        return f"EvalContext(mode={self.mode!r}, q={self.q!r}, precision={self.precision})"


class SignedRadical(Record):
    """Exact factored value  sign * q^qpower * sqrt(radicand).

    sign is the int -1, 0, or +1; qpower is an int; radicand is a
    nonnegative Fraction or int.  A sign or qpower that is not an int or is
    a bool, or a radicand of another type, is a TypeError.  sign == 0 if and
    only if the radicand is zero, in which case the canonical form (0, 0, 0)
    is enforced.  The type is closed under multiplication and division but not
    addition; a restricted exact sum is available when radicand ratios are
    rational squares.
    """

    __slots__ = ("sign", "qpower", "radicand")

    # Its own __init__, not Record's: exact sums build tens of thousands of
    # radicals per verify, and the checks read the arguments (the radicand
    # through its int numerator, not a Fraction comparison).
    def __init__(self, sign, qpower, radicand):
        if type(sign) is not int or type(qpower) is not int:
            raise TypeError(f"sign and qpower must be ints, got {sign!r}, "
                            f"{qpower!r}")
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or +1, got {sign}")
        if not isinstance(radicand, (int, Fraction)):
            raise TypeError(
                f"radicand must be an int or a Fraction, got {radicand!r}")
        if radicand.numerator < 0:
            raise ValueError("radicand must be nonnegative")
        if (sign == 0) != (radicand.numerator == 0):
            raise ValueError("sign == 0 exactly when radicand == 0")
        _set(self, "sign", sign)
        _set(self, "qpower", qpower)
        _set(self, "radicand", radicand)

    @classmethod
    def zero(cls) -> "SignedRadical":
        return cls(0, 0, Fraction(0))

    @classmethod
    def make(cls, sign: int, qpower, radicand) -> "SignedRadical":
        """Normalizing constructor: any zero radicand collapses to the zero value."""
        if radicand == 0 or sign == 0:
            return cls.zero()
        return cls(sign, _as_int(qpower), radicand)

    @classmethod
    def from_rational(cls, value: Fraction) -> "SignedRadical":
        value = Fraction(value)
        if value == 0:
            return cls.zero()
        return cls(1 if value > 0 else -1, 0, value * value)

    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "SignedRadical") -> "SignedRadical":
        if self.sign == 0 or other.sign == 0:
            return SignedRadical.zero()
        return SignedRadical(self.sign * other.sign,
                             self.qpower + other.qpower,
                             self.radicand * other.radicand)

    def __truediv__(self, other: "SignedRadical") -> "SignedRadical":
        if other.sign == 0:
            raise ZeroDivisionError("division by zero SignedRadical")
        if self.sign == 0:
            return SignedRadical.zero()
        return SignedRadical(self.sign * other.sign,
                             self.qpower - other.qpower,
                             self.radicand / other.radicand)

    def __neg__(self) -> "SignedRadical":
        if self.sign == 0:
            return self
        return SignedRadical(-self.sign, self.qpower, self.radicand)

    def squared(self, ctx: EvalContext) -> Fraction:
        """The exact square q^{2 qpower} * radicand."""
        if self.sign == 0:
            return Fraction(0)
        return ctx.qpow(2 * self.qpower) * self.radicand

    def same_value(self, other: "SignedRadical", ctx: EvalContext) -> bool:
        """Exact value equality under the given context's q."""
        if self.sign != other.sign:
            return False
        if self.sign == 0:
            return True
        return self.squared(ctx) == other.squared(ctx)

    def add_exact(self, other: "SignedRadical", ctx: EvalContext) -> "SignedRadical":
        """Exact sum, defined only when the radicand ratio is a rational square.

        Requires an exact-mode context (rational q) so that q-powers fold into
        the radicands exactly.  Raises RadicalIncompatible otherwise.
        """
        if not ctx.is_exact():
            raise ValueError("add_exact requires an exact-mode context")
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        rho1 = self.squared(ctx)
        rho2 = other.squared(ctx)
        ratio = sqrt_fraction(rho2 / rho1)
        if ratio is None:
            raise RadicalIncompatible(f"cannot add sqrt({rho1}) and sqrt({rho2}) exactly")
        coeff = self.sign + other.sign * ratio
        if coeff == 0:
            return SignedRadical.zero()
        sign = 1 if coeff > 0 else -1
        return SignedRadical(sign, 0, coeff * coeff * rho1)

    def to_float(self, ctx: EvalContext):
        """Numeric value sign * q^qpower * sqrt(radicand) in a float context:
        the exact value sqrt(q^(2 qpower) radicand), formed in the integers
        of q (ctx.ints), rounded once (rounded_root)."""
        fctx = ctx.as_float()
        num, den = fctx.ints.qpow2(self.qpower)
        return rounded_root(fctx, self.sign, num * self.radicand.numerator,
                            den * self.radicand.denominator)

    def to_fixed(self, ctx: EvalContext) -> int:
        """The value rounded once to the fixed-point scale 2^-F of the float
        companion of ctx, as the int n of n 2^-F (EvalContext.to_fixed),
        from the integers of q^(2 qpower) radicand (fixed_root)."""
        fctx = ctx.as_float()
        num, den = fctx.ints.qpow2(self.qpower)
        return fixed_root(self.sign, num * self.radicand.numerator,
                          den * self.radicand.denominator, fctx.fixed_bits())
