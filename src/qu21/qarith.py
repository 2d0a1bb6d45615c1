"""q-number arithmetic over exact rational or arbitrary-precision float backends.

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
(exact_fraction).  The q-Racah evaluator of weylracah and the generator
tables read them in both modes; a float value is an exact value rounded once
(rounded_root).  [n], [n]! and 1/[n]! come from the symmetric formula and the
[n]! chain in both modes.
A float context also fixes a fixed-point scale 2^-F, F its working bits plus
_GUARD_BITS (fixed_bits): to_fixed and fixed_root round a value once to the
int n of n 2^-F, which is what verify's checks compute on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import inf, isqrt
from typing import Union

import mpmath
from mpmath.libmp import from_man_exp, round_nearest

from .errors import NegativeFactorial, RadicalIncompatible

Scalar = Union[Fraction, mpmath.mpf]

_EXACT = "exact"
_FLOAT = "float"

# Float contexts at this many distinct precisions keep their mpmath context
# (about 42 KiB each); a context evicted beyond that is rebuilt on demand.
_MP_CONTEXTS = 8

# Contexts of this many distinct (mode, q, precision) keys keep their q-number
# tables: room for a few q values in both modes at a couple of precisions.  A
# key evicted beyond that gets fresh tables, which compute the same values.
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
    both fractions are already in lowest terms.  The table of G grows on
    demand, through G_(m+1) = r^2 G_m + s^2m, and an entry never changes.
    """

    __slots__ = ("z", "_r2", "_s2", "_g")

    def __init__(self, q: Fraction):
        r, s = q.numerator, q.denominator
        self.z = r * s
        self._r2, self._s2 = r * r, s * s
        self._g = [0, 1]

    def g_table(self, n: int):
        """The list G_0, G_1, ..., G_N for some N >= n; read, never write."""
        g, r2, s2 = self._g, self._r2, self._s2
        for m in range(len(g) - 1, n):
            g.append(r2 * g[m] + s2 ** m)
        return g

    def qpow2(self, e: int):
        """q^(2e) = (r^2 / s^2)^e as a pair (numerator, denominator)."""
        if e >= 0:
            return self._r2 ** e, self._s2 ** e
        return self._s2 ** -e, self._r2 ** -e


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
    den.  Returns the context's zero when sign or num is 0.
    """
    if sign == 0 or num == 0:
        return ctx.zero()
    mp = ctx._mp
    man, k = _root_bits(num, den, mp.prec + _GUARD_BITS
                        + (den.bit_length() - num.bit_length() + 2) // 2)
    return mp.make_mpf(from_man_exp(man if sign > 0 else -man, -k, mp.prec,
                                    round_nearest))


def _round_div(num: int, den: int) -> int:
    """num / den rounded to the nearest int, ties to even (den > 0)."""
    quot, rem = divmod(num, den)
    half = 2 * rem - den
    return quot + 1 if half > 0 or (half == 0 and quot & 1) else quot


def fixed_root(sign: int, num: int, den: int, bits: int) -> int:
    """sign * sqrt(num / den) rounded once to the nearest multiple of
    2^-bits (ties to even), as the int n of n 2^-bits.

    num >= 0 and den > 0 are ints, in any common scale: the root is taken
    two bits past the last with a sticky bit (_root_bits, as in
    rounded_root), which decides the rounding exactly.  0 when sign or num
    is 0.
    """
    if sign == 0 or num == 0:
        return 0
    man, k = _root_bits(num, den, bits + 2)
    n = _round_div(man, 1 << (k - bits))
    return n if sign > 0 else -n


@lru_cache(maxsize=_MP_CONTEXTS)
def _mp_context(precision: int):
    """The mpmath context shared by every float EvalContext at this precision."""
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


def _to_mpf(mp, x):
    """An int, Fraction or mpf value as an mpf of the mpmath context mp."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


@lru_cache(maxsize=_Q_TABLES, typed=True)
def _q_tables(mode: str, q, precision):
    """The q-number tables of every EvalContext of this (mode, q, precision).

    precision is None in exact mode, whose values do not depend on it.
    Returns the mpmath context (None in exact mode), the mode's scalar
    constructor (Fraction, or _to_mpf on that context), the converted q, its
    QIntegers and the qpow, qnum, qfact and qfact_inv memos.  An exact key
    whose q is not an int or a Fraction (a float, an mpf) takes the tables
    of its exact_fraction, and a float key the QIntegers of the exact key of
    its q, so both modes grow one G table.  Every table entry is a fixed
    function of (mode, q, precision, n): exact entries are exact, and float
    qfact extends its chain from its largest entry, so which context fills
    a table, and when, never changes a value.  Raises ValueError unless q is
    finite and positive (a raise is not cached).
    """
    if mode == _EXACT:
        try:
            value = exact_fraction(q)
        except (OverflowError, TypeError, ValueError):
            if not (q != q or q in (inf, -inf)):  # not a NaN or an infinity
                raise
            value = 0
        if value <= 0:
            raise ValueError("q must be finite and positive")
        if not isinstance(q, (int, Fraction)):   # a float or an mpf
            return _q_tables(_EXACT, value, None)
        mp, scalar, ints = None, Fraction, QIntegers(value)
    else:
        ints = _q_tables(_EXACT, q, None)[3]
        mp = _mp_context(precision)
        scalar = partial(_to_mpf, mp)
        value = scalar(q)
    return mp, scalar, value, ints, {}, {}, {0: scalar(1)}, {}


class EvalContext:
    """Immutable evaluation backend for all q-arithmetic.

    mode 'exact':  q is a positive rational (a float or an mpf is the binary
                   rational it is); every operation returns a Fraction and
                   is exact.  No mpmath context is built.
    mode 'float':  q is a positive real (an int, a Fraction, a float or an
                   mpf) carried at ``precision`` decimal digits
                   on an mpmath context that every float EvalContext of that
                   precision shares (one per precision, from a bounded memo).
                   No code may change that context's precision; so instances
                   never interfere with each other or with the global mpmath
                   state.

    All operations are pure; the only internal mutation is memoization, one
    dict per function, keyed by its integer argument: q-powers (qpow),
    q-brackets (qnum), q-factorials (qfact) and their inverses (qfact_inv).
    ``ints`` holds the integer table G_m (see QIntegers) of q read as the
    exact rational it is: an int or a Fraction as given, a float or an mpf
    as its binary rational (exact_fraction).  weylracah reads it for both
    modes' q-Racah values and brackets, the generator tables for their
    matrix elements and SignedRadical.to_float for its q-power; qnum and
    qfact compute [n] and the chain of [n]! the same way in both modes.
    Every context of one (mode, q as given, precision) shares these tables
    and the converted q, taken at construction from a process-wide memo of
    the ``_Q_TABLES`` (32) most recently used keys; so a table keeps every
    entry up to the largest n that any context of its key asked for.  Exact
    contexts of one q share them at every precision, an exact context of a
    float or mpf q shares those of its exact_fraction, and every float
    context shares the ``ints`` of the exact contexts of its q.  Equal q of
    different types (2 as an int and as a Fraction) are different keys.  A
    context keeps the tables it took even after its key is evicted, and a
    later context of that key starts fresh ones.  Each entry is a fixed
    function of (mode, q, precision, n), so a value never depends on the
    order of calls, on sharing or on eviction: repeated calls return
    bit-identical results.

    The mode is fixed at construction: zero, one, from_fraction and the q = 1
    brackets build through the tables' scalar constructor with no mode test.
    as_float converts q as the caller gave it (the tables' key) afresh, never
    this context's q, which float mode has rounded to its own precision.
    """

    __slots__ = ("mode", "q", "precision", "ints", "_q_key", "_mp", "_scalar",
                 "_qpow_memo", "_qnum_memo", "_qfact_memo", "_qfact_inv_memo")

    def __init__(self, mode: str, q, precision: int = 50):
        if mode not in (_EXACT, _FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.precision = int(precision)
        if self.precision < 1:
            raise ValueError(f"precision must be at least 1 digit, got {precision}")
        self._q_key = q
        (self._mp, self._scalar, self.q, self.ints, self._qpow_memo,
         self._qnum_memo, self._qfact_memo,
         self._qfact_inv_memo) = _q_tables(
             mode, q, self.precision if mode == _FLOAT else None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls, q) -> "EvalContext":
        return cls(_EXACT, q)

    @classmethod
    def floating(cls, q, precision: int = 50) -> "EvalContext":
        return cls(_FLOAT, q, precision)

    def as_float(self, precision: int | None = None) -> "EvalContext":
        """A float-mode companion context at q as the caller gave it."""
        if self.mode == _FLOAT and (precision is None or precision == self.precision):
            return self
        prec = self.precision if precision is None else precision
        return EvalContext(_FLOAT, self._q_key, prec)

    # -- basic values ------------------------------------------------------

    def is_exact(self) -> bool:
        return self.mode == _EXACT

    def is_classical(self) -> bool:
        """True at the classical point q = 1."""
        return self.q == 1

    def zero(self) -> Scalar:
        return self._scalar(0)

    def one(self) -> Scalar:
        return self._scalar(1)

    def from_fraction(self, value: Fraction) -> Scalar:
        return self._scalar(value)

    def qpow(self, w) -> Scalar:
        """q**w for integer w."""
        w = _as_int(w)
        memo = self._qpow_memo
        if w not in memo:
            memo[w] = self.q ** w
        return memo[w]

    # -- brackets and factorials --------------------------------------------

    def qnum(self, n) -> Scalar:
        """Symmetric q-bracket [n]; [n] -> n at q = 1, [-n] = -[n]."""
        n = _as_int(n)
        memo = self._qnum_memo
        if n not in memo:
            if self.is_classical():
                memo[n] = self._scalar(n)
            else:
                q = self.q
                memo[n] = (q ** n - q ** (-n)) / (q - q ** -1)
        return memo[n]

    def qfact(self, n) -> Scalar:
        """q-factorial [n]! with [0]! = 1; raises NegativeFactorial for n < 0."""
        n = _as_int(n)
        if n < 0:
            raise NegativeFactorial(f"[{n}]! is undefined")
        memo = self._qfact_memo
        if n not in memo:
            top = max(memo)
            acc = memo[top]
            for m in range(top + 1, n + 1):
                acc = acc * self.qnum(m)
                memo[m] = acc
        return memo[n]

    def qfact_inv(self, n) -> Scalar:
        """1/[n]!; raises NegativeFactorial for n < 0."""
        n = _as_int(n)
        memo = self._qfact_inv_memo
        if n not in memo:
            memo[n] = 1 / self.qfact(n)
        return memo[n]

    def qbracket_half_sq(self, two_x) -> Scalar:
        """[x]^2 for the half-integer x = two_x / 2.

        Although [x] itself leaves the rational field for half-integer x, its
        square (q^{2x} - 2 + q^{-2x}) / (q - q^-1)^2 does not.
        """
        two_x = _as_int(two_x)
        if self.is_classical():
            return (self._scalar(two_x) / 2) ** 2
        q = self.q
        return (self.qpow(two_x) - 2 + self.qpow(-two_x)) / (q - q ** -1) ** 2

    # -- float helpers -------------------------------------------------------

    def sqrt(self, x) -> Scalar:
        if self.mode == _EXACT:
            root = sqrt_fraction(Fraction(x))
            if root is None:
                raise ValueError(f"{x} has no exact rational square root")
            return root
        return self._mp.sqrt(self.to_float(x))

    def to_float(self, x):
        """Coerce ints, Fractions or mpf values into this float context."""
        if self.mode == _EXACT:
            raise ValueError("to_float requires a float-mode context")
        return self._scalar(x)

    # -- fixed point ---------------------------------------------------------

    def fixed_bits(self) -> int:
        """F = working bits + _GUARD_BITS: a fixed-point int n of this float
        context stands for n 2^-F."""
        if self.mode == _EXACT:
            raise ValueError("fixed_bits requires a float-mode context")
        return self._mp.prec + _GUARD_BITS

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

    def rational_context(self) -> "EvalContext":
        """The context that gives q-rational scalars exactly: this context
        in exact mode, its exact-mode companion in float mode."""
        if self.mode == _EXACT:
            return self
        return EvalContext(_EXACT, self._q_key)

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        return f"EvalContext(mode={self.mode!r}, q={self.q!r}, precision={self.precision})"


@dataclass(frozen=True)
class SignedRadical:
    """Exact factored value  sign * q^qpower * sqrt(radicand).

    sign is -1, 0, or +1; qpower is an integer; radicand is a nonnegative
    Fraction (or int).  sign == 0 if and only if the radicand
    is zero, in which case the canonical form (0, 0, 0) is enforced.  The type
    is closed under multiplication and division but not addition; a restricted
    exact sum is available when radicand ratios are rational squares.
    """

    sign: int
    qpower: int
    radicand: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or +1, got {self.sign}")
        if self.radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("sign == 0 exactly when radicand == 0")

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

    def squared(self, ctx: EvalContext) -> Scalar:
        """The exact square q^{2 qpower} * radicand as a context Scalar."""
        if self.sign == 0:
            return ctx.zero()
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
        if self.sign == 0:
            return fctx.zero()
        num, den = fctx.ints.qpow2(self.qpower)
        return rounded_root(fctx, self.sign, num * self.radicand.numerator,
                            den * self.radicand.denominator)

    def to_fixed(self, ctx: EvalContext) -> int:
        """The value rounded once to the fixed-point scale 2^-F of the float
        companion of ctx, as the int n of n 2^-F (EvalContext.to_fixed),
        from the integers of q^(2 qpower) radicand (fixed_root)."""
        fctx = ctx.as_float()
        if self.sign == 0:
            return 0
        num, den = fctx.ints.qpow2(self.qpower)
        return fixed_root(self.sign, num * self.radicand.numerator,
                          den * self.radicand.denominator, fctx.fixed_bits())
