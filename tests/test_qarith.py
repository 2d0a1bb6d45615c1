"""Scalar layer: brackets, factorials, contexts, signed radicals."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qu21 import qarith
from qu21.errors import NegativeFactorial, RadicalIncompatible
from qu21.generators import norm_u_sq
from qu21.qarith import EvalContext, SignedRadical, sqrt_fraction
from qu21.repspace import Signature

from oracles import qfact_fraction, qnum_fraction, radical_sum

rationals_q = st.fractions(min_value=Fraction(1, 9), max_value=Fraction(9),
                           max_denominator=40).filter(lambda x: x > 0)


class TestBrackets:
    def test_generic_values(self):
        ctx = EvalContext.exact(Fraction(1, 2))
        assert ctx.qnum(0) == 0
        assert ctx.qnum(1) == 1
        assert ctx.qnum(2) == Fraction(5, 2)
        assert ctx.qnum(3) == Fraction(21, 4)

    def test_classical_branch(self):
        ctx = EvalContext.exact(1)
        assert ctx.is_classical()
        for n in range(-6, 7):
            assert ctx.qnum(n) == n

    @given(q=rationals_q, n=st.integers(-20, 20))
    @settings(max_examples=60, deadline=None)
    def test_inversion_symmetry(self, q, n):
        a = EvalContext.exact(q).qnum(n)
        b = EvalContext.exact(1 / q).qnum(n)
        assert a == b

    @given(q=rationals_q, n=st.integers(-20, 20))
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry(self, q, n):
        ctx = EvalContext.exact(q)
        assert ctx.qnum(-n) == -ctx.qnum(n)

    @given(q=rationals_q, x=st.integers(-8, 8))
    @settings(max_examples=60, deadline=None)
    def test_half_bracket_square_integer_case(self, q, x):
        ctx = EvalContext.exact(q)
        assert ctx.qbracket_half_sq(2 * x) == ctx.qnum(x) ** 2

    def test_half_bracket_square_half_integer(self):
        q = Fraction(4, 9)
        ctx = EvalContext.exact(q)
        # [1/2]^2 = (q - 2 + 1/q) / (q - 1/q)^2 for x = 1/2
        want = (q - 2 + 1 / q) / (q - 1 / q) ** 2
        assert ctx.qbracket_half_sq(1) == want

    def test_half_bracket_square_classical(self):
        ctx = EvalContext.exact(1)
        assert ctx.qbracket_half_sq(3) == Fraction(9, 4)
        assert ctx.qbracket_half_sq(0) == 0


class TestFactorials:
    def test_values(self):
        ctx = EvalContext.exact(Fraction(1, 2))
        assert ctx.qfact(0) == 1
        assert ctx.qfact(1) == 1
        assert ctx.qfact(3) == ctx.qnum(1) * ctx.qnum(2) * ctx.qnum(3)

    def test_negative_raises(self):
        ctx = EvalContext.exact(Fraction(1, 2))
        with pytest.raises(NegativeFactorial):
            ctx.qfact(-1)

    @pytest.mark.parametrize("ctx", [EvalContext.exact(Fraction(3, 2)),
                                     EvalContext.floating(Fraction(3, 2))])
    def test_inverse_of_negative_raises(self, ctx):
        with pytest.raises(NegativeFactorial):
            ctx.qfact_inv(-1)
        assert ctx.qfact_inv(4) == 1 / ctx.qfact(4)

    @given(q=rationals_q, n=st.integers(1, 15))
    @settings(max_examples=40, deadline=None)
    def test_recursion(self, q, n):
        ctx = EvalContext.exact(q)
        assert ctx.qfact(n) == ctx.qnum(n) * ctx.qfact(n - 1)

    def test_fraction_argument(self):
        ctx = EvalContext.exact(Fraction(1, 2))
        assert ctx.qfact(Fraction(4, 1)) == ctx.qfact(4)
        with pytest.raises(TypeError):
            ctx.qnum(Fraction(1, 2)) is not None and ctx.qfact(Fraction(1, 2))


class TestIntegerTables:
    """Exact [n] and [n]! come from the integer tables G_m and F_m."""

    @given(q=rationals_q)
    @settings(max_examples=40, deadline=None)
    def test_exact_values_match_the_fraction_definitions(self, q):
        ctx = EvalContext.exact(q)
        for n in range(16):
            assert ctx.qnum(n) == qnum_fraction(q, n)
            assert ctx.qnum(-n) == -qnum_fraction(q, n)
            assert ctx.qfact(n) == qfact_fraction(q, n)
            assert ctx.qfact_inv(n) == 1 / qfact_fraction(q, n)

    @pytest.mark.parametrize("q", [Fraction(1), Fraction(5, 7), Fraction(3),
                                   Fraction(13, 10)], ids=str)
    def test_g_closed_form_and_lowest_terms(self, q):
        r, s = q.numerator, q.denominator
        ctx = EvalContext.exact(q)
        ints = ctx.ints
        g = ints.g_table(20)
        assert ints.z == r * s
        fact = 1
        for m in range(21):
            want = m if q == 1 else (r ** (2 * m) - s ** (2 * m)) // (r * r - s * s)
            assert g[m] == want
            fact *= max(g[m], 1)
            assert ctx.qfact(m) == Fraction(fact, ints.z ** (m * (m - 1) // 2))
            assert ctx.qfact(m).numerator == fact

    def test_float_contexts_of_rational_q_share_the_exact_tables(self):
        # weylracah reads them, and a float context's q-numbers are the
        # exact context's Fractions
        exact = EvalContext.exact(Fraction(13, 10))
        for precision in (30, 50):
            ctx = EvalContext.floating(Fraction(13, 10), precision)
            assert ctx.ints is exact.ints
            for value in (ctx.qnum(7), ctx.qfact(7), ctx.qfact_inv(7)):
                assert type(value) is Fraction
        assert EvalContext.floating(3, 50).ints is EvalContext.exact(3).ints
        # a float or mpf q is the exact binary rational it already is
        assert EvalContext.floating(1.3, 50).ints \
            is EvalContext.exact(Fraction(1.3)).ints
        assert EvalContext.floating(mpmath.mpf("1.3"), 50).ints \
            is EvalContext.exact(qarith.exact_fraction(mpmath.mpf("1.3"))).ints


class TestContexts:
    def test_exact_constructor_rejects_bad_q(self):
        with pytest.raises(ValueError):
            EvalContext.exact(0)
        with pytest.raises(ValueError):
            EvalContext.exact(Fraction(-1, 2))

    def test_float_matches_exact(self):
        # one arithmetic: every q-number of a float context is the exact
        # context's Fraction, as are the generator norms built from them
        sig = Signature(4, 2, -2)
        for q in (Fraction(13, 10), 3, 1.3, Fraction(1)):
            e = EvalContext.exact(q)
            f = EvalContext.floating(q, precision=40)
            for n in range(0, 12):
                for name in ("qnum", "qfact", "qfact_inv", "qbracket_half_sq"):
                    value = getattr(f, name)(n)
                    assert type(value) is Fraction
                    assert value == getattr(e, name)(n)
                assert f.qpow(n - 6) == e.qpow(n - 6) == e.q ** (n - 6)
            for k in range(3):
                for ell in range(4):
                    value = norm_u_sq(f, sig, k, ell)
                    assert type(value) is Fraction
                    assert value == norm_u_sq(e, sig, k, ell)

    def test_as_float_keeps_q(self):
        e = EvalContext.exact(Fraction(13, 10))
        f = e.as_float(30)
        assert not f.is_exact()
        assert f.precision == 30
        assert f.q == Fraction(13, 10) and f.qpow(1) == Fraction(13, 10)

    def test_as_float_converts_the_given_q_afresh(self):
        # a companion at 100 digits keeps the exact q, so its roundings are
        # those of a fresh 100-digit context, never a 50-digit one's
        for q in (Fraction(13, 10), 1.3):
            fresh = EvalContext.floating(q, 100)
            rad = SignedRadical.make(-1, 40, Fraction(2, 3))
            for ctx in (EvalContext.floating(q, 50), EvalContext.exact(q)):
                f = ctx.as_float(100)
                assert f.q == fresh.q == qarith.exact_fraction(q)
                assert f.ints is fresh.ints
                assert rad.to_float(f)._mpf_ == rad.to_float(fresh)._mpf_
                assert rad.to_float(f) != rad.to_float(ctx.as_float(50))

    def test_fixed_point_requires_float_mode(self):
        e = EvalContext.exact(Fraction(2))
        with pytest.raises(ValueError, match="float-mode"):
            e.fixed_bits()
        with pytest.raises(ValueError, match="float-mode"):
            e.to_fixed(Fraction(1, 3))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            EvalContext("symbolic", Fraction(1))

    def test_sqrt_exact_only_for_squares(self):
        assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
        assert sqrt_fraction(Fraction(2)) is None
        assert sqrt_fraction(Fraction(-9, 4)) is None

    def test_contexts_of_one_key_share_q_tables(self):
        # one table entry per exact q: every mode and precision, and every
        # spelling of one rational, share the integer tables and the memo
        memos = ("ints", "_qpow_memo")
        q = Fraction(13, 10)
        qarith._q_tables.cache_clear()
        a = EvalContext.floating(q, 50)
        want = [a.qfact(12), a.qnum(7), a.qpow(-3)]
        global_dps = mpmath.mp.dps
        low, high = EvalContext.floating(q, 20), EvalContext.floating(q, 80)
        for other in (EvalContext.floating(q, 50), low, high,
                      EvalContext.exact(q), EvalContext("exact", q, 50)):
            assert other.q is a.q and other.ints is a.ints
            for name in memos:
                assert getattr(other, name) is getattr(a, name)
        assert len(low.ints.f_table(0)) > 12 \
            and len(high.ints.g_table(0)) > 7 and -3 in low._qpow_memo
        assert (low._mp.dps, high._mp.dps) == (20, 80)
        assert low._mp is not a._mp and low._mp is not high._mp
        low.qfact(14), high.qfact(14)
        assert mpmath.mp.dps == global_dps
        assert a._mp.dps == 50

        twos = [EvalContext.floating(2, 50), EvalContext.floating(Fraction(2), 30),
                EvalContext.floating(2.0, 50), EvalContext.exact(2),
                EvalContext.exact(Fraction(2)), EvalContext.exact(2.0)]
        for other in twos:
            assert other.q == 2 and type(other.q) is Fraction
            for name in memos:
                assert getattr(other, name) is getattr(twos[0], name)
        other = EvalContext.floating(Fraction(3, 2), 50)
        for name in memos:
            assert getattr(other, name) is not getattr(a, name)

        qarith._q_tables.cache_clear()
        fresh = EvalContext.floating(q, 50)
        assert fresh.ints is not a.ints and fresh._qpow_memo is not a._qpow_memo
        assert [fresh.qfact(12), fresh.qnum(7), fresh.qpow(-3)] == want
        assert [a.qfact(12), a.qnum(7), a.qpow(-3)] == want

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("q", [float("nan"), float("inf"), float("-inf"),
                                   mpmath.mpf("nan"), mpmath.mpf("inf")],
                             ids=["nan", "inf", "-inf", "mpf-nan", "mpf-inf"])
    def test_non_finite_q_is_rejected(self, mode, q):
        with pytest.raises(ValueError, match="q must be finite and positive"):
            EvalContext(mode, q)

    def test_fixed_bits_are_mpmaths_bits_plus_the_guard(self):
        # fixed_bits computes mpmath's own dps -> bits formula, so a float
        # context needs no mpmath context for its fixed-point scale
        from mpmath.libmp import dps_to_prec
        q = Fraction(13, 10)
        for dps in range(1, 2001):
            assert EvalContext.floating(q, dps).fixed_bits() == \
                dps_to_prec(dps) + qarith._GUARD_BITS, dps
        for dps in (1, 15, 50, 333):
            f = EvalContext.floating(q, dps)
            assert f.fixed_bits() == f._mp.prec + qarith._GUARD_BITS

    def test_float_context_builds_its_mpmath_context_on_first_use(self):
        qarith._mp_context.cache_clear()
        f = EvalContext.floating(Fraction(7, 3), 41)
        assert f.fixed_bits() and f.to_fixed(Fraction(1, 3))
        assert qarith._mp_context.cache_info().currsize == 0
        assert f._mp.dps == 41 and f._mp is f._mp
        assert qarith._mp_context.cache_info().currsize == 1

    def test_exact_context_builds_no_mpmath_context(self):
        before = qarith._mp_context.cache_info()
        e = EvalContext.exact(Fraction(7, 3))
        assert e._mp is None
        after = qarith._mp_context.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


class TestSqrtFraction:
    def test_squares(self):
        assert sqrt_fraction(Fraction(49, 121)) == Fraction(7, 11)
        assert sqrt_fraction(Fraction(0)) == 0

    def test_non_squares(self):
        assert sqrt_fraction(Fraction(2)) is None
        assert sqrt_fraction(Fraction(4, 7)) is None

    @given(st.fractions(min_value=0, max_value=100, max_denominator=50))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, v):
        r = sqrt_fraction(v * v)
        assert r == abs(v)


class TestSignedRadical:
    def test_zero_is_canonical(self):
        z = SignedRadical.zero()
        assert z.sign == 0 and z.radicand == 0 and z.qpower == 0
        assert SignedRadical.make(1, 5, 0) == z
        assert SignedRadical.make(-1, 2, Fraction(0)) == z

    def test_invalid_states_rejected(self):
        with pytest.raises(ValueError):
            SignedRadical(2, 0, Fraction(1))
        with pytest.raises(ValueError):
            SignedRadical(1, 0, Fraction(-1))
        with pytest.raises(ValueError):
            SignedRadical(0, 0, Fraction(3))

    def test_from_rational(self):
        r = SignedRadical.from_rational(Fraction(-3, 4))
        assert r.sign == -1 and r.radicand == Fraction(9, 16)
        assert SignedRadical.from_rational(0).is_zero()

    def test_multiplication_and_negation(self):
        a = SignedRadical.make(1, 2, Fraction(3))
        b = SignedRadical.make(-1, -1, Fraction(5, 2))
        c = a * b
        assert c.sign == -1 and c.qpower == 1 and c.radicand == Fraction(15, 2)
        assert (-c).sign == 1
        assert (a * SignedRadical.zero()).is_zero()

    def test_division(self):
        a = SignedRadical.make(1, 2, Fraction(3))
        b = SignedRadical.make(-1, 1, Fraction(4))
        c = a / b
        assert c.sign == -1 and c.qpower == 1 and c.radicand == Fraction(3, 4)
        with pytest.raises(ZeroDivisionError):
            a / SignedRadical.zero()

    def test_squared_folds_qpower(self):
        ctx = EvalContext.exact(Fraction(2))
        a = SignedRadical.make(-1, 3, Fraction(5))
        assert a.squared(ctx) == Fraction(2) ** 6 * 5

    def test_add_exact_same_class(self):
        ctx = EvalContext.exact(Fraction(1))
        a = SignedRadical.make(1, 0, Fraction(2))
        b = SignedRadical.make(1, 0, Fraction(8))   # sqrt(8) = 2 sqrt(2)
        s = a.add_exact(b, ctx)
        assert s.sign == 1 and s.radicand == Fraction(18)  # 3 sqrt(2)

    def test_add_exact_cancellation(self):
        ctx = EvalContext.exact(Fraction(3, 2))
        a = SignedRadical.make(1, 1, Fraction(2))
        b = SignedRadical.make(-1, -1, Fraction(2) * Fraction(3, 2) ** 4)
        assert a.add_exact(b, ctx).is_zero()

    def test_add_exact_incompatible(self):
        ctx = EvalContext.exact(Fraction(1))
        a = SignedRadical.make(1, 0, Fraction(2))
        b = SignedRadical.make(1, 0, Fraction(3))
        with pytest.raises(RadicalIncompatible):
            a.add_exact(b, ctx)

    def test_same_value(self):
        ctx = EvalContext.exact(Fraction(2))
        a = SignedRadical.make(1, 2, Fraction(3))
        b = SignedRadical.make(1, 0, Fraction(48))  # q^2 sqrt(3) = sqrt(16*3)
        assert a.same_value(b, ctx)
        assert not a.same_value(-b, ctx)

    def test_to_float(self):
        # -q sqrt(9/4) = -39/20 at q = 13/10, rounded once; the product of
        # the rounded q and 3/2 rounds twice and lands one ulp away
        ctx = EvalContext.exact(Fraction(13, 10))
        f = ctx.as_float()
        mp = f._mp
        a = SignedRadical.make(-1, 1, Fraction(9, 4))
        v = a.to_float(f)
        assert v == mp.mpf(-39) / 20
        assert v != -(mp.mpf(13) / 10) * (mp.mpf(3) / 2)
        assert SignedRadical.zero().to_float(ctx) == 0

    @given(q=rationals_q, sign=st.sampled_from([-1, 1]),
           w=st.integers(-4, 4),
           r=st.fractions(min_value=Fraction(1, 30), max_value=50,
                          max_denominator=30))
    @settings(max_examples=60, deadline=None)
    def test_to_float_is_correctly_rounded(self, q, sign, w, r):
        # within half an ulp of sign q^w sqrt(r) at 120 digits
        f = EvalContext.floating(q, 50)
        v = SignedRadical.make(sign, w, r).to_float(f)
        ref = mpmath.mp.clone()
        ref.dps = 120
        qr = ref.mpf(q.numerator) / q.denominator
        want = sign * qr ** w * ref.sqrt(ref.mpf(r.numerator) / r.denominator)
        ulp = ref.ldexp(1, int(ref.floor(ref.log(abs(want), 2))) + 1 - f._mp.prec)
        assert abs(ref.mpf(v) - want) <= ulp / 2

    @given(q=rationals_q, sign=st.sampled_from([-1, 1]),
           w=st.integers(-4, 4),
           r=st.fractions(min_value=0, max_value=50, max_denominator=30))
    @settings(max_examples=100, deadline=None)
    def test_to_fixed_is_the_nearest_multiple(self, q, sign, w, r):
        # n 2^-F is nearest to sign q^w sqrt(r), decided in integers:
        # (|n| - 1/2)^2 <= q^2w r 4^F <= (|n| + 1/2)^2
        f = EvalContext.floating(q, 50)
        n = SignedRadical.make(sign, w, r).to_fixed(f)
        x = q ** (2 * w) * r * 4 ** f.fixed_bits()
        half = Fraction(1, 2)
        assert max(abs(n) - half, 0) ** 2 <= x <= (abs(n) + half) ** 2
        assert n == 0 or (n > 0) == (sign > 0)

    def test_fixed_rounding_ties_to_even(self):
        f = EvalContext.floating(Fraction(13, 10), 50)
        unit = Fraction(1, 2 ** f.fixed_bits())
        assert [f.to_fixed(k * unit / 2) for k in (5, 7, -5, -7)] \
            == [2, 4, -2, -4]
        assert [qarith.fixed_root(s, n * n, 4, 0)
                for s, n in ((1, 5), (1, 7), (-1, 5), (-1, 7))] == [2, 4, -2, -4]

    @given(sign=st.sampled_from([-1, 1]), root=st.integers(0, 10 ** 12),
           num=st.integers(0, 10 ** 40), den=st.integers(1, 10 ** 25),
           bits=st.integers(0, 90), square=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_fixed_root_is_the_nearest_multiple(self, sign, root, num, den,
                                                bits, square):
        # any scale, ties to even: half-odd roots, (root / 2)^2 4^-bits,
        # are drawn as often as the rest
        if square:
            num, den = root * root, 4 << 2 * bits
        n = qarith.fixed_root(sign, num, den, bits)
        x = Fraction(num, den) * 4 ** bits
        half = Fraction(1, 2)
        assert max(abs(n) - half, 0) ** 2 <= x <= (abs(n) + half) ** 2
        if x in ((abs(n) - half) ** 2, (abs(n) + half) ** 2) and x:
            assert abs(n) % 2 == 0
        assert n == 0 or (n > 0) == (sign > 0)

    @pytest.mark.parametrize("w", [-40, -1, 0, 3, 500])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_to_fraction_is_the_exact_mpf_value(self, sign, w):
        # qarith.exact_fraction, which reads a float or mpf q key
        mp = EvalContext.floating(1.3, 50)._mp
        x = sign * mp.mpf(1.3) ** w
        got = qarith.exact_fraction(x)
        assert mp.mpf(got.numerator) / got.denominator == x
        assert got.denominator & (got.denominator - 1) == 0
        assert qarith.exact_fraction(mp.zero) == 0
        assert qarith.exact_fraction(Fraction(-1, 3)) == Fraction(-1, 3)
        assert qarith.exact_fraction(sign * 1.3) == sign * Fraction(1.3)
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match="not a finite value"):
                qarith.exact_fraction(mpmath.mpf(bad))

    @given(q=rationals_q,
           s1=st.sampled_from([-1, 1]), w1=st.integers(-3, 3),
           r1=st.fractions(min_value=0, max_value=20, max_denominator=12),
           s2=st.sampled_from([-1, 1]), w2=st.integers(-3, 3),
           r2=st.fractions(min_value=0, max_value=20, max_denominator=12))
    @settings(max_examples=60, deadline=None)
    def test_product_squares_multiply(self, q, s1, w1, r1, s2, w2, r2):
        ctx = EvalContext.exact(q)
        a = SignedRadical.make(s1, w1, r1)
        b = SignedRadical.make(s2, w2, r2)
        assert (a * b).squared(ctx) == a.squared(ctx) * b.squared(ctx)

    @given(q=rationals_q,
           base=st.fractions(min_value=Fraction(1, 6), max_value=6,
                             max_denominator=10),
           c1=st.fractions(min_value=-8, max_value=8, max_denominator=8),
           c2=st.fractions(min_value=-8, max_value=8, max_denominator=8))
    @settings(max_examples=60, deadline=None)
    def test_add_exact_matches_floats(self, q, base, c1, c2):
        # c1 sqrt(base) + c2 sqrt(base) = (c1 + c2) sqrt(base)
        ctx = EvalContext.exact(q)
        a = SignedRadical.from_rational(c1) * SignedRadical.make(1, 0, base)
        b = SignedRadical.from_rational(c2) * SignedRadical.make(1, 0, base)
        s = radical_sum([a, b], ctx)
        want = SignedRadical.from_rational(c1 + c2) * SignedRadical.make(1, 0, base)
        assert s.same_value(want, ctx)
