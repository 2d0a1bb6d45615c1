"""Transformation brackets between the two reduction chains, and q-Racah values."""

import itertools
import random
import re
from fractions import Fraction
from functools import partial
from pathlib import Path

import mpmath
import pytest

from qu21 import qarith, weylracah
from qu21.errors import EmptyWeightSpace, WeightMismatch
from qu21.qarith import EvalContext, SignedRadical
from qu21.repspace import (Signature, Weight, enumerate_u_basis,
                           lowest_t_label, lowest_u_label, t_labels_at_weight,
                           u_labels_at_weight, weight_of_t, weight_of_u)
from qu21.weylracah import (RacahArgs, qracah, qracah_exact,
                            racah_args_from_rep, racah_triangles_ok,
                            weyl_block, weyl_coefficient,
                            weyl_coefficient_exact, weyl_via_racah)

from oracles import (half_integers, racah_form_fraction,
                     racah_triangles_fraction, recoupling_exact,
                     triangle_fraction)

SIGS = [Signature(4, 2, -2), Signature(3, 1, -1), Signature(5, 2, -1)]


def small_weights(sig, ell_max=2):
    seen = []
    for lab in enumerate_u_basis(sig, ell_max):
        w = weight_of_u(sig, lab)
        if w not in seen:
            seen.append(w)
    return seen


class TestWeylCoefficient:
    def test_weight_mismatch_rejected(self):
        sig = Signature(4, 2, -2)
        ctx = EvalContext.exact(Fraction(13, 10))
        u = lowest_u_label(sig)
        ts = t_labels_at_weight(
            sig, weight_of_u(sig, enumerate_u_basis(sig, 1)[-1]))
        t_other = next(t for t in ts
                       if weight_of_t(sig, t) != weight_of_u(sig, u))
        with pytest.raises(WeightMismatch):
            weyl_coefficient_exact(ctx, sig, u, t_other)

    @pytest.mark.parametrize("sig", SIGS)
    def test_lowest_bracket_is_plus_one(self, sig):
        ctx = EvalContext.exact(Fraction(9, 10))
        val = weyl_coefficient_exact(ctx, sig, lowest_u_label(sig),
                                     lowest_t_label(sig))
        assert val == SignedRadical.from_rational(Fraction(1))

    def test_exact_and_float_agree(self):
        sig = Signature(3, 1, -1)
        ectx = EvalContext.exact(Fraction(13, 10))
        fctx = EvalContext.floating(Fraction(13, 10), 50)
        for w in small_weights(sig):
            for u in u_labels_at_weight(sig, w):
                for t in t_labels_at_weight(sig, w):
                    exact = weyl_coefficient_exact(ectx, sig, u, t)
                    approx = weyl_coefficient(fctx, sig, u, t)
                    assert abs(exact.to_float(fctx) - approx) < 1e-45

    def test_mode_guards(self):
        sig = Signature(4, 2, -2)
        u, t = lowest_u_label(sig), lowest_t_label(sig)
        with pytest.raises(ValueError):
            weyl_coefficient(EvalContext.exact(Fraction(1)), sig, u, t)
        with pytest.raises(ValueError):
            weyl_coefficient_exact(EvalContext.floating(Fraction(1)), sig, u, t)
        for form in ("a", "b"):
            with pytest.raises(ValueError):
                weyl_via_racah(EvalContext.exact(Fraction(1)), sig, u, t, form)


class TestWeylBlock:
    @pytest.mark.parametrize("sig", SIGS)
    def test_blocks_are_square_and_orthogonal(self, sig):
        ctx = EvalContext.floating(Fraction(13, 10), 50)
        for w in small_weights(sig):
            block = weyl_block(ctx, sig, w)
            n = len(block.u_labels)
            assert len(block.t_labels) == n
            assert all(len(row) == n for row in block.entries)
            for i in range(n):
                for j in range(n):
                    dot = sum(block.entries[i][m] * block.entries[j][m]
                              for m in range(n))
                    want = 1 if i == j else 0
                    assert abs(dot - want) < 1e-40, (w, i, j)

    def test_empty_weight_raises(self):
        sig = Signature(4, 2, -2)
        ctx = EvalContext.floating(Fraction(13, 10), 50)
        with pytest.raises(EmptyWeightSpace):
            weyl_block(ctx, sig, Weight(99, 0, -99))


class TestRacah:
    def test_all_zero_arguments(self):
        ctx = EvalContext.floating(Fraction(13, 10), 50)
        assert qracah(ctx, RacahArgs.make(0, 0, 0, 0, 0, 0)) == 1

    def test_out_of_triangle_is_zero(self):
        ctx = EvalContext.floating(Fraction(13, 10), 50)
        args = RacahArgs.make(2, Fraction(1, 2), 1, 0, 1, Fraction(1, 2))
        assert not racah_triangles_ok(args)
        assert qracah(ctx, args) == 0
        ectx = EvalContext.exact(Fraction(13, 10))
        assert qracah_exact(ectx, args) == SignedRadical.zero()

    def test_half_integer_parity_rejected(self):
        # (a, b, c) with half-integer perimeter is no triangle at all
        args = RacahArgs.make(Fraction(1, 2), 0, Fraction(1, 2), Fraction(1, 2),
                              0, 0)
        assert not racah_triangles_ok(args)

    def test_classical_anchor(self):
        # U(1 1 1 1; 1 1) = 1/2 at q = 1, a standard tabulated value
        ctx = EvalContext.exact(Fraction(1))
        val = qracah_exact(ctx, RacahArgs.make(1, 1, 1, 1, 1, 1))
        assert val == SignedRadical.from_rational(Fraction(1, 2))

    def test_matches_classical_recoupling(self):
        # brute-force Clebsch-Gordan recoupling at q = 1 on a small grid;
        # the acceptance suite repeats this over the full grid up to 2
        ctx = EvalContext.exact(Fraction(1))
        checked = 0
        for a in half_integers(3):
            for b in half_integers(3):
                for e in half_integers(3):
                    for d in half_integers(3):
                        for c in half_integers(3):
                            for f in half_integers(3):
                                args = RacahArgs(a, b, e, d, c, f)
                                if not racah_triangles_ok(args):
                                    continue
                                got = qracah_exact(ctx, args)
                                want = recoupling_exact(a, b, e, d, c, f)
                                assert got.same_value(want, ctx), args
                                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("q", [Fraction(1), Fraction(13, 10)])
    def test_row_orthogonality(self, q):
        # sum over f of U(a b e d; c f) U(a b e d; c' f) is delta_{c c'}
        ctx = EvalContext.floating(q, 50)
        a, b, d, e = Fraction(1), Fraction(3, 2), Fraction(1), Fraction(3, 2)
        grid = [Fraction(n, 2) for n in range(12)]
        for c in grid:
            for c2 in grid:
                joint = [f for f in grid
                         if racah_triangles_ok(RacahArgs(a, b, e, d, c, f))
                         and racah_triangles_ok(RacahArgs(a, b, e, d, c2, f))]
                if not joint:
                    continue
                total = sum(qracah(ctx, RacahArgs(a, b, e, d, c, f))
                            * qracah(ctx, RacahArgs(a, b, e, d, c2, f))
                            for f in grid)
                want = 1 if c == c2 else 0
                assert abs(total - want) < 1e-40, (c, c2)

    def test_exact_matches_float(self):
        rng = random.Random(7)
        ectx = EvalContext.exact(Fraction(13, 10))
        fctx = EvalContext.floating(Fraction(13, 10), 50)
        grid = [Fraction(n, 2) for n in range(7)]
        checked = 0
        while checked < 40:
            args = RacahArgs(*(rng.choice(grid) for _ in range(6)))
            if not racah_triangles_ok(args):
                continue
            exact = qracah_exact(ectx, args)
            assert abs(exact.to_float(fctx) - qracah(fctx, args)) < 1e-42
            checked += 1

    def test_mode_guards(self):
        args = RacahArgs.make(1, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            qracah(EvalContext.exact(Fraction(1)), args)
        with pytest.raises(ValueError):
            qracah_exact(EvalContext.floating(Fraction(1)), args)


class TestDictionary:
    @pytest.mark.parametrize("sig", SIGS)
    def test_argument_map(self, sig):
        for w in small_weights(sig):
            for u in u_labels_at_weight(sig, w):
                for t in t_labels_at_weight(sig, w):
                    args = racah_args_from_rep(sig, u, t)
                    assert args.a == t.T
                    assert args.d == u.U
                    assert args.b == Fraction(u.ell + u.k, 2)
                    assert args.f == Fraction(sig.f1 - sig.f2, 2)
                    assert racah_triangles_ok(args)

    def test_mismatched_labels_rejected(self):
        sig = Signature(4, 2, -2)
        u = lowest_u_label(sig)
        far = enumerate_u_basis(sig, 2)[-1]
        t = next(t for t in t_labels_at_weight(sig, weight_of_u(sig, far))
                 if weight_of_t(sig, t) != weight_of_u(sig, u))
        with pytest.raises(WeightMismatch):
            racah_args_from_rep(sig, u, t)

    @pytest.mark.parametrize("sig", SIGS)
    @pytest.mark.parametrize("form", ["a", "b"])
    def test_racah_forms_match_direct(self, sig, form):
        ctx = EvalContext.floating(Fraction(13, 10), 50)
        for w in small_weights(sig):
            for u in u_labels_at_weight(sig, w):
                for t in t_labels_at_weight(sig, w):
                    direct = weyl_coefficient(ctx, sig, u, t)
                    via = weyl_via_racah(ctx, sig, u, t, form)
                    assert abs(direct - via) < 1e-40, (u, t)

    def test_unknown_form_rejected(self):
        sig = Signature(4, 2, -2)
        ctx = EvalContext.floating(Fraction(13, 10), 50)
        with pytest.raises(ValueError):
            weyl_via_racah(ctx, sig, lowest_u_label(sig), lowest_t_label(sig),
                           form="c")


class TestOneEvaluator:
    """Brackets and q-Racah values all come from the one closed-form
    evaluator, _racah_form: one call per value, none out of triangle."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        inner = weylracah._racah_form

        def counting(*args):
            seen.append(args)
            return inner(*args)

        monkeypatch.setattr(weylracah, "_racah_form", counting)
        return seen

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_qracah_once_per_in_triangle_value(self, calls, mode):
        ctx = EvalContext(mode, Fraction(13, 10))
        fn = qracah if mode == "float" else qracah_exact
        inside = [RacahArgs.make(1, 1, 1, 1, 1, 1),
                  RacahArgs.make(Fraction(3, 2), 1, Fraction(1, 2), 1,
                                 Fraction(3, 2), 1)]
        outside = [RacahArgs.make(1, 1, 5, 1, 1, 1),
                   RacahArgs.make(Fraction(1, 3), 1, 1, 1, 1, 1)]
        for args in inside + outside:
            fn(ctx, args)
        assert [racah_triangles_ok(args) for args in inside + outside] \
            == [True, True, False, False]
        assert len(calls) == len(inside)

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_bracket_once_per_value_and_block_entry(self, calls, mode):
        sig, w = Signature(4, 2, -2), Weight(4, 4, -4)
        ctx = EvalContext(mode, Fraction(13, 10))
        fn = weyl_coefficient if mode == "float" else weyl_coefficient_exact
        us, ts = u_labels_at_weight(sig, w), t_labels_at_weight(sig, w)
        assert len(us) == len(ts) > 1
        for u in us:
            for t in ts:
                fn(ctx, sig, u, t)
        assert len(calls) == len(us) * len(ts)
        del calls[:]
        weyl_block(ctx, sig, w)
        assert len(calls) == len(us) * len(ts)


def _in_triangle_args(rng, top_twice, a=None):
    """Seeded arguments inside all four triangles, spins <= top_twice / 2;
    a is drawn too unless given."""
    halves = [Fraction(n, 2) for n in range(top_twice + 1)]
    while True:
        a_, b, d = (rng.choice(halves) for _ in range(3))
        a_ = a_ if a is None else Fraction(a)
        c = rng.choice([x for x in halves if triangle_fraction(a_, b, x)])
        es = [x for x in halves if triangle_fraction(c, d, x)]
        if not es:
            continue
        e = rng.choice(es)
        fs = [x for x in halves
              if triangle_fraction(a_, e, x) and triangle_fraction(b, d, x)]
        if fs:
            return RacahArgs(a_, b, e, d, c, rng.choice(fs))


ORACLE_QS = (Fraction(1, 2), Fraction(1), Fraction(13, 10), Fraction(3),
             Fraction(5, 7))


class TestExactEvaluator:
    """The integer evaluation of the closed form against its Fraction-product
    evaluation (oracles.racah_form_fraction), on the very argument lists
    each value hands to _racah_form.  q = 5/7 has r, s != 1 and q < 1."""

    @pytest.fixture
    def forms(self, monkeypatch):
        seen = []
        inner = weylracah._racah_form

        def recording(ctx, *form):
            value = inner(ctx, *form)
            seen.append((ctx.q, form, value))
            return value

        monkeypatch.setattr(weylracah, "_racah_form", recording)
        return seen

    @staticmethod
    def assert_match(forms, count):
        assert len(forms) == count
        for q, form, value in forms:
            assert value == racah_form_fraction(q, *form), (q, form)

    @pytest.mark.parametrize("q", ORACLE_QS, ids=str)
    def test_small_spins(self, forms, q):
        rng = random.Random(q.numerator * 100 + q.denominator)
        ctx = EvalContext.exact(q)
        for _ in range(40):
            qracah_exact(ctx, _in_triangle_args(rng, 12))
        count = 40
        for sig in SIGS:
            for w in small_weights(sig, 3):
                for u in u_labels_at_weight(sig, w):
                    for t in t_labels_at_weight(sig, w):
                        weyl_coefficient_exact(ctx, sig, u, t)
                        count += 1
        self.assert_match(forms, count)

    def test_spin_20(self, forms):
        qracah_exact(EvalContext.exact(Fraction(13, 10)),
                     RacahArgs.make(20, 20, 20, 20, 20, 20))
        self.assert_match(forms, 1)

    def test_spin_40(self, forms):
        qracah_exact(EvalContext.exact(Fraction(13, 10)),
                     RacahArgs.make(*[40] * 6))
        self.assert_match(forms, 1)

    def test_bit_golden_inputs(self, forms):
        # every exact value of racah_bits.txt: 40 in-triangle q-Racah
        # arguments and 25 brackets per q
        for _, q, evaluate in _bit_inputs():
            evaluate["exact"](EvalContext.exact(q))
        self.assert_match(forms, len(BITS_QS) * (40 + 25))

    def test_stream_shaped_top_spin_30(self, forms):
        # a racah-stream exact request: top spin a = 30, the rest drawn
        # below it inside the triangles
        args = _in_triangle_args(random.Random(30), 60, a=30)
        assert args.a == 30
        qracah_exact(EvalContext.exact(Fraction(9, 10)), args)
        self.assert_match(forms, 1)

    def test_fraction_count_does_not_grow_with_the_sum(self, monkeypatch):
        # J = 20: a one-term sum and an 11-term sum build the same number of
        # Fractions (at most three: the reduced square root part, its square
        # and the radicand), so no term is reduced on its own
        ctx = EvalContext.exact(Fraction(13, 10))
        one_term = RacahArgs.make(20, 20, 20, 20, 0, 20)
        eleven_terms = RacahArgs.make(20, 20, 20, 20, 20, 20)
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)

        counts = []
        for args in (one_term, eleven_terms):
            qracah_exact(ctx, args)  # fill the integer tables first
            with monkeypatch.context() as patch:
                patch.setattr(Fraction, "__new__", staticmethod(counting))
                value = qracah_exact(ctx, args)
            counts.append(len(made))
            del made[:]
            assert not value.is_zero()
        assert counts[0] == counts[1] <= 3


# ----------------------------------------------------------------------------
# bit-level golden: every float and exact value of a fixed input set
# ----------------------------------------------------------------------------

BITS_QS = (Fraction(1, 2), Fraction(1), Fraction(13, 10), Fraction(3))
BITS_SIGS = (Signature(4, 2, -2), Signature(3, 1, -1), Signature(5, 2, -1),
             Signature(8, 2, -2), Signature(6, 6, 3))
MODES = ("float", "exact")
GOLDEN_BITS = Path(__file__).parent / "golden" / "racah_bits.txt"


def _mpf_bits(x) -> str:
    sign, man, exp, bc = x._mpf_
    return f"({sign},{hex(man)},{exp},{bc})"


def _radical_bits(r: SignedRadical) -> str:
    return f"({r.sign},{r.qpower},{r.radicand})"


def _racah_bit_args(rng):
    """40 argument sets with spins <= 10 that pass the triangle test, then
    10 that fail it (two with a negative or a non-half-integer argument)."""
    halves = [Fraction(n, 2) for n in range(21)]
    inside = []
    while len(inside) < 40:
        a, b, d = (rng.choice(halves) for _ in range(3))
        c = rng.choice([x for x in halves if triangle_fraction(a, b, x)])
        e = rng.choice([x for x in halves if triangle_fraction(c, d, x)])
        fs = [x for x in halves
              if triangle_fraction(a, e, x) and triangle_fraction(b, d, x)]
        if fs:
            inside.append(RacahArgs(a, b, e, d, c, rng.choice(fs)))
    outside = [RacahArgs.make(Fraction(-1, 2), Fraction(1, 2), 0, 0, 0, 0),
               RacahArgs.make(Fraction(1, 3), 1, 1, 1, 1, 1)]
    while len(outside) < 10:
        args = RacahArgs(*(rng.choice(halves) for _ in range(6)))
        if not racah_triangles_fraction(*args.as_tuple()):
            outside.append(args)
    return inside + outside


def _bracket_bit_labels(rng):
    """25 (signature, U label, T label) triples at one weight, ell <= 4."""
    out = []
    while len(out) < 25:
        sig = rng.choice(BITS_SIGS)
        u = rng.choice(enumerate_u_basis(sig, 4))
        ts = t_labels_at_weight(sig, weight_of_u(sig, u))
        out.append((sig, u, rng.choice(ts)))
    return out


def _racah_float(args, ctx):
    return f"float={_mpf_bits(qracah(ctx, args))}"


def _racah_exact(args, ctx):
    return f"exact={_radical_bits(qracah_exact(ctx, args))}"


def _weyl_float(sig, u, t, ctx):
    values = (weyl_coefficient(ctx, sig, u, t),
              weyl_via_racah(ctx, sig, u, t, form="a"),
              weyl_via_racah(ctx, sig, u, t, form="b"))
    return " ".join(f"{name}={_mpf_bits(v)}" for name, v in
                    zip(("direct", "form_a", "form_b"), values))


def _weyl_exact(sig, u, t, ctx):
    return f"exact={_radical_bits(weyl_coefficient_exact(ctx, sig, u, t))}"


def _bit_inputs():
    """Each golden line's prefix, q and its float and exact evaluators."""
    rng = random.Random(2003)
    inputs = []
    for q in BITS_QS:
        for args in _racah_bit_args(rng):
            inputs.append((f"racah q={q} args={','.join(map(str, args.as_tuple()))}",
                           q, {"float": partial(_racah_float, args),
                               "exact": partial(_racah_exact, args)}))
        for sig, u, t in _bracket_bit_labels(rng):
            inputs.append((f"weyl q={q} sig={sig} u=({u}) t=({t})",
                           q, {"float": partial(_weyl_float, sig, u, t),
                               "exact": partial(_weyl_exact, sig, u, t)}))
    return inputs


def racah_bit_lines(order=None):
    """One line per input: the _mpf_ of every float value and the
    (sign, qpower, radicand) of every exact value, at 50 digits.  Each
    line's float and exact values are evaluated on fresh contexts of its q,
    in ``order``: (line index, mode) pairs, by default line by line, float
    first."""
    inputs = _bit_inputs()
    if order is None:
        order = [(i, mode) for i in range(len(inputs)) for mode in MODES]
    fields = {}
    for i, mode in order:
        _, q, evaluate = inputs[i]
        ctx = (EvalContext.floating(q, 50) if mode == "float"
               else EvalContext.exact(q))
        fields[i, mode] = evaluate[mode](ctx)
    return [f"{prefix} {fields[i, 'float']} {fields[i, 'exact']}"
            for i, (prefix, _, _) in enumerate(inputs)]


class TestBitIdentity:
    def test_values_match_golden_bits(self):
        assert racah_bit_lines() == GOLDEN_BITS.read_text().splitlines()

    def test_cold_warm_and_evicted_tables_give_the_same_bits(self):
        golden = GOLDEN_BITS.read_text().splitlines()
        tables = qarith._q_tables

        def within_bound():
            info = tables.cache_info()
            return info.maxsize == qarith._Q_TABLES >= info.currsize

        tables.cache_clear()
        assert racah_bit_lines() == golden
        assert within_bound()

        # Warm: every q in both modes, interleaved.
        order = [(i, mode) for i in range(len(golden)) for mode in MODES]
        random.Random(10).shuffle(order)
        qs = [q for _, q, _ in _bit_inputs()]
        assert len({(qs[i], mode) for i, mode in order[:40]}) == 8
        held = EvalContext.floating(Fraction(13, 10), 50)
        assert racah_bit_lines(order) == golden
        assert within_bound()

        # Evicted: more than _Q_TABLES other keys push out all eight.
        for k in range(qarith._Q_TABLES + 1):
            EvalContext("float" if k % 2 else "exact", Fraction(k + 1, 97)).qfact(6)
            assert within_bound()
        assert EvalContext.floating(Fraction(13, 10), 50)._qfact_memo \
            is not held._qfact_memo
        assert racah_bit_lines(order) == golden
        assert within_bound()

    def test_float_columns_are_within_one_ulp_of_the_exact_column(self):
        # each float value of a line against its own exact= radical.  Form a
        # multiplies the rounded U_q by a float square root of q-bracket
        # ratios, whose own roundings may add up to 3 ulp more
        bound = {"float": 1, "direct": 1, "form_a": 4, "form_b": 1}
        worst = dict.fromkeys(bound, 0)
        for line in GOLDEN_BITS.read_text().splitlines():
            sign, qpower, radicand = re.search(
                r"exact=\((-?\d),(-?\d+),([^)]*)\)", line).groups()
            exact = SignedRadical(int(sign), int(qpower), Fraction(radicand))
            for name, bits in re.findall(r"(\w+)=(\(\d,0x[0-9a-f]+,[^)]*\))",
                                         line):
                sgn, man, exp, bc = bits[1:-1].split(",")
                value = (-1) ** int(sgn) * int(man, 16) * Fraction(2) ** int(exp)
                worst[name] = max(worst[name], ulps_off(value, exact))
        assert all(worst[name] <= bound[name] for name in bound), worst

    def test_integer_triangle_test_matches_fraction_definition(self):
        values = ([Fraction(-1, 2), Fraction(0), Fraction(1, 3)]
                  + [Fraction(n, 2) for n in range(1, 7)])
        mismatched, passed = [], 0
        for tup in itertools.product(values, repeat=6):
            ok = racah_triangles_ok(RacahArgs(*tup))
            if ok != racah_triangles_fraction(*tup):
                mismatched.append(tup)
            passed += ok
        assert mismatched == []
        assert passed > 0


# ----------------------------------------------------------------------------
# float values at rational q: the exact value rounded once
# ----------------------------------------------------------------------------

_REF = mpmath.mp.clone()
_REF.dps = 120


def ulps_off(value, exact: SignedRadical, bits=169) -> float:
    """|value - exact| in units of the last place of a ``bits``-bit mpf (50
    digits) in the binade of the exact value; value is an mpf or a
    Fraction."""
    assert exact.qpower == 0      # as for every radical of _racah_form
    got = (_REF.mpf(value.numerator) / value.denominator
           if isinstance(value, Fraction) else _REF.mpf(value))
    if exact.is_zero():
        return 0.0 if got == 0 else float("inf")
    rad = exact.radicand
    want = exact.sign * _REF.sqrt(_REF.mpf(rad.numerator) / rad.denominator)
    ulp = _REF.ldexp(1, int(_REF.floor(_REF.log(abs(want), 2))) + 1 - bits)
    return float(abs(got - want) / ulp)


class TestFloatRounding:
    """A float context rounds the exact value once; a float or mpf q is read
    as the exact binary rational it is."""

    @pytest.mark.parametrize("spin", [10, 20, 40])
    def test_equal_spins_within_one_ulp(self, spin):
        # the mpf sum kept 25 of 50 digits at J = 10 and printed 9.75e41 for
        # -0.4348 at J = 20
        q, args = Fraction(13, 10), RacahArgs.make(*[spin] * 6)
        value = qracah(EvalContext.floating(q, 50), args)
        assert ulps_off(value, qracah_exact(EvalContext.exact(q), args)) <= 1

    def test_q3_row_within_one_ulp(self):
        # the mpf sum printed -1.36e128 for -2.31e-8
        args = RacahArgs.make(3, 10, Fraction(17, 2), Fraction(1, 2), 8,
                              Fraction(19, 2))
        value = qracah(EvalContext.floating(3, 50), args)
        exact = qracah_exact(EvalContext.exact(3), args)
        assert ulps_off(value, exact) <= 1
        assert mpmath.nstr(value, 11) == "-2.3086533696e-8"

    @pytest.mark.parametrize("q", [1.25, 1.5, mpmath.mpf(0.8), 0.5, 3.0, 1.3],
                             ids=str)
    def test_float_and_mpf_keys_are_their_exact_rationals(self, q):
        # a float or mpf q is the binary rational it already is: its values
        # are those of that Fraction, the exact values rounded once (the mpf
        # sum lost 11-12 digits here at q = 0.5 and 3.0)
        rational = qarith.exact_fraction(q)
        ctx = EvalContext.floating(q, 50)
        same = EvalContext.floating(rational, 50)
        exact = EvalContext.exact(rational)
        rng = random.Random(14)
        for _ in range(30):
            args = _in_triangle_args(rng, 6)
            value = qracah(ctx, args)
            assert value._mpf_ == qracah(same, args)._mpf_
            assert ulps_off(value, qracah_exact(exact, args)) <= 1

    def test_float_key_at_equal_spins_keeps_every_digit(self):
        # the mpf sum of this float key returned 3.62e41
        args = RacahArgs.make(*["20"] * 6)
        value = qracah(EvalContext.floating(1.3, 50), args)
        assert mpmath.nstr(value, 21) == "-0.434811174438683337202"
        exact = qracah_exact(EvalContext.exact(Fraction(1.3)), args)
        assert ulps_off(value, exact) <= 1
