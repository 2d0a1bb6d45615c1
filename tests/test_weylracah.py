"""Transformation brackets between the two reduction chains, and q-Racah values."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qu21 import weylracah
from qu21.errors import EmptyWeightSpace, WeightMismatch
from qu21.qarith import EvalContext, SignedRadical
from qu21.repspace import (Signature, Weight, enumerate_u_basis,
                           lowest_t_label, lowest_u_label, t_labels_at_weight,
                           u_labels_at_weight, weight_of_t, weight_of_u)
from qu21.weylracah import (RacahArgs, qracah, qracah_exact,
                            racah_args_from_rep, racah_triangles_ok,
                            weyl_block, weyl_coefficient,
                            weyl_coefficient_exact, weyl_via_racah)

from oracles import (half_integers, racah_triangles_fraction,
                     recoupling_exact, triangle_fraction)

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


# ----------------------------------------------------------------------------
# bit-level golden: every float and exact value of a fixed input set
# ----------------------------------------------------------------------------

BITS_QS = (Fraction(1, 2), Fraction(1), Fraction(13, 10), Fraction(3))
BITS_SIGS = (Signature(4, 2, -2), Signature(3, 1, -1), Signature(5, 2, -1),
             Signature(8, 2, -2), Signature(6, 6, 3))


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


def racah_bit_lines():
    """One line per input: the _mpf_ of every float value and the
    (sign, qpower, radicand) of every exact value, at 50 digits."""
    rng = random.Random(2003)
    lines = []
    for q in BITS_QS:
        fctx, ectx = EvalContext.floating(q, 50), EvalContext.exact(q)
        for args in _racah_bit_args(rng):
            lines.append(
                f"racah q={q} args={','.join(map(str, args.as_tuple()))}"
                f" float={_mpf_bits(qracah(fctx, args))}"
                f" exact={_radical_bits(qracah_exact(ectx, args))}")
        for sig, u, t in _bracket_bit_labels(rng):
            values = (weyl_coefficient(fctx, sig, u, t),
                      weyl_via_racah(fctx, sig, u, t, form="a"),
                      weyl_via_racah(fctx, sig, u, t, form="b"))
            lines.append(
                f"weyl q={q} sig={sig} u=({u}) t=({t}) "
                + " ".join(f"{name}={_mpf_bits(v)}" for name, v in
                           zip(("direct", "form_a", "form_b"), values))
                + f" exact={_radical_bits(weyl_coefficient_exact(ectx, sig, u, t))}")
    return lines


class TestBitIdentity:
    def test_values_match_golden_bits(self):
        golden = Path(__file__).parent / "golden" / "racah_bits.txt"
        assert racah_bit_lines() == golden.read_text().splitlines()

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
