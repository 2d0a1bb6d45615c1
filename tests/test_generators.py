"""Norms, ladder coefficients, projector coefficients, generator actions."""

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qu21.generators as generators_mod
import qu21.repspace as repspace_mod
from qu21.errors import ConstraintViolation, LabelOutOfDomain
from qu21.generators import (GENERATORS, WEIGHT_SHIFTS, basis_action,
                             casimir_su11_eigenvalue, norm_su11_sq,
                             norm_t_sq, norm_t_sq_stepwise, norm_u_sq,
                             norm_u_sq_stepwise, projector_t_coeff,
                             table_entries)
from qu21.qarith import EvalContext, SignedRadical
from qu21.repspace import (Signature, TBasisLabel, UBasisLabel, classify,
                           enumerate_t_basis, enumerate_u_basis,
                           lowest_t_label, lowest_u_label, t_label, u_label,
                           weight_of_t, weight_of_u)

KEY_OF = {"u": repspace_mod._u_key, "t": repspace_mod._t_key}

Q_SAMPLES = [Fraction(1, 2), Fraction(9, 10), Fraction(1), Fraction(13, 10),
             Fraction(2)]

SIGS = [Signature(4, 2, -2), Signature(3, 1, -1), Signature(5, 2, -1),
        Signature(2, 2, -2), Signature(3, 3, -3), Signature(4, 1, -4)]


class TestNorms:
    @pytest.mark.parametrize("q", Q_SAMPLES)
    @pytest.mark.parametrize("sig", SIGS)
    def test_closed_form_equals_recursions(self, sig, q):
        ctx = EvalContext.exact(q)
        for k in range(sig.f1 - sig.f2 + 1):
            for ell in range(5):
                assert norm_u_sq(ctx, sig, k, ell) == \
                    norm_u_sq_stepwise(ctx, sig, k, ell)
        for p in range(sig.f1 - sig.f2 + 1):
            for s in range(5):
                assert norm_t_sq(ctx, sig, s, p) == \
                    norm_t_sq_stepwise(ctx, sig, s, p)

    def test_pinned_values(self):
        ctx = EvalContext.exact(Fraction(1, 2))
        sig = Signature(4, 2, -2)
        assert norm_u_sq(ctx, sig, 0, 0) == 1
        assert norm_u_sq(ctx, sig, 0, 1) == ctx.qnum(6)
        assert norm_u_sq(ctx, sig, 1, 0) == ctx.qnum(2)
        assert norm_u_sq(ctx, Signature(4, 2, 0), 0, 1) == ctx.qnum(4)
        assert norm_t_sq(ctx, sig, 0, 0) == 1

    def test_ell_only_column_uses_single_recursion(self):
        ctx = EvalContext.exact(Fraction(13, 10))
        sig = Signature(5, 2, -1)
        f13 = sig.f1 - sig.f3
        acc = ctx.one()
        for ell in range(1, 7):
            acc = acc * ctx.qnum(ell) * ctx.qnum(f13 + ell - 1)
            assert norm_u_sq(ctx, sig, 0, ell) == acc

    @pytest.mark.parametrize("sig", SIGS)
    @pytest.mark.parametrize("q", Q_SAMPLES)
    def test_positivity_all_series(self, sig, q):
        ctx = EvalContext.exact(q)
        series = classify(sig)
        assert series is not None
        for k in range(sig.f1 - sig.f2 + 1):
            for ell in range(5):
                assert norm_u_sq(ctx, sig, k, ell) > 0
        for p in range(sig.f1 - sig.f2 + 1):
            for s in range(5):
                assert norm_t_sq(ctx, sig, s, p) > 0

    def test_domain_errors_match_the_label_checks(self):
        ctx = EvalContext.exact(Fraction(1, 2))
        sig = Signature(4, 2, -2)
        for k, ell in ((3, 0), (-1, 0), (0, -1)):
            with pytest.raises(ConstraintViolation) as want:
                u_label(sig, k, ell, Fraction(sig.f1 - sig.f2 - k + ell, 2))
            for fn in (norm_u_sq, norm_u_sq_stepwise):
                with pytest.raises(ConstraintViolation, match=re.escape(str(want.value))):
                    fn(ctx, sig, k, ell)
        for s, p in ((0, 3), (0, -1), (-1, 0)):
            with pytest.raises(ConstraintViolation) as want:
                t_label(sig, s, p, 10)
            for fn in (norm_t_sq, norm_t_sq_stepwise):
                with pytest.raises(ConstraintViolation, match=re.escape(str(want.value))):
                    fn(ctx, sig, s, p)

    def test_domain_errors_both_paths(self):
        ctx = EvalContext.exact(Fraction(1, 2))
        sig = Signature(4, 2, -2)
        for fn in (norm_u_sq, norm_u_sq_stepwise):
            with pytest.raises(ConstraintViolation):
                fn(ctx, sig, sig.f1 - sig.f2 + 1, 0)
            with pytest.raises(ConstraintViolation):
                fn(ctx, sig, 0, -1)
        for fn in (norm_t_sq, norm_t_sq_stepwise):
            with pytest.raises(ConstraintViolation):
                fn(ctx, sig, 0, sig.f1 - sig.f2 + 1)
            with pytest.raises(ConstraintViolation):
                fn(ctx, sig, -1, 0)


class TestLadderNorms:
    @given(q=st.sampled_from(Q_SAMPLES), two_t=st.integers(0, 8),
           x=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_su11_recursion(self, q, two_t, x):
        ctx = EvalContext.exact(q)
        T = Fraction(two_t, 2)
        M = T + 1 + x
        ratio = norm_su11_sq(ctx, T, M) / norm_su11_sq(ctx, T, M - 1)
        assert ratio == ctx.qnum(M - T - 1) * ctx.qnum(T + M)

    def test_su11_base_case(self):
        ctx = EvalContext.exact(Fraction(13, 10))
        assert norm_su11_sq(ctx, Fraction(3, 2), Fraction(5, 2)) == 1


class TestProjectorCoefficients:
    @pytest.mark.parametrize("q", Q_SAMPLES)
    def test_leading_term_is_one(self, q):
        ctx = EvalContext.exact(q)
        for two_t in range(0, 9):
            assert projector_t_coeff(ctx, Fraction(two_t, 2), 0) == 1

    def test_t_coeff_truncates(self):
        ctx = EvalContext.exact(Fraction(1, 2))
        assert projector_t_coeff(ctx, 1, 3) == 0
        assert projector_t_coeff(ctx, Fraction(1, 2), 2) == 0
        assert projector_t_coeff(ctx, 1, 2) != 0

    def test_values(self):
        ctx = EvalContext.exact(Fraction(1, 2))
        # [2T - r]! / ([r]! [2T]!) at T = 1: r = 1 -> 1/[2], r = 2 -> 1/[2]^2
        assert projector_t_coeff(ctx, 1, 1) == 1 / ctx.qnum(2)
        assert projector_t_coeff(ctx, 1, 2) == 1 / ctx.qnum(2) ** 2


class TestCasimirEigenvalue:
    @pytest.mark.parametrize("q", Q_SAMPLES)
    def test_matches_half_bracket(self, q):
        ctx = EvalContext.exact(q)
        for two_t in range(0, 9):
            T = Fraction(two_t, 2)
            assert casimir_su11_eigenvalue(ctx, T) == \
                ctx.qbracket_half_sq(two_t + 1)

    def test_trivial_value_at_minus_half(self):
        ctx = EvalContext.exact(Fraction(13, 10))
        assert casimir_su11_eigenvalue(ctx, Fraction(-1, 2)) == 0

    def test_domain(self):
        ctx = EvalContext.exact(Fraction(13, 10))
        with pytest.raises(ConstraintViolation):
            casimir_su11_eigenvalue(ctx, Fraction(-1))


class TestActions:
    @pytest.mark.parametrize("sig", SIGS[:4])
    def test_lowest_vector_annihilated(self, sig):
        ctx = EvalContext.exact(Fraction(13, 10))
        lu, lt = lowest_u_label(sig), lowest_t_label(sig)
        for g in ("A31", "A32", "A12"):
            assert basis_action(ctx, sig, "u", g, lu) == []
            assert basis_action(ctx, sig, "t", g, lt) == []

    def test_diagonal_eigenvalues_on_lowest(self):
        sig = Signature(4, 2, -2)
        ctx = EvalContext.exact(Fraction(13, 10))
        for i, f in ((1, 4), (2, 2), (3, -2)):
            terms = basis_action(ctx, sig, "u", f"A{i}{i}", lowest_u_label(sig))
            assert len(terms) == 1
            assert terms[0].target == lowest_u_label(sig)
            val = terms[0].coeff
            assert val.same_value(SignedRadical.from_rational(Fraction(f)), ctx)

    @pytest.mark.parametrize("basis", ["u", "t"])
    @pytest.mark.parametrize("sig", SIGS[:3])
    def test_weight_gradedness(self, sig, basis):
        ctx = EvalContext.exact(Fraction(9, 10))
        labels = (enumerate_u_basis(sig, 2) if basis == "u"
                  else enumerate_t_basis(sig, 2, 2))
        weight_of = weight_of_u if basis == "u" else weight_of_t
        for lab in labels:
            w = weight_of(sig, lab)
            for g in GENERATORS:
                dm = WEIGHT_SHIFTS[g]
                for term in basis_action(ctx, sig, basis, g, lab):
                    w2 = weight_of(sig, term.target)
                    assert (w2.m1 - w.m1, w2.m2 - w.m2, w2.m3 - w.m3) == dm

    @pytest.mark.parametrize("basis", ["u", "t"])
    def test_noncompact_columns_have_at_most_two_terms(self, basis):
        sig = Signature(4, 1, -3)
        ctx = EvalContext.exact(Fraction(13, 10))
        labels = (enumerate_u_basis(sig, 3) if basis == "u"
                  else enumerate_t_basis(sig, 3, 3))
        for lab in labels:
            for g in ("A13", "A23", "A31", "A32"):
                assert len(basis_action(ctx, sig, basis, g, lab)) <= 2

    def test_terms_sorted_by_target(self):
        sig = Signature(4, 2, -2)
        ctx = EvalContext.exact(Fraction(13, 10))
        for lab in enumerate_u_basis(sig, 3):
            for g in GENERATORS:
                terms = basis_action(ctx, sig, "u", g, lab)
                keys = [t.target.sort_key() for t in terms]
                assert keys == sorted(keys)

    def test_compact_ladder_transpose_symmetry(self):
        # coefficient of A12: |U, MU> -> |U, MU+1> equals coefficient of
        # A21: |U, MU+1> -> |U, MU>, entry by entry
        sig = Signature(5, 2, -1)
        ctx = EvalContext.exact(Fraction(13, 10))
        for lab in enumerate_u_basis(sig, 2):
            for tgt, coeff in basis_action(ctx, sig, "u", "A12", lab):
                back = {t: c for t, c in basis_action(ctx, sig, "u", "A21", tgt)}
                assert lab in back
                assert back[lab].same_value(coeff, ctx)

    def test_su11_ladder_antisymmetry(self):
        # A23 and A32 in the T basis: <up|A23|lab> = -<lab|A32|up>
        sig = Signature(3, 1, -1)
        ctx = EvalContext.exact(Fraction(9, 10))
        for lab in enumerate_t_basis(sig, 2, 3):
            for tgt, coeff in basis_action(ctx, sig, "t", "A23", lab):
                back = {t: c for t, c in basis_action(ctx, sig, "t", "A32", tgt)}
                assert lab in back
                assert back[lab].same_value(-coeff, ctx)

    def test_unknown_generator_rejected(self):
        sig = Signature(4, 2, -2)
        ctx = EvalContext.exact(Fraction(1))
        with pytest.raises(ValueError):
            basis_action(ctx, sig, "u", "A14", lowest_u_label(sig))
        with pytest.raises(ValueError):
            basis_action(ctx, sig, "x", "A12", lowest_u_label(sig))

    @pytest.mark.parametrize("basis", ["u", "t"])
    def test_each_label_is_checked_once(self, monkeypatch, basis):
        # the source through require_*_label, which returns its key, each
        # target in _key_action; the target labels are built from those
        # keys unchecked
        sig = Signature(4, 2, -2)
        ctx = EvalContext.exact(Fraction(13, 10))
        name = f"_check_{basis}_key"
        inner = getattr(repspace_mod, name)
        checked = []

        def counting(sig_, *key):
            checked.append(key)
            return inner(sig_, *key)

        monkeypatch.setattr(repspace_mod, name, counting)
        row = generators_mod._BASES[basis]
        monkeypatch.setitem(generators_mod._BASES, basis,
                            row[:3] + (counting,) + row[4:])
        labels = (enumerate_u_basis(sig, 2) if basis == "u"
                  else enumerate_t_basis(sig, 2, 2))
        checks = 0
        for lab in labels:
            for g in GENERATORS:
                del checked[:]
                terms = basis_action(ctx, sig, basis, g, lab)
                key = KEY_OF[basis](lab)
                targets = ([] if g in ("A11", "A22", "A33") else
                           [KEY_OF[basis](t.target) for t in terms])
                assert checked == [key] + targets, (lab, g)
                checks += len(checked)
        assert checks > len(labels) * len(GENERATORS)  # targets were seen

    def test_out_of_domain_source_and_target_raise(self, monkeypatch):
        sig = Signature(4, 2, -2)
        ctx = EvalContext.exact(Fraction(13, 10))
        with pytest.raises(LabelOutOfDomain):
            basis_action(ctx, sig, "u", "A13",
                         UBasisLabel(3, 0, Fraction(-1, 2), Fraction(1, 2)))
        with pytest.raises(LabelOutOfDomain):
            basis_action(ctx, sig, "t", "A13",
                         TBasisLabel(0, 0, Fraction(1), Fraction(1)))
        # a ladder row shifted in k leaves the domain at the top of k
        [row] = generators_mod._ROWS["u"]["A12"]
        monkeypatch.setitem(generators_mod._ROWS["u"], "A12",
                            (dataclasses.replace(row, d1=1),))
        top = u_label(sig, sig.f1 - sig.f2, 1, Fraction(-1, 2))
        with pytest.raises(ConstraintViolation, match="k <= f1 - f2"):
            basis_action(ctx, sig, "u", "A12", top)

    def test_tables_hold_twenty_rows_with_distinct_ids(self):
        rows = table_entries("u") + table_entries("t")
        assert len(rows) == 20
        assert len({e.eid for e in rows}) == 20

    def test_unknown_flip_entry_rejected(self):
        sig = Signature(4, 2, -2)
        ctx = EvalContext.exact(Fraction(13, 10))
        with pytest.raises(ValueError, match="U99"):
            basis_action(ctx, sig, "u", "A13", lowest_u_label(sig),
                         flip_entry="U99")

    def test_flip_entry_changes_exactly_one_family(self):
        sig = Signature(4, 2, -2)
        ctx = EvalContext.exact(Fraction(13, 10))
        flipped_any = False
        for lab in enumerate_u_basis(sig, 2):
            plain = basis_action(ctx, sig, "u", "A13", lab)
            forged = basis_action(ctx, sig, "u", "A13", lab, flip_entry="U1")
            assert len(plain) == len(forged)
            for (t1, c1), (t2, c2) in zip(plain, forged):
                assert t1 == t2
                if c1 != c2:
                    assert c1.same_value(-c2, ctx)
                    flipped_any = True
        assert flipped_any
        # entries of other tables unaffected
        for lab in enumerate_t_basis(sig, 2, 2):
            assert basis_action(ctx, sig, "t", "A13", lab) == \
                basis_action(ctx, sig, "t", "A13", lab, flip_entry="U1")


class TestRowValues:
    """A row's radicand is formed in integers at an int or Fraction q."""

    @given(q=st.fractions(min_value=Fraction(1, 9), max_value=9,
                          max_denominator=12).filter(lambda x: x > 0),
           nums=st.lists(st.integers(-12, 12).filter(bool), min_size=1,
                         max_size=4),
           dens=st.lists(st.integers(-12, 12).filter(bool), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_bracket_ratio_is_the_bracket_product(self, q, nums, dens):
        ctx = EvalContext.exact(q)
        want = Fraction(1)
        for a in nums:
            want *= ctx.qnum(a)
        for b in dens:
            want /= ctx.qnum(b)
        if want < 0:
            with pytest.raises(ValueError):
                generators_mod._bracket_ratio(ctx.ints, tuple(nums),
                                              tuple(dens))
        else:
            num, den = generators_mod._bracket_ratio(ctx.ints, tuple(nums),
                                                     tuple(dens))
            assert den > 0 and Fraction(num, den) == want

    @pytest.mark.parametrize("basis", ["u", "t"])
    def test_float_mode_radicals_are_exact_at_rational_q(self, basis):
        # a float context of a Fraction q gives exact mode's radicals, and
        # so does the same q as a float, which is that binary rational
        sig, q = Signature(4, 2, -2), Fraction(5, 4)
        exact, fctx = EvalContext.exact(q), EvalContext.floating(q, 50)
        mctx = EvalContext.floating(1.25, 50)
        labels = (enumerate_u_basis(sig, 2) if basis == "u"
                  else enumerate_t_basis(sig, 2, 2))
        for lab in labels:
            for gen in GENERATORS:
                want = basis_action(exact, sig, basis, gen, lab)
                assert basis_action(fctx, sig, basis, gen, lab) == want
                assert basis_action(mctx, sig, basis, gen, lab) == want
                for _, w in want:
                    assert w.to_float(mctx) == w.to_float(fctx)


DOUBLETS = [("U1", "U2"), ("U3", "U4"), ("U5", "U6"), ("U7", "U8"),
            ("T1", "T2"), ("T3", "T4"), ("T5", "T6"), ("T7", "T8")]


class TestDoublets:
    """The multiplet-changing rows pair into doublets with one reduced part."""

    def test_doublets_cover_the_multiplet_changing_rows(self):
        changing = [e.eid for b in ("u", "t") for e in table_entries(b)
                    if (e.d1, e.d2) != (0, 0)]
        assert changing == [eid for pair in DOUBLETS for eid in pair]

    @pytest.mark.parametrize("first, second", DOUBLETS)
    def test_rows_share_the_shift_and_reduced_brackets(self, first, second):
        rows = {e.eid: e for b in ("u", "t") for e in table_entries(b)}
        a, b = rows[first], rows[second]
        assert (a.d1, a.d2) == (b.d1, b.d2)
        assert len(a.num) == len(b.num) == 4
        assert a.num[:3] == b.num[:3]  # the same factor functions
        assert a.den == b.den
        assert a.num[3] is not b.num[3]
        assert a.gen != b.gen and a.dtwoM == -b.dtwoM

    @pytest.mark.parametrize("basis", ["u", "t"])
    def test_denominator_is_2j_2j_plus_1(self, basis):
        # J is the larger of the source and target spins, on every label
        # of the desk window (4,2,-2), window 6
        sig = Signature(4, 2, -2)
        labels = (enumerate_u_basis(sig, 6) if basis == "u"
                  else enumerate_t_basis(sig, 6, 6))
        env_of = generators_mod._BASES[basis][2]
        rows = [e for e in table_entries(basis) if e.den]
        assert len(rows) == 8
        for lab in labels:
            env = env_of(sig, KEY_OF[basis](lab))
            two_j = env.twoU if basis == "u" else env.twoT
            for e in rows:
                shift = e.d2 - e.d1 if basis == "u" else e.d1 + e.d2
                top = max(two_j, two_j + shift)
                assert tuple(f(env) for f in e.den) == (top, top + 1), e.eid
