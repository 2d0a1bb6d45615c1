"""Signatures, series classes, label enumeration, weights, patterns."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qu21.errors import (ConstraintViolation, InvalidSignature,
                         LabelOutOfDomain, PatternViolation)
from qu21.repspace import (GGPattern, SeriesClass, Signature, TBasisLabel,
                           UBasisLabel, Weight, classify, enumerate_t_basis,
                           enumerate_u_basis, gg_from_label, label_from_gg,
                           lowest_t_label, lowest_u_label, require_t_label,
                           require_u_label, t_label, t_labels_at_weight,
                           u_label, u_labels_at_weight, weight_of_t,
                           weight_of_u)


def small_signatures():
    out = []
    for f1 in range(-1, 5):
        for f2 in range(-3, f1 + 1):
            for f3 in range(f2 - 6, min(f1 - 1, f2 - 2) + 1):
                out.append(Signature(f1, f2, f3))
    return out


sig_strategy = st.sampled_from(small_signatures())


class TestSignature:
    @pytest.mark.parametrize("f1,f2,f3,fragment", [
        (1, 2, -2, "f1 >= f2"),
        (2, 0, 2, "f1 - f3 >= 1"),
        (2, 0, -1, "f2 - f3 >= 2"),
    ])
    def test_rejection_names_inequality(self, f1, f2, f3, fragment):
        with pytest.raises(InvalidSignature) as err:
            Signature(f1, f2, f3)
        assert fragment in str(err.value)

    def test_parse_and_str(self):
        sig = Signature.parse("4,2,-2")
        assert sig == Signature(4, 2, -2)
        assert str(sig) == "(4,2,-2)"
        with pytest.raises(InvalidSignature):
            Signature.parse("4,2")

    def test_top_row(self):
        sig = Signature(4, 2, -2)
        assert sig.top_row() == (3, 1, 0)

    def test_lowest_weight(self):
        assert Signature(5, 2, -1).lowest_weight() == Weight(5, 2, -1)


class TestClassify:
    @pytest.mark.parametrize("sig,series", [
        (Signature(4, 2, -2), SeriesClass.STANDARD),
        (Signature(5, 2, -1), SeriesClass.STANDARD),
        (Signature(4, 2, -3), SeriesClass.STANDARD),
        (Signature(3, 1, -1), SeriesClass.NONSTANDARD_EDGE),
        (Signature(4, 2, 0), SeriesClass.NONSTANDARD_EDGE),
        (Signature(2, 2, -2), SeriesClass.NONSTANDARD_EQUAL),
        (Signature(2, 2, 0), SeriesClass.NONSTANDARD_EQUAL),
    ])
    def test_series(self, sig, series):
        assert classify(sig) == series

    def test_equal_takes_precedence_over_edge(self):
        # f1 = f2 and f2 - f3 = 2 at once
        assert classify(Signature(2, 2, 0)) == SeriesClass.NONSTANDARD_EQUAL


class TestLabels:
    def test_u_label_validation_messages(self):
        sig = Signature(4, 2, -2)
        with pytest.raises(ConstraintViolation) as err:
            u_label(sig, 3, 0, Fraction(1, 2))
        assert "0 <= k <= f1 - f2" in str(err.value)
        with pytest.raises(ConstraintViolation) as err:
            u_label(sig, 0, -1, Fraction(1, 2))
        assert "ell >= 0" in str(err.value)
        with pytest.raises(ConstraintViolation) as err:
            u_label(sig, 0, 0, Fraction(2))
        assert "-U <= MU <= U" in str(err.value)
        with pytest.raises(ConstraintViolation) as err:
            u_label(sig, 0, 0, Fraction(1, 2))
        assert "integer" in str(err.value)

    def test_t_label_validation_messages(self):
        sig = Signature(4, 2, -2)
        with pytest.raises(ConstraintViolation) as err:
            t_label(sig, 0, 5, Fraction(2))
        assert "0 <= p <= f1 - f2" in str(err.value)
        with pytest.raises(ConstraintViolation) as err:
            t_label(sig, -1, 0, Fraction(2))
        assert "s >= 0" in str(err.value)
        with pytest.raises(ConstraintViolation) as err:
            t_label(sig, 0, 0, Fraction(1))
        assert "M >= T + 1" in str(err.value)

    def test_require_wraps_domain_errors(self):
        sig = Signature(4, 2, -2)
        bad = UBasisLabel(5, 0, Fraction(1), Fraction(0))
        with pytest.raises(LabelOutOfDomain):
            require_u_label(sig, bad)
        badt = TBasisLabel(0, 9, Fraction(1), Fraction(2))
        with pytest.raises(LabelOutOfDomain):
            require_t_label(sig, badt)

    def test_require_rejects_inconsistent_spin(self):
        sig = Signature(4, 2, -2)
        wrong_u = UBasisLabel(0, 0, Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(LabelOutOfDomain):
            require_u_label(sig, wrong_u)
        wrong_t = TBasisLabel(0, 0, Fraction(5), Fraction(6))
        with pytest.raises(LabelOutOfDomain):
            require_t_label(sig, wrong_t)


class TestEnumeration:
    def test_counts_lmax_one(self):
        assert len(enumerate_u_basis(Signature(4, 2, -2), 1)) == 15

    def test_sorted_and_unique(self):
        ub = enumerate_u_basis(Signature(5, 2, -1), 3)
        assert ub == sorted(ub, key=lambda l: l.sort_key())
        assert len(set(ub)) == len(ub)
        tb = enumerate_t_basis(Signature(5, 2, -1), 3, 4)
        assert tb == sorted(tb, key=lambda l: l.sort_key())
        assert len(set(tb)) == len(tb)

    @given(sig=sig_strategy)
    @settings(max_examples=30, deadline=None)
    def test_weight_sum_conserved_u(self, sig):
        base = sig.f1 + sig.f2 + sig.f3
        for lab in enumerate_u_basis(sig, 2):
            w = weight_of_u(sig, lab)
            assert w.m1 + w.m2 + w.m3 == base

    @given(sig=sig_strategy)
    @settings(max_examples=30, deadline=None)
    def test_weight_sum_conserved_t(self, sig):
        base = sig.f1 + sig.f2 + sig.f3
        for lab in enumerate_t_basis(sig, 2, 2):
            w = weight_of_t(sig, lab)
            assert w.m1 + w.m2 + w.m3 == base

    def test_lowest_labels(self):
        sig = Signature(4, 2, -2)
        lu = lowest_u_label(sig)
        assert (lu.k, lu.ell) == (0, 0)
        assert lu.U == lu.MU == Fraction(1)
        assert weight_of_u(sig, lu) == Weight(4, 2, -2)
        lt = lowest_t_label(sig)
        assert (lt.s, lt.p) == (0, 0)
        assert lt.T == Fraction(1) and lt.M == Fraction(2)
        assert weight_of_t(sig, lt) == Weight(4, 2, -2)

    @given(sig=sig_strategy)
    @settings(max_examples=30, deadline=None)
    def test_spins_match_defining_combinations(self, sig):
        for lab in enumerate_u_basis(sig, 2):
            assert 2 * lab.U == sig.f1 - sig.f2 - lab.k + lab.ell
        for lab in enumerate_t_basis(sig, 2, 2):
            assert 2 * lab.T == sig.f2 - sig.f3 + lab.p + lab.s - 2


class TestPatterns:
    def test_roundtrip(self):
        sig = Signature(5, 2, -1)
        for lab in enumerate_u_basis(sig, 2):
            patt = gg_from_label(sig, lab)
            sig2, lab2 = label_from_gg(patt)
            assert sig2 == sig and lab2 == lab

    def test_betweenness_violations(self):
        # m22 > m12 breaks the second-row interleaving
        with pytest.raises(PatternViolation):
            label_from_gg(GGPattern(3, 1, 0, 4, 5, 4))
        # m11 outside [m22, m12]
        with pytest.raises(PatternViolation):
            label_from_gg(GGPattern(3, 1, 0, 4, 2, 1))

    def test_str_shape(self):
        patt = gg_from_label(Signature(4, 2, -2), lowest_u_label(Signature(4, 2, -2)))
        text = str(patt)
        assert text.count("/") == 2


class TestWeightSlices:
    @given(sig=sig_strategy)
    @settings(max_examples=25, deadline=None)
    def test_slices_agree_with_enumeration(self, sig):
        ub = enumerate_u_basis(sig, 3)
        by_w = {}
        for lab in ub:
            by_w.setdefault(weight_of_u(sig, lab), set()).add(lab)
        for w, labs in by_w.items():
            full = u_labels_at_weight(sig, w)
            assert set(full) >= labs
            assert all(weight_of_u(sig, l) == w for l in full)

    @given(sig=sig_strategy)
    @settings(max_examples=25, deadline=None)
    def test_u_and_t_multiplicities_match(self, sig):
        ub = enumerate_u_basis(sig, 3)
        for w in {weight_of_u(sig, lab) for lab in ub}:
            nu = len(u_labels_at_weight(sig, w))
            nt = len(t_labels_at_weight(sig, w))
            assert nu == nt and nu >= 1

    def test_empty_weight(self):
        sig = Signature(4, 2, -2)
        assert u_labels_at_weight(sig, Weight(0, 0, 0)) == []
        assert t_labels_at_weight(sig, Weight(0, 0, 0)) == []
        assert u_labels_at_weight(sig, Weight(5, 2, -3)) != []


class TestMatchLabels:
    """The T labels matching a U label are t_labels_at_weight at its weight."""

    def test_lowest_matches_lowest(self):
        sig = Signature(3, 1, -1)
        w = weight_of_u(sig, lowest_u_label(sig))
        assert t_labels_at_weight(sig, w) == [lowest_t_label(sig)]

    @given(sig=sig_strategy)
    @settings(max_examples=25, deadline=None)
    def test_matches_share_weight_and_cover_slice(self, sig):
        # every weight of a U label with ell <= 2 has k + ell <= f1 - f2 + 2,
        # so this window holds every T label at it (s + depth = k + ell)
        bound = sig.f1 - sig.f2 + 2
        window = enumerate_t_basis(sig, bound, bound)
        for lab in enumerate_u_basis(sig, 2):
            w = weight_of_u(sig, lab)
            ms = t_labels_at_weight(sig, w)
            assert ms, f"no partners at {lab}"
            assert all(weight_of_t(sig, t) == w for t in ms)
            assert set(ms) == {t for t in window if weight_of_t(sig, t) == w}
            spins = [t.T for t in ms]
            assert spins == sorted(spins)
