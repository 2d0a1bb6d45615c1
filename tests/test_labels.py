"""Basis labels at every entry point that takes one, and the integer label
keys of repspace they are read into."""

from fractions import Fraction

import pytest

from qu21.errors import LabelOutOfDomain, WeightMismatch
from qu21.generators import basis_action
from qu21.qarith import EvalContext
from qu21.repspace import (Signature, TBasisLabel, UBasisLabel, _t_key,
                           _t_label_at, _t_weight, _u_key, _u_label_at,
                           _u_weight, enumerate_t_basis, enumerate_u_basis,
                           require_t_label, require_u_label, weight_of_t,
                           weight_of_u)
from qu21.weylracah import (racah_args_from_rep, weyl_coefficient,
                            weyl_coefficient_exact, weyl_via_racah)

from oracles import replace, t_weight_fraction, u_weight_fraction

SIG = Signature(4, 2, -2)
EXACT = EvalContext.exact(Fraction(13, 10))
FLOAT = EvalContext.floating(Fraction(13, 10), 30)

# every public function that takes a basis label, with the labels it reads
ENTRY_POINTS = {
    "basis_action-u": ("u", lambda u, t: basis_action(EXACT, SIG, "u", "A13", u)),
    "basis_action-t": ("t", lambda u, t: basis_action(EXACT, SIG, "t", "A13", t)),
    "require_u_label": ("u", lambda u, t: require_u_label(SIG, u)),
    "require_t_label": ("t", lambda u, t: require_t_label(SIG, t)),
    "weight_of_u": ("u", lambda u, t: weight_of_u(SIG, u)),
    "weight_of_t": ("t", lambda u, t: weight_of_t(SIG, t)),
    "weyl_coefficient": ("ut", lambda u, t: weyl_coefficient(FLOAT, SIG, u, t)),
    "weyl_coefficient_exact":
        ("ut", lambda u, t: weyl_coefficient_exact(EXACT, SIG, u, t)),
    "weyl_via_racah-a":
        ("ut", lambda u, t: weyl_via_racah(FLOAT, SIG, u, t, form="a")),
    "weyl_via_racah-b":
        ("ut", lambda u, t: weyl_via_racah(FLOAT, SIG, u, t, form="b")),
    "racah_args_from_rep": ("ut", lambda u, t: racah_args_from_rep(SIG, u, t)),
}

# matched label pairs: the lowest labels, and one of half-integer MU and M
PAIRS = [
    (UBasisLabel(0, 0, Fraction(1), Fraction(1)),
     TBasisLabel(0, 0, Fraction(1), Fraction(2))),
    (UBasisLabel(1, 2, Fraction(3, 2), Fraction(1, 2)),
     TBasisLabel(2, 1, Fraction(5, 2), Fraction(9, 2))),
]
U, T = PAIRS[1]

# labels outside SIG, each with the basis it belongs to
OUT_OF_DOMAIN = {
    "MU=1/3": ("u", replace(U, MU=Fraction(1, 3))),
    "M=1/3": ("t", replace(T, M=Fraction(1, 3))),
    "U inconsistent": ("u", replace(U, U=Fraction(5, 2))),
    "k > f1-f2": ("u", UBasisLabel(3, 0, Fraction(-1, 2), Fraction(-1, 2))),
    "M < T+1": ("t", replace(T, M=T.T)),
}


OUT_OF_DOMAIN_CASES = [(entry, case) for entry, (reads, _) in ENTRY_POINTS.items()
                       for case, (basis, _) in OUT_OF_DOMAIN.items()
                       if basis in reads]


class TestEntryPoints:
    @pytest.mark.parametrize("pair", PAIRS, ids=["lowest", "half"])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_float_half_integer_is_its_fraction(self, entry, pair):
        _, call = ENTRY_POINTS[entry]
        u, t = pair
        floats = (replace(u, MU=float(u.MU)),
                  replace(t, M=float(t.M)))
        assert call(*floats) == call(u, t)

    @pytest.mark.parametrize("entry, case", OUT_OF_DOMAIN_CASES)
    def test_label_outside_the_signature(self, entry, case):
        _, call = ENTRY_POINTS[entry]
        basis, bad = OUT_OF_DOMAIN[case]
        with pytest.raises(LabelOutOfDomain):
            call(bad, T) if basis == "u" else call(U, bad)

    @pytest.mark.parametrize(
        "entry", [e for e, (reads, _) in ENTRY_POINTS.items() if reads == "ut"])
    def test_labels_at_different_weights(self, entry):
        _, call = ENTRY_POINTS[entry]
        lowest_u, _ = PAIRS[0]
        with pytest.raises(WeightMismatch):
            call(lowest_u, T)


WINDOWS = {"desk": (Signature(4, 2, -2), 6), "large": (Signature(8, 2, -2), 10)}


@pytest.mark.parametrize("window", WINDOWS)
class TestKeyRoundTrip:
    """Every label of a window: its key gives it back, require_*_label
    returns the key, and the integer weight is the Fraction weight."""

    def test_u_labels(self, window):
        sig, n = WINDOWS[window]
        for lab in enumerate_u_basis(sig, n):
            key = _u_key(lab)
            assert all(type(x) is int for x in key)
            assert _u_label_at(sig, key) == lab
            assert require_u_label(sig, lab) == key
            assert _u_weight(sig, key) == u_weight_fraction(sig, lab)

    def test_t_labels(self, window):
        sig, n = WINDOWS[window]
        for lab in enumerate_t_basis(sig, n, n):
            key = _t_key(lab)
            assert all(type(x) is int for x in key)
            assert _t_label_at(sig, key) == lab
            assert require_t_label(sig, lab) == key
            assert _t_weight(sig, key) == t_weight_fraction(sig, lab)
