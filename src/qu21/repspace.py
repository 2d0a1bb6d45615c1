"""Representation space bookkeeping for lowest weight irreps of u_q(2,1).

An irrep is fixed by a signature of three integers (f1, f2, f3) subject to

    f1 >= f2,    f1 - f3 >= 1,    f2 - f3 >= 2.

Basis vectors come in two reductions of the same module:

- U-basis (compact su_q(2) reduction): labels (k, ell, U, MU) with
  0 <= k <= f1 - f2, ell >= 0, U = (f1 - f2 - k + ell)/2, -U <= MU <= U.
- T-basis (noncompact su_q(1,1) reduction): labels (s, p, T, M) with
  0 <= p <= f1 - f2, s >= 0, T = (f2 - f3 + p + s - 2)/2, M >= T + 1.

Both label sets are infinite only through ell (respectively s and the ladder
depth M - T - 1); at any fixed weight each set is finite, which is what makes
truncated verification decidable.

This module owns the integer label key, (k, ell, 2MU) or (s, p, 2M): it
alone maps a label to its key and a key to its spin, weight and label, and
every label it builds is built from its key.  require_u_label and
require_t_label (and so weight_of_u and weight_of_t) read a label into its
key once, check the key in integers and return it.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .errors import (
    ConstraintViolation,
    InvalidSignature,
    LabelOutOfDomain,
    PatternViolation,
)
from .records import Record


class Weight(NamedTuple):
    """Eigenvalues (m1, m2, m3) of the diagonal generators; the sum is constant."""

    m1: int
    m2: int
    m3: int


class SeriesClass(enum.Enum):
    STANDARD = "standard"
    NONSTANDARD_EDGE = "nonstandard-edge"
    NONSTANDARD_EQUAL = "nonstandard-equal"


class Signature(Record):
    """Lowest weight (f1, f2, f3) of ints; validity is enforced at construction."""

    __slots__ = ("f1", "f2", "f3")

    def _check(self):
        for name, value in (("f1", self.f1), ("f2", self.f2), ("f3", self.f3)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidSignature(f"{name} must be an integer, got {value!r}")
        if self.f1 < self.f2:
            raise InvalidSignature(
                f"f1 >= f2 violated: f1 = {self.f1}, f2 = {self.f2}")
        if self.f1 - self.f3 < 1:
            raise InvalidSignature(
                f"f1 - f3 >= 1 violated: f1 = {self.f1}, f3 = {self.f3}")
        if self.f2 - self.f3 < 2:
            raise InvalidSignature(
                f"f2 - f3 >= 2 violated: f2 = {self.f2}, f3 = {self.f3}")

    @classmethod
    def parse(cls, text: str) -> "Signature":
        """Parse 'f1,f2,f3'."""
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 3:
            raise InvalidSignature(f"expected three comma-separated integers, got {text!r}")
        try:
            f1, f2, f3 = (int(part) for part in parts)
        except ValueError as exc:
            raise InvalidSignature(f"non-integer signature component in {text!r}") from exc
        return cls(f1, f2, f3)

    def top_row(self) -> Tuple[int, int, int]:
        """The induced triangular-pattern top row (m13, m23, m33)."""
        return (self.f1 - 1, self.f2 - 1, self.f3 + 2)

    def lowest_weight(self) -> Weight:
        return Weight(self.f1, self.f2, self.f3)

    def __str__(self):
        return f"({self.f1},{self.f2},{self.f3})"


def classify(sig: Signature) -> SeriesClass:
    """Series tag of a valid signature.

    NONSTANDARD_EQUAL is keyed on f1 == f2 alone; NONSTANDARD_EDGE on the top
    row satisfying m23 == m33 - 1 (equivalently f2 - f3 == 2).  Everything
    else is STANDARD.  A signature with f3 <= -3 has m33 < 0, outside the
    classical pattern convention m33 >= 0, but satisfies all betweenness
    conditions and is treated as STANDARD here.
    """
    if sig.f1 == sig.f2:
        return SeriesClass.NONSTANDARD_EQUAL
    m13, m23, m33 = sig.top_row()
    if m23 == m33 - 1:
        return SeriesClass.NONSTANDARD_EDGE
    return SeriesClass.STANDARD


class UBasisLabel(Record):
    """Compact-reduction label (k, ell, U, MU): ints k and ell, and U and MU
    half-integer Fractions."""

    __slots__ = ("k", "ell", "U", "MU")

    def sort_key(self):
        return (self.ell, self.k, self.MU)

    def __str__(self):
        return f"k={self.k} ell={self.ell} U={self.U} MU={self.MU}"


class TBasisLabel(Record):
    """Noncompact-reduction label (s, p, T, M): ints s and p, and T and M
    half-integer Fractions."""

    __slots__ = ("s", "p", "T", "M")

    def sort_key(self):
        return (self.s, self.p, self.M)

    def depth(self) -> int:
        """Ladder depth x = M - T - 1 above the multiplet bottom."""
        return int(self.M - self.T - 1)

    def __str__(self):
        return f"s={self.s} p={self.p} T={self.T} M={self.M}"


def _two_u(sig: Signature, k: int, ell: int) -> int:
    """2U of the U multiplet (k, ell)."""
    return sig.f1 - sig.f2 - k + ell


def _two_t(sig: Signature, s: int, p: int) -> int:
    """2T of the T multiplet (s, p)."""
    return sig.f2 - sig.f3 + p + s - 2


def _scaled(x, scale: int, name: str) -> int:
    """scale * x as an int for an integer (scale 1) or half-integer (scale 2)
    x, given as an int, a Fraction or a float; else ConstraintViolation."""
    if type(x) is Fraction and x.denominator <= scale:
        return x.numerator * (scale // x.denominator)
    try:
        if scale * x == int(scale * x):
            return int(scale * x)
    except (TypeError, ValueError, OverflowError):
        pass
    kind = "a half-integer" if scale == 2 else "an integer"
    raise ConstraintViolation(f"{name} must be {kind}, got {x!r}")


def _u_key(lab: UBasisLabel) -> Tuple[int, int, int]:
    """The key (k, ell, 2MU) of a U-basis label, not checked against sig."""
    return (_scaled(lab.k, 1, "k"), _scaled(lab.ell, 1, "ell"),
            _scaled(lab.MU, 2, "MU"))


def _t_key(lab: TBasisLabel) -> Tuple[int, int, int]:
    """The key (s, p, 2M) of a T-basis label, not checked against sig."""
    return (_scaled(lab.s, 1, "s"), _scaled(lab.p, 1, "p"),
            _scaled(lab.M, 2, "M"))


def _check_u_multiplet(sig: Signature, k: int, ell: int) -> int:
    """2U of the U multiplet (k, ell); ConstraintViolation outside the domain."""
    f12 = sig.f1 - sig.f2
    if not 0 <= k <= f12:
        raise ConstraintViolation(
            f"0 <= k <= f1 - f2 violated: k = {k}, f1 - f2 = {f12}")
    if ell < 0:
        raise ConstraintViolation(f"ell >= 0 violated: ell = {ell}")
    return _two_u(sig, k, ell)


def _check_t_multiplet(sig: Signature, s: int, p: int) -> int:
    """2T of the T multiplet (s, p); ConstraintViolation outside the domain."""
    f12 = sig.f1 - sig.f2
    if not 0 <= p <= f12:
        raise ConstraintViolation(
            f"0 <= p <= f1 - f2 violated: p = {p}, f1 - f2 = {f12}")
    if s < 0:
        raise ConstraintViolation(f"s >= 0 violated: s = {s}")
    return _two_t(sig, s, p)


def _check_u_m(twoU: int, twoMU: int) -> None:
    """ConstraintViolation unless 2MU is a projection of the spin 2U."""
    if (twoU - twoMU) % 2:
        rule = "U - MU must be an integer"
    elif not -twoU <= twoMU <= twoU:
        rule = "-U <= MU <= U violated"
    else:
        return
    raise ConstraintViolation(
        f"{rule}: U = {Fraction(twoU, 2)}, MU = {Fraction(twoMU, 2)}")


def _check_t_m(twoT: int, twoM: int) -> None:
    """ConstraintViolation unless 2M is on the ladder of the spin 2T."""
    if (twoM - twoT) % 2:
        rule = "M - T must be an integer"
    elif twoM < twoT + 2:
        rule = "M >= T + 1 violated"
    else:
        return
    raise ConstraintViolation(
        f"{rule}: T = {Fraction(twoT, 2)}, M = {Fraction(twoM, 2)}")


def _check_u_key(sig: Signature, k: int, ell: int, twoMU: int) -> int:
    """2U of a U-basis key; ConstraintViolation outside the domain."""
    twoU = _check_u_multiplet(sig, k, ell)
    _check_u_m(twoU, twoMU)
    return twoU


def _check_t_key(sig: Signature, s: int, p: int, twoM: int) -> int:
    """2T of a T-basis key; ConstraintViolation outside the domain."""
    twoT = _check_t_multiplet(sig, s, p)
    _check_t_m(twoT, twoM)
    return twoT


def _u_label_at(sig: Signature, key) -> UBasisLabel:
    """The U-basis label of a key of sig."""
    k, ell, twoMU = key
    return UBasisLabel(k, ell, Fraction(_two_u(sig, k, ell), 2),
                       Fraction(twoMU, 2))


def _t_label_at(sig: Signature, key) -> TBasisLabel:
    """The T-basis label of a key of sig."""
    s, p, twoM = key
    return TBasisLabel(s, p, Fraction(_two_t(sig, s, p), 2), Fraction(twoM, 2))


def _u_weight(sig: Signature, key) -> Weight:
    """The weight of a U-basis key of sig."""
    k, ell, twoMU = key
    drop = (_two_u(sig, k, ell) - twoMU) // 2  # U - MU
    return Weight(sig.f1 + ell - drop, sig.f2 + k + drop, sig.f3 - k - ell)


def _t_depth(sig: Signature, key) -> int:
    """The ladder depth M - T - 1 of a T-basis key of sig."""
    s, p, twoM = key
    return (twoM - _two_t(sig, s, p)) // 2 - 1


def _t_weight(sig: Signature, key) -> Weight:
    """The weight of a T-basis key of sig."""
    s, p, _ = key
    x = _t_depth(sig, key)
    return Weight(sig.f1 - p + s, sig.f2 + p + x, sig.f3 - s - x)


def u_label(sig: Signature, k: int, ell: int, MU) -> UBasisLabel:
    """Validated U-basis label; MU may be an int, Fraction or float."""
    key = (k, ell, _scaled(MU, 2, "MU"))
    _check_u_key(sig, *key)
    return _u_label_at(sig, key)


def t_label(sig: Signature, s: int, p: int, M) -> TBasisLabel:
    """Validated T-basis label; M may be an int, Fraction or float."""
    key = (s, p, _scaled(M, 2, "M"))
    _check_t_key(sig, *key)
    return _t_label_at(sig, key)


def _u_keys(sig: Signature, ell_max: int) -> List[Tuple[int, int, int]]:
    """The keys of the U-basis labels with ell <= ell_max, by (ell, k, MU)."""
    return [(k, ell, 2 * j - _two_u(sig, k, ell))
            for ell in range(ell_max + 1) for k in range(sig.f1 - sig.f2 + 1)
            for j in range(_two_u(sig, k, ell) + 1)]


def _t_keys(sig: Signature, s_max: int, depth: int) -> List[Tuple[int, int, int]]:
    """The keys of the T-basis labels with s <= s_max and M - T - 1 <= depth,
    by (s, p, M)."""
    return [(s, p, _two_t(sig, s, p) + 2 + 2 * x)
            for s in range(s_max + 1) for p in range(sig.f1 - sig.f2 + 1)
            for x in range(depth + 1)]


def enumerate_u_basis(sig: Signature, ell_max: int) -> List[UBasisLabel]:
    """All U-basis labels with ell <= ell_max, ordered by (ell, k, MU)."""
    return [_u_label_at(sig, key) for key in _u_keys(sig, ell_max)]


def enumerate_t_basis(sig: Signature, s_max: int, depth: int) -> List[TBasisLabel]:
    """All T-basis labels with s <= s_max and M - T - 1 <= depth, by (s, p, M)."""
    return [_t_label_at(sig, key) for key in _t_keys(sig, s_max, depth)]


def weight_of_u(sig: Signature, lab: UBasisLabel) -> Weight:
    """The weight of a U-basis label; LabelOutOfDomain outside sig."""
    return _u_weight(sig, require_u_label(sig, lab))


def weight_of_t(sig: Signature, lab: TBasisLabel) -> Weight:
    """The weight of a T-basis label; LabelOutOfDomain outside sig."""
    return _t_weight(sig, require_t_label(sig, lab))


def lowest_u_label(sig: Signature) -> UBasisLabel:
    return _u_label_at(sig, (0, 0, _two_u(sig, 0, 0)))


def lowest_t_label(sig: Signature) -> TBasisLabel:
    return _t_label_at(sig, (0, 0, _two_t(sig, 0, 0) + 2))


class GGPattern(Record):
    """Triangular pattern (m13 m23 m33 / m12 m22 / m11) of ints for a U-basis
    label.

    Betweenness for this series reads m12 >= m13 + 1 >= m22 >= m23 + 1 and
    m12 >= m11 >= m22; the middle row grows past the top row because the
    module is infinite dimensional in the ell direction.
    """

    __slots__ = ("m13", "m23", "m33", "m12", "m22", "m11")

    def rows(self):
        return ((self.m13, self.m23, self.m33), (self.m12, self.m22), (self.m11,))

    def __str__(self):
        return (f"[{self.m13} {self.m23} {self.m33} / "
                f"{self.m12} {self.m22} / {self.m11}]")


def gg_from_label(sig: Signature, lab: UBasisLabel) -> GGPattern:
    """Pattern dictionary: m12 = f1 + ell, m22 = f2 + k, m11 = U + MU + m22."""
    k, ell, twoMU = _u_key(lab)
    m22 = sig.f2 + k
    return GGPattern(*sig.top_row(), sig.f1 + ell, m22,
                     (_two_u(sig, k, ell) + twoMU) // 2 + m22)


def label_from_gg(pattern: GGPattern) -> Tuple[Signature, UBasisLabel]:
    """Invert gg_from_label, checking betweenness; raises PatternViolation."""
    try:
        sig = Signature(pattern.m13 + 1, pattern.m23 + 1, pattern.m33 - 2)
    except InvalidSignature as exc:
        raise PatternViolation(f"top row not admissible: {exc}") from exc
    if not pattern.m12 >= pattern.m13 + 1 >= pattern.m22 >= pattern.m23 + 1:
        raise PatternViolation(
            f"m12 >= m13 + 1 >= m22 >= m23 + 1 violated in {pattern}")
    if not pattern.m12 >= pattern.m11 >= pattern.m22:
        raise PatternViolation(
            f"m12 >= m11 >= m22 violated in {pattern}")
    ell = pattern.m12 - sig.f1
    k = pattern.m22 - sig.f2
    # MU = m11 - m22 - U
    twoMU = 2 * (pattern.m11 - pattern.m22) - _two_u(sig, k, ell)
    return sig, _u_label_at(sig, (k, ell, twoMU))


def _u_keys_at_weight(sig: Signature, w: Weight) -> List[Tuple[int, int, int]]:
    """The keys of u_labels_at_weight, in its order."""
    if w.m1 + w.m2 + w.m3 != sig.f1 + sig.f2 + sig.f3:
        return []
    c = sig.f3 - w.m3  # = k + ell
    out = []
    for ell in range(max(0, c - (sig.f1 - sig.f2)), c + 1):
        k = c - ell
        twoU = _two_u(sig, k, ell)
        drop = sig.f1 + ell - w.m1  # = U - MU
        if 0 <= drop <= twoU:
            out.append((k, ell, twoU - 2 * drop))
    return out


def _t_keys_at_weight(sig: Signature, w: Weight) -> List[Tuple[int, int, int]]:
    """The keys of t_labels_at_weight, in its order."""
    if w.m1 + w.m2 + w.m3 != sig.f1 + sig.f2 + sig.f3:
        return []
    c = sig.f3 - w.m3  # = s + x
    out = []
    for s in range(max(0, w.m1 - sig.f1), min(c, w.m1 - sig.f2) + 1):
        p = sig.f1 + s - w.m1
        x = c - s
        out.append((s, p, _two_t(sig, s, p) + 2 + 2 * x))
    return out


def u_labels_at_weight(sig: Signature, w: Weight) -> List[UBasisLabel]:
    """Every U-basis label of the full module at weight w, by ascending U."""
    return [_u_label_at(sig, key) for key in _u_keys_at_weight(sig, w)]


def t_labels_at_weight(sig: Signature, w: Weight) -> List[TBasisLabel]:
    """Every T-basis label of the full module at weight w, by ascending T."""
    return [_t_label_at(sig, key) for key in _t_keys_at_weight(sig, w)]


def require_u_label(sig: Signature, lab: UBasisLabel) -> Tuple[int, int, int]:
    """The checked key (k, ell, 2MU) of lab; else LabelOutOfDomain."""
    try:
        key = _u_key(lab)
        twoU = _check_u_key(sig, *key)
        if _scaled(lab.U, 2, "U") == twoU:
            return key
    except ConstraintViolation as exc:
        raise LabelOutOfDomain(str(exc)) from exc
    raise LabelOutOfDomain(
        f"U = {lab.U} inconsistent with (k, ell) = ({lab.k}, {lab.ell}): "
        f"expected {Fraction(twoU, 2)}")


def require_t_label(sig: Signature, lab: TBasisLabel) -> Tuple[int, int, int]:
    """The checked key (s, p, 2M) of lab; else LabelOutOfDomain."""
    try:
        key = _t_key(lab)
        twoT = _check_t_key(sig, *key)
        if _scaled(lab.T, 2, "T") == twoT:
            return key
    except ConstraintViolation as exc:
        raise LabelOutOfDomain(str(exc)) from exc
    raise LabelOutOfDomain(
        f"T = {lab.T} inconsistent with (s, p) = ({lab.s}, {lab.p}): "
        f"expected {Fraction(twoT, 2)}")
