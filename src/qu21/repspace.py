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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .errors import (
    ConstraintViolation,
    InvalidSignature,
    LabelOutOfDomain,
    PatternViolation,
)


class Weight(NamedTuple):
    """Eigenvalues (m1, m2, m3) of the diagonal generators; the sum is constant."""

    m1: int
    m2: int
    m3: int


class SeriesClass(enum.Enum):
    STANDARD = "standard"
    NONSTANDARD_EDGE = "nonstandard-edge"
    NONSTANDARD_EQUAL = "nonstandard-equal"


@dataclass(frozen=True)
class Signature:
    """Lowest weight (f1, f2, f3); validity is enforced at construction."""

    f1: int
    f2: int
    f3: int

    def __post_init__(self):
        for name, value in (("f1", self.f1), ("f2", self.f2), ("f3", self.f3)):
            if not isinstance(value, int):
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


@dataclass(frozen=True)
class UBasisLabel:
    """Compact-reduction label (k, ell, U, MU); U and MU are half-integers."""

    k: int
    ell: int
    U: Fraction
    MU: Fraction

    def sort_key(self):
        return (self.ell, self.k, self.MU)

    def __str__(self):
        return f"k={self.k} ell={self.ell} U={self.U} MU={self.MU}"


@dataclass(frozen=True)
class TBasisLabel:
    """Noncompact-reduction label (s, p, T, M); T and M are half-integers."""

    s: int
    p: int
    T: Fraction
    M: Fraction

    def sort_key(self):
        return (self.s, self.p, self.M)

    def depth(self) -> int:
        """Ladder depth x = M - T - 1 above the multiplet bottom."""
        return int(self.M - self.T - 1)

    def __str__(self):
        return f"s={self.s} p={self.p} T={self.T} M={self.M}"


def _check_u_key(sig: Signature, k: int, ell: int, twoMU) -> int:
    """2U of the U-basis label (k, ell, MU = twoMU / 2), checked in integers.

    Raises ConstraintViolation outside the domain.  twoMU may also be a
    Fraction; then it is an integer exactly when MU is a half-integer.
    """
    f12 = sig.f1 - sig.f2
    if not 0 <= k <= f12:
        raise ConstraintViolation(
            f"0 <= k <= f1 - f2 violated: k = {k}, f1 - f2 = {f12}")
    if ell < 0:
        raise ConstraintViolation(f"ell >= 0 violated: ell = {ell}")
    twoU = f12 - k + ell
    if (twoU - twoMU) % 2:
        raise ConstraintViolation(
            f"U - MU must be an integer: U = {Fraction(twoU, 2)}, "
            f"MU = {Fraction(twoMU, 2)}")
    if not -twoU <= twoMU <= twoU:
        raise ConstraintViolation(
            f"-U <= MU <= U violated: U = {Fraction(twoU, 2)}, "
            f"MU = {Fraction(twoMU, 2)}")
    return twoU


def _check_t_key(sig: Signature, s: int, p: int, twoM) -> int:
    """2T of the T-basis label (s, p, M = twoM / 2), checked in integers.

    Raises ConstraintViolation outside the domain.  twoM may also be a
    Fraction; then it is an integer exactly when M is a half-integer.
    """
    f12 = sig.f1 - sig.f2
    if not 0 <= p <= f12:
        raise ConstraintViolation(
            f"0 <= p <= f1 - f2 violated: p = {p}, f1 - f2 = {f12}")
    if s < 0:
        raise ConstraintViolation(f"s >= 0 violated: s = {s}")
    twoT = sig.f2 - sig.f3 + p + s - 2
    if (twoM - twoT) % 2:
        raise ConstraintViolation(
            f"M - T must be an integer: T = {Fraction(twoT, 2)}, "
            f"M = {Fraction(twoM, 2)}")
    if twoM < twoT + 2:
        raise ConstraintViolation(
            f"M >= T + 1 violated: T = {Fraction(twoT, 2)}, "
            f"M = {Fraction(twoM, 2)}")
    return twoT


def u_label(sig: Signature, k: int, ell: int, MU) -> UBasisLabel:
    """Validated U-basis label; MU may be an int or Fraction."""
    MU = Fraction(MU)
    twoU = _check_u_key(sig, k, ell, 2 * MU)
    return UBasisLabel(k, ell, Fraction(twoU, 2), MU)


def t_label(sig: Signature, s: int, p: int, M) -> TBasisLabel:
    """Validated T-basis label; M may be an int or Fraction."""
    M = Fraction(M)
    twoT = _check_t_key(sig, s, p, 2 * M)
    return TBasisLabel(s, p, Fraction(twoT, 2), M)


def enumerate_u_basis(sig: Signature, ell_max: int) -> List[UBasisLabel]:
    """All U-basis labels with ell <= ell_max, ordered by (ell, k, MU)."""
    labels = []
    for ell in range(0, ell_max + 1):
        for k in range(0, sig.f1 - sig.f2 + 1):
            twoU = sig.f1 - sig.f2 - k + ell
            U = Fraction(twoU, 2)
            for j in range(twoU + 1):
                labels.append(UBasisLabel(k, ell, U, -U + j))
    return labels


def enumerate_t_basis(sig: Signature, s_max: int, depth: int) -> List[TBasisLabel]:
    """All T-basis labels with s <= s_max and M - T - 1 <= depth, by (s, p, M)."""
    labels = []
    for s in range(0, s_max + 1):
        for p in range(0, sig.f1 - sig.f2 + 1):
            T = Fraction(sig.f2 - sig.f3 + p + s - 2, 2)
            for x in range(depth + 1):
                labels.append(TBasisLabel(s, p, T, T + 1 + x))
    return labels


def weight_of_u(sig: Signature, lab: UBasisLabel) -> Weight:
    drop = lab.U - lab.MU  # integer >= 0
    return Weight(sig.f1 + lab.ell - int(drop),
                  sig.f2 + lab.k + int(drop),
                  sig.f3 - lab.k - lab.ell)


def weight_of_t(sig: Signature, lab: TBasisLabel) -> Weight:
    shift = int(lab.T - lab.M + 1)  # = -x, a nonpositive integer
    return Weight(sig.f1 - lab.p + lab.s,
                  sig.f2 + lab.p - shift,
                  sig.f3 - lab.s + shift)


def lowest_u_label(sig: Signature) -> UBasisLabel:
    UL = Fraction(sig.f1 - sig.f2, 2)
    return UBasisLabel(0, 0, UL, UL)


def lowest_t_label(sig: Signature) -> TBasisLabel:
    T0 = Fraction(sig.f2 - sig.f3 - 2, 2)
    return TBasisLabel(0, 0, T0, T0 + 1)


@dataclass(frozen=True)
class GGPattern:
    """Triangular pattern (m13 m23 m33 / m12 m22 / m11) for a U-basis label.

    Betweenness for this series reads m12 >= m13 + 1 >= m22 >= m23 + 1 and
    m12 >= m11 >= m22; the middle row grows past the top row because the
    module is infinite dimensional in the ell direction.
    """

    m13: int
    m23: int
    m33: int
    m12: int
    m22: int
    m11: int

    def rows(self):
        return ((self.m13, self.m23, self.m33), (self.m12, self.m22), (self.m11,))

    def __str__(self):
        return (f"[{self.m13} {self.m23} {self.m33} / "
                f"{self.m12} {self.m22} / {self.m11}]")


def gg_from_label(sig: Signature, lab: UBasisLabel) -> GGPattern:
    """Pattern dictionary: m12 = f1 + ell, m22 = f2 + k, m11 = U + MU + m22."""
    m13, m23, m33 = sig.top_row()
    m12 = sig.f1 + lab.ell
    m22 = sig.f2 + lab.k
    m11 = int(lab.U + lab.MU) + m22
    return GGPattern(m13, m23, m33, m12, m22, m11)


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
    U = Fraction(sig.f1 - sig.f2 - k + ell, 2)
    MU = pattern.m11 - pattern.m22 - U
    return sig, UBasisLabel(k, ell, U, MU)


def u_labels_at_weight(sig: Signature, w: Weight) -> List[UBasisLabel]:
    """Every U-basis label of the full module at weight w, by ascending U."""
    if w.m1 + w.m2 + w.m3 != sig.f1 + sig.f2 + sig.f3:
        return []
    c = sig.f3 - w.m3  # = k + ell
    if c < 0:
        return []
    out = []
    for ell in range(max(0, c - (sig.f1 - sig.f2)), c + 1):
        k = c - ell
        twoU = sig.f1 - sig.f2 - k + ell
        drop = sig.f1 + ell - w.m1  # = U - MU
        if 0 <= drop <= twoU:
            U = Fraction(twoU, 2)
            out.append(UBasisLabel(k, ell, U, U - drop))
    return out


def t_labels_at_weight(sig: Signature, w: Weight) -> List[TBasisLabel]:
    """Every T-basis label of the full module at weight w, by ascending T."""
    if w.m1 + w.m2 + w.m3 != sig.f1 + sig.f2 + sig.f3:
        return []
    c = sig.f3 - w.m3  # = s + x
    if c < 0:
        return []
    out = []
    for s in range(max(0, w.m1 - sig.f1), min(c, w.m1 - sig.f2) + 1):
        p = sig.f1 + s - w.m1
        T = Fraction(sig.f2 - sig.f3 + p + s - 2, 2)
        out.append(TBasisLabel(s, p, T, T + 1 + (c - s)))
    return out


def require_u_label(sig: Signature, lab: UBasisLabel) -> None:
    """Raise LabelOutOfDomain unless lab is a valid label for sig."""
    try:
        check = u_label(sig, lab.k, lab.ell, lab.MU)
    except ConstraintViolation as exc:
        raise LabelOutOfDomain(str(exc)) from exc
    if check.U != lab.U:
        raise LabelOutOfDomain(
            f"U = {lab.U} inconsistent with (k, ell) = ({lab.k}, {lab.ell}): "
            f"expected {check.U}")


def require_t_label(sig: Signature, lab: TBasisLabel) -> None:
    """Raise LabelOutOfDomain unless lab is a valid label for sig."""
    try:
        check = t_label(sig, lab.s, lab.p, lab.M)
    except ConstraintViolation as exc:
        raise LabelOutOfDomain(str(exc)) from exc
    if check.T != lab.T:
        raise LabelOutOfDomain(
            f"T = {lab.T} inconsistent with (s, p) = ({lab.s}, {lab.p}): "
            f"expected {check.T}")
