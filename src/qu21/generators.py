"""Matrix elements of the nine generators A_ij in both reductions.

Naming: generators are addressed by the strings "A11" ... "A33".  The
diagonal ones act by the plain integer weight components.  Every
off-diagonal matrix element is table driven, in one table per basis: each
row is a record holding the label shifts, an overall sign, an integer
q-power, and the bracket factors of the radicand, so that the closed forms
live in exactly one place and one evaluator, _key_action, serves both
bases.  It works on integer label keys; basis_action wraps it for one
label and generator, and the truncated reps of verify call it directly.
Besides the rows that change multiplet, each table holds the two
ladder rows inside a multiplet: A12/A21, the compact su_q(2) ladder of the
U basis, and A23/A32, the noncompact su_q(1,1) ladder of the T basis.

All matrix elements are returned as SignedRadical coefficients attached to
validated target labels.  A vanishing bracket factor in a numerator silently
drops the term; this is also what keeps boundary labels (k or p at the ends
of their ranges, multiplet bottoms) from producing out-of-range targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, NamedTuple, Tuple

from .errors import ConstraintViolation
from .qarith import EvalContext, SignedRadical, Scalar, _as_int
from .repspace import (
    Signature,
    TBasisLabel,
    UBasisLabel,
    _check_t_key,
    _check_u_key,
    require_t_label,
    require_u_label,
    t_label,
    u_label,
    weight_of_t,
    weight_of_u,
)

GENERATORS = ("A11", "A12", "A13", "A21", "A22", "A23", "A31", "A32", "A33")

# Weight shift (dm1, dm2, dm3) effected by each generator.
WEIGHT_SHIFTS = {
    "A11": (0, 0, 0),
    "A22": (0, 0, 0),
    "A33": (0, 0, 0),
    "A12": (1, -1, 0),
    "A21": (-1, 1, 0),
    "A23": (0, 1, -1),
    "A32": (0, -1, 1),
    "A13": (1, 0, -1),
    "A31": (-1, 0, 1),
}


class ActionTerm(NamedTuple):
    """One summand of a generator acting on a basis vector."""

    target: object  # UBasisLabel or TBasisLabel
    coeff: SignedRadical


# ----------------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------------

def norm_u_sq(ctx: EvalContext, sig: Signature, k: int, ell: int) -> Scalar:
    """Squared norm N^2(k, ell) of the unnormalized U-basis construction."""
    if not 0 <= k <= sig.f1 - sig.f2:
        raise ConstraintViolation(
            f"0 <= k <= f1 - f2 violated: k = {k}, f1 - f2 = {sig.f1 - sig.f2}")
    if ell < 0:
        raise ConstraintViolation(f"ell >= 0 violated: ell = {ell}")
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    num = (ctx.qfact(k) * ctx.qfact(ell) * ctx.qfact(f12 - k + ell + 1)
           * ctx.qfact(f12) * ctx.qfact(f23 + k - 2) * ctx.qfact(f13 + ell - 1))
    den = (ctx.qfact(f12 - k) * ctx.qfact(f12 + ell + 1)
           * ctx.qfact(f13 - 1) * ctx.qfact(f23 - 2))
    return num / den


def norm_u_sq_stepwise(ctx: EvalContext, sig: Signature, k: int, ell: int) -> Scalar:
    """N^2(k, ell) built purely from the two one-step recursions.

    Starting from N^2(0, 0) = 1, first raise ell (each step multiplies by
    [ell][f1 - f3 + ell - 1]), then raise k (each step multiplies by
    [k][f1 - f2 - k + 1][f2 - f3 + k - 2] / [f1 - f2 - k + ell + 2]).
    Used as an independent oracle against the closed form.
    """
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    if not 0 <= k <= f12:
        raise ConstraintViolation(
            f"0 <= k <= f1 - f2 violated: k = {k}, f1 - f2 = {f12}")
    if ell < 0:
        raise ConstraintViolation(f"ell >= 0 violated: ell = {ell}")
    acc = ctx.one()
    for j in range(1, ell + 1):
        acc = acc * ctx.qnum(j) * ctx.qnum(f13 + j - 1)
    for i in range(1, k + 1):
        acc = (acc * ctx.qnum(i) * ctx.qnum(f12 - i + 1) * ctx.qnum(f23 + i - 2)
               / ctx.qnum(f12 - i + ell + 2))
    return acc


def norm_t_sq(ctx: EvalContext, sig: Signature, s: int, p: int) -> Scalar:
    """Squared norm N^2(s, p) of the unnormalized T-basis construction."""
    if not 0 <= p <= sig.f1 - sig.f2:
        raise ConstraintViolation(
            f"0 <= p <= f1 - f2 violated: p = {p}, f1 - f2 = {sig.f1 - sig.f2}")
    if s < 0:
        raise ConstraintViolation(f"s >= 0 violated: s = {s}")
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    num = (ctx.qfact(s) * ctx.qfact(p) * ctx.qfact(f12)
           * ctx.qfact(f13 + s - 1) * ctx.qfact(f23 + s - 2) * ctx.qfact(f23 + p - 2))
    den = (ctx.qfact(f12 - p) * ctx.qfact(f13 - 1) * ctx.qfact(f23 - 2)
           * ctx.qfact(f23 + p + s - 2))
    return num / den


def norm_t_sq_stepwise(ctx: EvalContext, sig: Signature, s: int, p: int) -> Scalar:
    """N^2(s, p) from one-step ratios of the closed form (cross-check path)."""
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    if not 0 <= p <= f12:
        raise ConstraintViolation(
            f"0 <= p <= f1 - f2 violated: p = {p}, f1 - f2 = {f12}")
    if s < 0:
        raise ConstraintViolation(f"s >= 0 violated: s = {s}")
    acc = ctx.one()
    for j in range(1, s + 1):
        # ratio N^2(j, 0) / N^2(j - 1, 0)
        acc = acc * ctx.qnum(j) * ctx.qnum(f13 + j - 1)
    for i in range(1, p + 1):
        # ratio N^2(s, i) / N^2(s, i - 1)
        acc = (acc * ctx.qnum(i) * ctx.qnum(f12 - i + 1) * ctx.qnum(f23 + i - 2)
               / ctx.qnum(f23 + i + s - 2))
    return acc


def norm_su11_sq(ctx: EvalContext, T, M) -> Scalar:
    """Squared norm [M - T - 1]! [T + M]! / [2T + 1]! of the su_q(1,1) ladder state."""
    T, M = Fraction(T), Fraction(M)
    return (ctx.qfact(M - T - 1) * ctx.qfact(T + M) / ctx.qfact(2 * T + 1))


# ----------------------------------------------------------------------------
# extremal projectors and the Casimir operator
# ----------------------------------------------------------------------------

def projector_t_coeff(ctx: EvalContext, T, r: int) -> Scalar:
    """Coefficient of T+^r T-^r in the su_q(1,1) extremal projector at spin T.

    Defined for 0 <= r <= 2T; other r contribute nothing on the subspaces the
    projector is used on, and the coefficient is returned as zero.
    """
    if r < 0:
        raise ConstraintViolation(f"r >= 0 violated: r = {r}")
    twoT = _as_int(2 * Fraction(T))
    if r > twoT:
        return ctx.zero()
    return ctx.qfact(twoT - r) * ctx.qfact_inv(r) / ctx.qfact(twoT)


def casimir_su11_eigenvalue(ctx: EvalContext, T) -> Scalar:
    """Eigenvalue [T + 1/2]^2 of C2 = T- T+ + [T0 + 1/2]^2 on spin T."""
    T = Fraction(T)
    if T < Fraction(-1, 2):
        raise ConstraintViolation(f"T >= -1/2 violated: T = {T}")
    return ctx.qbracket_half_sq(_as_int(2 * T + 1))


# ----------------------------------------------------------------------------
# table driven matrix elements
# ----------------------------------------------------------------------------

class _UEnv(NamedTuple):
    f1: int
    f2: int
    f3: int
    k: int
    ell: int
    twoU: int
    twoMU: int


class _TEnv(NamedTuple):
    f1: int
    f2: int
    f3: int
    s: int
    p: int
    twoT: int
    twoM: int


@dataclass(frozen=True)
class TableEntry:
    """One closed-form matrix element of an off-diagonal generator.

    (d1, d2) are the shifts of (k, ell) in the U table and of (s, p) in the
    T table.  dtwoM is the shift of 2MU (resp. 2M): +1 or -1 on rows that
    change multiplet, +2 or -2 on the ladder rows inside a multiplet
    (d1 = d2 = 0).  The spin shift follows from (d1, d2): d2 - d1 for 2U,
    d1 + d2 for 2T; _key_action checks every target against the label
    domain.  qexp maps the integer environment to the q-power; num/den map
    it to the bracket arguments of the radicand.  A zero bracket in num
    drops the term before the denominator is ever evaluated.
    """

    eid: str
    gen: str
    d1: int
    d2: int
    dtwoM: int
    sign: int
    qexp: Callable
    num: Tuple[Callable, ...]
    den: Tuple[Callable, ...]


TABLE_U = (
    TableEntry("U1", "A13", 0, +1, +1, +1,
               lambda e: (e.twoMU - e.twoU) // 2,
               (lambda e: e.ell + 1,
                lambda e: e.f1 - e.f3 + e.ell,
                lambda e: e.twoU + e.k + 2,
                lambda e: (e.twoU + e.twoMU) // 2 + 1),
               (lambda e: e.twoU + 1, lambda e: e.twoU + 2)),
    TableEntry("U2", "A23", 0, +1, -1, +1,
               lambda e: 0,
               (lambda e: e.ell + 1,
                lambda e: e.f1 - e.f3 + e.ell,
                lambda e: e.twoU + e.k + 2,
                lambda e: (e.twoU - e.twoMU) // 2 + 1),
               (lambda e: e.twoU + 1, lambda e: e.twoU + 2)),
    TableEntry("U3", "A13", +1, 0, +1, -1,
               lambda e: (e.twoU + e.twoMU) // 2 + 1,
               (lambda e: e.k + 1,
                lambda e: e.f2 - e.f3 + e.k - 1,
                lambda e: e.twoU - e.ell,
                lambda e: (e.twoU - e.twoMU) // 2),
               (lambda e: e.twoU, lambda e: e.twoU + 1)),
    TableEntry("U4", "A23", +1, 0, -1, +1,
               lambda e: 0,
               (lambda e: e.k + 1,
                lambda e: e.f2 - e.f3 + e.k - 1,
                lambda e: e.twoU - e.ell,
                lambda e: (e.twoU + e.twoMU) // 2),
               (lambda e: e.twoU, lambda e: e.twoU + 1)),
    TableEntry("U5", "A31", 0, -1, -1, -1,
               lambda e: (e.twoU - e.twoMU) // 2,
               (lambda e: e.ell,
                lambda e: e.f1 - e.f3 + e.ell - 1,
                lambda e: e.twoU + e.k + 1,
                lambda e: (e.twoU + e.twoMU) // 2),
               (lambda e: e.twoU, lambda e: e.twoU + 1)),
    TableEntry("U6", "A32", 0, -1, +1, -1,
               lambda e: 0,
               (lambda e: e.ell,
                lambda e: e.f1 - e.f3 + e.ell - 1,
                lambda e: e.twoU + e.k + 1,
                lambda e: (e.twoU - e.twoMU) // 2),
               (lambda e: e.twoU, lambda e: e.twoU + 1)),
    TableEntry("U7", "A31", -1, 0, -1, +1,
               lambda e: -(e.twoU + e.twoMU) // 2 - 1,
               (lambda e: e.k,
                lambda e: e.f2 - e.f3 + e.k - 2,
                lambda e: e.twoU - e.ell + 1,
                lambda e: (e.twoU - e.twoMU) // 2 + 1),
               (lambda e: e.twoU + 1, lambda e: e.twoU + 2)),
    TableEntry("U8", "A32", -1, 0, +1, -1,
               lambda e: 0,
               (lambda e: e.k,
                lambda e: e.f2 - e.f3 + e.k - 2,
                lambda e: e.twoU - e.ell + 1,
                lambda e: (e.twoU + e.twoMU) // 2 + 1),
               (lambda e: e.twoU + 1, lambda e: e.twoU + 2)),
    # su_q(2) ladder inside the multiplet
    TableEntry("U9", "A12", 0, 0, +2, +1,
               lambda e: 0,
               (lambda e: (e.twoU - e.twoMU) // 2,
                lambda e: (e.twoU + e.twoMU) // 2 + 1),
               ()),
    TableEntry("U10", "A21", 0, 0, -2, +1,
               lambda e: 0,
               (lambda e: (e.twoU + e.twoMU) // 2,
                lambda e: (e.twoU - e.twoMU) // 2 + 1),
               ()),
)

TABLE_T = (
    TableEntry("T1", "A12", +1, 0, -1, +1,
               lambda e: 0,
               (lambda e: e.s + 1,
                lambda e: e.f1 - e.f3 + e.s,
                lambda e: e.twoT - e.p + 1,
                lambda e: (e.twoM - e.twoT) // 2 - 1),
               (lambda e: e.twoT + 1, lambda e: e.twoT + 2)),
    TableEntry("T2", "A13", +1, 0, +1, +1,
               lambda e: (e.twoT - e.twoM) // 2 + 1,
               (lambda e: e.s + 1,
                lambda e: e.f1 - e.f3 + e.s,
                lambda e: e.twoT - e.p + 1,
                lambda e: (e.twoT + e.twoM) // 2 + 1),
               (lambda e: e.twoT + 1, lambda e: e.twoT + 2)),
    TableEntry("T3", "A12", 0, -1, -1, +1,
               lambda e: 0,
               (lambda e: e.p,
                lambda e: e.f1 - e.f2 - e.p + 1,
                lambda e: e.twoT - e.s,
                lambda e: (e.twoT + e.twoM) // 2),
               (lambda e: e.twoT, lambda e: e.twoT + 1)),
    TableEntry("T4", "A13", 0, -1, +1, +1,
               lambda e: -(e.twoT + e.twoM) // 2,
               (lambda e: e.p,
                lambda e: e.f1 - e.f2 - e.p + 1,
                lambda e: e.twoT - e.s,
                lambda e: (e.twoM - e.twoT) // 2),
               (lambda e: e.twoT, lambda e: e.twoT + 1)),
    TableEntry("T5", "A21", -1, 0, +1, +1,
               lambda e: 0,
               (lambda e: e.s,
                lambda e: e.f1 - e.f3 + e.s - 1,
                lambda e: e.twoT - e.p,
                lambda e: (e.twoM - e.twoT) // 2),
               (lambda e: e.twoT, lambda e: e.twoT + 1)),
    TableEntry("T6", "A31", -1, 0, -1, -1,
               lambda e: (e.twoM - e.twoT) // 2 - 1,
               (lambda e: e.s,
                lambda e: e.f1 - e.f3 + e.s - 1,
                lambda e: e.twoT - e.p,
                lambda e: (e.twoT + e.twoM) // 2),
               (lambda e: e.twoT, lambda e: e.twoT + 1)),
    TableEntry("T7", "A21", 0, +1, +1, +1,
               lambda e: 0,
               (lambda e: e.p + 1,
                lambda e: e.f1 - e.f2 - e.p,
                lambda e: e.twoT - e.s + 1,
                lambda e: (e.twoT + e.twoM) // 2 + 1),
               (lambda e: e.twoT + 1, lambda e: e.twoT + 2)),
    TableEntry("T8", "A31", 0, +1, -1, -1,
               lambda e: (e.twoT + e.twoM) // 2,
               (lambda e: e.p + 1,
                lambda e: e.f1 - e.f2 - e.p,
                lambda e: e.twoT - e.s + 1,
                lambda e: (e.twoM - e.twoT) // 2 - 1),
               (lambda e: e.twoT + 1, lambda e: e.twoT + 2)),
    # su_q(1,1) ladder inside the multiplet; T- carries the noncompact sign
    TableEntry("T9", "A23", 0, 0, +2, +1,
               lambda e: 0,
               (lambda e: (e.twoM - e.twoT) // 2,
                lambda e: (e.twoT + e.twoM) // 2 + 1),
               ()),
    TableEntry("T10", "A32", 0, 0, -2, -1,
               lambda e: 0,
               (lambda e: (e.twoT + e.twoM) // 2,
                lambda e: (e.twoM - e.twoT) // 2 - 1),
               ()),
)


def table_entries(basis: str) -> Tuple[TableEntry, ...]:
    """The raw table rows for basis 'u' or 't' (mainly for tests and fault injection)."""
    if basis == "u":
        return TABLE_U
    if basis == "t":
        return TABLE_T
    raise ValueError(f"basis must be 'u' or 't', got {basis!r}")


def _radical_from_entry(ctx: EvalContext, entry: TableEntry, env, flip_entry=None):
    """Evaluate one table entry on an environment, or None if a bracket vanishes."""
    nums = []
    for factor in entry.num:
        arg = factor(env)
        value = ctx.qnum(arg)
        if value == 0:
            return None
        nums.append(value)
    radicand = nums[0]
    for value in nums[1:]:
        radicand = radicand * value
    for factor in entry.den:
        radicand = radicand / ctx.qnum(factor(env))
    sign = entry.sign
    if flip_entry is not None and entry.eid == flip_entry:
        sign = -sign
    return SignedRadical.make(sign, entry.qexp(env), radicand)


# Integer keys: a U-basis label (k, ell, U, MU) is keyed (k, ell, 2MU) and a
# T-basis label (s, p, T, M) is keyed (s, p, 2M); the spin follows from the
# signature, so a key names its label.


def _label_key(basis: str, lab) -> Tuple[int, int, int]:
    """Integer key of a U-basis ('u') or T-basis ('t') label."""
    if basis == "u":
        return (lab.k, lab.ell, _as_int(2 * lab.MU))
    return (lab.s, lab.p, _as_int(2 * lab.M))


def _u_env(sig: Signature, key) -> _UEnv:
    k, ell, twoMU = key
    return _UEnv(sig.f1, sig.f2, sig.f3, k, ell,
                 _check_u_key(sig, k, ell, twoMU), twoMU)


def _t_env(sig: Signature, key) -> _TEnv:
    s, p, twoM = key
    return _TEnv(sig.f1, sig.f2, sig.f3, s, p,
                 _check_t_key(sig, s, p, twoM), twoM)


def _u_label_at(sig: Signature, key) -> UBasisLabel:
    return u_label(sig, key[0], key[1], Fraction(key[2], 2))


def _t_label_at(sig: Signature, key) -> TBasisLabel:
    return t_label(sig, key[0], key[1], Fraction(key[2], 2))


# per basis: label check, weight, key -> table environment, key -> label
_BASES = {
    "u": (require_u_label, weight_of_u, _u_env, _u_label_at),
    "t": (require_t_label, weight_of_t, _t_env, _t_label_at),
}


def _target_order(basis: str):
    """Sort key on a row's shifts that orders the targets of one source by
    their sort_key: (ell, k, MU) in the U basis, (s, p, M) in the T basis."""
    if basis == "u":
        return lambda e: (e.d2, e.d1, e.dtwoM)
    return lambda e: (e.d1, e.d2, e.dtwoM)


# table rows of each generator, in the order of their targets
_ROWS = {b: {g: tuple(sorted((e for e in table_entries(b) if e.gen == g),
                             key=_target_order(b)))
             for g in GENERATORS} for b in _BASES}
_ENTRY_IDS = frozenset(e.eid for b in _BASES for e in table_entries(b))
# component of the weight on which each diagonal generator acts
_DIAGONAL = {"A11": 0, "A22": 1, "A33": 2}


def _check_flip_entry(flip_entry: str | None) -> None:
    """Raise ValueError unless flip_entry is None or names a table row."""
    if flip_entry is not None and flip_entry not in _ENTRY_IDS:
        raise ValueError(f"unknown table entry {flip_entry!r}; expected one "
                         "of U1..U10, T1..T10")


def _key_action(ctx: EvalContext, sig: Signature, basis: str, key, weight,
                gens, flip_entry: str | None = None):
    """Action of each generator in gens on the basis vector with this key.

    The one evaluator of the tables: basis_action and the truncated reps
    of verify both go through it.  weight is the vector's weight (the
    eigenvalues of the diagonal generators).  Returns one list per
    generator of (target key, SignedRadical) pairs in the targets'
    sort_key order.  The key and every target are checked against the
    label domain, so a row that leaves it raises ConstraintViolation.
    """
    env_of = _BASES[basis][2]
    env = env_of(sig, key)
    rows = _ROWS[basis]
    a, b, c = key
    out = []
    for gen in gens:
        if gen in _DIAGONAL:
            m = weight[_DIAGONAL[gen]]
            out.append([(key, SignedRadical.from_rational(Fraction(m)))])
            continue
        terms = []
        for entry in rows[gen]:
            coeff = _radical_from_entry(ctx, entry, env, flip_entry)
            if coeff is not None:
                target = (a + entry.d1, b + entry.d2, c + entry.dtwoM)
                env_of(sig, target)  # a target that is no label raises
                terms.append((target, coeff))
        out.append(terms)
    return out


def basis_action(ctx: EvalContext, sig: Signature, basis: str, gen: str, lab,
                 flip_entry: str | None = None) -> List[ActionTerm]:
    """Action of a generator on a basis vector ('u' or 't') as weighted targets.

    flip_entry is a fault-injection hook: the named table row has its sign
    flipped, so verification checks can prove they would catch a wrong sign.
    It must name a row of either table (ValueError otherwise).
    """
    if basis not in _BASES:
        raise ValueError(f"basis must be 'u' or 't', got {basis!r}")
    _check_flip_entry(flip_entry)
    require, weight_of, _, label_at = _BASES[basis]
    require(sig, lab)
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    [terms] = _key_action(ctx, sig, basis, _label_key(basis, lab),
                          weight_of(sig, lab), (gen,), flip_entry)
    return [ActionTerm(label_at(sig, key), coeff) for key, coeff in terms]
