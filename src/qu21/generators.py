"""Matrix elements of the nine generators A_ij in both reductions.

Naming: generators are addressed by the strings "A11" ... "A33".  The
diagonal ones act by the plain integer weight components.  Every
off-diagonal matrix element is table driven, in one table per basis: each
row is a record holding the label shifts, an overall sign, an integer
q-power, and the bracket factors of the radicand, so that the closed forms
live in exactly one place and one evaluator, _key_action, serves both
bases.  It works on integer label keys, whose spin, weight and label
repspace gives: basis_action hands it the key that require_u_label or
require_t_label returns, and verify's truncated reps call it directly.

The rows that change multiplet come in doublets, U1/U2 ... U7/U8 and
T1/T2 ... T7/T8: the two generators of a doublet (A13 with A23, A31 with
A32 in the U basis; A12 with A13, A21 with A31 in the T basis) reach the
same target multiplet.  As in the projection-operator derivation, each
such element is a reduced part shared by the doublet (the shift, three
numerator brackets and the denominator [2J][2J+1], J the larger of the
source and target spins) times one M-dependent q-Clebsch-Gordan bracket
of its own; the reduced part is stated once, in _Reduced.  Besides the
doublets, each table holds the two ladder rows inside a multiplet: A12/A21,
the compact su_q(2) ladder of the U basis, and A23/A32, the noncompact
su_q(1,1) ladder of the T basis.

basis_action returns every matrix element as a SignedRadical attached to a
validated target label.  A row's radicand is formed in integers from the
tables of qarith.QIntegers, [m] = G_m / z^(m-1), in both modes; so its
radicand is the exact Fraction, and a float rep entry is
sign sqrt(q^(2e) prod [a] / prod [b]) rounded once to the fixed-point scale
2^-F (qarith.fixed_root), with no mpf intermediate.  A vanishing bracket
factor in a numerator silently drops the term; this is also what keeps
boundary labels (k or p at the ends of their ranges, multiplet bottoms) from
producing out-of-range targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, NamedTuple, Tuple

from .errors import ConstraintViolation
from .qarith import (EvalContext, QIntegers, SignedRadical, Scalar, _as_int,
                     fixed_root)
from .repspace import (
    Signature,
    _check_t_key,
    _check_t_multiplet,
    _check_u_key,
    _check_u_multiplet,
    _t_label_at,
    _t_weight,
    _two_t,
    _two_u,
    _u_label_at,
    _u_weight,
    require_t_label,
    require_u_label,
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
    twoU = _check_u_multiplet(sig, k, ell)
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    num = (ctx.qfact(k) * ctx.qfact(ell) * ctx.qfact(twoU + 1)
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
    _check_u_multiplet(sig, k, ell)
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    acc = ctx.one()
    for j in range(1, ell + 1):
        acc = acc * ctx.qnum(j) * ctx.qnum(f13 + j - 1)
    for i in range(1, k + 1):
        acc = (acc * ctx.qnum(i) * ctx.qnum(f12 - i + 1) * ctx.qnum(f23 + i - 2)
               / ctx.qnum(f12 - i + ell + 2))
    return acc


def norm_t_sq(ctx: EvalContext, sig: Signature, s: int, p: int) -> Scalar:
    """Squared norm N^2(s, p) of the unnormalized T-basis construction."""
    twoT = _check_t_multiplet(sig, s, p)
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    num = (ctx.qfact(s) * ctx.qfact(p) * ctx.qfact(f12)
           * ctx.qfact(f13 + s - 1) * ctx.qfact(f23 + s - 2) * ctx.qfact(f23 + p - 2))
    den = (ctx.qfact(f12 - p) * ctx.qfact(f13 - 1) * ctx.qfact(f23 - 2)
           * ctx.qfact(twoT))
    return num / den


def norm_t_sq_stepwise(ctx: EvalContext, sig: Signature, s: int, p: int) -> Scalar:
    """N^2(s, p) from one-step ratios of the closed form (cross-check path)."""
    _check_t_multiplet(sig, s, p)
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
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

    A row that changes multiplet is one of a doublet (see _Reduced): its
    (d1, d2), its first three num brackets and its den are the doublet's
    reduced part, and num[3] is its own M-dependent bracket.
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


class _Reduced(NamedTuple):
    """The M-independent part of a doublet's two rows: their shift, their
    first three numerator brackets and their denominator [2J][2J+1]."""

    d1: int
    d2: int
    num: Tuple[Callable, Callable, Callable]
    den: Tuple[Callable, Callable]


def _row(eid: str, gen: str, part: _Reduced, dtwoM: int, sign: int,
         qexp: Callable, own: Callable) -> TableEntry:
    """A doublet row: the reduced part's brackets, then its own one."""
    return TableEntry(eid, gen, part.d1, part.d2, dtwoM, sign, qexp,
                      part.num + (own,), part.den)


# [2J][2J+1] with J the larger spin: the spin rises (up) or falls (down)
_U_UP = (lambda e: e.twoU + 1, lambda e: e.twoU + 2)
_U_DOWN = (lambda e: e.twoU, lambda e: e.twoU + 1)
_T_UP = (lambda e: e.twoT + 1, lambda e: e.twoT + 2)
_T_DOWN = (lambda e: e.twoT, lambda e: e.twoT + 1)

_U12 = _Reduced(0, +1, (lambda e: e.ell + 1,
                        lambda e: e.f1 - e.f3 + e.ell,
                        lambda e: e.twoU + e.k + 2), _U_UP)
_U34 = _Reduced(+1, 0, (lambda e: e.k + 1,
                        lambda e: e.f2 - e.f3 + e.k - 1,
                        lambda e: e.twoU - e.ell), _U_DOWN)
_U56 = _Reduced(0, -1, (lambda e: e.ell,
                        lambda e: e.f1 - e.f3 + e.ell - 1,
                        lambda e: e.twoU + e.k + 1), _U_DOWN)
_U78 = _Reduced(-1, 0, (lambda e: e.k,
                        lambda e: e.f2 - e.f3 + e.k - 2,
                        lambda e: e.twoU - e.ell + 1), _U_UP)

TABLE_U = (
    _row("U1", "A13", _U12, +1, +1, lambda e: (e.twoMU - e.twoU) // 2,
         lambda e: (e.twoU + e.twoMU) // 2 + 1),
    _row("U2", "A23", _U12, -1, +1, lambda e: 0,
         lambda e: (e.twoU - e.twoMU) // 2 + 1),
    _row("U3", "A13", _U34, +1, -1, lambda e: (e.twoU + e.twoMU) // 2 + 1,
         lambda e: (e.twoU - e.twoMU) // 2),
    _row("U4", "A23", _U34, -1, +1, lambda e: 0,
         lambda e: (e.twoU + e.twoMU) // 2),
    _row("U5", "A31", _U56, -1, -1, lambda e: (e.twoU - e.twoMU) // 2,
         lambda e: (e.twoU + e.twoMU) // 2),
    _row("U6", "A32", _U56, +1, -1, lambda e: 0,
         lambda e: (e.twoU - e.twoMU) // 2),
    _row("U7", "A31", _U78, -1, +1, lambda e: -(e.twoU + e.twoMU) // 2 - 1,
         lambda e: (e.twoU - e.twoMU) // 2 + 1),
    _row("U8", "A32", _U78, +1, -1, lambda e: 0,
         lambda e: (e.twoU + e.twoMU) // 2 + 1),
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

_T12 = _Reduced(+1, 0, (lambda e: e.s + 1,
                        lambda e: e.f1 - e.f3 + e.s,
                        lambda e: e.twoT - e.p + 1), _T_UP)
_T34 = _Reduced(0, -1, (lambda e: e.p,
                        lambda e: e.f1 - e.f2 - e.p + 1,
                        lambda e: e.twoT - e.s), _T_DOWN)
_T56 = _Reduced(-1, 0, (lambda e: e.s,
                        lambda e: e.f1 - e.f3 + e.s - 1,
                        lambda e: e.twoT - e.p), _T_DOWN)
_T78 = _Reduced(0, +1, (lambda e: e.p + 1,
                        lambda e: e.f1 - e.f2 - e.p,
                        lambda e: e.twoT - e.s + 1), _T_UP)

TABLE_T = (
    _row("T1", "A12", _T12, -1, +1, lambda e: 0,
         lambda e: (e.twoM - e.twoT) // 2 - 1),
    _row("T2", "A13", _T12, +1, +1, lambda e: (e.twoT - e.twoM) // 2 + 1,
         lambda e: (e.twoT + e.twoM) // 2 + 1),
    _row("T3", "A12", _T34, -1, +1, lambda e: 0,
         lambda e: (e.twoT + e.twoM) // 2),
    _row("T4", "A13", _T34, +1, +1, lambda e: -(e.twoT + e.twoM) // 2,
         lambda e: (e.twoM - e.twoT) // 2),
    _row("T5", "A21", _T56, +1, +1, lambda e: 0,
         lambda e: (e.twoM - e.twoT) // 2),
    _row("T6", "A31", _T56, -1, -1, lambda e: (e.twoM - e.twoT) // 2 - 1,
         lambda e: (e.twoT + e.twoM) // 2),
    _row("T7", "A21", _T78, +1, +1, lambda e: 0,
         lambda e: (e.twoT + e.twoM) // 2 + 1),
    _row("T8", "A31", _T78, -1, -1, lambda e: (e.twoT + e.twoM) // 2,
         lambda e: (e.twoM - e.twoT) // 2 - 1),
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


def _bracket_ratio(ints: QIntegers, nums, dens):
    """prod [a] / prod [b] over a in nums, b in dens, as two ints (N, D).

    [m] = G_m / z^(m-1) and [-m] = -[m] (qarith.QIntegers); no gcd is taken.
    D > 0, and a negative ratio raises ValueError (no radicand is negative).
    """
    g = ints.g_table(max(map(abs, nums + dens)))
    num = den = 1
    zexp = neg = 0
    for a in nums:
        if a < 0:
            a, neg = -a, neg ^ 1
        num *= g[a]
        zexp -= a - 1
    for b in dens:
        if b < 0:
            b, neg = -b, neg ^ 1
        den *= g[b]
        zexp += b - 1
    if neg:
        raise ValueError("radicand must be nonnegative")
    if zexp >= 0:
        return num * ints.z ** zexp, den
    return num, den * ints.z ** -zexp


def _radical(ctx: EvalContext):
    """A row (sign, qexp, nums, dens) -> its SignedRadical, whose radicand
    is the exact Fraction formed on the integer tables of q (ctx.ints), in
    either mode."""
    ints = ctx.ints

    def radical(sign, qexp, nums, dens):
        return SignedRadical(sign, qexp,
                             Fraction(*_bracket_ratio(ints, nums, dens)))
    return radical


def _rep_entry(ctx: EvalContext):
    """A row (sign, qexp, nums, dens) -> its value as a rep entry.

    Exact mode gives the SignedRadical.  Float mode gives the fixed-point
    int n of n 2^-F, F = ctx.fixed_bits(): it rounds
    sign sqrt(q^(2 qexp) prod [a] / prod [b]), formed in integers, once
    (qarith.fixed_root).
    """
    if ctx.is_exact():
        return _radical(ctx)
    ints, bits = ctx.ints, ctx.fixed_bits()

    def value(sign, qexp, nums, dens):
        num, den = _bracket_ratio(ints, nums, dens)
        qnum, qden = ints.qpow2(qexp)
        return fixed_root(sign, num * qnum, den * qden, bits)
    return value


class _RowValues(dict):
    """Memo of one evaluator: row (sign, qexp, nums, dens) -> its value.

    A missing row is evaluated on first lookup, so each distinct row is
    evaluated once per memo.
    """

    __slots__ = ("evaluate",)

    def __init__(self, evaluate: Callable):
        super().__init__()
        self.evaluate = evaluate

    def __missing__(self, row):
        value = self[row] = self.evaluate(*row)
        return value


def _u_env(sig: Signature, key) -> _UEnv:
    """The table environment of the key of a U-basis label of sig."""
    k, ell, twoMU = key
    return _UEnv(sig.f1, sig.f2, sig.f3, k, ell, _two_u(sig, k, ell), twoMU)


def _t_env(sig: Signature, key) -> _TEnv:
    """The table environment of the key of a T-basis label of sig."""
    s, p, twoM = key
    return _TEnv(sig.f1, sig.f2, sig.f3, s, p, _two_t(sig, s, p), twoM)


# per basis: label check (returns the key), key -> weight, key -> table
# environment, key check, key -> label; the last three trust their key
_BASES = {
    "u": (require_u_label, _u_weight, _u_env, _check_u_key, _u_label_at),
    "t": (require_t_label, _t_weight, _t_env, _check_t_key, _t_label_at),
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
_OFF_DIAGONAL = tuple(g for g in GENERATORS if g not in _DIAGONAL)


def _check_flip_entry(flip_entry: str | None) -> None:
    """Raise ValueError unless flip_entry is None or names a table row."""
    if flip_entry is not None and flip_entry not in _ENTRY_IDS:
        raise ValueError(f"unknown table entry {flip_entry!r}; expected one "
                         "of U1..U10, T1..T10")


def _key_action(sig: Signature, basis: str, key, gens, values: _RowValues,
                flip_entry: str | None = None):
    """Action of each off-diagonal generator in gens on the basis vector
    with this key.

    The one evaluator of the tables: basis_action and the truncated reps
    of verify both go through it.  Each row that applies is read as
    (sign, q-power, numerator bracket arguments, denominator bracket
    arguments), and its value is values[row] (see _RowValues, _radical and
    _rep_entry).  Returns one list per generator of (target key, value) pairs
    in the targets' sort_key order.  The key must name a label of sig (both
    callers hand in checked or enumerated labels); every target is checked
    against the label domain, so a row that leaves it raises
    ConstraintViolation.
    """
    _, _, env_of, check_key, _ = _BASES[basis]
    env = env_of(sig, key)
    rows = _ROWS[basis]
    a, b, c = key
    out = []
    for gen in gens:
        terms = []
        for entry in rows[gen]:
            nums = tuple([f(env) for f in entry.num])
            if 0 in nums:
                continue
            sign = -entry.sign if entry.eid == flip_entry else entry.sign
            coeff = values[sign, entry.qexp(env), nums,
                           tuple([f(env) for f in entry.den])]
            target = (a + entry.d1, b + entry.d2, c + entry.dtwoM)
            check_key(sig, *target)  # a target that is no label raises
            terms.append((target, coeff))
        out.append(terms)
    return out


def basis_action(ctx: EvalContext, sig: Signature, basis: str, gen: str, lab,
                 flip_entry: str | None = None) -> List[ActionTerm]:
    """Action of a generator on a basis vector ('u' or 't') as weighted targets.

    flip_entry is a fault-injection hook: the named table row has its sign
    flipped, so verification checks can prove they would catch a wrong sign.
    It must name a row of either table (ValueError otherwise).  The label
    is checked here (LabelOutOfDomain) and each target once, in _key_action
    (ConstraintViolation); the target labels are built from those keys.
    """
    if basis not in _BASES:
        raise ValueError(f"basis must be 'u' or 't', got {basis!r}")
    _check_flip_entry(flip_entry)
    require, weight_of, _, _, label_at = _BASES[basis]
    key = require(sig, lab)
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    if gen in _DIAGONAL:
        m = weight_of(sig, key)[_DIAGONAL[gen]]
        return [ActionTerm(label_at(sig, key),
                           SignedRadical.from_rational(Fraction(m)))]
    [terms] = _key_action(sig, basis, key, (gen,), _RowValues(_radical(ctx)),
                          flip_entry)
    return [ActionTerm(label_at(sig, key), coeff) for key, coeff in terms]
