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
of its own; the reduced part is stated once, in _Reduced, and evaluated
once per (row, multiplet) in a build (_RowValues, _multiplet_rows).
Besides the doublets, each table holds the two ladder rows inside a
multiplet: A12/A21, the compact su_q(2) ladder of the U basis, and A23/A32,
the noncompact su_q(1,1) ladder of the T basis.

basis_action returns every matrix element as a SignedRadical attached to a
validated target label.  A row's radicand is formed in integers from the
tables of qarith.QIntegers, [m] = G_m / z^(m-1), in both modes; so its
radicand is the exact Fraction, and a float rep entry is
sign sqrt(q^(2e) prod [a] / prod [b]) rounded once to the fixed-point scale
2^-F (qarith.fixed_root), with no mpf intermediate.  A vanishing bracket
factor in a numerator silently drops the term; this is also what keeps
boundary labels (k or p at the ends of their ranges, multiplet bottoms) from
producing out-of-range targets.  The squared norms are products of the same
integer tables too (F_m for the closed forms, G_m for the recursions), made
into one Fraction each; these products live beside the tables, in qarith
(_brackets, _bracket_fraction, _factorial_ratio).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, NamedTuple, Tuple

from .errors import ConstraintViolation
from .qarith import (EvalContext, QIntegers, SignedRadical, _as_int,
                     _bracket_fraction, _brackets, _factorial_ratio,
                     fixed_root)
from .records import Record
from .repspace import (
    Signature,
    _check_t_m,
    _check_t_multiplet,
    _check_u_m,
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

def norm_u_sq(ctx: EvalContext, sig: Signature, k: int, ell: int) -> Fraction:
    """Squared norm N^2(k, ell) of the unnormalized U-basis construction,
    an exact Fraction in either mode."""
    twoU = _check_u_multiplet(sig, k, ell)
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    return _factorial_ratio(
        ctx.ints, (k, ell, twoU + 1, f12, f23 + k - 2, f13 + ell - 1),
        (f12 - k, f12 + ell + 1, f13 - 1, f23 - 2))


def norm_u_sq_stepwise(ctx: EvalContext, sig: Signature, k: int, ell: int) -> Fraction:
    """N^2(k, ell) built purely from the two one-step recursions.

    Starting from N^2(0, 0) = 1, first raise ell (each step multiplies by
    [ell][f1 - f3 + ell - 1]), then raise k (each step multiplies by
    [k][f1 - f2 - k + 1][f2 - f3 + k - 2] / [f1 - f2 - k + ell + 2]).
    Used as an independent oracle against the closed form.
    """
    _check_u_multiplet(sig, k, ell)
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    nums = [x for j in range(1, ell + 1) for x in (j, f13 + j - 1)]
    nums += [x for i in range(1, k + 1)
             for x in (i, f12 - i + 1, f23 + i - 2)]
    return _bracket_fraction(ctx.ints, nums,
                             [f12 - i + ell + 2 for i in range(1, k + 1)])


def norm_t_sq(ctx: EvalContext, sig: Signature, s: int, p: int) -> Fraction:
    """Squared norm N^2(s, p) of the unnormalized T-basis construction,
    an exact Fraction in either mode."""
    twoT = _check_t_multiplet(sig, s, p)
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    return _factorial_ratio(
        ctx.ints, (s, p, f12, f13 + s - 1, f23 + s - 2, f23 + p - 2),
        (f12 - p, f13 - 1, f23 - 2, twoT))


def norm_t_sq_stepwise(ctx: EvalContext, sig: Signature, s: int, p: int) -> Fraction:
    """N^2(s, p) from one-step ratios of the closed form (cross-check path):
    N^2(j, 0) / N^2(j - 1, 0) = [j][f1 - f3 + j - 1] for j <= s, then
    N^2(s, i) / N^2(s, i - 1)
        = [i][f1 - f2 - i + 1][f2 - f3 + i - 2] / [f2 - f3 + i + s - 2]
    for i <= p."""
    _check_t_multiplet(sig, s, p)
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    nums = [x for j in range(1, s + 1) for x in (j, f13 + j - 1)]
    nums += [x for i in range(1, p + 1)
             for x in (i, f12 - i + 1, f23 + i - 2)]
    return _bracket_fraction(ctx.ints, nums,
                             [f23 + i + s - 2 for i in range(1, p + 1)])


def norm_su11_sq(ctx: EvalContext, T, M) -> Fraction:
    """Squared norm [M - T - 1]! [T + M]! / [2T + 1]! of the su_q(1,1) ladder state."""
    T, M = Fraction(T), Fraction(M)
    return _factorial_ratio(ctx.ints, (_as_int(M - T - 1), _as_int(T + M)),
                            (_as_int(2 * T + 1),))


# ----------------------------------------------------------------------------
# extremal projectors and the Casimir operator
# ----------------------------------------------------------------------------

def projector_t_coeff(ctx: EvalContext, T, r: int) -> Fraction:
    """Coefficient of T+^r T-^r in the su_q(1,1) extremal projector at spin T.

    Defined for 0 <= r <= 2T; other r contribute nothing on the subspaces the
    projector is used on, and the coefficient is returned as zero.
    """
    if r < 0:
        raise ConstraintViolation(f"r >= 0 violated: r = {r}")
    twoT = _as_int(2 * Fraction(T))
    if r > twoT:
        return Fraction(0)
    return _factorial_ratio(ctx.ints, (twoT - r,), (r, twoT))


def casimir_su11_eigenvalue(ctx: EvalContext, T) -> Fraction:
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


class TableEntry(Record):
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
    reduced part, and num[3] is its own M-dependent bracket.  shared counts
    the leading num brackets of the reduced part: 3 on a doublet row, 0 on
    a ladder row, whose brackets all depend on M.  The shared brackets and
    den read only the multiplet (k, ell or s, p, the spin and sig), so
    _key_action evaluates them once per source multiplet.

    eid and gen are strings; qexp is a callable, num and den are tuples of
    callables, and the other fields are ints.
    """

    __slots__ = ("eid", "gen", "d1", "d2", "dtwoM", "sign", "qexp", "num",
                 "den", "shared")
    _defaults = {"shared": 0}


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
                      part.num + (own,), part.den, len(part.num))


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


def _radical(qexp: int, num: int, den: int) -> SignedRadical:
    """The row magnitude q^qexp sqrt(num / den), num and den positive ints,
    as a SignedRadical, whose radicand is the exact Fraction of its
    integers."""
    return SignedRadical(1, qexp, Fraction(num, den))


def _rep_entry(ctx: EvalContext):
    """The row magnitude (qexp, num, den), q^qexp sqrt(num / den) with num
    and den positive ints, -> its rep entry.

    Exact mode gives the SignedRadical (_radical).  Float mode gives the
    fixed-point int n of n 2^-F, F = ctx.fixed_bits(): it rounds
    sqrt(q^(2 qexp) num / den), formed in integers, once
    (qarith.fixed_root), with q^(2 qexp) formed once per qexp.
    """
    if ctx.is_exact():
        return _radical
    ints, bits = ctx.ints, ctx.fixed_bits()
    qpows = {}

    def value(qexp, num, den):
        qpow = qpows.get(qexp)
        if qpow is None:
            qpow = qpows[qexp] = ints.qpow2(qexp)
        return fixed_root(1, num * qpow[0], den * qpow[1], bits)
    return value


class _Part(NamedTuple):
    """A table row at one source multiplet, its reduced part evaluated.

    own are the row's M-dependent num brackets and qexp its q-power;
    sign has the build's flip_entry applied; (a, b) is the target multiplet
    and two_spin its 2U or 2T, checked against the domain; reduced indexes
    the reduced part's ratio in _RowValues.ratios.
    """

    own: Tuple[Callable, ...]
    qexp: Callable
    sign: int
    a: int
    b: int
    dtwoM: int
    two_spin: int
    reduced: int


class _RowValues(dict):
    """The memo of one build of the tables: one signature, one flip_entry.

    parts maps (basis, generator, source multiplet) -> the generator's rows
    that apply there, as _Parts; reduced maps the bracket arguments
    (nums, dens) of a reduced part -> the index of its ratio (neg, N, D)
    (_brackets) in ratios; and the dict itself maps a row magnitude
    (reduced index, q-power, own brackets) -> the value evaluate gives it,
    which _key_action negates for a row of sign -1 (a rounding to nearest
    is symmetric).  Each is filled on first lookup, so each reduced part is
    evaluated once per (row, multiplet) and each distinct magnitude once
    per memo.
    """

    __slots__ = ("ints", "evaluate", "flip_entry", "parts", "reduced",
                 "ratios")

    def __init__(self, ints: QIntegers, evaluate: Callable,
                 flip_entry: str | None = None):
        super().__init__()
        self.ints, self.evaluate, self.flip_entry = ints, evaluate, flip_entry
        self.parts, self.reduced, self.ratios = {}, {}, []

    def __missing__(self, row):
        reduced, qexp, own = row
        neg, num, den = _brackets(self.ints, own, (), *self.ratios[reduced])
        if neg:
            raise ValueError("radicand must be nonnegative")
        value = self[row] = self.evaluate(qexp, num, den)
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
# environment, multiplet check (returns the spin), spin projection check,
# key -> label; the last one trusts its key
_BASES = {
    "u": (require_u_label, _u_weight, _u_env, _check_u_multiplet, _check_u_m,
          _u_label_at),
    "t": (require_t_label, _t_weight, _t_env, _check_t_multiplet, _check_t_m,
          _t_label_at),
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


def _multiplet_rows(sig: Signature, basis: str, gen: str, a: int, b: int,
                    env, values: _RowValues) -> Tuple[_Part, ...]:
    """The rows of gen that apply to the source multiplet (a, b), k and ell
    or s and p, whose table environment (any label's) is env.

    A row whose reduced part has a vanishing bracket is dropped here, for
    every M; the target multiplet of every other row is checked against
    the label domain (ConstraintViolation), and its reduced part's ratio
    is entered into values.ratios.
    """
    check_multiplet = _BASES[basis][3]
    out = []
    for entry in _ROWS[basis][gen]:
        nums = tuple([f(env) for f in entry.num[:entry.shared]])
        if 0 in nums:
            continue
        dens = tuple([f(env) for f in entry.den])
        a2, b2 = a + entry.d1, b + entry.d2
        two_spin = check_multiplet(sig, a2, b2)
        reduced = values.reduced.get((nums, dens))
        if reduced is None:
            reduced = values.reduced[nums, dens] = len(values.ratios)
            values.ratios.append(_brackets(values.ints, nums, dens))
        sign = -entry.sign if entry.eid == values.flip_entry else entry.sign
        out.append(_Part(entry.num[entry.shared:], entry.qexp, sign, a2, b2,
                         entry.dtwoM, two_spin, reduced))
    return tuple(out)


def _key_action(sig: Signature, basis: str, key, gens, values: _RowValues):
    """Action of each off-diagonal generator in gens on the basis vector
    with this key.

    The one evaluator of the tables: basis_action and the truncated reps
    of verify both go through it.  The rows of each generator at the key's
    multiplet, with their reduced parts, come from values.parts
    (_multiplet_rows, once per memo); per label only the own brackets and
    the q-power are read, and the value is the row's sign times
    values[reduced part, q-power, own brackets] (see _RowValues).  Returns
    one list per generator of (target key, value) pairs in the targets'
    sort_key order.
    The key must name a label of sig (both callers hand in checked or
    enumerated labels); every target is checked against the label domain,
    its multiplet once and its M here, so a row that leaves it raises
    ConstraintViolation.
    """
    _, _, env_of, _, check_m, _ = _BASES[basis]
    env = env_of(sig, key)
    a, b, c = key
    parts = values.parts
    out = []
    for gen in gens:
        rows = parts.get((basis, gen, a, b))
        if rows is None:
            rows = parts[basis, gen, a, b] = _multiplet_rows(
                sig, basis, gen, a, b, env, values)
        terms = []
        for own, qexp, sign, a2, b2, dtwoM, two_spin, reduced in rows:
            brackets = tuple([f(env) for f in own])
            if 0 in brackets:
                continue
            c2 = c + dtwoM
            check_m(two_spin, c2)  # a target that is no label raises
            value = values[reduced, qexp(env), brackets]
            terms.append(((a2, b2, c2), value if sign > 0 else -value))
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
    require, weight_of, *_, label_at = _BASES[basis]
    key = require(sig, lab)
    if gen not in GENERATORS:
        raise ValueError(f"unknown generator {gen!r}")
    if gen in _DIAGONAL:
        m = weight_of(sig, key)[_DIAGONAL[gen]]
        return [ActionTerm(label_at(sig, key),
                           SignedRadical.from_rational(Fraction(m)))]
    [terms] = _key_action(sig, basis, key, (gen,),
                          _RowValues(ctx.ints, _radical, flip_entry))
    return [ActionTerm(label_at(sig, key), coeff) for key, coeff in terms]
