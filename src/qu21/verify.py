"""Verification harness over truncated matrix representations.

Builds finite weight-bounded windows onto the infinite-dimensional module as
sparse matrices (one per generator, per basis) and checks every operator
identity the library relies on:

* the noncompact su_q(1,1) triple [T0, T+-] = +-T+-, [T+, T-] = [2 T0];
* conjugation relations tying raising and lowering generators, including the
  two equivalent second-order closures for the conjugate of A13;
* the quadratic Casimir T- T+ + [T0 + 1/2]^2 with eigenvalue [T + 1/2]^2;
* exact equality of closed-form norms against their defining recursions;
* orthogonality of the basis-change blocks at every complete weight;
* the intertwining property: each generator's U-basis matrix times the
  blocks equals the blocks times its T-basis matrix;
* extremal projector identities on fixed-T0 subspaces.

The blocks are weylracah's brackets (its form a).  Orthogonality and the
intertwiner test them independently of that formula, but -W passes both as
W does: only the tests' oracles and golden outputs fix the overall phase.

Truncation discipline: an identity of degree d in the generators is asserted
only on columns whose images under up to d successive generator applications
stay inside the truncation (interior masks, computed for d <= 2).  Checks on
an empty interior pass vacuously and say so in their report.

Every check takes built inputs (reps from TruncatedRep, blocks from
complete_blocks) and returns reports; none builds its own.  Each check
takes the first largest of its residuals (in a fixed order of their
locations) where it forms them, and passes that one (magnitude, key) pair
to _report, which converts it to a float, formats its location and marks
a check with no columns vacuous.  _matrix_report takes a relation's largest
entry in one pass, a tie going to the smallest (row, col); the intertwiner
keeps a running maximum over its block pairs; the projector compares its
spectral residuals on their common denominator and its power residuals by
cross-multiplication, and forms one Fraction, for the largest.

One pass: each TruncatedRep visits each of its labels once.  repspace reads
the label's integer key (k, ell, 2MU) or (s, p, 2M), enumerated and so not
checked again, and gives its weight and its spin 2U or 2T; the key is
turned into its table environment once; one call of
generators._key_action, which checks every target, gives the terms of the
six off-diagonal generators, and targets are looked up by key; the three
diagonal ones are the weights.  Each build keeps one memo of the tables
(generators._RowValues): each row's M-independent reduced part (its
shared brackets, its denominator, their zero test and the target
multiplet's domain check) is evaluated once per multiplet, and each
distinct magnitude (reduced part, q-power, own brackets) once, so a label
costs only its own brackets and q-power.  Each matrix is filled column by
column, each column's terms in sort_key order.  The checks select and group
columns by these integer keys and spins, never by the labels' Fraction
fields; the intertwiner finds each block label in its rep by the label's
key (repspace._u_key, _t_key), read once.

Fixed point: in float mode every rep entry and every complete Weyl block
entry is an int n that stands for n 2^-F, with one scale F for the whole
run: the float context's working bits plus qarith._GUARD_BITS
(EvalContext.fixed_bits, no mpmath needed), so F follows from the
precision.  Each entry is its exact value, formed in integers and rounded
once (qarith.fixed_root): a rep entry from its row's integers, a block
entry straight from the unreduced integers of weylracah._racah_form_exact,
with no Fraction in between.  Each scalar a check needs (a weight, a
bracket, an eigenvalue, a coefficient, a norm) is an exact rational rounded
once, per distinct value, but for the projector's c_r, whose terms
c_r T+^r T-^r are rounded once; a q given as a float or an mpf is read as
the exact rational it is.  The checks then add and multiply ints only,
exactly: su11, hermiticity and the Casimir are lists of relations
(_relation), where a product's scale is the sum of its factors' scales, a
multiple of F, and terms are aligned by exact left shifts; and _report
converts the largest magnitude to a float once.  So each residual is
the exact residual of inputs that were each rounded once, and
rounding_bound bounds it a priori; run_all_checks refuses a tolerance below
that bound.  Exact mode keeps SignedRadical entries and exact sums
(SignedRadical.add_exact).

run_all_checks builds each object once.  The float U and T reps serve
the su11, hermiticity and Casimir checks and the intertwiner, which
compares the sparse products M_U(g) W and W' M_T(g) on the complete Weyl
blocks (these also serve orthogonality); the float T rep also serves the
projector check, which reads its T+- ladder factors from A23 and A32 once.
In exact mode the float T rep is the exact T rep with each radical rounded
(TruncatedRep.rounded), so the T basis is built once.
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
from fractions import Fraction
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from .generators import (
    GENERATORS,
    WEIGHT_SHIFTS,
    _DIAGONAL,
    _OFF_DIAGONAL,
    _RowValues,
    _check_flip_entry,
    _key_action,
    _rep_entry,
    basis_action,  # noqa: F401  (perfbench/test_perfbench.py reads it here)
    casimir_su11_eigenvalue,
    norm_su11_sq,
    norm_t_sq,
    norm_t_sq_stepwise,
    norm_u_sq,
    norm_u_sq_stepwise,
    projector_t_coeff,
)
from .qarith import EvalContext, SignedRadical, fixed_root
from .records import Record
from .repspace import (
    Signature,
    Weight,
    _t_depth,
    _t_key,
    _t_keys_at_weight,
    _t_label_at,
    _t_weight,
    _two_t,
    _two_u,
    _u_key,
    _u_keys,
    _u_keys_at_weight,
    _u_label_at,
    _u_weight,
    enumerate_t_basis,
    enumerate_u_basis,
)
from .weylracah import WeylBlock, _bracket_args, _racah_form_exact

# (row, col) -> entry: in float mode the int n of n 2^-bits, in exact mode a
# SignedRadical
Entry = Union[int, SignedRadical]
Entries = Dict[Tuple[int, int], Entry]
# a residual's magnitude: an int n of n 2^-bits, or an exact Fraction
Magnitude = Union[int, Fraction]


class Truncation(Record):
    """Basis bounds, nonnegative ints: ell_max for the U basis, s_max and
    depth for the T basis."""

    __slots__ = ("ell_max", "s_max", "depth")

    def _check(self):
        for name in self._fields:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")


class CheckReport(Record):
    """Outcome of one identity check.

    max_residual is the largest absolute deviation found (0.0 for exact
    checks that hold identically); location describes where it occurred.
    A float-mode residual is exact on the rounded inputs, summed in fixed
    point, and converted to a float once; an exact-mode one is an exact sum,
    rounded once for display.  Reports are deterministic given (sig,
    truncation, q, precision).  name, location and note are strings,
    passed a bool, max_residual and tolerance floats, and columns_checked
    an int.
    """

    __slots__ = ("name", "passed", "max_residual", "tolerance", "location",
                 "columns_checked", "note")
    _defaults = {"note": ""}

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = (f"{status:4s}  {self.name:28s} residual {self.max_residual:.3e}"
               f"  tol {self.tolerance:.1e}  cols {self.columns_checked}")
        if self.location:
            out += f"  at {self.location}"
        if self.note:
            out += f"  [{self.note}]"
        return out


def _diagonal(ctx: EvalContext, keys: Iterable[int],
              scalar: Callable[[int], object]) -> Entries:
    """Diagonal matrix of one scalar per label, in the entry type of ctx:
    entry j is scalar(keys[j]), keys being ints.

    Each scalar is a rational, as ctx gives it: wrapped exactly in exact
    mode, rounded once to the fixed-point scale in float mode.  It is
    evaluated and converted once per distinct key.
    """
    convert = SignedRadical.from_rational if ctx.is_exact() else ctx.to_fixed
    converted: Dict[int, Entry] = {}
    out: Entries = {}
    for j, k in enumerate(keys):
        x = converted.get(k)
        if x is None:
            x = converted[k] = convert(scalar(k))
        out[j, j] = x
    return out


class TruncatedRep:
    """Finite window onto one basis: per-generator sparse matrices.

    matrices[g] maps (row, col) index pairs to entries: in float mode the
    int n of n 2^-bits, bits = ctx.fixed_bits(); in exact mode a
    SignedRadical, and bits is 0.  The rational scalars the checks round to
    that scale are ctx's q-numbers, exact Fractions in either mode.  Entries
    whose target falls outside the truncation are dropped from the matrix
    but remembered in the interior masks.  interior1[j] means every
    generator image of column j stays inside; interior2[j] additionally
    requires that of every image of an image (two-step words).  keys[j] is
    the integer key of label j, (k, ell, 2MU) or (s, p, 2M), and spins[j]
    its 2U or 2T; the checks select and group labels by these.
    """

    def __init__(self, ctx: EvalContext, sig: Signature, basis: str,
                 truncation: Truncation, flip_entry: Optional[str] = None):
        if basis not in ("u", "t"):
            raise ValueError(f"basis must be 'u' or 't', got {basis!r}")
        _check_flip_entry(flip_entry)
        self.ctx = ctx
        self.bits = 0 if ctx.is_exact() else ctx.fixed_bits()
        self.sig = sig
        self.basis = basis
        self.truncation = truncation
        if basis == "u":
            labels = enumerate_u_basis(sig, truncation.ell_max)
            key_of, weight_of, two_spin = _u_key, _u_weight, _two_u
        else:
            labels = enumerate_t_basis(sig, truncation.s_max, truncation.depth)
            key_of, weight_of, two_spin = _t_key, _t_weight, _two_t
        self.labels = tuple(labels)
        self.keys = keys = tuple(key_of(l) for l in self.labels)
        self.spins = tuple(two_spin(sig, a, b) for a, b, _ in keys)
        self.weights = tuple(weight_of(sig, key) for key in keys)
        key_index = {key: i for i, key in enumerate(keys)}
        self.matrices: Dict[str, Entries] = {g: {} for g in GENERATORS}
        mats = [self.matrices[g] for g in _OFF_DIAGONAL]
        n = len(self.labels)
        stays_in = [True] * n
        reach: List[set] = [set() for _ in range(n)]
        # this build's memo: each reduced part and each distinct value is
        # evaluated once
        values = _RowValues(ctx.ints, _rep_entry(ctx), flip_entry)
        for j, key in enumerate(keys):
            actions = _key_action(sig, basis, key, _OFF_DIAGONAL, values)
            for m, terms in zip(mats, actions):
                for tgt, coeff in terms:
                    i = key_index.get(tgt)
                    if i is None:
                        stays_in[j] = False
                        continue
                    reach[j].add(i)
                    m[(i, j)] = coeff
        for g, c in _DIAGONAL.items():
            self.matrices[g] = _diagonal(ctx, (w[c] for w in self.weights),
                                         lambda m: m)
        self.interior1 = tuple(stays_in)
        self.interior2 = tuple(
            stays_in[j] and all(stays_in[i] for i in reach[j])
            for j in range(n))

    def diagonal_weight_bracket(self) -> Entries:
        """Diagonal matrix of [m2 - m3] per label (the [2 T0] operator)."""
        return _diagonal(self.ctx, (w.m2 - w.m3 for w in self.weights),
                         self.ctx.qnum)

    def rounded(self, fctx: EvalContext) -> "TruncatedRep":
        """This exact rep's float twin on the fixed-point scale of fctx.

        Each radical is rounded once by SignedRadical.to_fixed.  That is
        the rounding a float build gives the same exact value, so the twin
        equals TruncatedRep(fctx, ...) entry for entry, without a second
        pass over the tables.
        """
        if not self.ctx.is_exact() or fctx.is_exact():
            raise ValueError("rounded takes an exact rep to a float context")
        twin = copy.copy(self)
        twin.ctx, twin.bits = fctx, fctx.fixed_bits()
        twin.matrices = {g: {k: v.to_fixed(fctx) for k, v in m.items()}
                         for g, m in self.matrices.items()}
        return twin


class FixedBlock(WeylBlock):
    """A complete Weyl block whose entries[i][j] is the int n of n 2^-bits."""

    __slots__ = ("bits",)


# ----------------------------------------------------------------------------
# relations: sums of words in named operators
# ----------------------------------------------------------------------------


def _is_diagonal(m: Entries) -> bool:
    """Whether every stored entry of m is on the diagonal."""
    return all(itertools.starmap(operator.eq, m))


def _word(rep: TruncatedRep, ops: dict, word: tuple, columns, add) -> Entries:
    """Product of word's operators, multiplied out right to left on the
    columns marked True (all if None), kept in ops under (word, columns).
    A name is ops[name] (a _diagonal), a generator of rep or its transpose
    g + "^T".  A diagonal factor (every stored entry on the diagonal) on
    either side scales the other entrywise; otherwise a left factor is read
    by column, kept under (name,).
    """
    key = (word, columns)
    got = ops.get(key)
    if got is not None:
        return got
    name = word[0]
    if len(word) > 1:
        first = _word(rep, ops, (name,), None, add)
        rest = _word(rep, ops, word[1:], columns, add)
        if _is_diagonal(first):
            scale = {i: y for (i, _), y in first.items()}
            got = {ij: y * v for ij, v in rest.items()
                   if (y := scale.get(ij[0])) is not None}
        elif _is_diagonal(rest):
            scale = {j: v for (_, j), v in rest.items()}
            got = {ij: y * v for ij, y in first.items()
                   if (v := scale.get(ij[1])) is not None}
        else:
            left = ops.get((name,))
            if left is None:
                left = ops[name,] = {}
                for (i, k), v in first.items():
                    left.setdefault(k, []).append((i, v))
            got = {}
            for (k, j), v in rest.items():
                for i, y in left.get(k, ()):
                    cur = got.get((i, j))
                    got[i, j] = y * v if cur is None else add(cur, y * v)
    elif columns is not None:
        got = {ij: v for ij, v in _word(rep, ops, word, None, add).items()
               if columns[ij[1]]}
    elif name.endswith("^T"):
        got = {(j, i): v for (i, j), v in rep.matrices[name[:-2]].items()}
    else:
        got = ops[name] if name in ops else rep.matrices[name]
    ops[key] = got
    return got


def _relation(rep: TruncatedRep, ops: dict, terms: Sequence[tuple],
              columns: Optional[tuple] = None) -> Tuple[Entries, int]:
    """(entries, bits) of the exact sum of c word over terms (c, word) on
    the columns marked True (all if None); relations sharing ops form each
    product once.  In float mode a word of L factors is on the scale L bits,
    a coefficient other than +-1 is rounded once (ctx.to_fixed) and adds
    bits, and terms are aligned to the largest scale by exact left shifts.
    Exact mode sums by add_exact, on bits 0.
    """
    ctx, bits = rep.ctx, rep.bits
    exact = ctx.is_exact()
    add = (lambda x, y: x.add_exact(y, ctx)) if exact else operator.add
    scales = [(len(word) + (c not in (1, -1))) * bits for c, word in terms]
    top = max(scales)
    out: Entries = {}
    get = out.get
    for (c, word), scale in zip(terms, scales):
        shift = top - scale
        f = SignedRadical.from_rational(c) if exact else (
            int(c) if c in (1, -1) else ctx.to_fixed(c))
        prod = _word(rep, ops, word, columns, add)
        if shift:
            prod = {ij: f * v << shift for ij, v in prod.items()}
        elif c != 1:
            prod = {ij: f * v for ij, v in prod.items()}
        if not out:
            out.update(prod)
            continue
        for ij, v in prod.items():
            cur = get(ij)
            out[ij] = v if cur is None else add(cur, v)
    return out, top


def _largest(pairs: Iterable[Tuple[Magnitude, tuple]]
             ) -> Tuple[Magnitude, Optional[tuple]]:
    """The first largest (magnitude, key) of pairs; (0, None) if empty."""
    return max(pairs, key=operator.itemgetter(0), default=(0, None))


def _report(name: str, worst: Tuple[Magnitude, Optional[tuple]],
            locate: Callable[..., str], ncols: int, tol: float,
            note: str = "", bits: int = 0) -> CheckReport:
    """One check's report from the first largest (magnitude, key) pair of
    its residuals, which each check takes where it forms them.

    A magnitude is an int n of n 2^-bits, or an exact Fraction (bits 0); it
    is converted to a float once.  A zero magnitude has no location; any
    other is located by formatting its key only, as locate(*key).  A check
    with no columns passes vacuously with the note 'no coverage'.
    """
    if ncols == 0:
        note = (note + "; " if note else "") + "no coverage"
        return CheckReport(name, True, 0.0, tol, "", 0, note)
    mag, key = worst
    residual = float(mag / (1 << bits))
    where = locate(*key) if mag else ""
    return CheckReport(name, residual <= tol, residual, tol, where, ncols, note)


def _matrix_report(name: str, rep: TruncatedRep, m: Tuple[Entries, int],
                   tol: float, columns: Optional[Sequence[bool]] = None,
                   note: str = "") -> CheckReport:
    """_report over the (entries, bits) of a _relation on the columns marked
    True (every column if columns is None).

    Exact-mode entries are SignedRadicals: exact zeros are skipped and every
    other entry is rounded once to the fixed-point scale of the float
    companion context.  The residual is the largest magnitude, taken in one
    pass over the entries, and located at the smallest (row, col) that
    holds it.
    """
    entries, bits = m
    if rep.ctx.is_exact():
        fctx = rep.ctx.as_float()
        entries = {k: v.to_fixed(fctx) for k, v in entries.items()
                   if not v.is_zero()}
        bits = fctx.fixed_bits()
    mags = list(map(abs, entries.values()))
    worst = max(mags, default=0)
    at = (min(itertools.compress(entries, map(worst.__eq__, mags)))
          if worst else None)
    labels = rep.labels
    ncols = len(labels) if columns is None else sum(columns)
    return _report(name, (worst, at),
                   lambda i, j: f"row={labels[i]} col={labels[j]}",
                   ncols, tol, note, bits)


def rounding_bound(fctx: EvalContext, reps: Sequence[TruncatedRep]) -> float:
    """A priori bound on the fault-free float-mode residuals: 16 A^2 2^-F.

    F = fctx.fixed_bits() is the fixed-point scale of the float reps, and
    A = max(1, M, q^2, q^-2), M being the largest magnitude of their
    entries; q^2 and q^-2 bound the coefficients q^2, q^2 - 1 and q - 1/q,
    and a Weyl block entry is at most 1.  Every input the kernels read (an
    entry, a diagonal value, a coefficient) is its exact value at the exact
    rational q rounded once, off by at most u/2 with u = 2^-F, and every
    sum and product after that is exact.  A relation term c w sums
    products of len(w) inputs, one more if c is not +-1: at most two per
    entry if w is two generators, as a generator's rows and columns hold
    at most two entries, and one if w has a diagonal factor.  So a residual
    entry of su11, the Casimir or the intertwiner sums at most four
    products of two inputs and two single inputs, each product off by at
    most A u + u^2/4; the form agreement, the largest hermiticity residual,
    four products of three (each off by at most 3 A^2 u/2 + O(u^2)) and
    one of two, so it is off by at most 6 A^2 u + A u + O(u^2).
    Orthogonality sums n products of block entries, off by at most
    (sqrt(n) + 1) u, below the bound for n up to 225.  The projector rounds
    each term c_r T+^r T-^r once, from c_r and the exact product of its
    rounded ladder factors; a ladder factor is at least 1, so the term is
    off by at most r u times its size plus that one rounding.  The size of
    those terms is not bounded here, so for the projector's reports the
    bound is confirmed by the tests (at desk and large scale, and over
    small windows) rather than derived.
    """
    bits = fctx.fixed_bits()
    q2 = fctx.qpow(2)
    largest = max((abs(v) for rep in reps for m in rep.matrices.values()
                   for v in m.values()), default=0) / (1 << bits)
    a = float(max(1, largest, q2, 1 / q2))
    return math.ldexp(16 * a * a, -bits)


# ----------------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------------


def check_su11_relations(rep: TruncatedRep, tolerance: float = 1e-10) -> List[CheckReport]:
    """[T0, T+] = T+, [T0, T-] = -T-, [T+, T-] = [2 T0] on the rep.

    T0 = (A22 - A33)/2 is exact on the fixed-point scale, so in float mode
    the raising and lowering residuals are exactly 0 wherever the weights
    are consistent.  An exact-mode rep holds only if every residual entry is
    exactly zero; its reports carry the note 'exact'.
    """
    ctx = rep.ctx
    ops = {"T0": _diagonal(ctx, (w.m2 - w.m3 for w in rep.weights),
                           lambda d: Fraction(d, 2)),
           "[2T0]": rep.diagonal_weight_bracket(),
           "T+": rep.matrices["A23"], "T-": rep.matrices["A32"]}
    relations = [
        ("raising", [(1, ("T0", "T+")), (-1, ("T+", "T0")), (-1, ("T+",))],
         None),
        ("lowering", [(1, ("T0", "T-")), (-1, ("T-", "T0")), (1, ("T-",))],
         None),
        ("commutator", [(1, ("T+", "T-")), (-1, ("T-", "T+")),
                        (-1, ("[2T0]",))], rep.interior2)]
    note = "exact" if ctx.is_exact() else ""
    return [_matrix_report(f"su11-{kind}-{rep.basis}", rep,
                           _relation(rep, ops, terms, cols), tolerance, cols,
                           note) for kind, terms, cols in relations]


def check_hermiticity(rep: TruncatedRep, tolerance: float = 1e-10) -> List[CheckReport]:
    """Conjugation relations between raising and lowering generators.

    First order: transpose(A12) = A21 and transpose(A23) = -A32 hold
    entrywise.  Second order, two equivalent closures for transpose(A13):

        -A31 + (q - 1/q) A21 A32          (first form)
        -q^2 A31 + (q^2 - 1) A32 A21      (second form)

    both checked on two-step interior columns, plus their mutual agreement.
    Each coefficient is rounded once to the rep's fixed-point scale.
    """
    ctx = rep.ctx
    if ctx.is_exact():
        raise ValueError("hermiticity checks run in floating mode")
    q2, qq = ctx.qpow(2), ctx.qpow(1) - ctx.qpow(-1)
    first = [(1, ("A13^T",)), (1, ("A31",)), (-qq, ("A21", "A32"))]
    second = [(1, ("A13^T",)), (q2, ("A31",)), (1 - q2, ("A32", "A21"))]
    inner = rep.interior2
    relations = [
        ("compact", [(1, ("A12^T",)), (-1, ("A21",))], None),
        ("noncompact", [(1, ("A23^T",)), (1, ("A32",))], None),
        ("a13-first", first, inner), ("a13-second", second, inner),
        # first - second, where the A13^T terms cancel
        ("form-agreement", [(1 - q2, ("A31",)), (-qq, ("A21", "A32")),
                            (q2 - 1, ("A32", "A21"))], inner)]
    ops: dict = {}
    return [_matrix_report(f"herm-{kind}-{rep.basis}", rep,
                           _relation(rep, ops, terms, cols), tolerance, cols)
            for kind, terms, cols in relations]


def check_casimir(rep: TruncatedRep, tolerance: float = 1e-10) -> List[CheckReport]:
    """C2 = T- T+ + [T0 + 1/2]^2 is diagonal with eigenvalue [T + 1/2]^2.

    T-basis rep required (labels carry definite T there).  Checked on
    columns whose raising image stays inside the truncation.  Also reports
    whether distinct T values within one weight space keep distinct
    eigenvalues at this q (degeneracy is reported, not asserted through).
    An exact-mode rep passes only with an exactly zero residual.
    """
    if rep.basis != "t":
        raise ValueError("check_casimir needs a T-basis rep")
    ctx, keys, spins = rep.ctx, rep.keys, rep.spins
    cols_ok = tuple(_t_depth(rep.sig, key) < rep.truncation.depth
                    for key in keys)
    # [M + 1/2]^2 from each distinct 2M + 1, the eigenvalue from each 2T
    lam = {t: casimir_su11_eigenvalue(ctx, Fraction(t, 2)) for t in set(spins)}
    ops = {"T+": rep.matrices["A23"], "T-": rep.matrices["A32"],
           "[T0+1/2]^2": _diagonal(ctx, (m + 1 for _, _, m in keys),
                                   ctx.qbracket_half_sq),
           "[T+1/2]^2": _diagonal(ctx, spins, lam.__getitem__)}
    c2 = _relation(rep, ops, [(1, ("T-", "T+")), (1, ("[T0+1/2]^2",)),
                              (-1, ("[T+1/2]^2",))], cols_ok)
    reports = [_matrix_report("casimir-eigenvalue", rep, c2, tolerance,
                              cols_ok, "exact" if ctx.is_exact() else "")]

    # eigenvalue separation per weight space at this q (exact gaps at an int
    # or Fraction q), each pair of neighbouring spins measured once
    by_weight: Dict[Weight, set] = {}
    for t, w in zip(spins, rep.weights):
        by_weight.setdefault(w, set()).add(t)
    pairs = set()
    for ts in map(sorted, by_weight.values()):
        pairs.update(zip(ts, ts[1:]))
    min_gap = min((abs(lam[b] - lam[a]) for a, b in pairs), default=None)
    if min_gap is None:
        sep_note = "no weight holds two T values"
    elif float(min_gap) <= tolerance:
        sep_note = "degenerate eigenvalues at this q"
    else:
        sep_note = f"min eigenvalue gap {float(min_gap):.3e}"
    reports.append(CheckReport(
        "casimir-separation", True, 0.0, tolerance, "", len(by_weight),
        sep_note))
    return reports


def check_norm_recursions(sig: Signature, q,
                          truncation: Truncation) -> CheckReport:
    """Closed-form norms equal their iterated recursions, exactly.

    Runs in exact rational arithmetic (q must be rational).  Covers the
    window's multiplets: the U norms over 0 <= k <= f1-f2 and
    0 <= ell <= ell_max, the T norms over 0 <= p <= f1-f2 and
    0 <= s <= s_max.
    """
    ctx = EvalContext.exact(q)
    kmax = sig.f1 - sig.f2
    cases = ([(f"u-norm k={k} ell={ell}", norm_u_sq(ctx, sig, k, ell),
               norm_u_sq_stepwise(ctx, sig, k, ell))
              for k in range(kmax + 1)
              for ell in range(truncation.ell_max + 1)]
             + [(f"t-norm s={s} p={p}", norm_t_sq(ctx, sig, s, p),
                 norm_t_sq_stepwise(ctx, sig, s, p))
                for p in range(kmax + 1)
                for s in range(truncation.s_max + 1)])
    bad = [where for where, closed, stepwise in cases if closed != stepwise]
    return CheckReport("norm-recursions", not bad, float(len(bad)), 0.0,
                       bad[0] if bad else "", len(cases), f"exact at q={q}")


def complete_blocks(fctx: EvalContext, sig: Signature,
                    truncation: Truncation) -> Dict[Weight, FixedBlock]:
    """Weyl blocks of all weights whose label sets fit the truncation.

    Each entry is the bracket weyl_block evaluates, form a of
    weylracah.weyl_via_racah (_bracket_args on weylracah._racah_form_exact),
    rounded once to fctx's fixed-point scale straight from the evaluator's
    unreduced integers (qarith.fixed_root): so it is to_fixed of the exact
    entry, with no Fraction formed.
    """
    ints, bits = fctx.ints, fctx.fixed_bits()

    def fixed(ukey, tkey) -> int:
        sign, root_num, root_den, rest = _racah_form_exact(
            ints, *_bracket_args(sig, ukey, tkey))
        return fixed_root(sign, root_num * root_num * rest,
                          root_den * root_den, bits)

    weights = sorted({_u_weight(sig, key)
                      for key in _u_keys(sig, truncation.ell_max)})
    out: Dict[Weight, FixedBlock] = {}
    for w in weights:
        ukeys = _u_keys_at_weight(sig, w)
        if not all(ell <= truncation.ell_max for _, ell, _ in ukeys):
            continue
        tkeys = _t_keys_at_weight(sig, w)
        if not all(key[0] <= truncation.s_max
                   and _t_depth(sig, key) <= truncation.depth
                   for key in tkeys):
            continue
        out[w] = FixedBlock(w, tuple(_u_label_at(sig, k) for k in ukeys),
                            tuple(_t_label_at(sig, k) for k in tkeys),
                            tuple(tuple(fixed(u, t) for t in tkeys)
                                  for u in ukeys),
                            bits)
    return out


def check_weyl_orthogonality(blocks: Dict[Weight, FixedBlock],
                             tolerance: float = 1e-10) -> CheckReport:
    """max |B^T B - I| and |B B^T - I| over the blocks of complete_blocks.

    Both products are symmetric and summed exactly, so each pair i <= j is
    measured once.
    """
    bits = 2 * next(iter(blocks.values())).bits if blocks else 0
    one = 1 << bits

    def residuals():
        for w, blk in sorted(blocks.items()):
            rows = blk.entries
            cols = tuple(zip(*rows))
            n = len(rows)
            for i in range(n):
                for j in range(i, n):
                    col = sum(map(operator.mul, cols[i], cols[j]))
                    row = sum(map(operator.mul, rows[i], rows[j]))
                    if i == j:
                        col, row = col - one, row - one
                    yield max(abs(col), abs(row)), (w, i, j)

    return _report("weyl-orthogonality", _largest(residuals()),
                   lambda w, i, j: f"weight={w} pair=({i},{j})",
                   len(blocks), tolerance, bits=bits)


def _block_lines(rep: TruncatedRep, blocks: Dict[Weight, FixedBlock]):
    """(where, line) of rep's labels in the blocks, found by integer key.

    where[w] lists the rep indices of block w's labels in rep's basis, in
    the block's order, and line[i] is rep index i's line of its block W: its
    row (U basis) or its column (T basis).
    """
    u = rep.basis == "u"
    key_of = _u_key if u else _t_key
    index = {key: i for i, key in enumerate(rep.keys)}
    where: Dict[Weight, List[int]] = {}
    line: Dict[int, tuple] = {}
    for w, blk in blocks.items():
        where[w] = idx = [index[key_of(l)] for l in
                          (blk.u_labels if u else blk.t_labels)]
        line.update(zip(idx, blk.entries if u else zip(*blk.entries)))
    return where, line


def _line_sums(m: Entries, line: Dict[int, tuple],
               by_col: bool) -> Dict[int, List[int]]:
    """out[i] = sum of v line[j] over the stored entries v at (i, j) of m
    (at (j, i) if by_col) where both i and j have block lines; an exact int
    sum."""
    out: Dict[int, List[int]] = {}
    get = out.get
    for (i, j), v in m.items():
        if by_col:
            i, j = j, i
        x = line.get(j)
        if x is not None and i in line:
            cur = get(i)
            out[i] = ([v * y for y in x] if cur is None
                      else [c + v * y for c, y in zip(cur, x)])
    return out


def _intertwiner_residuals(mw: Dict[int, List[int]],
                           wm: Dict[int, List[int]], u2_idx: List[int],
                           t_idx: List[int]) -> Tuple[int, int]:
    """The first largest |entry|, in row-major order, of one block pair's
    M_U W - W' M_T, W the block at the source weight and W' the one at the
    target weight, and its place r * len(t_idx) + c (U row r, T col c).

    mw and wm are the generator's _line_sums: mw[i] is row i of M_U W (rep
    row i, a U label of W') and wm[j] column j of W' M_T (rep column j, a T
    label of W); a missing one is 0.  u2_idx and t_idx are the rep indices
    of the U labels of W' and the T labels of W.  Each entry is an exact int
    sum, on the scale of a rep entry times a block entry.
    """
    rows = [mw.get(i) or [0] * len(t_idx) for i in u2_idx]
    cols = [wm.get(j) or [0] * len(u2_idx) for j in t_idx]
    flat = itertools.chain.from_iterable
    mags = list(map(abs, map(operator.sub, flat(rows), flat(zip(*cols)))))
    mag = max(mags)
    return mag, mags.index(mag)


def check_intertwiner(blocks: Dict[Weight, FixedBlock],
                      reps: Dict[str, TruncatedRep],
                      tolerance: float = 1e-10) -> CheckReport:
    """M_U(g) W(w) = W(w + shift) M_T(g) on complete block pairs.

    blocks are from complete_blocks; M_U(g) and M_T(g) are the float rep
    matrices reps["u"] and reps["t"], where a flip_entry fault shows.  As
    weyl-orthogonality checks that W is orthogonal, this is the conjugated
    W(w + shift)^T M_U(g) W(w) = M_T(g).  A11, A22 and A33 are skipped: both
    sides are the same product m W (conjugated, they repeat orthogonality).
    Each block label is found in its rep by its integer key.  Per generator,
    each row of M_U(g) W and each column of W' M_T(g) is summed once, from
    the stored entries of M_U(g) and M_T(g) (at most two per row and per
    column), and kept only while that generator's pairs are checked; each
    pair then gives its own largest residual.  A violation is at
    (generator, source weight, row=U label, col=T label), the first largest
    in the order of generators, source weights, rows and cols.
    """
    (u_where, u_line), (t_where, t_line) = (
        _block_lines(reps[b], blocks) for b in ("u", "t"))
    worst, at, npairs = 0, None, 0
    for g in GENERATORS:
        shift = WEIGHT_SHIFTS[g]
        if not any(shift):
            continue
        mw = _line_sums(reps["u"].matrices[g], u_line, False)
        wm = _line_sums(reps["t"].matrices[g], t_line, True)
        for w, blk in sorted(blocks.items()):
            blk2 = blocks.get(Weight(*map(operator.add, w, shift)))
            if blk2 is None:
                continue
            npairs += 1
            t_idx = t_where[w]
            mag, k = _intertwiner_residuals(mw, wm, u_where[blk2.weight],
                                            t_idx)
            if mag > worst:
                r, c = divmod(k, len(t_idx))
                worst, at = mag, (g, w, blk2.u_labels[r], blk.t_labels[c])
    bits = reps["u"].bits + next(iter(blocks.values())).bits if blocks else 0
    return _report("intertwiner", (worst, at), lambda g, w, row, col:
                   f"generator={g} weight={w} row={row} col={col}",
                   npairs, tolerance, bits=bits)


def _chain(step: Dict[int, Tuple[int, int]], j: int, steps: int):
    """(product of `steps` ladder factors from column j, on the scale steps
    * bits, end column), with step column -> (row, factor) of A23 or A32;
    None once T+ leaves the window or T- hits the multiplet floor."""
    coeff = 1
    for _ in range(steps):
        if j not in step:
            return None
        j, v = step[j]
        coeff *= v
    return coeff, j


def check_projector(rep: TruncatedRep, t_values: Iterable,
                    tolerance: float = 1e-10) -> List[CheckReport]:
    """Extremal projector identities on the T0 = T+1 subspace, for each
    spin T of t_values in turn.

    P = sum_r c_r T+^r T-^r with c_r = projector_t_coeff.  rep is a float
    T-basis rep, and every T+ or T- factor is its stored A23 or A32 entry,
    so the identities test the T table's ladder rows.  c_r is exact and
    each term c_r T+^r T-^r is rounded once; the eigenvalues and the norms
    are rounded once to the rep's fixed-point scale, and every residual is
    exact on those inputs.  On the span of the rep's labels with M = T+1
    the following are checked:

    * P equals the diagonal picking out spin-T labels (kills T' < T,
      fixes T' = T), hence P^2 = P and P on the (T, T+1) vector is 1;
    * T- P = 0 column by column;
    * P equals the spectral projector onto the Casimir eigenvalue
      [T + 1/2]^2, interpolated over the spins present and evaluated at
      C2 = T- T+ + [M + 1/2]^2, which is read from the rep's own ladder
      entries (one up-step and one down-step), on the columns that have an
      up-step (skipped with a note when eigenvalues degenerate at this q);
    * P T-^x T+^x P = (-1)^x N^2(T, T+1+x) P for 1 <= x <= depth, each
      residual divided by N^2(T, T+1+x); a column at M = T+1 rises depth
      steps and stays inside the window.

    Every report keeps its first largest residual where it forms it.  The
    spectral residuals are ints on their common denominator, and the power
    residuals, each over its own N^2, are compared by cross-multiplication;
    each forms one Fraction, for its largest residual.
    """
    if rep.basis != "t":
        raise ValueError("check_projector needs a T-basis rep")
    if rep.ctx.is_exact():
        raise ValueError("projector checks run in floating mode")
    # T+ and T- only move M inside one (s, p) multiplet, so each column of
    # A23 and A32 holds at most one entry: column -> (row, factor)
    up_step = {j: (i, v) for (i, j), v in rep.matrices["A23"].items()}
    down_step = {j: (i, v) for (i, j), v in rep.matrices["A32"].items()}
    return [report for t in t_values for report in _projector_reports(
        rep, up_step, down_step, Fraction(t), tolerance)]


def _projector_reports(rep: TruncatedRep, up_step, down_step, T: Fraction,
                       tol: float) -> List[CheckReport]:
    """check_projector's reports for the one spin T, on rep's ladders."""
    two_t = int(2 * T)
    # the columns at M = T + 1, by their keys (s, p, 2M)
    cols = [j for j, (_, _, m) in enumerate(rep.keys) if m == two_t + 2]
    if not cols:
        return [CheckReport("projector", True, 0.0, tol, "", 0,
                            f"T={T}: no coverage")]
    labels, spins = rep.labels, rep.spins
    ctx, fix, bits = rep.ctx, rep.ctx.to_fixed, rep.bits

    # P's scale: c_r T+^r T-^r is rounded on (2r + 1) bits, aligned at r = 2T
    top = (2 * two_t + 1) * bits
    coeffs = [projector_t_coeff(ctx, T, r) for r in range(two_t + 1)]

    def p_diag(j: int) -> int:
        """P on column j, a scalar: P is diagonal within each multiplet here.

        Each term is c_r times the exact product of its ladder factors,
        rounded once, so c_r's own rounding does not scale with that product.
        """
        total = 0
        for r, c in enumerate(coeffs):
            down = _chain(down_step, j, r)
            if down is None:
                continue
            up, _ = _chain(up_step, down[1], r)
            total += fix(c * (up * down[0])) << (2 * (two_t - r) * bits)
        return total

    p = {j: p_diag(j) for j in cols}
    at_col = lambda j: f"T={T} col={labels[j]}"
    one = 1 << top
    reports = [_report(
        f"projector-diagonal-T{T}",
        _largest((abs(p[j] - (one if spins[j] == two_t else 0)), (j,))
                 for j in cols),
        at_col, len(cols), tol, bits=top)]

    # T- P = 0: P column is diag scalar, then one lowering step
    lowered = ((j, _chain(down_step, j, 1)) for j in cols)
    reports.append(_report(
        f"projector-annihilation-T{T}",
        _largest((abs(p[j] * down[0]), (j,))
                 for j, down in lowered if down is not None),
        at_col, len(cols), tol, bits=top + bits))

    # leading coefficient is 1 (r = 0 term)
    c0 = abs(fix(coeffs[0]) - (1 << bits)) / (1 << bits)
    reports.append(CheckReport(f"projector-leading-T{T}", c0 <= tol, c0, tol,
                               "r=0", 1))

    # spectral projector: interpolate over the distinct 2T' present, and
    # evaluate at C2 = T- T+ + [M + 1/2]^2 read from the ladder entries
    tprimes = sorted({spins[j] for j in cols})
    lam = {tp: casimir_su11_eigenvalue(ctx, Fraction(tp, 2))
           for tp in set(tprimes) | {two_t}}
    risen = [(j, up) for j in cols
             if (up := _chain(up_step, j, 1)) is not None]
    degenerate = any(
        abs(lam[a] - lam[b]) <= tol
        for i, a in enumerate(tprimes) for b in tprimes[i + 1:])
    if degenerate:
        reports.append(CheckReport(f"projector-spectral-T{T}", True, 0.0, tol,
                                   "", len(risen),
                                   "degenerate Casimir eigenvalues, skipped"))
    else:
        # [M + 1/2]^2 at M = T + 1, and each eigenvalue, on the scale 2 bits
        m_sq = fix(ctx.qbracket_half_sq(2 * T + 3)) << bits
        lam_fix = {tp: fix(v) for tp, v in lam.items()}
        others = [tp for tp in tprimes if tp != two_t]
        # the interpolation's denominator, on the scale len(others) * bits
        den = math.prod(lam_fix[two_t] - lam_fix[tp] for tp in others)
        # |P_jj - num_j / (den 2^(len(others) bits))|, P_jj = p[j] 2^-top,
        # times their common denominator |den| 2^(top + len(others) bits)
        p_scale = den << len(others) * bits

        def spectral(j, up) -> int:
            c2 = _chain(down_step, up[1], 1)[0] * up[0] + m_sq
            num = math.prod(c2 - (lam_fix[tp] << bits) for tp in others)
            return abs(p[j] * p_scale - (num << top))

        worst, at = _largest((spectral(j, up), (j,)) for j, up in risen)
        reports.append(_report(
            f"projector-spectral-T{T}",
            (Fraction(worst, abs(p_scale) << top), at),
            at_col, len(risen), tol))

    # P T-^x T+^x P = (-1)^x N^2(T, T+1+x) P on the subspace, relative to
    # N^2, which grows past 1e80 within the window
    # N^2(T, T+1+x), rounded once per x, on the scale 2x bits
    n2s = {x: fix(norm_su11_sq(ctx, T, T + 1 + x)) << (2 * x - 1) * bits
           for x in range(1, rep.truncation.depth + 1)}
    # each residual |lhs - (-1)^x n2| / n2 compared by cross-multiplication
    worst, worst_n2, at, npower = 0, 1, None, 0
    for j in cols:
        if spins[j] != two_t:
            continue
        for x in range(1, rep.truncation.depth + 1):
            up = _chain(up_step, j, x)
            lhs = _chain(down_step, up[1], x)[0] * up[0]    # scale 2x bits
            n2 = n2s[x]
            mag = abs(lhs - (-n2 if x % 2 else n2))
            npower += 1
            if mag * worst_n2 > worst * n2:
                worst, worst_n2, at = mag, n2, (x, j)
    reports.append(_report(f"projector-power-T{T}",
                           (Fraction(worst, worst_n2), at),
                           lambda x, j: f"T={T} x={x} col={labels[j]}",
                           npower, tol))
    return reports


DEFAULT_CHECKS = ("su11", "hermiticity", "casimir", "norms",
                  "orthogonality", "intertwiner", "projector")

# run_all_checks checks the projector identities for spins T <= this cap
PROJECTOR_T_CAP = Fraction(4)


def run_all_checks(sig: Signature, q, mode: str = "float",
                   truncation: Optional[Truncation] = None,
                   tolerance: float = 1e-10, precision: int = 50,
                   flip_entry: Optional[str] = None,
                   checks: Optional[Sequence[str]] = None) -> List[CheckReport]:
    """Run the whole suite; returns reports in a deterministic order.

    mode 'exact' runs the su11, Casimir and norm checks in exact rational
    arithmetic, on an exact T rep whose rounding is the float T rep; matrix
    checks that need square roots always run in fixed point at the given
    precision.  An unknown check or flip_entry, or a tolerance that is not
    finite and positive, raises ValueError before anything is built.  Once
    the reps are built, a tolerance below rounding_bound of their entries
    raises ValueError before any check runs, unless only the exact norm
    check was asked for.
    """
    if not 0 < tolerance < float("inf"):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    trunc = truncation or Truncation(6, 6, 6)
    wanted = set(checks or DEFAULT_CHECKS)
    unknown = wanted - set(DEFAULT_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    _check_flip_entry(flip_entry)
    fctx = EvalContext.floating(q, precision=precision)
    exact_t = mode == "exact" and bool(wanted & {"su11", "casimir"})
    reps: Dict[str, TruncatedRep] = {}
    if exact_t:
        reps["t-exact"] = TruncatedRep(EvalContext.exact(q), sig, "t", trunc,
                                       flip_entry=flip_entry)
    if wanted & {"su11", "hermiticity", "casimir", "intertwiner"}:
        bases = ("u", "t")
    else:
        bases = ("t",) if "projector" in wanted else ()
    for b in bases:
        reps[b] = (reps["t-exact"].rounded(fctx) if b == "t" and exact_t
                   else TruncatedRep(fctx, sig, b, trunc,
                                     flip_entry=flip_entry))
    if wanted - {"norms"}:
        bound = rounding_bound(fctx, [reps[b] for b in bases])
        if tolerance < bound:
            raise ValueError(
                f"tolerance {tolerance:g} is below {bound:.1e}, the rounding "
                f"bound of {precision}-digit fixed-point arithmetic on these "
                f"entries; raise the precision or the tolerance")
    reports: List[CheckReport] = []
    if "su11" in wanted:
        reports += check_su11_relations(reps["t-exact" if exact_t else "t"],
                                        tolerance)
        reports += check_su11_relations(reps["u"], tolerance)
    if "hermiticity" in wanted:
        reports += check_hermiticity(reps["u"], tolerance)
        reports += check_hermiticity(reps["t"], tolerance)
    if "casimir" in wanted:
        reports += check_casimir(reps["t-exact" if exact_t else "t"],
                                 tolerance)
    if "norms" in wanted:
        reports.append(check_norm_recursions(sig, q, trunc))
    if wanted & {"orthogonality", "intertwiner"}:
        blocks = complete_blocks(fctx, sig, trunc)
    if "orthogonality" in wanted:
        reports.append(check_weyl_orthogonality(blocks, tolerance))
    if "intertwiner" in wanted:
        reports.append(check_intertwiner(blocks, reps, tolerance))
    if "projector" in wanted:
        lowest = sig.f2 - sig.f3 - 2
        reports += check_projector(
            reps["t"], [Fraction(two_t, 2) for two_t in
                        range(lowest, int(2 * PROJECTOR_T_CAP) + 1)], tolerance)
    return reports

