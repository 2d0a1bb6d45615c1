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

Truncation discipline: an identity of degree d in the generators is asserted
only on columns whose images under up to d successive generator applications
stay inside the truncation (interior masks, computed for d <= 2).  Checks on
an empty interior pass vacuously and say so in their report.

Every check takes built inputs (reps from TruncatedRep, blocks from
complete_blocks) and returns reports; none builds its own.  Residuals are
measured in _report only: it keeps the first largest magnitude and its
location, and marks a check with no columns vacuous.

One pass: each TruncatedRep visits each of its labels once.  repspace reads
the label's integer key (k, ell, 2MU) or (s, p, 2M), enumerated and so not
checked again, and gives its weight; the key is turned into its table
environment once; one call of generators._key_action, which checks every
target, gives the terms of the six off-diagonal generators, and targets are
looked up by key; the three diagonal ones are the weights.  Each build keeps
one memo of the table rows it met, keyed by (sign, q-power, bracket
arguments), so each distinct row is evaluated once.  Each matrix is filled
column by column, each column's terms in sort_key order.

Fixed point: in float mode every rep entry and every complete Weyl block
entry is an int n that stands for n 2^-F, with one scale F for the whole
run: the float context's working bits plus qarith._GUARD_BITS
(EvalContext.fixed_bits), so F follows from the precision.  Each entry is
its exact value, formed in integers and rounded once (qarith.fixed_root),
and each scalar a check needs (a weight, a bracket, an eigenvalue, a
coefficient) is an exact rational rounded once, but for the projector's c_r,
whose terms c_r T+^r T-^r are rounded once; a q given as a float or an mpf
is read as the exact rational it is.  The checks then add and
multiply ints only, exactly: a product's scale is the sum of its factors'
scales, a multiple of F; _mat_lin aligns its terms by exact left shifts; and
_report converts the largest magnitude to a float once.  So each residual is
the exact residual of inputs that were each rounded once, and
rounding_bound bounds it a priori; run_all_checks refuses a tolerance below
that bound.  Exact mode keeps SignedRadical entries and exact sums
(SignedRadical.add_exact).

run_all_checks builds each object once.  The float U and T reps serve
the su11, hermiticity and Casimir checks and the intertwiner, which
compares the sparse products M_U(g) W and W' M_T(g) on the complete Weyl
blocks (these also serve orthogonality); the float T rep also serves the
projector check, which reads its T+- ladder factors from A23 and A32.  In
exact mode the float T rep is the exact T rep with each radical rounded
(TruncatedRep.rounded), so the T basis is built once.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

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
from .qarith import EvalContext, SignedRadical
from .repspace import (
    Signature,
    Weight,
    _t_key,
    _t_weight,
    _u_key,
    _u_weight,
    enumerate_t_basis,
    enumerate_u_basis,
    t_labels_at_weight,
    u_labels_at_weight,
)
from .weylracah import WeylBlock, weyl_block

# (row, col) -> entry: in float mode the int n of n 2^-bits, in exact mode a
# SignedRadical
Entry = Union[int, SignedRadical]
Entries = Dict[Tuple[int, int], Entry]


@dataclass(frozen=True)
class Truncation:
    """Basis bounds: ell_max for the U basis, s_max and depth for the T basis."""

    ell_max: int
    s_max: int
    depth: int

    def __post_init__(self):
        for name in ("ell_max", "s_max", "depth"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check.

    max_residual is the largest absolute deviation found (0.0 for exact
    checks that hold identically); location describes where it occurred.
    A float-mode residual is exact on the rounded inputs, summed in fixed
    point, and converted to a float once; an exact-mode one is an exact sum,
    rounded once for display.  Reports are deterministic given (sig,
    truncation, q, precision).
    """

    name: str
    passed: bool
    max_residual: float
    tolerance: float
    location: str
    columns_checked: int
    note: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = (f"{status:4s}  {self.name:28s} residual {self.max_residual:.3e}"
               f"  tol {self.tolerance:.1e}  cols {self.columns_checked}")
        if not self.passed or self.location:
            out += f"  at {self.location}" if self.location else ""
        if self.note:
            out += f"  [{self.note}]"
        return out


class TruncatedRep:
    """Finite window onto one basis: per-generator sparse matrices.

    matrices[g] maps (row, col) index pairs to entries: in float mode the
    int n of n 2^-bits, bits = ctx.fixed_bits(); in exact mode a
    SignedRadical, and bits is 0.  scalars is ctx.rational_context(), which
    evaluates the rational scalars the checks round to that scale.  Entries
    whose target falls outside the truncation are dropped from the matrix
    but remembered in the interior masks.  interior1[j] means every
    generator image of column j stays inside; interior2[j] additionally
    requires that of every image of an image (two-step words).
    """

    def __init__(self, ctx: EvalContext, sig: Signature, basis: str,
                 truncation: Truncation, flip_entry: Optional[str] = None):
        if basis not in ("u", "t"):
            raise ValueError(f"basis must be 'u' or 't', got {basis!r}")
        _check_flip_entry(flip_entry)
        self.ctx = ctx
        self.bits = 0 if ctx.is_exact() else ctx.fixed_bits()
        self.scalars = ctx.rational_context()
        self.sig = sig
        self.basis = basis
        self.truncation = truncation
        if basis == "u":
            labels = enumerate_u_basis(sig, truncation.ell_max)
            key_of, weight_of = _u_key, _u_weight
        else:
            labels = enumerate_t_basis(sig, truncation.s_max, truncation.depth)
            key_of, weight_of = _t_key, _t_weight
        self.labels = tuple(labels)
        self.index = {l: i for i, l in enumerate(self.labels)}
        keys = [key_of(l) for l in self.labels]
        self.weights = tuple(weight_of(sig, key) for key in keys)
        key_index = {key: i for i, key in enumerate(keys)}
        self.matrices: Dict[str, Entries] = {g: {} for g in GENERATORS}
        mats = [self.matrices[g] for g in _OFF_DIAGONAL]
        n = len(self.labels)
        stays_in = [True] * n
        reach: List[set] = [set() for _ in range(n)]
        # this build's memo: each distinct row is evaluated once
        values = _RowValues(_rep_entry(ctx))
        for j, key in enumerate(keys):
            actions = _key_action(sig, basis, key, _OFF_DIAGONAL, values,
                                  flip_entry)
            for m, terms in zip(mats, actions):
                for tgt, coeff in terms:
                    i = key_index.get(tgt)
                    if i is None:
                        stays_in[j] = False
                        continue
                    reach[j].add(i)
                    m[(i, j)] = coeff
        for g, c in _DIAGONAL.items():
            self.matrices[g] = self.diagonal(w[c] for w in self.weights)
        self.interior1 = tuple(stays_in)
        self.interior2 = tuple(
            stays_in[j] and all(stays_in[i] for i in reach[j])
            for j in range(n))

    def diagonal(self, values) -> Entries:
        """Diagonal matrix of one scalar per label, in the rep's entry type.

        Each value is a rational, as self.scalars gives it: wrapped exactly
        in exact mode, rounded once to the fixed-point scale in float mode.
        """
        if self.ctx.is_exact():
            values = map(SignedRadical.from_rational, values)
        else:
            values = map(self.ctx.to_fixed, values)
        return {(j, j): v for j, v in enumerate(values)}

    def diagonal_weight_bracket(self) -> Entries:
        """Diagonal matrix of [m2 - m3] per label (the [2 T0] operator)."""
        return self.diagonal(self.scalars.qnum(w.m2 - w.m3)
                             for w in self.weights)

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
        twin.scalars = fctx.rational_context()
        twin.matrices = {g: {k: v.to_fixed(fctx) for k, v in m.items()}
                         for g, m in self.matrices.items()}
        return twin


@dataclass(frozen=True)
class FixedBlock(WeylBlock):
    """A complete Weyl block whose entries[i][j] is the int n of n 2^-bits."""

    bits: int


# ----------------------------------------------------------------------------
# sparse helpers (plain dicts of fixed-point ints that carry their scale, or
# of SignedRadicals in exact mode)
# ----------------------------------------------------------------------------


class _Mat(NamedTuple):
    """Sparse entries and their scale: an int n stands for n 2^-bits.

    The scale of a product is the sum of its factors' scales.  Exact-mode
    entries are SignedRadicals, and bits is 0 throughout.
    """

    entries: Entries
    bits: int


def _mat(rep: TruncatedRep, g: str) -> _Mat:
    return _Mat(rep.matrices[g], rep.bits)


def _diag(rep: TruncatedRep, values) -> _Mat:
    return _Mat(rep.diagonal(values), rep.bits)


def _adder(ctx: EvalContext):
    """Entry addition: int +, or SignedRadical.add_exact in exact mode."""
    return (lambda x, y: x.add_exact(y, ctx)) if ctx.is_exact() else operator.add


def _mat_mul(ctx: EvalContext, a: _Mat, b: _Mat) -> _Mat:
    """Sparse product a b."""
    add = _adder(ctx)
    rows_of_a: Dict[int, List[Tuple[int, Entry]]] = {}
    for (i, k), v in a.entries.items():
        rows_of_a.setdefault(k, []).append((i, v))
    out: Entries = {}
    for (k, j), bv in b.entries.items():
        for i, av in rows_of_a.get(k, ()):
            key = (i, j)
            cur = out.get(key)
            out[key] = av * bv if cur is None else add(cur, av * bv)
    return _Mat(out, a.bits + b.bits)


def _mat_transpose(a: _Mat) -> _Mat:
    return _Mat({(j, i): v for (i, j), v in a.entries.items()}, a.bits)


def _mat_times(c: int, bits: int, a: _Mat) -> _Mat:
    """c 2^-bits times a (float mode)."""
    return _Mat({k: c * v for k, v in a.entries.items()}, bits + a.bits)


def _mat_lin(ctx: EvalContext, terms: Sequence[Tuple[int, _Mat]]) -> _Mat:
    """Sum of sign * a over terms (sign +1 or -1), exactly.

    The sum takes the largest scale among the terms; each term at a smaller
    scale is aligned to it by an exact left shift.
    """
    add = _adder(ctx)
    bits = max(a.bits for _, a in terms)
    out: Entries = {}
    for sign, (entries, a_bits) in terms:
        shift = bits - a_bits
        if shift:
            entries = {k: sign * v << shift for k, v in entries.items()}
        elif sign < 0:
            entries = {k: -v for k, v in entries.items()}
        for key, v in entries.items():
            cur = out.get(key)
            out[key] = v if cur is None else add(cur, v)
    return _Mat(out, bits)


def _report(name: str,
            residuals: Iterable[Tuple[Union[int, Fraction], tuple]],
            locate: Callable[..., str], ncols: int, tol: float,
            note: str = "", bits: int = 0) -> CheckReport:
    """One check's report from its (magnitude, key) residual pairs.

    A magnitude is an int n of n 2^-bits, or an exact Fraction (bits 0);
    the largest is converted to a float once.  Keeps the first strict
    maximum, so an all-zero residual has no location, and formats the
    location of that one pair only, as locate(*key).  A check with no
    columns passes vacuously with the note 'no coverage'.
    """
    if ncols == 0:
        note = (note + "; " if note else "") + "no coverage"
        return CheckReport(name, True, 0.0, tol, "", 0, note)
    worst, worst_key = 0, None
    for mag, key in residuals:
        if mag > worst:
            worst, worst_key = mag, key
    residual = float(worst / (1 << bits))
    where = "" if worst_key is None else locate(*worst_key)
    return CheckReport(name, residual <= tol, residual, tol, where, ncols, note)


def _matrix_report(name: str, rep: TruncatedRep, m: _Mat, tol: float,
                   columns: Optional[Sequence[bool]] = None,
                   note: str = "") -> CheckReport:
    """_report over a sparse residual matrix, on the columns marked True.

    Exact-mode entries are SignedRadicals: exact zeros are skipped and every
    other entry is rounded once to the fixed-point scale of the float
    companion context.
    """
    entries, bits = m
    if rep.ctx.is_exact():
        fctx = rep.ctx.as_float()
        entries = {k: v.to_fixed(fctx) for k, v in entries.items()
                   if not v.is_zero()}
        bits = fctx.fixed_bits()
    labels = rep.labels
    residuals = ((abs(v), (i, j)) for (i, j), v in sorted(entries.items())
                 if columns is None or columns[j])
    ncols = len(labels) if columns is None else sum(columns)
    return _report(name, residuals,
                   lambda i, j: f"row={labels[i]} col={labels[j]}",
                   ncols, tol, note, bits)


def rounding_bound(fctx: EvalContext, reps: Sequence[TruncatedRep]) -> float:
    """A priori bound on the fault-free float-mode residuals: 16 A^2 2^-F.

    F = fctx.fixed_bits() is the fixed-point scale of the float reps, and
    A = max(1, M, q^2, q^-2), M being the largest magnitude of their
    entries; q^2 and q^-2 bound the hermiticity coefficients q^2, q^2 - 1
    and q - 1/q, and a Weyl block entry is at most 1.  Every input the
    kernels read (an entry, a diagonal value, a coefficient) is its exact
    value at the exact rational q rounded once, off by at most u/2 with
    u = 2^-F, and every sum and product after that is exact.  Each row and
    column of a generator matrix holds at most two entries, so a residual
    entry of su11, the Casimir or the intertwiner sums at most four
    products of two inputs and two single inputs: each product is off by at
    most A u + u^2/4.  A hermiticity residual sums at most four products of
    three inputs and three of at most two: a product of three is off by at
    most 3 A^2 u/2 + O(u^2), so the form agreement, the largest, is off by
    at most 6 A^2 u + A u + u/2 + O(u^2).  Orthogonality sums n products of
    block entries, off by at most (sqrt(n) + 1) u, below the bound for n up
    to 225.  The projector rounds each term c_r T+^r T-^r once, from c_r
    and the exact product of its rounded ladder factors; a ladder factor is
    at least 1, so the term is off by at most r u times its size plus that
    one rounding.  The size of those terms is not bounded here, so for the
    projector's reports the bound is confirmed by the tests (at desk and
    large scale, and over small windows) rather than derived.
    """
    bits = fctx.fixed_bits()
    q2 = fctx.rational_context().qpow(2)
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
    note = "exact" if ctx.is_exact() else ""
    t0 = _diag(rep, (Fraction(w.m2 - w.m3, 2) for w in rep.weights))
    tp, tm = _mat(rep, "A23"), _mat(rep, "A32")
    residuals = [
        ("raising", _mat_lin(ctx, [(1, _mat_mul(ctx, t0, tp)),
                                   (-1, _mat_mul(ctx, tp, t0)), (-1, tp)]),
         None),
        ("lowering", _mat_lin(ctx, [(1, _mat_mul(ctx, t0, tm)),
                                    (-1, _mat_mul(ctx, tm, t0)), (1, tm)]),
         None),
        ("commutator", _mat_lin(ctx, [
            (1, _mat_mul(ctx, tp, tm)), (-1, _mat_mul(ctx, tm, tp)),
            (-1, _Mat(rep.diagonal_weight_bracket(), rep.bits))]),
         rep.interior2)]
    return [_matrix_report(f"su11-{kind}-{rep.basis}", rep, r, tolerance, cols,
                           note) for kind, r, cols in residuals]


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
    sc, fix, bits = rep.scalars, ctx.to_fixed, rep.bits
    q2 = sc.qpow(2)
    qq, q2, q2m1 = fix(sc.qpow(1) - sc.qpow(-1)), fix(q2), fix(q2 - 1)
    a13t = _mat_transpose(_mat(rep, "A13"))
    a21, a31, a32 = _mat(rep, "A21"), _mat(rep, "A31"), _mat(rep, "A32")
    form1 = _mat_lin(ctx, [(1, a13t), (1, a31),
                           (-1, _mat_times(qq, bits, _mat_mul(ctx, a21, a32)))])
    form2 = _mat_lin(ctx, [(1, a13t), (1, _mat_times(q2, bits, a31)),
                           (-1, _mat_times(q2m1, bits,
                                           _mat_mul(ctx, a32, a21)))])
    inner = rep.interior2
    residuals = [
        ("compact", _mat_lin(ctx, [(1, _mat_transpose(_mat(rep, "A12"))),
                                   (-1, a21)]), None),
        ("noncompact", _mat_lin(ctx, [(1, _mat_transpose(_mat(rep, "A23"))),
                                      (1, a32)]), None),
        ("a13-first", form1, inner), ("a13-second", form2, inner),
        ("form-agreement", _mat_lin(ctx, [(1, form1), (-1, form2)]), inner)]
    return [_matrix_report(f"herm-{kind}-{rep.basis}", rep, r, tolerance, cols)
            for kind, r, cols in residuals]


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
    ctx, sc = rep.ctx, rep.scalars
    tp, tm = _mat(rep, "A23"), _mat(rep, "A32")
    labels = rep.labels
    cols_ok = [lab.depth() < rep.truncation.depth for lab in labels]
    # each distinct 2M + 1 and T is evaluated once
    m_sq = {m: sc.qbracket_half_sq(m) for m in {2 * l.M + 1 for l in labels}}
    lam = {t: casimir_su11_eigenvalue(sc, t) for t in {l.T for l in labels}}
    c2 = _mat_lin(ctx, [
        (1, _mat_mul(ctx, tm, tp)),
        (1, _diag(rep, (m_sq[2 * lab.M + 1] for lab in labels))),
        (-1, _diag(rep, (lam[lab.T] for lab in labels)))])
    reports = [_matrix_report("casimir-eigenvalue", rep, c2, tolerance,
                              cols_ok, "exact" if ctx.is_exact() else "")]

    # eigenvalue separation per weight space at this q (exact gaps at an int
    # or Fraction q)
    by_weight: Dict[Weight, set] = {}
    for lab, w in zip(labels, rep.weights):
        by_weight.setdefault(w, set()).add(lab.T)
    min_gap = None
    for w, ts in sorted(by_weight.items()):
        vals = sorted(ts)
        for i in range(len(vals) - 1):
            gap = abs(lam[vals[i + 1]] - lam[vals[i]])
            if min_gap is None or gap < min_gap:
                min_gap = gap
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

    Each block is evaluated exactly in fctx.rational_context(), and each
    entry is rounded once to fctx's fixed-point scale (EvalContext.to_fixed).
    """
    ctx, fix, bits = fctx.rational_context(), fctx.to_fixed, fctx.fixed_bits()
    weights = sorted({_u_weight(sig, _u_key(l))
                      for l in enumerate_u_basis(sig, truncation.ell_max)})
    out: Dict[Weight, FixedBlock] = {}
    for w in weights:
        us = u_labels_at_weight(sig, w)
        ts = t_labels_at_weight(sig, w)
        if not all(l.ell <= truncation.ell_max for l in us):
            continue
        if not all(l.s <= truncation.s_max
                   and l.depth() <= truncation.depth for l in ts):
            continue
        blk = weyl_block(ctx, sig, w, labels=(us, ts))
        out[w] = FixedBlock(w, blk.u_labels, blk.t_labels,
                            tuple(tuple(map(fix, row)) for row in blk.entries),
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

    return _report("weyl-orthogonality", residuals(),
                   lambda w, i, j: f"weight={w} pair=({i},{j})",
                   len(blocks), tolerance, bits=bits)


def _block_entries(m: Entries, rows, cols):
    """Stored entries of m as (r, c, value) in (r, c) order.

    rows and cols are the rep indices of block labels, and r and c index
    into them.  Every label of a complete block lies inside the window.
    """
    return [(r, c, m[(i, j)]) for r, i in enumerate(rows)
            for c, j in enumerate(cols) if (i, j) in m]


def _intertwiner_residuals(mu: Entries, mt: Entries, blk: FixedBlock,
                           blk2: FixedBlock, where):
    """(|entry|, U row, T col) of M_U W - W' M_T, W' = blk2, W = blk.

    mu and mt are the U and T rep matrices of one generator, and where[blk]
    holds the rep indices of blk's U and T labels.  Each entry is an exact
    int sum over both sparse products, on the scale of a rep entry times a
    block entry.
    """
    (u_idx, t_idx), (u2_idx, t2_idx) = where[blk.weight], where[blk2.weight]
    n = len(blk.t_labels)
    acc = [[0] * n for _ in blk2.u_labels]
    for r, c, v in _block_entries(mu, u2_idx, u_idx):
        acc[r] = [x + v * y for x, y in zip(acc[r], blk.entries[c])]
    for a, b, v in _block_entries(mt, t2_idx, t_idx):
        for row, e in zip(acc, blk2.entries):
            row[b] -= e[a] * v
    for u, row in zip(blk2.u_labels, acc):
        for t, x in zip(blk.t_labels, row):
            yield abs(x), u, t


def check_intertwiner(blocks: Dict[Weight, FixedBlock],
                      reps: Dict[str, TruncatedRep],
                      tolerance: float = 1e-10) -> CheckReport:
    """M_U(g) W(w) = W(w + shift) M_T(g) on complete block pairs.

    blocks are from complete_blocks; M_U(g) and M_T(g) are the float rep
    matrices reps["u"] and reps["t"], where a flip_entry fault shows.  As
    weyl-orthogonality checks that W is orthogonal, this is the conjugated
    W(w + shift)^T M_U(g) W(w) = M_T(g).  A11, A22 and A33 are skipped: both
    sides are the same product m W (conjugated, they repeat orthogonality).
    A violation is at (generator, source weight, row=U label, col=T label).
    """
    pairs = [(g, w, blk, blocks[w2]) for g in GENERATORS
             if any(WEIGHT_SHIFTS[g]) for w, blk in sorted(blocks.items())
             if (w2 := Weight(*map(operator.add, w, WEIGHT_SHIFTS[g]))) in blocks]
    bits = reps["u"].bits + pairs[0][2].bits if pairs else 0
    iu, it = reps["u"].index, reps["t"].index
    where = {w: ([iu[l] for l in blk.u_labels], [it[l] for l in blk.t_labels])
             for w, blk in blocks.items()}
    mu, mt = reps["u"].matrices, reps["t"].matrices
    residuals = ((mag, (g, w, u, t)) for g, w, blk, blk2 in pairs
                 for mag, u, t in _intertwiner_residuals(mu[g], mt[g], blk,
                                                         blk2, where))
    return _report("intertwiner", residuals, lambda g, w, row, col:
                   f"generator={g} weight={w} row={row} col={col}",
                   len(pairs), tolerance, bits=bits)


def check_projector(rep: TruncatedRep, t_value,
                    tolerance: float = 1e-10) -> List[CheckReport]:
    """Extremal projector identities on the T0 = T+1 subspace.

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
    """
    if rep.basis != "t":
        raise ValueError("check_projector needs a T-basis rep")
    if rep.ctx.is_exact():
        raise ValueError("projector checks run in floating mode")
    T = Fraction(t_value)
    tol = tolerance
    bottom = T + 1
    cols = [j for j, l in enumerate(rep.labels) if l.M == bottom]
    if not cols:
        return [CheckReport("projector", True, 0.0, tol, "", 0,
                            f"T={T}: no coverage")]
    labels = rep.labels
    sc, fix, bits = rep.scalars, rep.ctx.to_fixed, rep.bits
    # T+ and T- only move M inside one (s, p) multiplet, so each column of
    # A23 and A32 holds at most one entry: column -> (row, factor)
    up_step = {j: (i, v) for (i, j), v in rep.matrices["A23"].items()}
    down_step = {j: (i, v) for (i, j), v in rep.matrices["A32"].items()}

    def chain(step, j: int, steps: int):
        """(product of `steps` ladder factors from column j, end column).

        The product is on the scale steps * bits.  None once a factor is
        missing: T+ left the window, or T- hit the multiplet floor.
        """
        coeff = 1
        for _ in range(steps):
            if j not in step:
                return None
            j, v = step[j]
            coeff *= v
        return coeff, j

    two_t = int(2 * T)
    # P's scale: c_r T+^r T-^r is rounded on (2r + 1) bits, aligned at r = 2T
    top = (2 * two_t + 1) * bits
    coeffs = [projector_t_coeff(sc, T, r) for r in range(two_t + 1)]

    def p_diag(j: int) -> int:
        """P on column j, a scalar: P is diagonal within each multiplet here.

        Each term is c_r times the exact product of its ladder factors,
        rounded once, so c_r's own rounding does not scale with that product.
        """
        total = 0
        for r, c in enumerate(coeffs):
            down = chain(down_step, j, r)
            if down is None:
                continue
            up, _ = chain(up_step, down[1], r)
            total += fix(c * (up * down[0])) << (2 * (two_t - r) * bits)
        return total

    p = {j: p_diag(j) for j in cols}
    at_col = lambda j: f"T={T} col={labels[j]}"
    one = 1 << top
    reports = [_report(
        f"projector-diagonal-T{T}",
        ((abs(p[j] - (one if labels[j].T == T else 0)), (j,)) for j in cols),
        at_col, len(cols), tol, bits=top)]

    # T- P = 0: P column is diag scalar, then one lowering step
    lowered = ((j, chain(down_step, j, 1)) for j in cols)
    reports.append(_report(
        f"projector-annihilation-T{T}",
        ((abs(p[j] * down[0]), (j,)) for j, down in lowered if down is not None),
        at_col, len(cols), tol, bits=top + bits))

    # leading coefficient is 1 (r = 0 term)
    c0 = abs(fix(coeffs[0]) - (1 << bits)) / (1 << bits)
    reports.append(CheckReport(f"projector-leading-T{T}", c0 <= tol, c0, tol,
                               "r=0", 1))

    # spectral projector: interpolate over the distinct T' present, and
    # evaluate at C2 = T- T+ + [M + 1/2]^2 read from the ladder entries
    tprimes = sorted({labels[j].T for j in cols})
    lam = {tp: casimir_su11_eigenvalue(sc, tp) for tp in set(tprimes) | {T}}
    risen = [(j, up) for j in cols
             if (up := chain(up_step, j, 1)) is not None]
    degenerate = any(
        abs(lam[a] - lam[b]) <= tol
        for i, a in enumerate(tprimes) for b in tprimes[i + 1:])
    if degenerate:
        reports.append(CheckReport(f"projector-spectral-T{T}", True, 0.0, tol,
                                   "", len(risen),
                                   "degenerate Casimir eigenvalues, skipped"))
    else:
        # [M + 1/2]^2 at M = T + 1, and each eigenvalue, on the scale 2 bits
        m_sq = fix(sc.qbracket_half_sq(2 * T + 3)) << bits
        lam_fix = {tp: fix(v) for tp, v in lam.items()}
        others = [tp for tp in tprimes if tp != T]
        # the interpolation's denominator, on the scale len(others) * bits
        den = math.prod(lam_fix[T] - lam_fix[tp] for tp in others)

        def spectral(up) -> Fraction:
            c2 = chain(down_step, up[1], 1)[0] * up[0] + m_sq
            num = math.prod(c2 - (lam_fix[tp] << bits) for tp in others)
            return Fraction(num, den << len(others) * bits)

        reports.append(_report(
            f"projector-spectral-T{T}",
            ((abs(Fraction(p[j], one) - spectral(up)), (j,))
             for j, up in risen),
            at_col, len(risen), tol))

    # P T-^x T+^x P = (-1)^x N^2(T, T+1+x) P on the subspace, relative to
    # N^2, which grows past 1e80 within the window
    power = []
    for j in cols:
        if labels[j].T != T:
            continue
        for x in range(1, rep.truncation.depth + 1):
            up = chain(up_step, j, x)
            lhs = chain(down_step, up[1], x)[0] * up[0]    # scale 2x bits
            n2 = fix(norm_su11_sq(sc, T, T + 1 + x)) << (2 * x - 1) * bits
            power.append((Fraction(abs(lhs - (-n2 if x % 2 else n2)), n2),
                          (x, j)))
    reports.append(_report(f"projector-power-T{T}", power,
                           lambda x, j: f"T={T} x={x} col={labels[j]}",
                           len(power), tol))
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
        t = Fraction(sig.f2 - sig.f3 - 2, 2)
        while t <= PROJECTOR_T_CAP:
            reports += check_projector(reps["t"], t, tolerance)
            t += Fraction(1, 2)
    return reports

