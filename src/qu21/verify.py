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
arguments), so each distinct row is evaluated once.  At a q given as an int
or a Fraction, a float rep's entry is its exact value, formed in integers,
rounded once (qarith.rounded_root); at a float or mpf q it is the mpf
product of brackets.  Each matrix is filled column by column, each column's
terms in sort_key order, so every later sum adds in the same order.

run_all_checks builds each object once.  The float U and T reps serve
the su11, hermiticity and Casimir checks and the intertwiner, which
compares the sparse products M_U(g) W and W' M_T(g) on the complete Weyl
blocks (these also serve orthogonality); the float T rep also serves the
projector check, which reads its T+- ladder factors from A23 and A32.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
from .qarith import EvalContext, Scalar, SignedRadical
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

Entries = Dict[Tuple[int, int], Scalar]


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
    Reports are deterministic given (sig, truncation, q, precision).
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

    matrices[g] maps (row, col) index pairs to scalars; entries whose target
    falls outside the truncation are dropped from the matrix but remembered
    in the interior masks.  interior1[j] means every generator image of
    column j stays inside; interior2[j] additionally requires that of every
    image of an image (two-step words).
    """

    def __init__(self, ctx: EvalContext, sig: Signature, basis: str,
                 truncation: Truncation, flip_entry: Optional[str] = None):
        if basis not in ("u", "t"):
            raise ValueError(f"basis must be 'u' or 't', got {basis!r}")
        _check_flip_entry(flip_entry)
        self.ctx = ctx
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
            self.matrices[g] = self.diagonal(
                map(ctx.from_fraction, (w[c] for w in self.weights)))
        self.interior1 = tuple(stays_in)
        self.interior2 = tuple(
            stays_in[j] and all(stays_in[i] for i in reach[j])
            for j in range(n))

    def diagonal(self, values) -> Entries:
        """Diagonal matrix of one rational per label, in the rep's entry type."""
        if self.ctx.is_exact():
            values = map(SignedRadical.from_rational, values)
        return {(j, j): v for j, v in enumerate(values)}

    def diagonal_weight_bracket(self) -> Entries:
        """Diagonal matrix of [m2 - m3] per label (the [2 T0] operator)."""
        return self.diagonal(self.ctx.qnum(w.m2 - w.m3) for w in self.weights)


# ----------------------------------------------------------------------------
# sparse helpers (plain dicts; entries are context floats, or SignedRadicals
# in exact mode)
# ----------------------------------------------------------------------------


def _adder(ctx: EvalContext):
    """Entry addition: float +, or SignedRadical.add_exact in exact mode."""
    return (lambda x, y: x.add_exact(y, ctx)) if ctx.is_exact() else operator.add


def _mat_mul(ctx: EvalContext, a: Entries, b: Entries) -> Entries:
    """Sparse product a b."""
    add = _adder(ctx)
    rows_of_a: Dict[int, List[Tuple[int, Scalar]]] = {}
    for (i, k), v in a.items():
        rows_of_a.setdefault(k, []).append((i, v))
    out: Entries = {}
    for (k, j), bv in b.items():
        for i, av in rows_of_a.get(k, ()):
            key = (i, j)
            cur = out.get(key)
            out[key] = av * bv if cur is None else add(cur, av * bv)
    return out


def _mat_transpose(a: Entries) -> Entries:
    return {(j, i): v for (i, j), v in a.items()}


def _mat_lin(ctx: EvalContext, terms: Sequence[Tuple[Scalar, Entries]]) -> Entries:
    """Sum of c a over terms; exact-mode coefficients c are rationals."""
    add = _adder(ctx)
    out: Entries = {}
    for c, a in terms:
        if c == -1:     # v and -v are the products by 1 and -1, exactly
            a = {k: -v for k, v in a.items()}
        elif c != 1:
            c = SignedRadical.from_rational(c) if ctx.is_exact() else c
            a = {k: c * v for k, v in a.items()}
        for key, v in a.items():
            cur = out.get(key)
            out[key] = v if cur is None else add(cur, v)
    return out


def _report(name: str, residuals: Iterable[Tuple[Scalar, tuple]],
            locate: Callable[..., str], ncols: int, tol: float,
            note: str = "") -> CheckReport:
    """One check's report from its (magnitude, key) residual pairs.

    Keeps the first strict maximum, so an all-zero residual has no location,
    and formats the location of that one pair only, as locate(*key).  A
    check with no columns passes vacuously with the note 'no coverage'.
    """
    if ncols == 0:
        note = (note + "; " if note else "") + "no coverage"
        return CheckReport(name, True, 0.0, tol, "", 0, note)
    worst, worst_key = 0, None
    for mag, key in residuals:
        if mag > worst:
            worst, worst_key = mag, key
    residual = float(worst)
    where = "" if worst_key is None else locate(*worst_key)
    return CheckReport(name, residual <= tol, residual, tol, where, ncols, note)


def _matrix_report(name: str, rep: TruncatedRep, entries: Entries, tol: float,
                   columns: Optional[Sequence[bool]] = None,
                   note: str = "") -> CheckReport:
    """_report over a sparse residual matrix, on the columns marked True.

    Exact-mode entries are SignedRadicals: exact zeros are skipped and every
    other entry is measured in one float companion context.
    """
    exact = rep.ctx.is_exact()
    fctx = rep.ctx.as_float()
    labels = rep.labels
    residuals = ((abs(v.to_float(fctx) if exact else v), (i, j))
                 for (i, j), v in sorted(entries.items())
                 if (columns is None or columns[j])
                 and not (exact and v.is_zero()))
    ncols = len(labels) if columns is None else sum(columns)
    return _report(name, residuals,
                   lambda i, j: f"row={labels[i]} col={labels[j]}",
                   ncols, tol, note)


# ----------------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------------


def check_su11_relations(rep: TruncatedRep, tolerance: float = 1e-10) -> List[CheckReport]:
    """[T0, T+] = T+, [T0, T-] = -T-, [T+, T-] = [2 T0] on the rep.

    An exact-mode rep holds only if every residual entry is exactly zero;
    its reports carry the note 'exact'.
    """
    ctx = rep.ctx
    note = "exact" if ctx.is_exact() else ""
    half = ctx.from_fraction(Fraction(1, 2))
    t0 = _mat_lin(ctx, [(half, rep.matrices["A22"]),
                        (-half, rep.matrices["A33"])])
    tp, tm = rep.matrices["A23"], rep.matrices["A32"]
    one = ctx.one()
    residuals = [
        ("raising", _mat_lin(ctx, [(one, _mat_mul(ctx, t0, tp)),
                                   (-one, _mat_mul(ctx, tp, t0)), (-one, tp)]),
         None),
        ("lowering", _mat_lin(ctx, [(one, _mat_mul(ctx, t0, tm)),
                                    (-one, _mat_mul(ctx, tm, t0)), (one, tm)]),
         None),
        ("commutator", _mat_lin(ctx, [(one, _mat_mul(ctx, tp, tm)),
                                      (-one, _mat_mul(ctx, tm, tp)),
                                      (-one, rep.diagonal_weight_bracket())]),
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
    """
    ctx = rep.ctx
    if ctx.is_exact():
        raise ValueError("hermiticity checks run in floating mode")
    one = ctx.one()
    m = rep.matrices
    qq = ctx.qpow(1) - ctx.qpow(-1)
    q2 = ctx.qpow(2)
    a13t = _mat_transpose(m["A13"])
    form1 = _mat_lin(ctx, [(one, a13t), (one, m["A31"]),
                           (-qq, _mat_mul(ctx, m["A21"], m["A32"]))])
    form2 = _mat_lin(ctx, [(one, a13t), (q2, m["A31"]),
                           (-(q2 - one), _mat_mul(ctx, m["A32"], m["A21"]))])
    inner = rep.interior2
    residuals = [
        ("compact", _mat_lin(ctx, [(one, _mat_transpose(m["A12"])),
                                   (-one, m["A21"])]), None),
        ("noncompact", _mat_lin(ctx, [(one, _mat_transpose(m["A23"])),
                                      (one, m["A32"])]), None),
        ("a13-first", form1, inner), ("a13-second", form2, inner),
        ("form-agreement", _mat_lin(ctx, [(one, form1), (-one, form2)]), inner)]
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
    ctx = rep.ctx
    one = ctx.one()
    tp, tm = rep.matrices["A23"], rep.matrices["A32"]
    labels = rep.labels
    cols_ok = [lab.depth() < rep.truncation.depth for lab in labels]
    # each distinct 2M + 1 and T is evaluated once
    m_sq = {m: ctx.qbracket_half_sq(m) for m in {2 * l.M + 1 for l in labels}}
    lam = {t: casimir_su11_eigenvalue(ctx, t) for t in {l.T for l in labels}}
    c2 = _mat_lin(ctx, [
        (one, _mat_mul(ctx, tm, tp)),
        (one, rep.diagonal(m_sq[2 * lab.M + 1] for lab in labels)),
        (-one, rep.diagonal(lam[lab.T] for lab in labels))])
    reports = [_matrix_report("casimir-eigenvalue", rep, c2, tolerance,
                              cols_ok, "exact" if ctx.is_exact() else "")]

    # eigenvalue separation per weight space at this q (exact gaps in exact
    # mode)
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
                    truncation: Truncation) -> Dict[Weight, WeylBlock]:
    """Float Weyl blocks of all weights whose label sets fit the truncation."""
    weights = sorted({_u_weight(sig, _u_key(l))
                      for l in enumerate_u_basis(sig, truncation.ell_max)})
    out: Dict[Weight, WeylBlock] = {}
    for w in weights:
        us = u_labels_at_weight(sig, w)
        ts = t_labels_at_weight(sig, w)
        if not all(l.ell <= truncation.ell_max for l in us):
            continue
        if not all(l.s <= truncation.s_max
                   and l.depth() <= truncation.depth for l in ts):
            continue
        out[w] = weyl_block(fctx, sig, w, labels=(us, ts))
    return out


def check_weyl_orthogonality(blocks: Dict[Weight, WeylBlock],
                             tolerance: float = 1e-10) -> CheckReport:
    """max |B^T B - I| and |B B^T - I| over the blocks of complete_blocks."""

    def residuals():
        for w, blk in sorted(blocks.items()):
            n = len(blk.u_labels)
            e = blk.entries
            for i in range(n):
                for j in range(n):
                    want = 1 if i == j else 0
                    col = sum((e[r][i] * e[r][j] for r in range(n)), 0)
                    row = sum((e[i][r] * e[j][r] for r in range(n)), 0)
                    yield max(abs(col - want), abs(row - want)), (w, i, j)

    return _report("weyl-orthogonality", residuals(),
                   lambda w, i, j: f"weight={w} pair=({i},{j})",
                   len(blocks), tolerance)


def _block_entries(rep: TruncatedRep, g: str, rows, cols):
    """Stored entries of rep.matrices[g] as (r, c, value) in (r, c) order.

    rows and cols are block labels, and r and c index into them.  Every
    label of a complete block lies inside the window, so rep.index has it.
    """
    m = rep.matrices[g]
    cols_j = [rep.index[l] for l in cols]
    return [(r, c, m[(i, j)])
            for r, i in enumerate(rep.index[l] for l in rows)
            for c, j in enumerate(cols_j) if (i, j) in m]


def _intertwiner_residuals(reps: Dict[str, TruncatedRep], g: str,
                           blk: WeylBlock, blk2: WeylBlock):
    """(|entry|, U row, T col) of M_U(g) W - W' M_T(g), W' = blk2, W = blk.

    Each entry sums the terms of both sparse products in stored order.
    """
    n = len(blk.t_labels)
    acc = [[0] * n for _ in blk2.u_labels]
    for r, c, v in _block_entries(reps["u"], g, blk2.u_labels, blk.u_labels):
        row, e = acc[r], blk.entries[c]
        for b in range(n):
            row[b] += v * e[b]
    for a, b, v in _block_entries(reps["t"], g, blk2.t_labels, blk.t_labels):
        for row, e in zip(acc, blk2.entries):
            row[b] -= e[a] * v
    for u, row in zip(blk2.u_labels, acc):
        for t, x in zip(blk.t_labels, row):
            yield abs(x), u, t


def check_intertwiner(blocks: Dict[Weight, WeylBlock],
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
    residuals = ((mag, (g, w, u, t)) for g, w, blk, blk2 in pairs
                 for mag, u, t in _intertwiner_residuals(reps, g, blk, blk2))
    return _report("intertwiner", residuals, lambda g, w, row, col:
                   f"generator={g} weight={w} row={row} col={col}",
                   len(pairs), tolerance)


def check_projector(rep: TruncatedRep, t_value,
                    tolerance: float = 1e-10) -> List[CheckReport]:
    """Extremal projector identities on the T0 = T+1 subspace.

    P = sum_r c_r T+^r T-^r with c_r = projector_t_coeff.  rep is a float
    T-basis rep, and every T+ or T- factor is its stored A23 or A32 entry,
    so the identities test the T table's ladder rows.  On the span of the
    rep's labels with M = T+1 the following are checked:

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
    fctx = rep.ctx
    if fctx.is_exact():
        raise ValueError("projector checks run in floating mode")
    T = Fraction(t_value)
    tol = tolerance
    cols = [j for j, l in enumerate(rep.labels) if l.M == T + 1]
    if not cols:
        return [CheckReport("projector", True, 0.0, tol, "", 0,
                            f"T={T}: no coverage")]
    labels = rep.labels
    # T+ and T- only move M inside one (s, p) multiplet, so each column of
    # A23 and A32 holds at most one entry: column -> (row, factor)
    up_step = {j: (i, v) for (i, j), v in rep.matrices["A23"].items()}
    down_step = {j: (i, v) for (i, j), v in rep.matrices["A32"].items()}

    def chain(step, j: int, steps: int):
        """(product of `steps` ladder factors from column j, end column).

        None once a factor is missing: T+ left the window, or T- hit the
        multiplet floor.
        """
        coeff = fctx.one()
        for _ in range(steps):
            if j not in step:
                return None
            j, v = step[j]
            coeff *= v
        return coeff, j

    def p_diag(j: int):
        """P on column j, a scalar: P is diagonal within each multiplet here."""
        total = fctx.zero()
        for r in range(0, int(2 * T) + 1):
            down = chain(down_step, j, r)
            if down is None:
                continue
            up, _ = chain(up_step, down[1], r)
            total += projector_t_coeff(fctx, T, r) * up * down[0]
        return total

    p = {j: p_diag(j) for j in cols}
    at_col = lambda j: f"T={T} col={labels[j]}"
    reports = [_report(
        f"projector-diagonal-T{T}",
        ((abs(p[j] - (1 if labels[j].T == T else 0)), (j,)) for j in cols),
        at_col, len(cols), tol)]

    # T- P = 0: P column is diag scalar, then one lowering step
    lowered = ((j, chain(down_step, j, 1)) for j in cols)
    reports.append(_report(
        f"projector-annihilation-T{T}",
        ((abs(p[j] * down[0]), (j,)) for j, down in lowered if down is not None),
        at_col, len(cols), tol))

    # leading coefficient is 1 (r = 0 term)
    c0 = float(abs(projector_t_coeff(fctx, T, 0) - 1))
    reports.append(CheckReport(f"projector-leading-T{T}", c0 <= tol, c0, tol,
                               "r=0", 1))

    # spectral projector: interpolate over the distinct T' present, and
    # evaluate at C2 = T- T+ + [M + 1/2]^2 read from the ladder entries
    tprimes = sorted({labels[j].T for j in cols})
    lam = {tp: casimir_su11_eigenvalue(fctx, tp) for tp in set(tprimes) | {T}}
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
        m_sq = fctx.qbracket_half_sq(2 * T + 3)  # [M + 1/2]^2 at M = T + 1

        def spectral(up):
            c2 = chain(down_step, up[1], 1)[0] * up[0] + m_sq
            val = fctx.one()
            for tp in tprimes:
                if tp != T:
                    val *= (c2 - lam[tp]) / (lam[T] - lam[tp])
            return val

        reports.append(_report(
            f"projector-spectral-T{T}",
            ((abs(p[j] - spectral(up)), (j,)) for j, up in risen),
            at_col, len(risen), tol))

    # P T-^x T+^x P = (-1)^x N^2(T, T+1+x) P on the subspace, relative to
    # N^2, which grows past 1e80 within the window
    power = []
    for j in cols:
        if labels[j].T != T:
            continue
        for x in range(1, rep.truncation.depth + 1):
            up = chain(up_step, j, x)
            lhs = chain(down_step, up[1], x)[0] * up[0]
            n2 = norm_su11_sq(fctx, T, T + 1 + x)
            sign = -1 if x % 2 else 1
            power.append((abs(lhs - sign * n2) / n2, (x, j)))
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
    arithmetic; matrix checks that need square roots always run in floating
    point at the given precision.  An unknown check or flip_entry, or a
    tolerance that is not finite and positive, raises ValueError before any
    check runs.
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
    ectx = EvalContext.exact(q) if mode == "exact" else None
    reports: List[CheckReport] = []
    if wanted & {"su11", "hermiticity", "casimir", "intertwiner"}:
        bases = ("u", "t")
    else:
        bases = ("t",) if "projector" in wanted else ()
    reps = {b: TruncatedRep(fctx, sig, b, trunc, flip_entry=flip_entry)
            for b in bases}
    if ectx is not None and wanted & {"su11", "casimir"}:
        reps["t-exact"] = TruncatedRep(ectx, sig, "t", trunc,
                                       flip_entry=flip_entry)
    if "su11" in wanted:
        target = reps["t-exact"] if ectx is not None else reps["t"]
        reports += check_su11_relations(target, tolerance)
        reports += check_su11_relations(reps["u"], tolerance)
    if "hermiticity" in wanted:
        reports += check_hermiticity(reps["u"], tolerance)
        reports += check_hermiticity(reps["t"], tolerance)
    if "casimir" in wanted:
        target = reps["t-exact"] if ectx is not None else reps["t"]
        reports += check_casimir(target, tolerance)
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
