"""Independent exact oracles used by the test suite.

Everything here is deliberately brute force.  At the classical point q = 1:
explicit Clebsch-Gordan sums assembled into recoupling brackets with exact
radical arithmetic.  At q != 1: the q-Clebsch-Gordan coefficients of
Kirillov and Reshetikhin, assembled into the same recoupling brackets by the
same magnetic sum, in 60-digit mpf; they share no formula with weylracah's
closed form, so they check its phases too.  At any rational q: the closed
form sign * sqrt(P) * S
that weylracah's q-Racah coefficients and brackets share, evaluated as
products of Fraction q-brackets, each reduced as it is made; weylracah
evaluates it in integers, with one reduction per value.  The paper's direct
formula for the bracket <U|T>_q, one balanced sum in that shape, is kept
here as the reference for weylracah's q-Racah substitution; with the
q-Clebsch-Gordan recoupling it is what fixes the bracket's overall phase,
which orthogonality and the intertwiner cannot see.  Nothing imports
from the q-series code paths being tested except the SignedRadical container
itself.  The Fraction form of the q-Racah triangle test is kept here as the
reference for the integer test, the Fraction weights of basis labels as the
reference for repspace's integer weights of label keys, and the conjugated
form of the intertwining identity as the reference for verify's product
form.  verify takes each check's largest residual where it forms it; the
reference scans here form every residual the plain way (a sort of the
residual entries, a dense test of every block pair, a Fraction per
projector residual) and keep the first strict maximum, as the references
for those running maxima.  They take the checks' own inputs (built reps
and blocks, and the projector's c_r, eigenvalues and norms from
generators) and test only how each maximum is found.  replace copies a
package record with some fields changed, for the tests that build faulty
labels and table rows.
"""

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath

from qu21.generators import (casimir_su11_eigenvalue, norm_su11_sq,
                             projector_t_coeff)
from qu21.qarith import EvalContext, SignedRadical

CTX1 = EvalContext.exact(1)


def radical_sum(terms, ctx: EvalContext) -> SignedRadical:
    """Exact sum of SignedRadicals that are pairwise compatible under ctx."""
    acc = SignedRadical.zero()
    for term in terms:
        acc = acc.add_exact(term, ctx)
    return acc


def _fact(n: Fraction) -> int:
    n = Fraction(n)
    if n.denominator != 1 or n < 0:
        raise ValueError(f"bad factorial argument {n}")
    return factorial(int(n))


def _triangle_ok(a, b, c) -> bool:
    return ((a + b + c).denominator == 1 and a + b - c >= 0
            and a - b + c >= 0 and -a + b + c >= 0)


@lru_cache(maxsize=None)
def cg_exact(j1, m1, j2, m2, jtot) -> SignedRadical:
    """Classical <j1 m1 j2 m2 | jtot (m1+m2)> as an exact radical."""
    j1, m1, j2, m2, jtot = (Fraction(x) for x in (j1, m1, j2, m2, jtot))
    m = m1 + m2
    if abs(m1) > j1 or abs(m2) > j2 or abs(m) > jtot:
        return SignedRadical.zero()
    if (j1 + m1).denominator != 1 or (j2 + m2).denominator != 1:
        return SignedRadical.zero()
    if not _triangle_ok(j1, j2, jtot):
        return SignedRadical.zero()
    radicand = Fraction(
        _fact(j1 + j2 - jtot) * _fact(j1 - j2 + jtot) * _fact(-j1 + j2 + jtot),
        _fact(j1 + j2 + jtot + 1))
    radicand *= (2 * jtot + 1)
    radicand *= (_fact(j1 + m1) * _fact(j1 - m1) * _fact(j2 + m2)
                 * _fact(j2 - m2) * _fact(jtot + m) * _fact(jtot - m))
    total = Fraction(0)
    z = 0
    while True:
        args = (z, j1 + j2 - jtot - z, j1 - m1 - z, j2 + m2 - z,
                jtot - j1 - m2 + z, jtot - j2 + m1 + z)
        if args[1] < 0 and args[2] < 0 and args[3] < 0:
            break
        if z > j1 + j2 + jtot:
            break
        if all(a >= 0 for a in args):
            term = Fraction(1)
            for a in args:
                term /= _fact(a)
            total += -term if z % 2 else term
        z += 1
    if total == 0:
        return SignedRadical.zero()
    return SignedRadical.make(1 if total > 0 else -1, 0, radicand * total * total)


def _magnetic_products(cg, a, b, e, d, c, f):
    """The terms of <(a b) c, d; e | a, (b d) f; e> by explicit magnetic
    summation, each a product of four Clebsch-Gordan coefficients
    cg(j1, m1, j2, m2, j) = <j1 m1 j2 m2 | j (m1 + m2)>.

    Taken at the stretched projection m_e = e; the bracket does not depend
    on that choice.
    """
    a, b, e, d, c, f = (Fraction(x) for x in (a, b, e, d, c, f))
    me = e
    ma = -a
    while ma <= a:
        mb = -b
        while mb <= b:
            mc = ma + mb
            md = me - mc
            mf = mb + md
            if abs(mc) <= c and abs(md) <= d and abs(mf) <= f:
                yield (cg(a, ma, b, mb, c) * cg(c, mc, d, md, e)
                       * cg(b, mb, d, md, f) * cg(a, ma, f, mf, e))
            mb += 1
        ma += 1


def recoupling_exact(a, b, e, d, c, f) -> SignedRadical:
    """<(a b) c, d; e | a, (b d) f; e> at q = 1 (_magnetic_products).

    Exact: all terms share one radical class.
    """
    terms = [p for p in _magnetic_products(cg_exact, a, b, e, d, c, f)
             if not p.is_zero()]
    return radical_sum(terms, CTX1)


_QMP = mpmath.mp.clone()
_QMP.dps = 60


def _qnum_mpf(q, n):
    """[n] = (q^n - q^-n) / (q - q^-1) in _QMP, for an mpf q != 1."""
    return (q ** n - q ** -n) / (q - 1 / q)


@lru_cache(maxsize=None)
def _qfact_mpf(q, n: int):
    """[n]! in _QMP, for an mpf q != 1 and n >= 0."""
    return _QMP.one if n == 0 else _qfact_mpf(q, n - 1) * _qnum_mpf(q, n)


def _qpow_mpf(q, e: Fraction):
    """q^e in _QMP for a rational exponent e."""
    return _QMP.power(q, _QMP.mpf(e.numerator) / e.denominator)


@lru_cache(maxsize=None)
def qcg_mpf(q: Fraction, j1, m1, j2, m2, j):
    """q-Clebsch-Gordan <j1 m1 j2 m2 | j (m1 + m2)>_q in 60-digit mpf, after
    Kirillov and Reshetikhin (Infinite Dimensional Lie Algebras and Groups,
    World Scientific 1989), with m = m1 + m2 and J = j1 + j2 + j + 1:

        q^((j1 + j2 - j) J / 2 + j1 m2 - j2 m1)
        sqrt([2j + 1] [j1 + j2 - j]! [j1 - j2 + j]! [-j1 + j2 + j]! / [J]!)
        sqrt([j1 + m1]! [j1 - m1]! [j2 + m2]! [j2 - m2]! [j + m]! [j - m]!)
        sum_z (-1)^z q^(-z J) / ([z]! [j1 + j2 - j - z]! [j1 - m1 - z]!
                                [j2 + m2 - z]! [j - j2 + m1 + z]!
                                [j - j1 - m2 + z]!)

    over the z where every factorial argument is >= 0; q != 1 (cg_exact
    is the q = 1 case).  Zero outside the triangle or the projection
    ranges, as cg_exact.
    """
    j1, m1, j2, m2, j = (Fraction(x) for x in (j1, m1, j2, m2, j))
    m = m1 + m2
    if (abs(m1) > j1 or abs(m2) > j2 or abs(m) > j
            or (j1 + m1).denominator != 1 or (j2 + m2).denominator != 1
            or not _triangle_ok(j1, j2, j)):
        return _QMP.zero
    qm = _QMP.mpf(q.numerator) / q.denominator
    big = int(j1 + j2 + j + 1)

    def fact(x):
        return _qfact_mpf(qm, int(x))

    root = (_qnum_mpf(qm, int(2 * j + 1)) * fact(j1 + j2 - j) * fact(j1 - j2 + j)
            * fact(-j1 + j2 + j) / fact(big)
            * fact(j1 + m1) * fact(j1 - m1) * fact(j2 + m2) * fact(j2 - m2)
            * fact(j + m) * fact(j - m))
    total = _QMP.zero
    for z in range(int(j1 + j2 - j) + 1):
        args = (z, j1 + j2 - j - z, j1 - m1 - z, j2 + m2 - z,
                j - j2 + m1 + z, j - j1 - m2 + z)
        if min(args) < 0:
            continue
        den = _QMP.one
        for x in args:
            den *= fact(x)
        term = qm ** (-z * big) / den
        total += -term if z % 2 else term
    return (_qpow_mpf(qm, (j1 + j2 - j) * big / 2 + j1 * m2 - j2 * m1)
            * _QMP.sqrt(root) * total)


def recoupling_qmpf(q: Fraction, a, b, e, d, c, f):
    """<(a b) c, d; e | a, (b d) f; e>_q in 60-digit mpf: the magnetic sum
    of recoupling_exact over the q-Clebsch-Gordan coefficients qcg_mpf."""
    def cg(*args):
        return qcg_mpf(q, *args)
    return _QMP.fsum(_magnetic_products(cg, a, b, e, d, c, f))


def qnum_fraction(q: Fraction, n: int) -> Fraction:
    """[n] = (q^n - q^-n) / (q - q^-1) in Fractions, with [n] = n at q = 1."""
    return Fraction(n) if q == 1 else (q ** n - q ** -n) / (q - 1 / q)


@lru_cache(maxsize=None)
def qfact_fraction(q: Fraction, n: int) -> Fraction:
    """[n]! = [1][2]...[n] as a product of Fractions, for n >= 0."""
    if n < 0:
        raise ValueError(f"[{n}]! is undefined")
    return Fraction(1) if n == 0 else qfact_fraction(q, n - 1) * qnum_fraction(q, n)


def racah_form_fraction(q: Fraction, sign: int, dims, pref_num, pref_den,
                        tops, bottoms) -> SignedRadical:
    """sign * sqrt(P) * S by Fraction products, with dims = (x, y):

        P = [x][y] prod_a [a]! / prod_b [b]!,
        S = sum_n (-1)^n prod_t [t - n]! / ([n]! prod_u [u - n]!)

    for n = 0..min(bottoms), the arguments of weylracah._racah_form."""
    x, y = dims
    pref = qnum_fraction(q, x) * qnum_fraction(q, y)
    for a in pref_num:
        pref *= qfact_fraction(q, a)
    for b in pref_den:
        pref /= qfact_fraction(q, b)
    total = Fraction(0)
    for n in range(min(bottoms) + 1):
        term = 1 / qfact_fraction(q, n)
        for t in tops:
            term *= qfact_fraction(q, t - n)
        for u in bottoms:
            term /= qfact_fraction(q, u - n)
        total += -term if n % 2 else term
    if total == 0:
        return SignedRadical.zero()
    return SignedRadical.make(sign if total > 0 else -sign, 0,
                              pref * total * total)


def direct_bracket_args(sig, u, t):
    """The paper's direct formula for <U|T>_q, for a U and a T label of sig
    at one weight: the arguments (sign, dims, pref_num, pref_den, tops,
    bottoms) of racah_form_fraction.

    A square-root prefactor times one balanced q-factorial sum indexed by n,
    read from the labels' own fields; weylracah evaluates the bracket
    through the q-Racah substitution instead, whose arguments equal these as
    multisets.
    """
    f12, f13, f23 = sig.f1 - sig.f2, sig.f1 - sig.f3, sig.f2 - sig.f3
    k, ell, twoU, twoMU = u.k, u.ell, int(2 * u.U), int(2 * u.MU)
    s, p, twoT, twoM = t.s, t.p, int(2 * t.T), int(2 * t.M)
    drop = (twoU - twoMU) // 2
    # the sum's sign (-1)^(k + n) contributes its (-1)^k to the overall sign
    return (-1 if k % 2 else 1, (twoU + 1, twoT + 1),
            (k, (twoM - twoT) // 2 - 1, (twoU + twoMU) // 2, (twoT + twoM) // 2,
             f12 - k, f12 + ell + 1, f23 + s - 2, f23 + p - 2),
            (s, p, ell, drop, f13 + s - 1, f12 - p, f23 + k - 2, f13 + ell - 1),
            (drop + k, ell + k, f13 + ell + k - 1),
            (k, twoU + 1 + k, ell - s + k, f23 + p + ell + k - 1))


def u_weight_fraction(sig, lab):
    """The weight (m1, m2, m3) of a U-basis label from its Fraction fields:
    m1 = f1 + ell - (U - MU), m2 = f2 + k + (U - MU), m3 = f3 - k - ell."""
    drop = Fraction(lab.U) - Fraction(lab.MU)
    return (sig.f1 + lab.ell - drop, sig.f2 + lab.k + drop,
            sig.f3 - lab.k - lab.ell)


def t_weight_fraction(sig, lab):
    """The weight (m1, m2, m3) of a T-basis label from its Fraction fields:
    with the ladder depth x = M - T - 1, m1 = f1 - p + s, m2 = f2 + p + x,
    m3 = f3 - s - x."""
    x = Fraction(lab.M) - Fraction(lab.T) - 1
    return (sig.f1 - lab.p + lab.s, sig.f2 + lab.p + x, sig.f3 - lab.s - x)


def half_integers(upto_twice: int):
    """0, 1/2, 1, ... up to upto_twice/2."""
    return [Fraction(t, 2) for t in range(upto_twice + 1)]


@lru_cache(maxsize=None)
def triangle_fraction(x, y, z) -> bool:
    """Triangle condition with integer perimeter, in Fraction arithmetic."""
    if (x + y + z).denominator != 1:
        return False
    return x + y - z >= 0 and x - y + z >= 0 and -x + y + z >= 0


@lru_cache(maxsize=None)
def _nonnegative_half_integer(x) -> bool:
    return x >= 0 and (2 * x).denominator == 1


def racah_triangles_fraction(a, b, e, d, c, f) -> bool:
    """The q-Racah argument test of U_q(a b e d; c f) in Fraction arithmetic:
    nonnegative half-integers forming the triangles (a,b,c), (a,e,f),
    (c,d,e), (b,d,f), each with an integral perimeter."""
    return (all(map(_nonnegative_half_integer, (a, b, e, d, c, f)))
            and triangle_fraction(a, b, c) and triangle_fraction(a, e, f)
            and triangle_fraction(c, d, e) and triangle_fraction(b, d, f))


def _label_index(rep):
    """label -> index of rep's labels."""
    return {lab: i for i, lab in enumerate(rep.labels)}


def intertwiner_conjugated(blocks, reps):
    """Largest |W(w + shift)^T M_U(g) W(w) - M_T(g)| over complete block pairs.

    The conjugated form of the identity that verify.check_intertwiner tests
    as M_U(g) W(w) = W(w + shift) M_T(g), taken over all nine generators
    A_ij, whose weight shift is e_i - e_j, and every (row, col) of each
    block pair.  blocks and reps are check_intertwiner's inputs, whose
    entries are fixed-point ints (an int n of a block or rep stands for
    n 2^-bits of that block or rep); each residual is summed exactly and
    converted to a float once.  Returns (residual, (generator, source
    weight, T row label, T col label)) of the first largest entry, or
    (0, None) when every residual is 0.
    """
    iu, it = _label_index(reps["u"]), _label_index(reps["t"])
    block_bits = next(iter(blocks.values())).bits
    worst, where = 0, None
    for i in "123":
        for j in "123":
            g = f"A{i}{j}"
            shift = [(k == i) - (k == j) for k in "123"]
            mu, mt = reps["u"].matrices[g], reps["t"].matrices[g]
            for w, blk in sorted(blocks.items()):
                blk2 = blocks.get(type(w)(*(m + d for m, d in zip(w, shift))))
                if blk2 is None:
                    continue
                for a, row in enumerate(blk2.t_labels):
                    for b, col in enumerate(blk.t_labels):
                        acc = 0
                        for r, ur in enumerate(blk2.u_labels):
                            for c, uc in enumerate(blk.u_labels):
                                v = mu.get((iu[ur], iu[uc]))
                                if v is not None:
                                    acc += (blk2.entries[r][a] * v
                                            * blk.entries[c][b])
                        res = abs(acc - (mt.get((it[row], it[col]), 0)
                                         << 2 * block_bits))
                        if res > worst:
                            worst, where = res, (g, w, row, col)
    return worst / (1 << 2 * block_bits + reps["u"].bits), where


def first_largest(residuals):
    """The first strict maximum (magnitude, key) of residuals, or (0, None)
    when no magnitude is positive."""
    worst, key = 0, None
    for mag, k in residuals:
        if mag > worst:
            worst, key = mag, k
    return worst, key


def matrix_scan(rep, m):
    """(max_residual, location) of a verify._relation result m = (entries,
    bits) on rep, scanning its entries in sorted (row, col) order.

    Exact-mode entries (SignedRadicals) are rounded once to the float
    companion's fixed-point scale, exact zeros left out.
    """
    entries, bits = m
    if rep.ctx.is_exact():
        fctx = rep.ctx.as_float()
        entries = {k: v.to_fixed(fctx) for k, v in entries.items()
                   if not v.is_zero()}
        bits = fctx.fixed_bits()
    worst, key = first_largest((abs(v), ij)
                               for ij, v in sorted(entries.items()))
    where = "" if key is None else \
        f"row={rep.labels[key[0]]} col={rep.labels[key[1]]}"
    return float(worst / (1 << bits)), where


def intertwiner_scan(blocks, reps):
    """(max_residual, location) of M_U(g) W(w) - W(w + shift) M_T(g) over
    verify.check_intertwiner's block pairs, in its order.

    Each block label is found by its rep's label index, and every (row,
    col) pair of each block pair is looked up in the sparse rep matrices;
    each residual entry is an exact int sum.
    """
    iu, it = _label_index(reps["u"]), _label_index(reps["t"])
    where = {w: ([iu[l] for l in blk.u_labels], [it[l] for l in blk.t_labels])
             for w, blk in blocks.items()}

    def stored(m, rows, cols):
        return [(r, c, m[(i, j)]) for r, i in enumerate(rows)
                for c, j in enumerate(cols) if (i, j) in m]

    def residuals():
        for g in ("A12", "A13", "A21", "A23", "A31", "A32"):
            shift = [(k == g[1]) - (k == g[2]) for k in "123"]
            mu, mt = reps["u"].matrices[g], reps["t"].matrices[g]
            for w, blk in sorted(blocks.items()):
                blk2 = blocks.get(type(w)(*(m + d for m, d in zip(w, shift))))
                if blk2 is None:
                    continue
                (u_idx, t_idx), (u2_idx, t2_idx) = where[w], where[blk2.weight]
                acc = [[0] * len(blk.t_labels) for _ in blk2.u_labels]
                for r, c, v in stored(mu, u2_idx, u_idx):
                    acc[r] = [x + v * y
                              for x, y in zip(acc[r], blk.entries[c])]
                for a, b, v in stored(mt, t2_idx, t_idx):
                    for row, e in zip(acc, blk2.entries):
                        row[b] -= e[a] * v
                for u, row in zip(blk2.u_labels, acc):
                    for t, x in zip(blk.t_labels, row):
                        yield abs(x), (g, w, u, t)

    worst, key = first_largest(residuals())
    bits = reps["u"].bits + next(iter(blocks.values())).bits if blocks else 0
    where_at = "" if key is None else \
        "generator={} weight={} row={} col={}".format(*key)
    return float(worst / (1 << bits)), where_at


def projector_scans(rep, t_value):
    """(max_residual, location) of verify.check_projector's spectral and
    power residuals on the float T rep, each residual formed as an exact
    Fraction: {"spectral": ..., "power": ...}, spectral left out when the
    Casimir eigenvalues present are degenerate or no column is at M = T + 1.

    P's diagonal, the ladder products and every rounded scalar are formed as
    check_projector forms them (each rounded once to the rep's scale).
    """
    T = Fraction(t_value)
    two_t = int(2 * T)
    cols = [j for j, (_, _, m) in enumerate(rep.keys) if m == two_t + 2]
    if not cols:
        return {}
    labels, spins = rep.labels, rep.spins
    ctx, fix, bits = rep.ctx, rep.ctx.to_fixed, rep.bits
    up_step = {j: (i, v) for (i, j), v in rep.matrices["A23"].items()}
    down_step = {j: (i, v) for (i, j), v in rep.matrices["A32"].items()}

    def chain(step, j, steps):
        coeff = 1
        for _ in range(steps):
            if j not in step:
                return None
            j, v = step[j]
            coeff *= v
        return coeff, j

    top = (2 * two_t + 1) * bits
    coeffs = [projector_t_coeff(ctx, T, r) for r in range(two_t + 1)]

    def p_diag(j):
        total = 0
        for r, c in enumerate(coeffs):
            down = chain(down_step, j, r)
            if down is None:
                continue
            up, _ = chain(up_step, down[1], r)
            total += fix(c * (up * down[0])) << (2 * (two_t - r) * bits)
        return total

    p = {j: p_diag(j) for j in cols}
    out = {}
    tprimes = sorted({spins[j] for j in cols})
    lam = {tp: casimir_su11_eigenvalue(ctx, Fraction(tp, 2))
           for tp in set(tprimes) | {two_t}}
    if not any(abs(lam[a] - lam[b]) <= 1e-10
               for i, a in enumerate(tprimes) for b in tprimes[i + 1:]):
        m_sq = fix(ctx.qbracket_half_sq(2 * T + 3)) << bits
        lam_fix = {tp: fix(v) for tp, v in lam.items()}
        others = [tp for tp in tprimes if tp != two_t]
        den = math.prod(lam_fix[two_t] - lam_fix[tp] for tp in others)

        def spectral(j, up):
            c2 = chain(down_step, up[1], 1)[0] * up[0] + m_sq
            num = math.prod(c2 - (lam_fix[tp] << bits) for tp in others)
            return abs(Fraction(p[j], 1 << top)
                       - Fraction(num, den << len(others) * bits))

        worst, key = first_largest(
            (spectral(j, up), j) for j in cols
            if (up := chain(up_step, j, 1)) is not None)
        out["spectral"] = (float(worst),
                           "" if key is None else f"T={T} col={labels[key]}")
    power = []
    for j in cols:
        if spins[j] != two_t:
            continue
        for x in range(1, rep.truncation.depth + 1):
            up = chain(up_step, j, x)
            lhs = chain(down_step, up[1], x)[0] * up[0]
            n2 = fix(norm_su11_sq(ctx, T, T + 1 + x)) << (2 * x - 1) * bits
            power.append((Fraction(abs(lhs - (-n2 if x % 2 else n2)), n2),
                          (x, j)))
    worst, key = first_largest(power)
    out["power"] = (float(worst), "" if key is None else
                    f"T={T} x={key[0]} col={labels[key[1]]}")
    return out


def replace(record, **changes):
    """A new record of record's class with the given fields changed."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})
