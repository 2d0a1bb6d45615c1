"""Acceptance suite: ten contract-level properties at desk scale.

Each test prints one PASS/FAIL line so a failing run names the property
directly.  Scale: three signatures, five q values, truncation (6, 6, 6),
tolerance 1e-10 unless the property is exact.
"""

import random
from fractions import Fraction

from qu21.errors import QAlgebraError
from qu21.generators import norm_t_sq, norm_u_sq
from qu21.qarith import EvalContext
from qu21.repspace import (Signature, classify, enumerate_t_basis,
                           enumerate_u_basis, t_label, t_labels_at_weight,
                           u_label, u_labels_at_weight, weight_of_u)
from qu21.verify import (TruncatedRep, Truncation, check_casimir,
                         check_hermiticity, check_intertwiner,
                         check_norm_recursions, check_su11_relations,
                         check_weyl_orthogonality, complete_blocks,
                         run_all_checks)
from qu21.weylracah import weyl_via_racah, qracah_exact, \
    racah_triangles_ok, RacahArgs

from oracles import (direct_bracket_args, half_integers,
                     racah_form_fraction, recoupling_exact)

SIGS = [Signature(4, 2, -2), Signature(3, 1, -1), Signature(5, 2, -1)]
QGRID = [Fraction(1, 2), Fraction(9, 10), Fraction(1), Fraction(13, 10),
         Fraction(2)]
TRUNC = Truncation(6, 6, 6)
TOL = 1e-10
PRECISION = 50

_REPS = {}
_BLOCKS = {}


def rep_for(sig, q, basis):
    key = (sig, q, basis)
    if key not in _REPS:
        ctx = EvalContext.floating(q, PRECISION)
        _REPS[key] = TruncatedRep(ctx, sig, basis, TRUNC)
    return _REPS[key]


def blocks_for(sig, q):
    key = (sig, q)
    if key not in _BLOCKS:
        ctx = EvalContext.floating(q, PRECISION)
        _BLOCKS[key] = complete_blocks(ctx, sig, TRUNC)
    return _BLOCKS[key]


def announce(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, text


def worst_of(reports):
    return max((r.max_residual for r in reports), default=0.0)


def test_criterion_01_su11_relations():
    worst = 0.0
    ok = True
    for sig in SIGS:
        for q in QGRID:
            for basis in ("u", "t"):
                reports = check_su11_relations(rep_for(sig, q, basis), TOL)
                ok = ok and all(r.passed for r in reports)
                worst = max(worst, worst_of(reports))
    announce(1, ok and worst < TOL,
             f"su(1,1) relations on interiors, worst residual {worst:.2e}")


def test_criterion_02_hermiticity():
    worst = 0.0
    ok = True
    for sig in SIGS:
        for q in QGRID:
            for basis in ("u", "t"):
                reports = check_hermiticity(rep_for(sig, q, basis), TOL)
                ok = ok and all(r.passed for r in reports)
                worst = max(worst, worst_of(reports))
    announce(2, ok and worst < TOL,
             f"conjugation relations in both bases, worst residual {worst:.2e}")


def test_criterion_03_norm_recursions_exact():
    ok = True
    for sig in SIGS:
        for q in QGRID:
            report = check_norm_recursions(sig, q, Truncation(8, 8, 8))
            ok = ok and report.passed
    announce(3, ok, "closed-form norms equal iterated recursions exactly, "
                    "k to f1-f2 and ell, s to 8")


def test_criterion_04_casimir():
    worst = 0.0
    ok = True
    for sig in SIGS:
        for q in QGRID:
            reports = check_casimir(rep_for(sig, q, "t"), TOL)
            ok = ok and all(r.passed for r in reports)
            worst = max(worst, worst_of(reports))
    announce(4, ok and worst < TOL,
             f"Casimir diagonal with spin eigenvalue, worst residual {worst:.2e}")


def test_criterion_05_weyl_orthogonality():
    worst = 0.0
    ok = True
    for sig in SIGS:
        for q in QGRID:
            report = check_weyl_orthogonality(blocks_for(sig, q), TOL)
            ok = ok and report.passed
            worst = max(worst, report.max_residual)
    announce(5, ok and worst < TOL,
             f"transformation blocks orthogonal, worst residual {worst:.2e}")


def test_criterion_06_intertwining():
    worst = 0.0
    ok = True
    for sig in SIGS:
        for q in QGRID:
            reps = {b: rep_for(sig, q, b) for b in ("u", "t")}
            report = check_intertwiner(blocks_for(sig, q), reps, TOL)
            ok = ok and report.passed
            worst = max(worst, report.max_residual)
    announce(6, ok and worst < TOL,
             f"every generator intertwined between bases, worst residual "
             f"{worst:.2e}")


def test_criterion_07_bracket_equals_racah():
    rng = random.Random(20260817)
    pool = []
    for sig in SIGS:
        seen = set()
        for lab in enumerate_u_basis(sig, 4):
            w = weight_of_u(sig, lab)
            if w in seen:
                continue
            seen.add(w)
            for u in u_labels_at_weight(sig, w):
                for t in t_labels_at_weight(sig, w):
                    pool.append((sig, u, t))
    sample = rng.sample(pool, 210)
    worst = 0.0
    for i, (sig, u, t) in enumerate(sample):
        q = QGRID[i % len(QGRID)]
        ctx = EvalContext.floating(q, PRECISION)
        # the paper's direct formula, which weylracah does not evaluate
        direct = racah_form_fraction(
            q, *direct_bracket_args(sig, u, t)).to_float(ctx)
        via_a = weyl_via_racah(ctx, sig, u, t, form="a")
        via_b = weyl_via_racah(ctx, sig, u, t, form="b")
        worst = max(worst, float(abs(direct - via_a)),
                    float(abs(direct - via_b)), float(abs(via_a - via_b)))
    announce(7, worst < TOL,
             f"direct bracket equals both q-Racah forms on {len(sample)} "
             f"sampled tuples, worst residual {worst:.2e}")


def test_criterion_08_classical_limit():
    ctx = EvalContext.exact(Fraction(1))
    grid = half_integers(4)
    checked = 0
    ok = True
    for a in grid:
        for b in grid:
            for e in grid:
                for d in grid:
                    for c in grid:
                        for f in grid:
                            args = RacahArgs(a, b, e, d, c, f)
                            if not racah_triangles_ok(args):
                                continue
                            got = qracah_exact(ctx, args)
                            want = recoupling_exact(a, b, e, d, c, f)
                            if not got.same_value(want, ctx):
                                ok = False
                            checked += 1
    announce(8, ok and checked >= 500,
             f"q=1 values match brute-force classical recoupling exactly on "
             f"{checked} argument tuples")


def test_criterion_09_positivity_and_rejection():
    ok = True
    series_seen = set()
    for sig in SIGS + [Signature(2, 2, -2)]:
        series_seen.add(classify(sig))
        for q in QGRID:
            ctx = EvalContext.exact(q)
            for lab in enumerate_u_basis(sig, 4):
                ok = ok and norm_u_sq(ctx, sig, lab.k, lab.ell) > 0
            for lab in enumerate_t_basis(sig, 4, 4):
                ok = ok and norm_t_sq(ctx, sig, lab.s, lab.p) > 0
    ok = ok and len(series_seen) == 3

    sig = Signature(4, 2, -2)
    rejections = [
        (lambda: u_label(sig, 3, 0, Fraction(1, 2)), "0 <= k <= f1 - f2"),
        (lambda: u_label(sig, 0, -1, 0), "ell >= 0"),
        (lambda: u_label(sig, 0, 0, 2), "-U <= MU <= U"),
        (lambda: t_label(sig, 0, 3, Fraction(5, 2)), "0 <= p <= f1 - f2"),
        (lambda: t_label(sig, -1, 0, 2), "s >= 0"),
        (lambda: t_label(sig, 0, 0, 1), "M >= T + 1"),
    ]
    for build, fragment in rejections:
        try:
            build()
        except QAlgebraError as exc:
            ok = ok and fragment in str(exc)
        else:
            ok = False
    announce(9, ok, "norms positive across all three series; out-of-domain "
                    "labels rejected with the named inequality")


def test_criterion_10_projectors():
    ok = True
    for sig in SIGS:
        for q in QGRID:
            reports = run_all_checks(sig, q, truncation=TRUNC, tolerance=TOL,
                                     precision=PRECISION,
                                     checks=("projector",))
            ok = ok and all(r.passed for r in reports)
    announce(10, ok, "extremal projector identities on bottom subspaces "
                     "for spins up to 4")
