"""Truncated-window representation checks: construction and the check suite."""

import dataclasses
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qu21.repspace as repspace_mod
import qu21.verify as verify_mod
import qu21.weylracah as weylracah_mod
from qu21 import cli
import qu21.generators as generators_mod
from qu21.errors import ConstraintViolation
from qu21.generators import (GENERATORS, WEIGHT_SHIFTS, basis_action,
                             table_entries)
from qu21.qarith import EvalContext, SignedRadical, sqrt_fraction
from qu21.repspace import (Signature, Weight, _t_key, _u_key,
                           enumerate_t_basis, enumerate_u_basis,
                           lowest_t_label, lowest_u_label)
from qu21.verify import (DEFAULT_CHECKS, CheckReport, TruncatedRep,
                         Truncation, check_casimir, check_hermiticity,
                         check_intertwiner, check_norm_recursions,
                         check_projector, check_su11_relations,
                         check_weyl_orthogonality, complete_blocks,
                         rounding_bound, run_all_checks)

from oracles import intertwiner_conjugated

SIG = Signature(4, 2, -2)
Q = Fraction(13, 10)


def float_ctx(q=Q):
    return EvalContext.floating(q, 50)


_REF = mpmath.mp.clone()
_REF.dps = 120


def units_off(n: int, rad: SignedRadical, bits: int, q=Q) -> float:
    """|n 2^-bits - rad| in units of 2^-bits, with rad evaluated at 120
    digits."""
    want = (rad.sign * (_REF.mpf(q.numerator) / q.denominator) ** rad.qpower
            * _REF.sqrt(_REF.mpf(rad.radicand.numerator)
                        / rad.radicand.denominator))
    return float(abs(_REF.mpf(n) - _REF.ldexp(want, bits)))


def blocks_and_reps(sig, q, trunc, flip_entry=None):
    """check_intertwiner's inputs: float blocks and U and T reps."""
    return complete_blocks(float_ctx(q), sig, trunc), {
        b: TruncatedRep(float_ctx(q), sig, b, trunc, flip_entry=flip_entry)
        for b in ("u", "t")}


@pytest.fixture(scope="module")
def large_reports():
    # ROADMAP's large config, as the benchmark runs it
    return run_all_checks(Signature(8, 2, -2), Q,
                          truncation=Truncation(10, 10, 10), precision=50)


class TestTruncation:
    def test_rejects_negative_and_non_int(self):
        with pytest.raises(ValueError):
            Truncation(-1, 2, 2)
        with pytest.raises(ValueError):
            Truncation(2, 2, -3)
        with pytest.raises(ValueError):
            Truncation(2, Fraction(5, 2), 2)


class TestTruncatedRep:
    def test_bad_basis(self):
        with pytest.raises(ValueError):
            TruncatedRep(float_ctx(), SIG, "v", Truncation(2, 2, 2))

    @pytest.mark.parametrize("basis", ["u", "t"])
    def test_matrices_are_weight_graded(self, basis):
        rep = TruncatedRep(float_ctx(), SIG, basis, Truncation(3, 3, 3))
        for g in GENERATORS:
            dm = WEIGHT_SHIFTS[g]
            for (i, j) in rep.matrices[g]:
                wi, wj = rep.weights[i], rep.weights[j]
                assert (wi.m1 - wj.m1, wi.m2 - wj.m2, wi.m3 - wj.m3) == dm

    def test_interior_masks(self):
        rep = TruncatedRep(float_ctx(), SIG, "u", Truncation(2, 2, 2))
        assert any(rep.interior1)
        assert not all(rep.interior1)
        for j, ok2 in enumerate(rep.interior2):
            if ok2:
                assert rep.interior1[j]
        # one-step closure really holds: every image of an interior column
        # is an in-window index
        from qu21.generators import basis_action
        for j in range(len(rep.labels)):
            if not rep.interior1[j]:
                continue
            lab = rep.labels[j]
            for g in GENERATORS:
                for tgt, _ in basis_action(rep.ctx, SIG, "u", g, lab):
                    assert tgt in rep.index

    def test_lowest_column_annihilated(self):
        repu = TruncatedRep(float_ctx(), SIG, "u", Truncation(2, 2, 2))
        rept = TruncatedRep(float_ctx(), SIG, "t", Truncation(2, 2, 2))
        ju = repu.index[lowest_u_label(SIG)]
        jt = rept.index[lowest_t_label(SIG)]
        for g in ("A31", "A32", "A12"):
            assert not any(j == ju for (_, j) in repu.matrices[g])
        for g in ("A31", "A32", "A12"):
            assert not any(j == jt for (_, j) in rept.matrices[g])

    @pytest.mark.parametrize("flip", [None, "T9"])
    @pytest.mark.parametrize("basis", ["u", "t"])
    @pytest.mark.parametrize("ctx", [float_ctx(), EvalContext.exact(Q)],
                             ids=["float", "exact"])
    def test_entries_equal_basis_action(self, ctx, basis, flip):
        # exact entries are basis_action's radicals; a float entry is its
        # radical correctly rounded to the fixed-point scale, within half a
        # unit (+ 2^-16) of the value at 120 digits
        sig = Signature(5, 2, -1)
        rep = TruncatedRep(ctx, sig, basis, Truncation(3, 3, 3),
                           flip_entry=flip)
        ectx = EvalContext.exact(Q)
        for g in GENERATORS:
            want = {}
            for j, lab in enumerate(rep.labels):
                terms = basis_action(ectx, sig, basis, g, lab, flip_entry=flip)
                for tgt, coeff in sorted(terms,
                                         key=lambda t: t.target.sort_key()):
                    if tgt in rep.index:
                        want[(rep.index[tgt], j)] = coeff
            got = rep.matrices[g]
            assert list(got) == list(want)
            if ctx.is_exact():
                assert list(got.values()) == list(want.values())
            else:
                worst = max(units_off(got[k], rad, rep.bits)
                            for k, rad in want.items())
                assert worst <= 0.5 + 2 ** -16, (g, worst)

    @pytest.mark.parametrize("basis, gen", [("u", "A12"), ("t", "A23")])
    def test_row_leaving_the_domain_raises(self, monkeypatch, basis, gen):
        # shift the ladder row of gen by one step in k (resp. p): at the top
        # of that range the target is no label, which must not pass as a
        # target outside the window
        [row] = generators_mod._ROWS[basis][gen]
        shifted = dataclasses.replace(row, d1=row.d1 + (basis == "u"),
                                      d2=row.d2 + (basis == "t"))
        monkeypatch.setitem(generators_mod._ROWS[basis], gen, (shifted,))
        with pytest.raises(ConstraintViolation):
            TruncatedRep(float_ctx(), SIG, basis, Truncation(2, 2, 2))

    def test_unknown_flip_entry_rejected(self):
        with pytest.raises(ValueError, match="U99"):
            TruncatedRep(float_ctx(), SIG, "u", Truncation(2, 2, 2),
                         flip_entry="U99")

    def test_exact_rep_stores_radicals(self):
        rep = TruncatedRep(EvalContext.exact(Q), SIG, "t", Truncation(2, 2, 2))
        vals = list(rep.matrices["A13"].values())
        assert vals and all(isinstance(v, SignedRadical) for v in vals)


class TestIndividualChecks:
    def test_su11_passes_both_bases(self):
        for basis in ("u", "t"):
            rep = TruncatedRep(float_ctx(), SIG, basis, Truncation(3, 3, 3))
            reports = check_su11_relations(rep)
            assert reports and all(r.passed for r in reports)

    def test_su11_exact_mode(self):
        rep = TruncatedRep(EvalContext.exact(Fraction(1)), SIG, "t",
                           Truncation(3, 3, 3))
        reports = check_su11_relations(rep)
        assert reports and all(r.passed for r in reports)
        assert all(r.max_residual == 0.0 for r in reports)

    def test_hermiticity_passes(self):
        for basis in ("u", "t"):
            rep = TruncatedRep(float_ctx(), SIG, basis, Truncation(3, 3, 3))
            assert all(r.passed for r in check_hermiticity(rep))

    def test_hermiticity_rejects_exact(self):
        rep = TruncatedRep(EvalContext.exact(Q), SIG, "t", Truncation(2, 2, 2))
        with pytest.raises(ValueError):
            check_hermiticity(rep)

    def test_casimir_needs_t_basis(self):
        rep = TruncatedRep(float_ctx(), SIG, "u", Truncation(2, 2, 2))
        with pytest.raises(ValueError):
            check_casimir(rep)

    def test_casimir_passes_and_reports_separation(self):
        rep = TruncatedRep(float_ctx(), SIG, "t", Truncation(3, 3, 3))
        reports = check_casimir(rep)
        names = [r.name for r in reports]
        assert names == ["casimir-eigenvalue", "casimir-separation"]
        assert all(r.passed for r in reports)
        assert reports[1].note

    def test_casimir_separation_without_multi_t_weight(self):
        rep = TruncatedRep(float_ctx(), Signature(7, 7, 4), "t",
                           Truncation(3, 3, 3))
        sep = check_casimir(rep)[1]
        assert sep.passed and sep.columns_checked > 0
        assert sep.note == "no weight holds two T values"

    def test_exact_residual_is_the_largest_entry(self):
        rep = TruncatedRep(EvalContext.exact(Q), SIG, "t", Truncation(2, 2, 2))
        entries = {(0, 0): SignedRadical.from_rational(Fraction(1, 10**12)),
                   (1, 1): SignedRadical.from_rational(Fraction(5))}
        report = verify_mod._matrix_report("scan", rep, (entries, 0), 1e-10,
                                           note="exact")
        assert not report.passed
        assert report.max_residual == 5.0
        assert report.location == f"row={rep.labels[1]} col={rep.labels[1]}"

    def test_norm_recursions(self):
        rep = check_norm_recursions(SIG, Q, Truncation(4, 4, 4))
        assert rep.passed
        assert rep.columns_checked == 2 * 3 * 5

    def test_norm_recursions_follow_the_window(self):
        # 3 values of k times ell <= 2, plus 3 values of p times s <= 5
        [report] = run_all_checks(SIG, Q, truncation=Truncation(2, 5, 1),
                                  checks=("norms",))
        assert report.passed
        assert report.columns_checked == 3 * 3 + 3 * 6

    def test_orthogonality_and_intertwiner(self):
        trunc = Truncation(3, 3, 3)
        blocks = complete_blocks(float_ctx(), SIG, trunc)
        reps = {b: TruncatedRep(float_ctx(), SIG, b, trunc) for b in ("u", "t")}
        ortho = check_weyl_orthogonality(blocks)
        inter = check_intertwiner(blocks, reps)
        assert ortho.passed and inter.passed
        assert ortho.columns_checked == len(blocks) > 0
        assert inter.columns_checked > 0

    def test_intertwiner_skips_only_exactly_zero_pairs(self):
        # desk config: on every block both sides of the A11, A22 and A33
        # identities are the same products m W, and every other generator
        # moves the weight
        blocks, reps = blocks_and_reps(SIG, Q, Truncation(6, 6, 6))
        where = {w: ([reps["u"].index[l] for l in blk.u_labels],
                     [reps["t"].index[l] for l in blk.t_labels])
                 for w, blk in blocks.items()}
        for g in ("A11", "A22", "A33"):
            mu, mt = reps["u"].matrices[g], reps["t"].matrices[g]
            for blk in blocks.values():
                assert all(mag == 0 for mag, _, _ in
                           verify_mod._intertwiner_residuals(mu, mt, blk, blk,
                                                             where))
        moving = [g for g in GENERATORS if any(WEIGHT_SHIFTS[g])]
        pairs = sum(Weight(*(m + d for m, d in zip(w, WEIGHT_SHIFTS[g])))
                    in blocks for g in moving for w in blocks)
        assert check_intertwiner(blocks, reps).columns_checked == pairs == 202

    @pytest.mark.parametrize("sig", [Signature(3, 1, -1), Signature(7, 7, 4)])
    @pytest.mark.parametrize("q", [Fraction(1), Q])
    def test_intertwiner_agrees_with_conjugated_form(self, sig, q):
        # the configs of verify_reprs.txt; the largest ratio there is 1.
        # At q = 1 on (7,7,4) both residuals are exactly 0, so the check's
        # coverage, not its residual, shows that it compared something
        blocks, reps = blocks_and_reps(sig, q, Truncation(4, 4, 4))
        report = check_intertwiner(blocks, reps)
        conjugated, _ = intertwiner_conjugated(blocks, reps)
        assert report.passed and conjugated <= report.tolerance
        assert report.columns_checked > 0
        assert report.max_residual <= 2 * conjugated

    def test_complete_blocks_drop_weights_whose_labels_leave_the_window(self):
        kept = {t: complete_blocks(float_ctx(), SIG, Truncation(*t))
                for t in ((4, 4, 4), (4, 1, 4), (4, 4, 1))}
        assert {t: len(b) for t, b in kept.items()} == \
            {(4, 4, 4): 25, (4, 1, 4): 13, (4, 4, 1): 13}
        for (_, s_max, depth), blocks in kept.items():
            assert all(l.s <= s_max and l.depth() <= depth
                       for blk in blocks.values() for l in blk.t_labels)

    def test_complete_blocks_check_no_label(self, monkeypatch):
        # the labels come from repspace's own enumeration at each weight
        calls = []
        for mod in (repspace_mod, weylracah_mod):
            for name in ("require_u_label", "require_t_label"):
                def counting(sig, lab, _fn=getattr(mod, name)):
                    calls.append(lab)
                    return _fn(sig, lab)
                monkeypatch.setattr(mod, name, counting)
        assert complete_blocks(float_ctx(), SIG, Truncation(3, 3, 3))
        assert calls == []

    def test_block_checks_build_nothing(self, monkeypatch):
        trunc = Truncation(2, 2, 2)
        blocks = complete_blocks(float_ctx(), SIG, trunc)
        reps = {b: TruncatedRep(float_ctx(), SIG, b, trunc) for b in ("u", "t")}

        def no_build(*_args, **_kwargs):
            raise AssertionError("a check built its own input")

        for name in ("_racah_form_exact", "TruncatedRep", "complete_blocks"):
            monkeypatch.setattr(verify_mod, name, no_build)
        assert check_weyl_orthogonality(blocks).passed
        assert check_intertwiner(blocks, reps).passed

    def test_report_keeps_first_maximum(self):
        report = verify_mod._report(
            "scan", [(1, ("a",)), (3, ("b",)), (3, ("c",)), (2, ("d",))],
            lambda key: f"at {key}", 4, 1.0)
        assert (report.max_residual, report.location) == (3.0, "at b")
        assert not report.passed and report.columns_checked == 4

    def test_report_zero_residual_has_no_location(self):
        def locate(*_key):
            raise AssertionError("a zero residual was located")

        report = verify_mod._report("scan", [(0, (1,)), (0, (2,))], locate,
                                    2, 1e-10)
        assert report == CheckReport("scan", True, 0.0, 1e-10, "", 2, "")

    @pytest.mark.parametrize("note, want", [("", "no coverage"),
                                            ("exact", "exact; no coverage")])
    def test_report_without_columns_is_vacuous(self, note, want):
        report = verify_mod._report("scan", [(5, (1,))], str, 0, 1e-10, note)
        assert report == CheckReport("scan", True, 0.0, 1e-10, "", 0, want)

    def test_projector_reports(self):
        rep = TruncatedRep(float_ctx(), SIG, "t", Truncation(4, 4, 4))
        reports = check_projector(rep, Fraction(2))
        assert all(r.passed for r in reports)
        names = {r.name for r in reports}
        assert any(n.startswith("projector-") for n in names)

    def test_spectral_projector_is_its_own_check(self):
        # C2 is read from the ladder entries, not from the label's spin, so
        # the spectral residuals are not copies of the diagonal ones
        reports = {r.name: r for r in run_all_checks(
            SIG, Q, truncation=Truncation(6, 6, 6), checks=("projector",))}
        spectral = [n for n in reports if n.startswith("projector-spectral-")]
        assert len(spectral) == 7
        assert all(reports[n].passed for n in spectral)
        twins = [(reports[n], reports[n.replace("spectral", "diagonal")])
                 for n in spectral]
        assert any((s.max_residual, s.location) != (d.max_residual, d.location)
                   for s, d in twins)

    def test_spectral_projector_counts_columns_with_an_up_step(self):
        rep = TruncatedRep(float_ctx(), SIG, "t", Truncation(3, 3, 3))
        reports = {r.name: r for r in check_projector(rep, Fraction(4))}
        # the column s=0 p=0 T=1 M=5 sits at depth 3, the top of the window
        assert reports["projector-diagonal-T4"].columns_checked == 6
        assert reports["projector-spectral-T4"].columns_checked == 5

    @pytest.mark.parametrize("ctx, basis", [(float_ctx(), "u"),
                                            (EvalContext.exact(Q), "t")])
    def test_projector_needs_float_t_rep(self, ctx, basis):
        rep = TruncatedRep(ctx, SIG, basis, Truncation(2, 2, 2))
        with pytest.raises(ValueError):
            check_projector(rep, Fraction(2))

    def test_projector_no_coverage(self):
        rep = TruncatedRep(float_ctx(), SIG, "t", Truncation(2, 2, 2))
        reports = check_projector(rep, Fraction(40))
        assert len(reports) == 1
        assert reports[0].passed
        assert "no coverage" in reports[0].note


class TestRunAll:
    def test_float_all_pass(self):
        reports = run_all_checks(SIG, Q, truncation=Truncation(3, 3, 3))
        assert len(reports) > 20
        failed = [r for r in reports if not r.passed]
        assert failed == []

    def test_exact_mode_all_pass(self):
        reports = run_all_checks(SIG, Fraction(1), mode="exact",
                                 truncation=Truncation(3, 3, 3))
        assert all(r.passed for r in reports)

    def test_enlarging_truncation_keeps_passing(self):
        small = run_all_checks(SIG, Q, truncation=Truncation(2, 2, 2))
        large = run_all_checks(SIG, Q, truncation=Truncation(4, 4, 4))
        assert all(r.passed for r in small)
        assert all(r.passed for r in large)

    def test_fault_injection_is_caught_and_localized(self):
        reports = run_all_checks(SIG, Q, truncation=Truncation(3, 3, 3),
                                 flip_entry="U5",
                                 checks=("intertwiner",))
        assert len(reports) == 1
        assert not reports[0].passed
        assert "generator=A31" in reports[0].location

    def test_fault_injection_t_table(self):
        reports = run_all_checks(SIG, Q, truncation=Truncation(3, 3, 3),
                                 flip_entry="T3",
                                 checks=("intertwiner",))
        assert not reports[0].passed
        assert "generator=A12" in reports[0].location

    def test_checks_subset_and_unknown(self):
        only = run_all_checks(SIG, Q, checks=("norms",))
        assert [r.name for r in only] == ["norm-recursions"]
        with pytest.raises(ValueError):
            run_all_checks(SIG, Q, checks=("norms", "spectra"))

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.0,
                                           -1.0])
    def test_bad_tolerance_raises_before_any_check(self, monkeypatch,
                                                   tolerance):
        def no_work(*_args, **_kwargs):
            raise AssertionError("a check ran")

        for name in ("TruncatedRep", "check_norm_recursions",
                     "complete_blocks"):
            monkeypatch.setattr(verify_mod, name, no_work)
        with pytest.raises(ValueError, match="tolerance"):
            run_all_checks(SIG, Q, truncation=Truncation(1, 1, 1),
                           tolerance=tolerance)

    def test_degenerate_casimir_eigenvalues_are_noted(self):
        # at tolerance 5 some Casimir eigenvalue gaps at q = 13/10 count as
        # degenerate: the separation says so and those spectral checks skip
        reports = run_all_checks(SIG, Q, truncation=Truncation(3, 3, 3),
                                 tolerance=5, checks=("casimir", "projector"))
        notes = {r.name: r.note for r in reports}
        assert notes["casimir-separation"] == "degenerate eigenvalues at this q"
        assert sorted(name for name, note in notes.items()
                      if note == "degenerate Casimir eigenvalues, skipped") \
            == ["projector-spectral-T2", "projector-spectral-T3",
                "projector-spectral-T4"]
        assert all(r.passed for r in reports)

    def test_projector_cap_limits_spins(self):
        # window 5 covers spin 9/2, so only the cap stops the spins at 4
        reports = run_all_checks(SIG, Q, truncation=Truncation(5, 5, 5),
                                 checks=("projector",))
        spins = {Fraction(r.name.rsplit("T", 1)[-1]) for r in reports}
        assert verify_mod.PROJECTOR_T_CAP == 4
        assert spins == {Fraction(n, 2) for n in range(2, 9)}

    def test_report_lines_render(self):
        reports = run_all_checks(SIG, Q, truncation=Truncation(2, 2, 2),
                                 checks=("su11", "casimir"))
        for r in reports:
            line = r.line()
            assert r.name in line
            assert line.startswith("pass" if r.passed else "FAIL")

    def test_default_checks_constant(self):
        assert set(DEFAULT_CHECKS) == {"su11", "hermiticity", "casimir",
                                       "norms", "orthogonality", "intertwiner",
                                       "projector"}


class TestOnePass:
    """run_all_checks builds each object once and keeps every report."""

    def test_desk_verify_matches_golden(self, capsys):
        out = ""
        for extra in ((), ("--mode", "exact")):
            code = cli.main(["verify", "--sig", "4,2,-2", "--q", "13/10",
                             *extra])
            assert code == 0
            out += capsys.readouterr().out
        golden = Path(__file__).parent / "golden" / "verify_desk.txt"
        with open(golden, newline="") as fh:
            assert out == fh.read()

    def test_each_block_and_rep_built_once(self, monkeypatch):
        trunc = Truncation(3, 3, 3)
        blocks = complete_blocks(float_ctx(), SIG, trunc)
        calls = {"bracket": [], "key_action": [], "rows": [], "u_keys": []}
        bracket_args = verify_mod._bracket_args
        key_action = verify_mod._key_action
        multiplet_rows = generators_mod._multiplet_rows
        u_keys_at_weight = verify_mod._u_keys_at_weight

        def counting_bracket_args(sig, ukey, tkey):
            calls["bracket"].append((ukey, tkey))
            return bracket_args(sig, ukey, tkey)

        def counting_key_action(sig, basis, key, *args):
            calls["key_action"].append((basis, key))
            return key_action(sig, basis, key, *args)

        def counting_rows(sig, basis, gen, a, b, *args):
            calls["rows"].append((basis, gen, a, b))
            return multiplet_rows(sig, basis, gen, a, b, *args)

        def counting_u_keys(sig, weight):
            calls["u_keys"].append(weight)
            return u_keys_at_weight(sig, weight)

        monkeypatch.setattr(verify_mod, "_bracket_args", counting_bracket_args)
        monkeypatch.setattr(verify_mod, "_key_action", counting_key_action)
        monkeypatch.setattr(generators_mod, "_multiplet_rows", counting_rows)
        for mod in (verify_mod, repspace_mod):
            monkeypatch.setattr(mod, "_u_keys_at_weight", counting_u_keys)
        reports = run_all_checks(SIG, Q, truncation=trunc)
        ortho = next(r for r in reports if r.name == "weyl-orthogonality")
        # each block once: every entry evaluated once, and the entries
        # cover the ortho.columns_checked complete weights
        assert len(blocks) == ortho.columns_checked > 0
        pairs = [(_u_key(u), _t_key(t)) for blk in blocks.values()
                 for u in blk.u_labels for t in blk.t_labels]
        assert calls["bracket"] == pairs
        # each weight's labels are enumerated once, blocks included
        assert len(set(calls["u_keys"])) == len(calls["u_keys"]) > 0
        # one table evaluation per label of each rep, all generators at once
        labels = ([("u", _u_key(l))
                   for l in enumerate_u_basis(SIG, trunc.ell_max)]
                  + [("t", _t_key(l))
                     for l in enumerate_t_basis(SIG, trunc.s_max, trunc.depth)])
        assert sorted(calls["key_action"]) == sorted(labels)
        # each generator's rows, with their reduced parts, once per multiplet
        multiplets = {(b, a, c) for b, (a, c, _) in labels}
        assert sorted(calls["rows"]) == sorted(
            (b, g, a, c) for b, a, c in multiplets
            for g in generators_mod._OFF_DIAGONAL)

    def test_projector_alone_builds_only_the_t_rep(self, monkeypatch):
        built = []
        rep_cls = verify_mod.TruncatedRep

        def recording_rep(ctx, sig, basis, *args, **kwargs):
            built.append(basis)
            return rep_cls(ctx, sig, basis, *args, **kwargs)

        monkeypatch.setattr(verify_mod, "TruncatedRep", recording_rep)
        run_all_checks(SIG, Q, truncation=Truncation(2, 2, 2),
                       checks=("projector",))
        assert built == ["t"]

    @pytest.mark.parametrize(
        "eid", [e.eid for b in ("u", "t") for e in table_entries(b)])
    def test_intertwiner_catches_every_flipped_entry(self, eid):
        # and so does the conjugated form, worst at the same generator
        blocks, reps = blocks_and_reps(SIG, Q, Truncation(3, 3, 3), eid)
        report = check_intertwiner(blocks, reps)
        conjugated, (g, *_) = intertwiner_conjugated(blocks, reps)
        assert not report.passed and conjugated > report.tolerance
        assert report.location.startswith(f"generator={g} ")

    @pytest.mark.parametrize("eid, mode, checks", [
        ("T9", "float", ("projector",)),
        ("T10", "float", ("projector",)),
        ("T9", "exact", ("su11", "casimir")),
    ])
    def test_rep_checks_catch_flipped_ladder(self, eid, mode, checks):
        reports = run_all_checks(SIG, Q, mode=mode,
                                 truncation=Truncation(3, 3, 3),
                                 flip_entry=eid, checks=checks)
        failed = [r for r in reports if not r.passed]
        assert failed
        if mode == "exact":
            assert all("[exact]" in r.line() for r in failed)

    def test_projector_power_is_relative_to_the_norm(self):
        # N^2(T, T+1+x) passes 1e40 here; measured absolutely, the residual
        # of projector-power-T3/2 .. T4 read 3e-8 .. 1.4e11
        reports = run_all_checks(Signature(8, 2, -2), Fraction(3),
                                 truncation=Truncation(8, 8, 8),
                                 checks=("projector",))
        power = [r for r in reports if r.name.startswith("projector-power")]
        assert len(power) == 7 and all(r.passed for r in reports)

    @pytest.mark.parametrize("eid", ["T9", "T10"])
    def test_projector_power_catches_flipped_ladder(self, eid):
        # a flipped T+ or T- turns (-1)^x N^2 into -(-1)^x N^2 for odd x:
        # relative residual 2 in every power report that has columns
        reports = run_all_checks(SIG, Q, truncation=Truncation(3, 3, 3),
                                 flip_entry=eid, checks=("projector",))
        power = [r for r in reports if r.name.startswith("projector-power")
                 and r.columns_checked]
        assert len(power) == 6
        for r in power:
            assert not r.passed and abs(r.max_residual - 2) < 1e-40, r

    def test_reports_match_golden_reprs(self):
        lines = []
        for sig in (Signature(3, 1, -1), Signature(7, 7, 4)):
            for q in (Fraction(1), Q):
                for mode in ("float", "exact"):
                    lines += [repr(r) for r in run_all_checks(
                        sig, q, mode=mode, truncation=Truncation(4, 4, 4))]
        golden = Path(__file__).parent / "golden" / "verify_reprs.txt"
        with open(golden, newline="") as fh:
            assert lines == fh.read().splitlines()

    def test_flip_failures_match_golden_reprs(self):
        # pins which checks catch each table sign fault, and where
        lines = []
        for eid in [e.eid for b in ("u", "t") for e in table_entries(b)]:
            for mode in ("float", "exact"):
                failed = [repr(r) for r in run_all_checks(
                    SIG, Q, mode=mode, truncation=Truncation(3, 3, 3),
                    flip_entry=eid) if not r.passed]
                assert failed, (eid, mode)
                lines += failed
        golden = Path(__file__).parent / "golden" / "verify_flip_fails.txt"
        with open(golden, newline="") as fh:
            assert lines == fh.read().splitlines()

    def test_large_reports_match_golden_reprs(self, large_reports):
        lines = [repr(r) for r in large_reports]
        golden = Path(__file__).parent / "golden" / "verify_large_reprs.txt"
        with open(golden, newline="") as fh:
            assert lines == fh.read().splitlines()

    def test_large_intertwiner_checks_off_diagonal_pairs(self, large_reports):
        # 1098 block pairs less the A11, A22 and A33 pairs of 132 blocks
        reports = {r.name: r for r in large_reports}
        assert reports["weyl-orthogonality"].columns_checked == 132
        assert reports["intertwiner"].columns_checked == 1098 - 3 * 132


# sparse 4x4 matrices of dyadic values: an int n stands for n 2^-F
_ENTRIES = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           st.integers(-2 ** 200, 2 ** 200), max_size=10)
# an operator name of _relation: a generator, a transpose or a diagonal
_NAMES = st.sampled_from(("A12", "A21", "A12^T", "D"))
_TERMS = st.lists(
    st.tuples(st.one_of(st.sampled_from((1, -1)),
                        st.fractions(-10, 10, max_denominator=1000)),
              st.lists(_NAMES, min_size=1, max_size=3).map(tuple)),
    min_size=1, max_size=4)


# desk at four q, and the large config at 13/10
ONE_PASS_CASES = ([(SIG, Truncation(6, 6, 6), q) for q in
                   (Q, Fraction(1), Fraction(1, 2), Fraction(3))]
                  + [(Signature(8, 2, -2), Truncation(10, 10, 10), Q)])


class TestOneIntegerPass:
    """Every float input of verify is its exact value rounded once: the
    complete blocks and the float reps, built in one pass over the integer
    tables, equal the exact blocks and reps rounded entry for entry."""

    @pytest.mark.parametrize("sig, trunc, q", ONE_PASS_CASES)
    def test_blocks_are_the_exact_blocks_rounded(self, sig, trunc, q):
        fctx, ectx = float_ctx(q), EvalContext.exact(q)
        blocks = complete_blocks(fctx, sig, trunc)
        assert blocks
        for w, blk in blocks.items():
            exact = weylracah_mod.weyl_block(ectx, sig, w)
            assert (blk.u_labels, blk.t_labels) == \
                (exact.u_labels, exact.t_labels)
            assert blk.entries == tuple(tuple(map(fctx.to_fixed, row))
                                        for row in exact.entries), w

    @pytest.mark.parametrize("basis", ["u", "t"])
    @pytest.mark.parametrize("sig, trunc, q", ONE_PASS_CASES)
    def test_float_reps_are_the_exact_reps_rounded(self, sig, trunc, q,
                                                   basis):
        fctx = float_ctx(q)
        direct = TruncatedRep(fctx, sig, basis, trunc)
        twin = TruncatedRep(EvalContext.exact(q), sig, basis,
                            trunc).rounded(fctx)
        assert twin.bits == direct.bits
        for g in GENERATORS:
            assert list(twin.matrices[g].items()) == \
                list(direct.matrices[g].items()), g
        assert (twin.labels, twin.interior1, twin.interior2) == \
            (direct.labels, direct.interior1, direct.interior2)


def check_relation(a12, a21, diagonal, terms, columns, mode):
    """_relation against Fractions, and _report on its result.

    Each matrix entry is a dyadic value, an int n of n 2^-F in float mode
    and a SignedRadical in exact mode; a float context rounds each diagonal
    value and each coefficient other than +-1 once; then every sum and
    product is exact.
    """
    fctx = float_ctx()
    bits = fctx.fixed_bits()
    dyadic = lambda n: Fraction(n, 1 << bits)
    if mode == "exact":
        ctx, rounded = EvalContext.exact(Q), lambda c: c
        as_entry = lambda n: SignedRadical.from_rational(dyadic(n))
    else:
        ctx, as_entry = fctx, lambda n: n
        rounded = lambda c: c if c in (1, -1) else \
            dyadic(fctx.to_fixed(c))
    rep = SimpleNamespace(
        ctx=ctx, bits=0 if mode == "exact" else bits,
        matrices={"A12": {k: as_entry(n) for k, n in a12.items()},
                  "A21": {k: as_entry(n) for k, n in a21.items()}})
    ops = {"D": verify_mod._diagonal(ctx, range(4), diagonal.__getitem__)}
    got, got_bits = verify_mod._relation(rep, ops, terms, columns)

    def matrix(name):
        if name == "D":
            return {(k, k): rounded(x) for k, x in enumerate(diagonal)}
        entries = a21 if name == "A21" else a12
        return {((j, i) if name == "A12^T" else (i, j)): dyadic(n)
                for (i, j), n in entries.items()}

    want = {}
    for c, word in terms:
        prod = {(j, j): Fraction(1) for j in range(4)
                if columns is None or columns[j]}
        for name in reversed(word):
            step = {}
            for (i, k), x in matrix(name).items():
                for (k2, j), y in prod.items():
                    if k == k2:
                        step[(i, j)] = step.get((i, j), 0) + x * y
            prod = step
        for k, x in prod.items():
            want[k] = want.get(k, 0) + rounded(c) * x
    want = {k: x for k, x in want.items() if x}
    if mode == "exact":
        assert got_bits == 0
        got = {k: v.sign * sqrt_fraction(v.squared(ctx))
               for k, v in got.items()}
    else:
        assert got_bits == bits * max(len(w) + (c not in (1, -1))
                                      for c, w in terms)
    assert {k: x for k, v in got.items()
            if (x := Fraction(v, 1 << got_bits))} == want
    # and the report converts the exact largest magnitude once
    report = verify_mod._report(
        "scan", ((abs(v), k) for k, v in sorted(got.items())),
        lambda i, j: f"{i},{j}", 1, 1.0, bits=got_bits)
    assert report.max_residual == float(max(map(abs, want.values()),
                                            default=0))


_DIAGONALS = st.lists(st.fractions(-10, 10, max_denominator=1000),
                      min_size=4, max_size=4)


class TestFixedPoint:
    """The float-mode kernels are exact on their fixed-point inputs."""

    @settings(max_examples=200, deadline=None)
    @given(_ENTRIES, _ENTRIES)
    def test_sparse_product_is_exact(self, a, b):
        # one product of two generators, on the scale 2F
        check_relation(a, b, [1] * 4, [(1, ("A12", "A21"))], None, "float")

    @settings(max_examples=200, deadline=None)
    @given(_ENTRIES, _ENTRIES, _DIAGONALS,
           st.lists(st.tuples(st.sampled_from((1, -1)),
                              _NAMES.map(lambda name: (name,))),
                    min_size=1, max_size=4))
    def test_linear_combination_is_exact(self, a12, a21, diagonal, terms):
        # a signed sum of single operators, on the scale F
        check_relation(a12, a21, diagonal, terms, None, "float")

    @settings(max_examples=200, deadline=None)
    @given(_ENTRIES, _ENTRIES, _DIAGONALS, _TERMS,
           st.one_of(st.none(), st.tuples(*[st.booleans()] * 4)),
           st.sampled_from(("float", "exact")))
    def test_relation_is_exact(self, a12, a21, diagonal, terms, columns,
                               mode):
        check_relation(a12, a21, diagonal, terms, columns, mode)

    def test_float_key_reaches_the_verdicts_of_its_fraction(self):
        # a float q is read as its exact binary rational, 13/10 is another
        # rational: both reach the kernels through their integer tables
        got = run_all_checks(SIG, 1.3)
        want = run_all_checks(SIG, Fraction(13, 10))
        assert [(r.name, r.passed) for r in got] == \
            [(r.name, r.passed) for r in want]
        assert len(got) == 56 and all(r.passed for r in got)

    def test_float_key_resolves_a_tolerance_near_the_rounding_bound(self):
        # the float key 1.3 is the Fraction it already is, so its reports
        # are that Fraction's; the mpf evaluation failed four of them here
        # (residuals up to 4.5e-47)
        got = run_all_checks(SIG, 1.3, tolerance=1e-48)
        want = run_all_checks(SIG, Fraction(1.3), tolerance=1e-48)
        assert len(got) == 56 and all(r.passed for r in got)
        strip = lambda r: (r.name, r.passed, r.max_residual, r.location,
                           r.columns_checked)
        assert list(map(strip, got)) == list(map(strip, want))

    @pytest.mark.parametrize("flip", [None, "T3", "T9"])
    @pytest.mark.parametrize("q", [Q, Fraction(3), Fraction(1, 2)])
    def test_rounded_exact_rep_is_the_float_build(self, q, flip):
        trunc = Truncation(4, 4, 4)
        exact = TruncatedRep(EvalContext.exact(q), SIG, "t", trunc,
                             flip_entry=flip)
        direct = TruncatedRep(float_ctx(q), SIG, "t", trunc, flip_entry=flip)
        twin = exact.rounded(float_ctx(q))
        assert twin.bits == direct.bits
        for g in GENERATORS:
            assert list(twin.matrices[g].items()) == \
                list(direct.matrices[g].items()), g
        assert (twin.labels, twin.interior1, twin.interior2) == \
            (direct.labels, direct.interior1, direct.interior2)
        assert all(isinstance(v, SignedRadical)
                   for v in exact.matrices["A23"].values())

    def test_exact_mode_builds_the_t_basis_once(self, monkeypatch):
        calls = []
        key_action = verify_mod._key_action

        def counting_key_action(sig, basis, key, *args):
            calls.append((basis, key))
            return key_action(sig, basis, key, *args)

        monkeypatch.setattr(verify_mod, "_key_action", counting_key_action)
        trunc = Truncation(3, 3, 3)
        reports = run_all_checks(SIG, Q, mode="exact", truncation=trunc)
        assert all(r.passed for r in reports)
        labels = ([("u", _u_key(l))
                   for l in enumerate_u_basis(SIG, trunc.ell_max)]
                  + [("t", _t_key(l))
                     for l in enumerate_t_basis(SIG, trunc.s_max, trunc.depth)])
        assert sorted(calls) == sorted(labels)


def definition_residual(rep: TruncatedRep, q) -> float:
    """The larger residual of the u_q(2,1) definitions
    A13 = A12 A23 - q A23 A12 and A31 = A32 A21 - q^-1 A21 A32, by
    verify._relation on the rep's two-step interior columns."""
    ops, cols = {}, rep.interior2
    definitions = ([(1, ("A13",)), (-1, ("A12", "A23")), (q, ("A23", "A12"))],
                   [(1, ("A31",)), (-1, ("A32", "A21")),
                    (1 / q, ("A21", "A32"))])
    return max(verify_mod._matrix_report(
        "definition", rep, verify_mod._relation(rep, ops, terms, cols), 1e-10,
        cols).max_residual for terms in definitions)


class TestDefiningRelations:
    """A13 and A31 are the q-commutators that define them (Jimbo, Lett.
    Math. Phys. 11 (1986) 247) on both desk reps, and a flipped table sign
    breaks one of them."""

    @pytest.mark.parametrize("q", [Q, Fraction(1), Fraction(1, 2)])
    def test_hold_within_the_rounding_bound(self, q):
        fctx = float_ctx(q)
        reps = [TruncatedRep(fctx, SIG, b, Truncation(6, 6, 6))
                for b in ("u", "t")]
        bound = rounding_bound(fctx, reps)
        for rep in reps:
            assert definition_residual(rep, q) <= bound, rep.basis

    @pytest.mark.parametrize(
        "eid", [e.eid for b in ("u", "t") for e in table_entries(b)])
    @pytest.mark.parametrize("q", [Q, Fraction(1), Fraction(1, 2)])
    def test_catch_every_flipped_entry(self, q, eid):
        rep = TruncatedRep(float_ctx(q), SIG, eid[0].lower(),
                           Truncation(6, 6, 6), flip_entry=eid)
        assert definition_residual(rep, q) > 1e-10


class TestRoundingBound:
    """A tolerance the precision cannot resolve is refused; every other
    fault-free run stays within the a-priori bound."""

    def test_unresolvable_tolerance_raises_before_any_check(self,
                                                            monkeypatch):
        def no_check(*_args, **_kwargs):
            raise AssertionError("a check ran")

        for name in ("check_su11_relations", "check_hermiticity",
                     "check_casimir", "check_norm_recursions",
                     "complete_blocks", "check_projector"):
            monkeypatch.setattr(verify_mod, name, no_check)
        with pytest.raises(ValueError,
                           match=r"^tolerance 1e-10 is below .*3-digit"):
            run_all_checks(SIG, Q, truncation=Truncation(2, 2, 2),
                           precision=3)

    def test_cli_refusal_exits_2_naming_tolerance_precision_and_bound(
            self, capsys):
        code = cli.main(["verify", "--sig", "4,2,-2", "--precision", "3"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "Traceback" not in err
        found = re.search(r"tolerance 1e-10 is below (\S+), the rounding "
                          r"bound of 3-digit", err)
        assert found and float(found.group(1)) > 1e-10

    @pytest.mark.parametrize("q", ["1", "13/10", "3", "1/2"])
    def test_low_precision_is_refused_or_passes(self, capsys, q):
        # a refusal exits 2; a run the precision resolves holds the algebra
        codes = []
        for precision in range(4, 12):
            code = cli.main(["verify", "--sig", "4,2,-2", "--q", q,
                             "--precision", str(precision), "--lmax", "2",
                             "--smax", "2", "--depth", "2"])
            out, _ = capsys.readouterr()
            assert code in (0, 2), (precision, out)
            if code == 0:
                assert out.endswith("all checks passed: 56/56\n")
            codes.append(code)
        assert codes[0] == 2 and codes == sorted(codes, reverse=True)

    @pytest.mark.parametrize("q", [Q, Fraction(3), Fraction(1, 2)])
    @pytest.mark.parametrize("sig, trunc", [
        (SIG, Truncation(6, 6, 6)),
        (Signature(8, 2, -2), Truncation(10, 10, 10))], ids=["desk", "large"])
    def test_residuals_stay_within_the_bound(self, sig, trunc, q):
        fctx = float_ctx(q)
        bound = rounding_bound(fctx, [TruncatedRep(fctx, sig, b, trunc)
                                      for b in ("u", "t")])
        reports = run_all_checks(sig, q, truncation=trunc)
        assert len(reports) == 56 and all(r.passed for r in reports)
        worst = max(reports, key=lambda r: r.max_residual)
        assert 0 < worst.max_residual <= bound, (worst, bound)

    @pytest.mark.parametrize("q", [Fraction(1), Q, Fraction(3),
                                   Fraction(1, 2)])
    @pytest.mark.parametrize("sig", [Signature(3, 1, -1), Signature(7, 7, 4)])
    def test_small_windows_stay_within_the_bound(self, sig, q):
        # at 10 digits and a tolerance equal to the bound every fault-free
        # report passes; the projector's largest terms sit in such windows
        for w in range(5):
            trunc = Truncation(w, w, w)
            fctx = EvalContext.floating(q, 10)
            bound = rounding_bound(fctx, [TruncatedRep(fctx, sig, b, trunc)
                                          for b in ("u", "t")])
            reports = run_all_checks(sig, q, truncation=trunc, precision=10,
                                     tolerance=bound)
            assert all(r.passed for r in reports), \
                (w, [r for r in reports if not r.passed])

    @pytest.mark.parametrize("q", [Fraction(3), Fraction(1, 2)])
    def test_flips_fail_the_golden_checks_at_other_q(self, q):
        # at q = 13/10 test_flip_failures_match_golden_reprs pins the reprs
        golden = Path(__file__).parent / "golden" / "verify_flip_fails.txt"
        with open(golden, newline="") as fh:
            want = [re.match(r"CheckReport\(name='([^']+)'", l).group(1)
                    for l in fh.read().splitlines()]
        got = [r.name for e in table_entries("u") + table_entries("t")
               for mode in ("float", "exact")
               for r in run_all_checks(SIG, q, mode=mode,
                                       truncation=Truncation(3, 3, 3),
                                       flip_entry=e.eid) if not r.passed]
        assert got == want
