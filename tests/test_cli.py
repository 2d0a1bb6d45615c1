"""End-to-end tests of the command line surface through cli.main."""

import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from qu21 import cli, generators, weylracah
from qu21.generators import GENERATORS
from qu21.qarith import EvalContext, SignedRadical
from qu21.weylracah import RacahArgs, qracah_exact
from qu21.repspace import Signature, enumerate_u_basis, u_labels_at_weight, \
    weight_of_u

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden_text(name):
    with open(GOLDEN / name, newline="") as fh:
        return fh.read()


def correctly_rounded(text: str, sign: int, square: Fraction,
                      digits: int) -> bool:
    """Is text sign * sqrt(square) rounded half-even to `digits`
    significant digits?  Decided on exact rationals: the printed value's
    half-unit interval must hold the root.  A root printed in fewer digits
    must be exact."""
    d = Decimal(text)
    if square == 0:
        return d == 0
    if (d < 0) != (sign < 0):
        return False
    a = abs(Fraction(d))
    if a * a == square:
        return True
    if len(d.as_tuple().digits) != digits:
        return False
    half = Fraction(10) ** (d.adjusted() - digits + 1) / 2
    low, high = (a - half) ** 2, (a + half) ** 2
    if low < square < high:
        return True
    return (square in (low, high)) and d.as_tuple().digits[-1] % 2 == 0


def radical_rows_rounded(rows, q: Fraction, digits: int):
    """The rows whose value column is not their radical correctly rounded."""
    return [row for row in rows if not correctly_rounded(
        row["value"], int(row["sign"]),
        q ** (2 * int(row["qpower"])) * Fraction(row["radicand"]), digits)]


def test_mpmath_is_loaded_only_where_an_mpf_is_made():
    # desk verify (float and exact), basis, matrix, weyl --via-racah and an
    # exact racah make no mpf: their values are rounded from integers
    # straight to fixed point or to decimal, so the process never imports
    # mpmath
    script = textwrap.dedent("""
        import contextlib, io, sys
        from qu21 import cli
        for argv in (
                ["verify", "--sig", "4,2,-2", "--q", "13/10"],
                ["verify", "--sig", "4,2,-2", "--q", "13/10", "--mode",
                 "exact", "--lmax", "3", "--smax", "3", "--depth", "3"],
                ["basis", "--sig", "4,2,-2", "--basis", "t"],
                ["matrix", "--sig", "4,2,-2", "--q", "13/10", "--gen", "A13"],
                ["weyl", "--sig", "4,2,-2", "--q", "13/10", "--weight",
                 "4,4,-4", "--via-racah"],
                ["racah", "--mode", "exact", "--q", "13/10", "--",
                 "1", "1", "1", "1", "1", "1"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        print("mpmath" in sys.modules)
        """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


_COMMAND_ARGV = {
    "basis": ["basis", "--sig", "4,2,-2", "--lmax", "1"],
    "matrix": ["matrix", "--sig", "4,2,-2", "--q", "13/10", "--gen", "A13",
               "--lmax", "1", "--format", "csv"],
    "weyl": ["weyl", "--sig", "4,2,-2", "--q", "13/10", "--weight", "4,4,-4",
             "--via-racah"],
    "racah": ["racah", "--q", "13/10", "--", "1", "1", "1", "1", "1", "1"],
    "verify": ["verify", "--sig", "4,2,-2", "--lmax", "1", "--smax", "1",
               "--depth", "1"],
}


def test_each_process_loads_only_the_layers_it_runs():
    # a fresh interpreter per case: the modules a bare import of the cli and
    # each subcommand leave in sys.modules
    script = textwrap.dedent("""
        import contextlib, io, sys
        before = set(sys.modules)
        from qu21 import cli
        if sys.argv[1:]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(sys.argv[1:]) == 0, sys.argv
        print(" ".join(sorted(set(sys.modules) - before)))
        """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    # no process loads dataclasses or inspect (with ast, dis and tokenize
    # about 10 ms of a start without a bytecode cache; see qu21.records)
    heavy = {"dataclasses", "inspect"}
    never = [([], {"qu21.generators", "qu21.verify", "qu21.weylracah",
                   "json", "csv"}),
             (_COMMAND_ARGV["racah"], {"qu21.verify", "qu21.generators"}),
             (_COMMAND_ARGV["weyl"], {"qu21.verify", "qu21.generators"}),
             (_COMMAND_ARGV["basis"], {"qu21.verify", "qu21.weylracah"}),
             (_COMMAND_ARGV["matrix"], {"qu21.verify", "qu21.weylracah"}),
             (_COMMAND_ARGV["verify"], {"json", "csv"}),
             ([*_COMMAND_ARGV["verify"], "--mode", "exact"], {"json", "csv"})]
    for argv, absent in never:
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        assert "qu21.cli" in loaded
        unwanted = loaded & (absent | heavy)
        assert not unwanted, (argv, sorted(unwanted))


def test_deferred_names_are_read_from_their_owning_module():
    # the benchmark's tracer wraps a function in every namespace that holds
    # it and restores it on removal; cli holds none of its layers' names, so
    # it shows whatever the owner holds, and a removal leaves nothing behind
    assert cli.basis_action is generators.basis_action
    assert cli.weyl_via_racah is weylracah.weyl_via_racah
    assert "basis_action" not in vars(cli)
    assert "weyl_via_racah" not in vars(cli)
    assert cli.json.dumps and cli.csv.DictWriter
    with pytest.raises(AttributeError):
        cli.no_such_name


@pytest.mark.parametrize("source", ["option", "QU21_PRECISION"])
@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("command", sorted(_COMMAND_ARGV))
def test_precision_below_one_is_usage_error(capsys, monkeypatch, command,
                                            value, source):
    argv = _COMMAND_ARGV[command]
    if source == "option":
        argv = [argv[0], "--precision", value, *argv[1:]]
    else:
        monkeypatch.setenv(source, value)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.splitlines()[-1] == (f"qu21 {command}: error: argument "
                                    f"--precision: expected a positive "
                                    f"integer, got '{value}'")


@pytest.mark.parametrize("digits", [0, -2])
def test_formatters_refuse_fewer_than_one_digit(digits):
    with pytest.raises(ValueError, match="at least 1 digit"):
        cli.format_float(Fraction(1, 3), digits)
    with pytest.raises(ValueError, match="at least 1 digit"):
        cli.format_root(1, Fraction(1, 3), digits)


class TestParsing:
    def test_bad_signature(self, capsys):
        code, _, err = run(capsys, "basis", "--sig", "4,2")
        assert code == 2
        assert err.startswith("error:")

    def test_invalid_signature_inequality(self, capsys):
        code, _, err = run(capsys, "basis", "--sig", "1,2,0")
        assert code == 2
        assert "f1 >= f2" in err

    def test_bad_q(self, capsys):
        code, _, err = run(capsys, "basis", "--sig", "4,2,-2", "--q", "two")
        assert code == 2

    def test_bad_half_integer(self, capsys):
        code, _, err = run(capsys, "racah", "--q", "1", "1", "1", "1", "1",
                           "1", "0.3")
        assert code == 2
        assert "half-integer" in err


class TestBasis:
    def test_row_count_and_schema(self, capsys):
        code, out, _ = run(capsys, "basis", "--sig", "4,2,-2", "--lmax", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["series"] == "standard"
        assert len(doc["rows"]) == 15
        assert set(doc["rows"][0]) == {"k", "ell", "U", "MU", "m1", "m2",
                                       "m3", "norm_sq", "pattern"}

    def test_t_basis_rows(self, capsys):
        code, out, _ = run(capsys, "basis", "--sig", "4,2,-2", "--basis", "t",
                           "--smax", "1", "--depth", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["basis"] == "t"
        for row in doc["rows"]:
            assert set(row) == {"s", "p", "T", "M", "m1", "m2", "m3",
                                "norm_sq"}

    def test_json_and_csv_carry_identical_values(self, capsys):
        argv = ("basis", "--sig", "3,1,-1", "--lmax", "1", "--q", "1/2")
        _, out_json, _ = run(capsys, *argv, "--format", "json")
        _, out_csv, _ = run(capsys, *argv, "--format", "csv")
        rows_json = json.loads(out_json)["rows"]
        rows_csv = list(csv.DictReader(io.StringIO(out_csv)))
        assert rows_csv == rows_json

    def test_matches_golden(self, capsys):
        _, out, _ = run(capsys, "basis", "--sig", "3,1,-1", "--lmax", "1",
                        "--q", "1/2", "--format", "json")
        assert out == golden_text("basis_u_small.json")

    def test_deterministic(self, capsys):
        argv = ("basis", "--sig", "5,2,-1", "--lmax", "2", "--format", "csv")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_out_flag_writes_same_bytes(self, capsys, tmp_path):
        target = tmp_path / "basis.csv"
        argv = ("basis", "--sig", "4,2,-2", "--lmax", "1", "--format", "csv")
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0
        assert out == ""
        with open(target, newline="") as fh:
            assert fh.read() == run(capsys, *argv)[1]


class TestMatrix:
    def test_rows_have_exact_and_float_fields(self, capsys):
        code, out, _ = run(capsys, "matrix", "--sig", "4,2,-2", "--gen",
                           "A23", "--basis", "t", "--smax", "1", "--depth",
                           "2", "--q", "13/10")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["gen"] == "A23"
        assert doc["rows"]
        for row in doc["rows"]:
            assert set(row) == {"source", "target", "sign", "qpower",
                                "radicand", "value"}
            assert row["sign"] in {"-1", "1"}
            float(row["value"])

    def test_unknown_generator(self, capsys):
        code, _, err = run(capsys, "matrix", "--sig", "4,2,-2", "--gen",
                           "A14")
        assert code == 2
        assert "unknown generator" in err

    def test_every_generator_matches_golden(self, capsys):
        out = ""
        for basis in ("u", "t"):
            for gen in GENERATORS:
                code, text, _ = run(
                    capsys, "matrix", "--sig", "4,2,-2", "--q", "13/10",
                    "--lmax", "2", "--smax", "2", "--depth", "2",
                    "--precision", "20", "--format", "csv", "--gen", gen,
                    "--basis", basis)
                assert code == 0
                out += text
        assert out == golden_text("matrix_desk.csv")


class TestWeyl:
    @staticmethod
    def two_dim_weight():
        sig = Signature(4, 2, -2)
        for lab in enumerate_u_basis(sig, 2):
            w = weight_of_u(sig, lab)
            if len(u_labels_at_weight(sig, w)) == 2:
                return f"{w.m1},{w.m2},{w.m3}"
        raise AssertionError("no 2x2 block found in range")

    def test_via_racah_agrees(self, capsys):
        code, out, _ = run(capsys, "weyl", "--sig", "4,2,-2", "--q", "13/10",
                           "--weight", self.two_dim_weight(), "--via-racah")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 4
        for row in doc["rows"]:
            assert row["within_tolerance"] == "true"
            assert abs(float(row["value"]) - float(row["racah_form_a"])) < 1e-9

    def test_empty_weight_is_domain_error(self, capsys):
        code, _, err = run(capsys, "weyl", "--sig", "4,2,-2", "--weight",
                           "99,0,-99")
        assert code == 2
        assert "no basis labels" in err

    def test_out_of_tolerance_via_racah_exits_1(self, capsys, monkeypatch):
        # one form b radical of the desk block moved by a relative 5e-6:
        # that row alone is out of tolerance
        inner, moved = weylracah.weyl_via_racah, []

        def one_row_off(ctx, sig, u, t, form="a"):
            value = inner(ctx, sig, u, t, form)
            if form == "b" and not moved:
                moved.append((u, t))
                value = SignedRadical(value.sign, value.qpower,
                                      value.radicand * (1 + Fraction(1, 10 ** 5)))
            return value

        monkeypatch.setattr(weylracah, "weyl_via_racah", one_row_off)
        code, out, _ = run(capsys, "weyl", "--sig", "4,2,-2", "--q", "13/10",
                           "--weight", "4,4,-4", "--via-racah")
        assert code == 1
        flags = [row["within_tolerance"] for row in json.loads(out)["rows"]]
        assert len(moved) == 1 and flags == ["false"] + ["true"] * 8

    def test_q3_large_weight_via_racah_exits_0(self, capsys):
        # a block whose direct 50-digit mpf sum lost every digit at q = 3
        code, out, _ = run(capsys, "weyl", "--sig", "8,2,-2", "--q", "3",
                           "--weight", "16,14,-22", "--via-racah")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 49
        assert all(row["within_tolerance"] == "true" for row in rows)

    @pytest.mark.parametrize("sig, q, weight", [
        ("8,2,-2", "3", "16,14,-22"), ("4,2,-2", "13/10", "4,4,-4")])
    def test_via_racah_prints_each_form_as_value(self, capsys, sig, q,
                                                 weight):
        # value and both forms are one exact radical each, rounded once to
        # the printed digits; at q = 3 one row printed its forms from a
        # second rounding of the 50-digit float, a last digit apart
        code, out, _ = run(capsys, "weyl", "--sig", sig, "--q", q,
                           "--weight", weight, "--via-racah")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows and all(
            r["value"] == r["racah_form_a"] == r["racah_form_b"]
            for r in rows)
        assert {r["difference"] for r in rows} == {"0"}

    @pytest.mark.parametrize("mode", ["float", "exact"])
    def test_desk_weight_via_racah_exits_0(self, capsys, mode):
        code, out, _ = run(capsys, "weyl", "--sig", "4,2,-2", "--q", "13/10",
                           "--weight", "4,4,-4", "--via-racah", "--mode", mode)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 9
        assert all(row["within_tolerance"] == "true" for row in rows)

    @pytest.mark.parametrize("argv", [
        ("--sig", "4,2,-2", "--q", "13/10", "--weight", "4,4,-4"),
        ("--sig", "8,2,-2", "--q", "3", "--weight", "16,14,-22"),
    ], ids=["desk", "q3-large"])
    def test_via_racah_differences_are_zero(self, capsys, argv):
        # the bracket (form a) and form b are each one exact value rounded
        # once, so they agree to the last bit
        code, out, _ = run(capsys, "weyl", *argv, "--via-racah",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and {row["difference"] for row in rows} == {"0"}
        assert all(row["racah_form_a"] == row["racah_form_b"] for row in rows)

    def test_exact_mode_matches_golden(self, capsys):
        code, out, _ = run(capsys, "weyl", "--sig", "4,2,-2", "--q", "13/10",
                           "--weight", "4,4,-4", "--mode", "exact",
                           "--format", "csv")
        assert code == 0
        assert out == golden_text("weyl_exact_desk.csv")

    def test_exact_values_are_the_rounded_radicals(self, capsys):
        # each value is sign * q^qpower * sqrt(radicand) rounded to 50
        # digits, and float mode prints the same digits: its brackets are
        # that radical rounded once
        argv = ("weyl", "--sig", "4,2,-2", "--q", "13/10", "--weight",
                "4,4,-4", "--format", "csv")
        _, out_e, _ = run(capsys, *argv, "--mode", "exact")
        _, out_f, _ = run(capsys, *argv)
        exact = list(csv.DictReader(io.StringIO(out_e)))
        approx = list(csv.DictReader(io.StringIO(out_f)))
        assert len(exact) == len(approx) == 9
        ref = EvalContext.floating(Fraction(13, 10), 120)
        for e, f in zip(exact, approx):
            assert (e["u_label"], e["t_label"]) == (f["u_label"], f["t_label"])
            rad = SignedRadical.make(int(e["sign"]), int(e["qpower"]),
                                     Fraction(e["radicand"]))
            assert e["value"] == cli.format_float(rad.to_float(ref), 50)
            assert f["value"] == e["value"]

    def test_exact_mode_rejects_decimal_q(self, capsys):
        code, _, err = run(capsys, "weyl", "--sig", "4,2,-2", "--q", "1.3",
                           "--weight", "4,4,-4", "--mode", "exact")
        assert code == 2
        assert "rational q" in err


class TestRacah:
    def test_exact_fields_match_golden(self, capsys):
        _, out, _ = run(capsys, "racah", "--mode", "exact", "--q", "13/10",
                        "1", "1", "1", "1", "1", "1", "--format", "csv")
        assert out == golden_text("racah_exact.csv")

    def test_exact_and_float_agree(self, capsys):
        args = ("1", "3/2", "3/2", "1", "1/2", "3/2")
        _, out_e, _ = run(capsys, "racah", "--mode", "exact", "--q", "7/5",
                          *args)
        _, out_f, _ = run(capsys, "racah", "--mode", "float", "--q", "7/5",
                          *args)
        ve = float(json.loads(out_e)["rows"][0]["value"])
        vf = float(json.loads(out_f)["rows"][0]["value"])
        assert abs(ve - vf) < 1e-14

    def test_exact_prints_radicands_past_the_int_str_limit(self, capsys):
        # the J=30 radicand has thousands of digits, past Python's default
        # 4300-digit int-to-str limit
        code, out, _ = run(capsys, "racah", "--mode", "exact", "--q", "13/10",
                           *["30"] * 6)
        assert code == 0
        row = json.loads(out)["rows"][0]
        rad = qracah_exact(EvalContext.exact(Fraction(13, 10)),
                           RacahArgs.make(*["30"] * 6))
        num, _, den = row["radicand"].partition("/")
        assert len(num) > 4300
        assert Decimal(num) == rad.radicand.numerator
        assert Decimal(den or "1") == rad.radicand.denominator
        assert row["sign"] == str(rad.sign)

    def test_float_q3_row_agrees_with_exact_mode(self, capsys):
        # the 50-digit mpf sum printed -1.36e128 here
        args = ("--q", "3", "--", "3", "10", "17/2", "1/2", "8", "19/2")
        _, out_e, _ = run(capsys, "racah", "--mode", "exact", *args)
        code, out_f, _ = run(capsys, "racah", "--mode", "float", *args)
        assert code == 0
        ve = Decimal(json.loads(out_e)["rows"][0]["value"])
        vf = Decimal(json.loads(out_f)["rows"][0]["value"])
        assert str(vf).startswith("-2.3086533695")
        assert abs(vf - ve) <= abs(ve) * Decimal("1e-49")

    def test_exact_mode_rejects_decimal_q(self, capsys):
        code, _, err = run(capsys, "racah", "--mode", "exact", "--q", "1.3",
                           "1", "1", "1", "1", "1", "1")
        assert code == 2
        assert "rational q" in err

    def test_decimal_q_works_in_float_mode(self, capsys):
        code, out, _ = run(capsys, "racah", "--q", "1.3",
                           "1", "1", "1", "1", "1", "1")
        assert code == 0
        assert json.loads(out)["config"]["q"] == "13/10"

    def test_value_outside_the_triangles_prints_zero(self, capsys):
        code, out, _ = run(capsys, "racah", "--q", "13/10", "--",
                           "1", "1", "1", "1", "1", "5")
        assert code == 0
        assert json.loads(out)["rows"][0]["value"] == "0"

    def test_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QU21_PRECISION", "15")
        code, out, _ = run(capsys, "racah", "--q", "13/10",
                           "1", "1", "1", "1", "1", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["precision"] == "15"
        digits = doc["rows"][0]["value"].replace("0.", "")
        assert len(digits) == 15


class TestExactValueColumns:
    """Every value printed beside an exact radical is that radical rounded
    once to the printed digits."""

    def test_golden_matrix_values(self):
        rows = [row for row in csv.DictReader(
            io.StringIO(golden_text("matrix_desk.csv"))) if "value" in row
            and row["value"] != "value"]
        assert len(rows) > 500
        assert radical_rows_rounded(rows, Fraction(13, 10), 20) == []

    @pytest.mark.parametrize("q", ["3", "1/2", "13/10", "1"])
    def test_matrix_values(self, capsys, q):
        for basis in ("u", "t"):
            for gen in GENERATORS:
                code, out, _ = run(
                    capsys, "matrix", "--sig", "5,2,-1", "--q", q, "--lmax",
                    "2", "--smax", "2", "--depth", "2", "--precision", "30",
                    "--format", "csv", "--gen", gen, "--basis", basis)
                assert code == 0
                rows = list(csv.DictReader(io.StringIO(out)))
                assert rows
                assert radical_rows_rounded(rows, Fraction(q), 30) == []

    @pytest.mark.parametrize("weight", ["4,4,-4", "4,5,-5", "5,3,-4"])
    def test_weyl_values(self, capsys, weight):
        code, out, _ = run(capsys, "weyl", "--sig", "4,2,-2", "--q", "13/10",
                           "--weight", weight, "--mode", "exact",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows
        assert radical_rows_rounded(rows, Fraction(13, 10), 50) == []

    @pytest.mark.parametrize("q", ["3", "1/2", "13/10", "7/5"])
    @pytest.mark.parametrize("args", [
        ("1", "1", "1", "1", "1", "1"), ("1", "3/2", "3/2", "1", "1/2", "3/2"),
        ("3", "10", "17/2", "1/2", "8", "19/2"), ("5",) * 6])
    def test_racah_values(self, capsys, q, args):
        for digits in ("50", "17"):
            code, out, _ = run(capsys, "racah", "--mode", "exact", "--q", q,
                               "--precision", digits, "--format", "csv",
                               "--", *args)
            assert code == 0
            rows = list(csv.DictReader(io.StringIO(out)))
            assert radical_rows_rounded(rows, Fraction(q), int(digits)) == []

    @pytest.mark.parametrize("q", ["13/10", "3", "1/2"])
    def test_float_mode_prints_the_exact_mode_value(self, capsys, q):
        # both modes round the same exact radical once, straight to decimal;
        # float mode only leaves out the radical's own columns
        cases = [("weyl", "--sig", "4,2,-2", "--weight", w)
                 for w in ("4,4,-4", "4,5,-5", "5,3,-4")]
        cases += [("racah", "--", *args) for args in (
            ("1", "3/2", "3/2", "1", "1/2", "3/2"),
            ("3", "10", "17/2", "1/2", "8", "19/2"), ("5",) * 6)]
        for command, *rest in cases:
            values = {}
            for mode in ("exact", "float"):
                code, out, _ = run(capsys, command, "--q", q, "--mode", mode,
                                   "--format", "csv", *rest)
                assert code == 0
                rows = list(csv.DictReader(io.StringIO(out)))
                values[mode] = [row["value"] for row in rows]
                assert ("sign" in rows[0]) == (mode == "exact")
            assert values["float"] == values["exact"], (command, rest)


class TestVerify:
    COMMON = ("verify", "--sig", "4,2,-2", "--q", "13/10", "--lmax", "2",
              "--smax", "2", "--depth", "2")

    def test_text_report_passes(self, capsys):
        code, out, _ = run(capsys, *self.COMMON)
        assert code == 0
        lines = out.strip().splitlines()
        assert all(l.startswith("pass") for l in lines[:-1])
        assert lines[-1].startswith("all checks passed:")

    def test_check_subset(self, capsys):
        code, out, _ = run(capsys, *self.COMMON, "--checks", "norms")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert "norm-recursions" in lines[0]

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run(capsys, *self.COMMON, "--checks", "spectra")
        assert code == 2
        assert "unknown checks" in err

    def test_q3_large_config_blocks_pass(self, capsys):
        # at q = 3 the mpf bracket sum cost the intertwiner its digits
        # (residual 6.6e-06, FAIL)
        code, out, _ = run(capsys, "verify", "--sig", "8,2,-2", "--q", "3",
                           "--lmax", "10", "--smax", "10", "--depth", "10",
                           "--checks", "orthogonality,intertwiner")
        assert code == 0
        assert out.splitlines()[-1] == "all checks passed: 2/2"

    def test_flip_entry_fails_with_exit_1(self, capsys):
        code, out, _ = run(capsys, *self.COMMON, "--checks", "intertwiner",
                           "--flip-entry", "U5")
        assert code == 1
        assert "CHECKS FAILED" in out
        assert "generator=A31" in out

    def test_unknown_flip_entry_is_usage_error(self, capsys):
        code, out, err = run(capsys, *self.COMMON, "--checks", "intertwiner",
                             "--flip-entry", "U99")
        assert code == 2
        assert "error" in err and "U99" in err
        assert "passed" not in out

    @pytest.mark.parametrize("checks", ["orthogonality", "norms"])
    def test_unknown_flip_entry_is_usage_error_for_other_checks(self, capsys,
                                                               checks):
        code, out, err = run(capsys, *self.COMMON, "--checks", checks,
                             "--flip-entry", "U99")
        assert code == 2
        assert "error" in err and "U99" in err
        assert "passed" not in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, *self.COMMON, "--checks",
                           "norms,orthogonality", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert {r["check"] for r in doc["rows"]} == {"norm-recursions",
                                                     "weyl-orthogonality"}
        assert all(r["passed"] == "true" for r in doc["rows"])

    def test_exact_mode_rejects_decimal_q(self, capsys):
        code, _, err = run(capsys, "verify", "--sig", "4,2,-2", "--mode",
                           "exact", "--q", "0.9")
        assert code == 2
        assert "rational q" in err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-10"])
@pytest.mark.parametrize("argv", [
    ["verify", "--sig", "4,2,-2", "--lmax", "1", "--smax", "1", "--depth", "1"],
    ["weyl", "--sig", "4,2,-2", "--weight", "4,2,-2", "--via-racah"],
], ids=["verify", "weyl"])
def test_bad_tolerance_is_usage_error(capsys, argv, tolerance):
    code, out, err = run(capsys, *argv, f"--tolerance={tolerance}")
    assert code == 2
    assert err.startswith("error:") and "--tolerance" in err
    assert out == ""


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "basis", "--sig", "4,2,-2", "--out",
                         str(target))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert out == "" and not target.exists()


@pytest.mark.parametrize("env, argv", [
    (None, ["basis", "--sig", "4,2,-2", "--q", "0"]),
    (None, ["matrix", "--sig", "4,2,-2", "--gen", "A12", "--q", "0"]),
    (None, ["weyl", "--sig", "4,2,-2", "--weight", "4,2,-2", "--q", "0"]),
    (None, ["racah", "--q", "0", "--", "1", "1", "1", "1", "1", "1"]),
    (None, ["racah", "--precision", "0", "--", "1", "1", "1", "1", "1", "1"]),
    (None, ["weyl", "--sig", "4,2,-2", "--weight", "4,2,-2",
            "--precision", "0"]),
    (None, ["verify", "--sig", "4,2,-2", "--lmax", "-1"]),
    (None, ["verify", "--sig", "4,2,-2", "--precision", "0"]),
    (None, ["verify", "--sig", "4,2,-2", "--precision", "-5"]),
    ("abc", ["racah", "--", "1", "1", "1", "1", "1", "1"]),
])
def test_domain_errors_exit_2_without_traceback(capsys, monkeypatch, env, argv):
    if env is not None:
        monkeypatch.setenv("QU21_PRECISION", env)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a bad default this way
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--lmax", "--smax", "--depth"])
@pytest.mark.parametrize("argv", [
    ["basis", "--sig", "4,2,-2", "--basis", "t"],
    ["matrix", "--sig", "4,2,-2", "--gen", "A13", "--basis", "t"],
    ["verify", "--sig", "4,2,-2"],
], ids=["basis", "matrix", "verify"])
def test_negative_window_bound_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, flag, "-2"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert f"argument {flag}: expected a nonnegative integer" in err
    assert "Traceback" not in err and out == ""
