"""Tests of the benchmark itself (not collected by the repo's tier-1 run).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
from checks import Checker  # noqa: E402
from tracing import Tracer  # noqa: E402

from qu21 import Signature  # noqa: E402
from qu21.qarith import EvalContext  # noqa: E402
from qu21.verify import Truncation, run_all_checks  # noqa: E402
from qu21.weylracah import RacahArgs, qracah  # noqa: E402


def test_same_seed_same_inputs():
    for workload in inputs.WORKLOADS:
        assert inputs.generate(workload, 7) == inputs.generate(workload, 7)
    for workload in ("desk-cli", "racah-stream"):
        assert inputs.generate(workload, 7) != inputs.generate(workload, 8)


def test_round_mix_does_not_depend_on_seed():
    def spin_class(req):
        if req["kind"] == "bracket":
            return None
        top = Fraction(req["args"][0])
        return "small" if top <= 5 else "medium" if top <= 10 else top

    def mix(rnd):
        return sorted((r["kind"], r["q"], str(spin_class(r))) for r in rnd)
    first = mix(inputs.generate("racah-stream", 1)[0])
    for seed in (1, 2):
        for rnd in inputs.generate("racah-stream", seed):
            assert mix(rnd) == first


def test_racah_inputs_satisfy_triangles():
    from qu21.weylracah import racah_triangles_ok
    for rnd in inputs.generate("racah-stream", 3)[:4]:
        for req in rnd:
            if req["kind"] != "bracket":
                args = RacahArgs.make(*(Fraction(a) for a in req["args"]))
                assert racah_triangles_ok(args), req


def _op(kind, out, req=None):
    return {"kind": kind, "out": out, "err": None, "req": req or {"kind": kind}}


def test_detector_catches_flipped_table_entry():
    reports = run_all_checks(Signature(8, 2, -2), Fraction(13, 10),
                             mode="float", truncation=Truncation(10, 10, 10),
                             precision=50, flip_entry="U5")
    out = [[r.name, r.passed, r.note, r.columns_checked] for r in reports]
    verdict = Checker(ROOT).verdict(_op("verify-large", out))
    assert verdict.startswith("failed") and "intertwiner" in verdict


def test_detector_catches_float_cancellation():
    args = ["20"] * 6
    value = qracah(EvalContext.floating(Fraction(13, 10), 50),
                   RacahArgs.make(*args))
    assert value > 1e40                       # the known defect: true value -0.4348
    checker = Checker(ROOT)
    req = {"kind": "float", "q": "13/10", "args": args}
    assert checker.verdict(_op("float", str(value), req)) == "miss"
    assert abs(checker.exact_value("13/10", args) + 0.4348) < 1e-4
    assert checker.float_digits[-1] < 0


def test_detector_accepts_correct_outputs():
    checker = Checker(ROOT)
    args = ["1", "1", "1", "1", "1", "1"]
    req = {"kind": "float", "q": "1", "args": args}
    value = qracah(EvalContext.floating(1, 50), RacahArgs.make(*args))
    assert checker.verdict(_op("float", str(value), req)) == "ok"
    golden = checker.golden(inputs.GOLDEN_RACAH[1]).decode()
    argv_req = {"kind": "racah", "argv": inputs.GOLDEN_RACAH[0]}
    assert checker.verdict(_op("racah", {"code": 0, "out": golden},
                               argv_req)) == "ok"
    assert checker.verdict(_op("racah", {"code": 0, "out": golden + " "},
                               argv_req)).startswith("failed")


def test_tracer_wraps_every_importing_namespace():
    import qu21.cli as cli
    import qu21.generators as generators
    import qu21.verify as verify
    original = generators.basis_action
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.basis_action is generators.basis_action is cli.basis_action
        assert generators.basis_action is not original
        assert cli.HANDLERS["verify"] is cli.cmd_verify
    finally:
        tracer.uninstall()
    assert verify.basis_action is original and cli.basis_action is original


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "racah-stream",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in bench[key]}


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "desk-cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
