"""qu21 benchmark: three seeded closed-loop workloads, one client each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload racah-stream --seed 1 --seconds 30 --trace 0

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` runs the same ops untraced and then traced, and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is the
result object; the line before it records the environment.  The full result
(with every op latency) and, for traced runs, the spans are written to
.bench_out/.  See perfbench/README.md for the workloads and metrics.

This process never has more than one child process alive: the cold-import
probes, the CLI subprocesses of desk-cli and the in-process worker all run
one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from loop import closed_loop, requests  # noqa: E402

PROBES = 21                   # cold imports per setup measurement
OUT_DIR = ".bench_out"
CHILD_TIMEOUT = 150           # seconds, for the worker; keeps a run under 180 s
OP_TIMEOUT = 60               # seconds, for one probe or CLI process
# The modules each workload imports before its first op.
SETUP_MODULE = {"verify-large": "qu21.verify", "desk-cli": "qu21.cli",
                "racah-stream": "qu21.weylracah"}
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "__import__(sys.argv[1]); print(time.perf_counter() - t)")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_child(argv, **kwargs):
    return subprocess.run(argv, env=child_env(), capture_output=True,
                          timeout=OP_TIMEOUT, **kwargs)


def cold_imports(module, probes):
    """In-child import times of ``module``, each in a fresh interpreter.

    One extra probe runs first and is dropped: it compiles the bytecode a
    fresh checkout lacks, which a user pays once, not per start.
    """
    times = []
    for i in range(probes + 1):
        proc = run_child([sys.executable, "-c", IMPORT_PROBE, module], text=True)
        if proc.returncode != 0:
            raise BenchError(f"import {module} failed: {proc.stderr.strip()}")
        if i:
            times.append(float(proc.stdout))
    return times


def process_starts(probes):
    """Wall time of a bare ``python -c "import qu21.cli"`` (cli.startup_s)."""
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        run_child([sys.executable, "-c", "import qu21.cli"], check=True)
        times.append(perf_counter() - t0)
    return times


def op_record(req, lat, out, err):
    return {"kind": req["kind"], "req": req, "lat": lat, "out": out,
            "err": err}


def run_cli(rounds, seconds):
    """desk-cli untraced: each op a fresh ``python -m qu21.cli`` process."""
    ops = []

    def step(req):
        t0 = perf_counter()
        proc = run_child([sys.executable, "-m", "qu21.cli", *req["argv"]])
        lat = perf_counter() - t0
        ops.append(op_record(req, lat, {"code": proc.returncode, "out":
                                        proc.stdout.decode("utf-8", "replace")},
                             None))

    closed_loop(rounds, seconds, step)
    return {"ops": ops}


def run_worker(rounds, phases, spans_path=None):
    """Run worker.py through the phases; returns {phase: {"ops", ...}}.

    The worker streams one line per op; reading them as they come keeps the
    op records out of the worker's memory.
    """
    job = json.dumps({"rounds": rounds, "phases": phases,
                      "spans_path": spans_path}).encode()
    err_path = os.path.join(OUT_DIR, "worker-stderr.txt")
    result, ops, reqs = {}, [], requests(rounds)
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            proc.stdin.write(job)
            proc.stdin.close()
            for line in proc.stdout:
                rec = json.loads(line)
                if isinstance(rec, dict):        # end of a phase
                    rec["ops"] = ops
                    result[rec["phase"]] = rec
                    ops, reqs = [], requests(rounds)
                else:
                    ops.append(op_record(next(reqs), *rec))
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
            proc.wait()
    if proc.returncode != 0:
        with open(err_path, errors="replace") as fh:
            raise BenchError(f"worker exited {proc.returncode}:\n"
                             + fh.read()[-2000:])
    return result


def percentile(values, p):
    """Linear-interpolation percentile (p in 0..100)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def git_commit(root):
    """HEAD of the checkout if it is a git repository, else 'unknown'."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, root):
    import mpmath
    import mpmath.libmp
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "commit": git_commit(root), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def judge(ops, checker):
    """Attach a verdict to every op; return (failed, missed)."""
    failed = missed = 0
    for op in ops:
        op["verdict"] = checker.verdict(op)
        failed += op["verdict"].startswith("failed")
        missed += op["verdict"] == "miss"
    return failed, missed


def end_to_end(ops, setup, rss_kb, failed, missed):
    n = len(ops)
    lats = [op["lat"] for op in ops]
    # Ops per second of the run's request mix, each op timed at the median
    # latency of its cost class: a burst of machine noise slows a few ops of
    # a class, not its median.
    by_class = {}
    for op in ops:
        by_class.setdefault(inputs.cost_class(op["req"]), []).append(op["lat"])
    busy = sum(len(v) * statistics.median(v) for v in by_class.values())
    return {
        "setup_s": statistics.median(setup),
        "op_s.p50": statistics.median(lats),
        "op_s.p90": percentile(lats, 90),
        "throughput_ops_s": n / busy,
        "peak_rss_mb": rss_kb / 1024,
        "ok_frac": (n - failed - missed) / n,
    }


E2E_UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.p90": "s",
             "throughput_ops_s": "1/s", "peak_rss_mb": "MB", "ok_frac": "frac"}


def unit_of(name):
    """Unit of a metric: end-to-end table, else by per-layer naming rule."""
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "digits" in name:
        return "digits"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def per_layer(trace, traced_ops, plain_ops, extra):
    """Per traced op means of the tracer's totals, plus the extra figures."""
    n = len(traced_ops)
    stats, counts = trace["stats"], trace["counts"]

    def calls(*names):
        return sum(stats.get(x, [0, 0, 0])[0] for x in names) / n

    def secs(*names):
        return sum(stats.get(x, [0, 0, 0])[1] for x in names) / n

    def count(name):
        return counts.get(name, 0) / n

    def self_s(layer):
        return sum(v[2] for k, v in stats.items()
                   if k.startswith(layer + ".")) / n

    m = {
        "verify.rep_build_s": secs("verify.TruncatedRep"),
        "verify.rep_builds": calls("verify.TruncatedRep"),
        "verify.rep_nnz": count("verify.rep_nnz"),
    }
    for short, fn in (("su11", "su11_relations"), ("hermiticity", "hermiticity"),
                      ("casimir", "casimir"), ("norms", "norm_recursions"),
                      ("orthogonality", "weyl_orthogonality"),
                      ("intertwiner", "intertwiner"), ("projector", "projector")):
        m[f"verify.check_s.{short}"] = secs(f"verify.check_{fn}")
    m.update({
        "verify.reports": count("verify.reports"),
        "verify.vacuous_passes": count("verify.vacuous_passes"),
        "verify.columns_checked": count("verify.columns_checked"),
        "verify.self_s": self_s("verify"),
        "generators.basis_action_calls": calls("generators.basis_action"),
        "generators.basis_action_s": secs("generators.basis_action"),
        "generators.terms": count("generators.terms"),
        "generators.self_s": self_s("generators"),
        "repspace.enumerate_s": secs("repspace.enumerate_u_basis",
                                     "repspace.enumerate_t_basis"),
        "repspace.labels": count("repspace.labels"),
        "repspace.labels_at_weight_calls": calls("repspace.u_labels_at_weight",
                                                 "repspace.t_labels_at_weight"),
        "repspace.require_label_calls": calls("repspace.require_u_label",
                                              "repspace.require_t_label"),
        "repspace.require_label_s": secs("repspace.require_u_label",
                                         "repspace.require_t_label"),
        "repspace.self_s": self_s("repspace"),
        "weylracah.weyl_block_calls": calls("weylracah.weyl_block"),
        "weylracah.weyl_block_s": secs("weylracah.weyl_block"),
        "weylracah.weyl_coefficient_calls": calls("weylracah.weyl_coefficient"),
        "weylracah.qracah_calls": calls("weylracah.qracah"),
        "weylracah.qracah_s": secs("weylracah.qracah"),
        "weylracah.qracah_exact_calls": calls("weylracah.qracah_exact"),
        "weylracah.qracah_exact_s": secs("weylracah.qracah_exact"),
        "weylracah.weyl_via_racah_s": secs("weylracah.weyl_via_racah"),
        "weylracah.radicand_digits.max":
            counts.get("weylracah.radicand_digits.max", 0),
        "weylracah.self_s": self_s("weylracah"),
        "qarith.context_builds": calls("qarith.context_build"),
        "qarith.context_build_s": secs("qarith.context_build"),
        "qarith.qnum_calls": count("qarith.qnum"),
        "qarith.qfact_calls": count("qarith.qfact"),
        "qarith.qfact_inv_calls": count("qarith.qfact_inv"),
        "qarith.add_exact_calls": count("qarith.add_exact"),
        "cli.self_s": self_s("cli"),
        "trace.overhead_s": (statistics.median(op["lat"] for op in traced_ops)
                             - statistics.median(op["lat"] for op in plain_ops)),
        "trace.spans": trace["spans"] / n,
    })
    m.update(extra)
    return m


def measure(args, checker):
    """Run the workload; returns (metrics, ops)."""
    w = args.workload
    rounds = inputs.generate(w, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    if not args.trace:
        setup = cold_imports(SETUP_MODULE[w], PROBES)
        if w == "desk-cli":
            run = run_cli(rounds, args.seconds)
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            run = run_worker(rounds, [["plain", args.seconds]])["plain"]
            rss_kb = run["rss_kb"]
        failed, missed = judge(run["ops"], checker)
        return (end_to_end(run["ops"], setup, rss_kb, failed, missed),
                run["ops"])

    extra = {f"cli.process_s.{kind}": 0 for kind in inputs.DESK_KINDS}
    extra["cli.startup_s"] = 0
    ops = []
    share = args.seconds / (3 if w == "desk-cli" else 2)
    if w == "desk-cli":
        sub_ops = run_cli(rounds, share)["ops"]
        for kind in inputs.DESK_KINDS:
            extra[f"cli.process_s.{kind}"] = statistics.median(
                op["lat"] for op in sub_ops if op["kind"] == kind)
        extra["cli.startup_s"] = statistics.median(process_starts(PROBES))
        ops += sub_ops
    spans_path = os.path.join(OUT_DIR, f"spans-{w}-seed{args.seed}.json")
    phases = run_worker(rounds, [["plain", share], ["traced", share]],
                        spans_path)
    plain, traced = phases["plain"]["ops"], phases["traced"]["ops"]
    ops += plain + traced
    judge(ops, checker)
    extra["cli.output_bytes"] = statistics.mean(
        len(op["out"]["out"].encode()) if "argv" in op["req"] else 0
        for op in traced)
    extra["weylracah.float_digits.min"] = min(checker.float_digits, default=0)
    return per_layer(phases["traced"]["trace"], traced, plain, extra), ops


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    for need in ("src/qu21/__init__.py", "tests/golden", "tests/oracles.py"):
        if not os.path.exists(os.path.join(root, need)):
            print(f"error: {need} not found; run from the root of a qu21 "
                  "checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from checks import Checker

    env = environment(args, root)
    try:
        metrics, ops = measure(args, Checker(root))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [op["verdict"] for op in ops if op["verdict"].startswith("failed")]
    result = {"correct": not failures, "attempted": len(ops),
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "result": result, "failures": failures[:20],
                   "ops": [[op["kind"], op["lat"], op["verdict"]] for op in ops]},
                  fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
