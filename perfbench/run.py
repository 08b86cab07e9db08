"""amech benchmark: one workload, one process, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0

Workloads are `trajectory`, `constrain` and `model_sweep` (see workloads.py).
The run sets up, warms up, then repeats whole cycles of the workload's
operations until `--seconds` have passed and at least 3 cycles are done. Every operation is checked; a failed
check is counted and the run goes on. Human-readable lines come first; the
last line of standard output is the JSON result.

With `--trace 0` the result holds the end-to-end metrics:
  setup_s      median over 7 fresh processes of the time from process start to
               the first timed operation (imports, model load, warm-up)
  peak_rss_mb  peak resident memory of this process
  work_per_s   work units per second of timed operations: integrator steps
               (trajectory), constraint analyses (constrain), models
               (model_sweep)
  op_p50_ms, op_p90_ms
               latency of one operation: one `amech` command on trajectory and
               constrain, one model's whole pipeline on model_sweep

With `--trace 1` the same operations are run once more with every layer
wrapped by span recorders (spans.py), and the result holds the per-layer
metrics plus `trace.overhead`, traced over untraced time of the same
operations. Counts are per operation; `*_s` self times are seconds per
operation. Spans and the full report go to `.perfbench_out/`.

Times are put on one reference machine speed (calibrate.py): each
operation's wall time, and each set-up sample, is scaled by the speed of a
fixed loop sampled just before and just after it, raised to the measured
elasticity of amech's times to the loop's. The report also holds the raw
wall-time metrics.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
# constrain runs 4 operations of up to 6 s per cycle; 3 cycles keep its
# latency percentiles on at least 12 samples.
MIN_CYCLES = 3
SETUP_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="amech benchmark")
    p.add_argument("--workload", required=True,
                   choices=["trajectory", "constrain", "model_sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_amech():
    """Import amech from this checkout's sources, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "amech", "__init__.py")):
        sys.exit(f"error: no amech sources under {SRC}")
    sys.path.insert(0, SRC)
    import amech

    if not os.path.abspath(amech.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: amech was imported from {amech.__file__}, not {SRC}")
    return amech


# ---------------------------------------------------------------------------
# set-up time


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Scaled and raw wall times of fresh processes from start until set-up
    is done."""
    import calibrate

    clock = calibrate.Clock()
    times, raw = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                line = proc.stdout.readline()
                t1 = perf_counter()
                proc.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"error: set-up probe failed with exit code {proc.returncode}")
        raw.append(t1 - t0)
        times.append(raw[-1] * clock.factor(raw[-1]))
    return times, raw


def setup_probe(args) -> None:
    import_amech()
    import workloads

    workloads.setup(args.workload, workloads.Workdir(os.path.join(OUT, "work-setup")))
    sys.stdout.write("ready\n")
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# timed passes


def execute(op, tracer=None) -> dict:
    if op.prepare is not None:
        op.prepare()
    if tracer is not None:
        tracer.begin_op()
    t0 = perf_counter()
    try:
        raw = op.run()
        error = None
    except Exception as exc:  # a crash is a failed operation, not a stop
        raw, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    units, facts = 0, {}
    if error is None:
        try:
            error, units, facts = op.check(raw)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return {"op": op.name, "model": op.model, "raw_seconds": elapsed,
            "units": units if error is None else 0, "error": error, **facts}


def run_pass(workload: str, seed: int, wd, seconds: float | None = None,
             cycles: int | None = None, tracer=None) -> tuple[list[dict], int, object]:
    """Whole cycles until `seconds` have passed and at least MIN_CYCLES are
    done, or exactly `cycles` cycles.

    Each record's "seconds" is its raw time scaled to the reference speed by
    the speed samples taken around it.
    """
    import numpy as np

    import calibrate
    import workloads

    clock = calibrate.Clock()
    rng = np.random.default_rng(seed)
    records: list[dict] = []
    done = 0
    start = perf_counter()
    while True:
        if cycles is not None and done >= cycles:
            break
        if cycles is None and done >= MIN_CYCLES and perf_counter() - start >= seconds:
            break
        for op in workloads.CYCLES[workload](rng, wd):
            r = execute(op, tracer)
            r["seconds"] = r["raw_seconds"] * clock.factor(r["raw_seconds"])
            records.append(r)
        done += 1
    return records, done, clock


# ---------------------------------------------------------------------------
# metrics


def end_to_end(records: list[dict], setup_times: list[float],
               key: str = "seconds") -> dict:
    busy = sum(r[key] for r in records)
    lat_ms = [1e3 * r[key] for r in records]
    # "inclusive" never reaches past the largest sample, which matters on
    # constrain with its 8 to 12 operations per run.
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_per_s": (sum(r["units"] for r in records) / busy, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (deciles[-1], "ms"),
    }


def per_layer(tracer, records: list[dict], untraced: list[dict], factor: float) -> dict:
    """Per-layer metrics of a traced pass; times scaled by `factor`."""
    ops = len(records)
    layer_self = tracer.layer_self()

    def calls(*names):
        return sum(tracer.stats(n)[0] for n in names) / ops

    def us_per_call(name):
        n, total = tracer.stats(name)
        return 1e6 * factor * total / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    attempted = sum(tracer.stats(n)[0] for n in ("odeint._rk4_step", "odeint._dp45_step"))
    accepted = sum(tracer.results["steps"])
    rhs = tracer.stats("odeint._checked_rhs")[0]
    analyses = tracer.stats("presym.run_constraint_algorithm")[0]
    m = {
        "expr.evaluate.calls": (calls("expr.evaluate"), "1/op"),
        "expr.grad.calls": (calls("expr.grad"), "1/op"),
        "expr.hessian.calls": (calls("expr.hessian"), "1/op"),
        "expr.hessian.us_per_call": (us_per_call("expr.hessian"), "us"),
        "expr.grad.us_per_call": (us_per_call("expr.grad"), "us"),
        "algebroid.rho.calls": (calls("algebroid.rho"), "1/op"),
        "algebroid.structure.calls": (calls("algebroid.structure"), "1/op"),
        "algebroid.jacobian.calls": (calls("algebroid.rho_jacobian",
                                           "algebroid.structure_jacobian"), "1/op"),
        "algebroid.check_structure.us_per_call":
            (us_per_call("algebroid.check_structure"), "us"),
        "dynamics.euler_lagrange_rhs.us_per_call":
            (us_per_call("dynamics.euler_lagrange_rhs"), "us"),
        "dynamics.legendre_inverse.iters_per_call": (ratio(
            tracer.nested("dynamics.LagrangianSystem.second_derivatives",
                          "dynamics.legendre_inverse"),
            tracer.stats("dynamics.legendre_inverse")[0]), "1/call"),
        "dynamics.cartan.calls": (calls("dynamics.cartan"), "1/op"),
        "vakonomic.vakonomic_rhs.us_per_call":
            (us_per_call("vakonomic.vakonomic_rhs"), "us"),
        "vakonomic.hessians_per_rhs": (ratio(
            tracer.nested("expr.hessian", "vakonomic.vakonomic_rhs"),
            tracer.stats("vakonomic.vakonomic_rhs")[0]), "1/call"),
        "presym.alpha.calls": (calls("presym.alpha"), "1/op"),
        "presym.omega.calls": (calls("presym.omega"), "1/op"),
        "presym.levels": (ratio(sum(tracer.results["levels"]), analyses), "1/call"),
        "presym.cartan_per_analysis": (ratio(
            tracer.nested("dynamics.cartan", "presym.run_constraint_algorithm"),
            analyses), "1/call"),
        "linalg.svd.calls": (calls("linalg.svd"), "1/op"),
        "linalg.solve.calls": (calls("linalg.solve"), "1/op"),
        "linalg.lstsq.calls": (calls("linalg.lstsq"), "1/op"),
        "linalg.decide_rank.calls": (calls("linalg.decide_rank"), "1/op"),
        "odeint.steps_accepted": (accepted / ops, "1/op"),
        "odeint.steps_rejected": ((attempted - accepted) / ops, "1/op"),
        "odeint.rhs_per_step": (ratio(rhs, attempted), "1/step"),
        "cli.csv_bytes": (sum(r.get("csv_bytes", 0) for r in records) / ops, "B/op"),
        "dsl.parse_system.us_per_call": (us_per_call("dsl.parse_system"), "us"),
        "dsl.format_system.us_per_call": (us_per_call("dsl.format_system"), "us"),
        "trace.overhead": (sum(r["seconds"] for r in records)
                           / sum(r["seconds"] for r in untraced), "ratio"),
    }
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = (factor * seconds / ops, "s/op")
    return m


# ---------------------------------------------------------------------------
# environment


def environment(numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "amech")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _git_head(),
        "source_sha256": digest.hexdigest(),
    }


def _git_head() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    amech = import_amech()

    import numpy as np

    import calibrate
    import workloads

    setup_times, setup_raw = measure_setup(args)

    os.makedirs(OUT, exist_ok=True)
    wd = workloads.Workdir(os.path.join(OUT, "work"))
    workloads.setup(args.workload, wd)
    # A traced run spends half its time untraced and then replays the same
    # cycles traced, so it lasts about as long as an untraced run.
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    records, cycles, clock = run_pass(args.workload, args.seed, wd, seconds=untraced_s)
    e2e = end_to_end(records, setup_times)
    e2e_raw = end_to_end(records, setup_raw, key="raw_seconds")
    attempted = len(records)
    failures = [r for r in records if r["error"] is not None]

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "amech_version": amech.__version__,
        "environment": environment(np.__version__),
        "cycles": cycles, "attempted": attempted, "failed": len(failures),
        "failed_op_ratio": len(failures) / attempted,
        "latency_samples": attempted,
        "setup_samples_s": setup_times,
        "setup_samples_raw_s": setup_raw,
        "speed_samples_s": clock.samples,
        "reference_s": calibrate.REFERENCE_S,
        "elasticity": calibrate.ELASTICITY,
        "work_unit": workloads.UNIT_NAME[args.workload],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_raw": {k: {"value": v, "unit": u} for k, (v, u) in e2e_raw.items()},
        "failures": [{k: r[k] for k in ("op", "model", "error")} for r in failures[:20]],
        "ops": [[r["op"], r["model"], r["seconds"], r["raw_seconds"], r["units"]]
                for r in records],
    }
    metrics = e2e
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        traced, _, _ = run_pass(args.workload, args.seed, wd, cycles=cycles,
                                tracer=tracer)
        # Span times are raw; put them on the reference speed with the
        # pass's overall factor.
        factor = (sum(r["seconds"] for r in traced)
                  / sum(r["raw_seconds"] for r in traced))
        metrics = per_layer(tracer, traced, records, factor)
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.write_spans(spans_path)
        report.update({
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "trace_overhead_raw": (sum(r["raw_seconds"] for r in traced)
                                   / sum(r["raw_seconds"] for r in records)),
            "traced_failed": sum(r["error"] is not None for r in traced),
            "spans_file": os.path.relpath(spans_path, ROOT),
            "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
        })
        attempted += len(traced)
        failures += [r for r in traced if r["error"] is not None]

    # Headline names of each workload, printed next to the generic ones.
    v = {k: val for k, (val, _) in e2e.items()}
    headline = {
        "trajectory": [("steps_per_s", v["work_per_s"], "steps/s")],
        "constrain": [("analyses_per_min", 60.0 * v["work_per_s"], "analyses/min")],
        "model_sweep": [("models_per_s", v["work_per_s"], "models/s"),
                        ("model_p50_ms", v["op_p50_ms"], f"ms (n={len(records)})"),
                        ("model_p90_ms", v["op_p90_ms"], f"ms (n={len(records)})")],
    }[args.workload]
    print(f"amech benchmark: workload {args.workload}, seed {args.seed}, "
          f"{cycles} cycles, {len(records)} operations")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value:.6g} {unit} (raw {e2e_raw[name][0]:.6g})")
    for name, value, unit in headline:
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_op_ratio = {len(failures)}/{attempted}")
    for f in failures[:5]:
        print(f"failed: {f['op']} {f['model']}: {f['error']}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")

    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": val, "unit": u} for k, (val, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
