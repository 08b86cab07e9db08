"""Repeat the benchmark over seeds and summarise, or write the baseline.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10
    python3 perfbench/baseline.py --seeds 1-10 --write perfbench/baseline.json

Each (workload, seed) is one `run.py --trace 0` process of BENCHMARK.json's
`run_seconds`, run one after the other; one traced run per workload follows.
For every end-to-end metric the summary gives the median, the quartiles and
the spread, the interquartile distance as a share of the median. It also
checks the speed correction of calibrate.py: for the same operation of a
cycle, how much longer it took while the loop was slow than while it was
fast, against how much the loop moved. `--write` stores that summary, the
environment, the traced per-layer numbers and the untraced per-call table of
percall.py next to the re-anchor figures in ROADMAP item 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("trajectory", "constrain", "model_sweep")

# Per-call ranges over the presets, measured at the re-anchor (ROADMAP item 1).
REANCHOR_US = {
    "expr.hessian": ("Hessian via nested duals", 60.0, 430.0),
    "dynamics.cartan": ("cartan", 85.0, 590.0),
    "dynamics.euler_lagrange_rhs": ("euler_lagrange_rhs", 195.0, 410.0),
    "vakonomic.VakonomicSystem.ode_rhs": ("vakonomic ode_rhs", 355.0, 750.0),
}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def last_json(cmd: list[str]) -> dict:
    proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    result = last_json([os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)])
    path = os.path.join(ROOT, ".perfbench_out",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh)


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def elasticity(reports: list[dict]) -> dict:
    """Slow-over-fast time of the same operation of a cycle, against the loop.

    An operation counts as fast (slow) when the mean of the loop samples
    around it is in their lowest (highest) quartile over all runs. For each
    position in the cycle with fast and slow operations, the elasticity is
    log(median slow time / median fast time) over log(median slow loop /
    median fast loop); the result is the median over positions.
    """
    ops = []
    for rep in reports:
        s, per_cycle = rep["speed_samples_s"], len(rep["ops"]) // rep["cycles"]
        ops += [(i % per_cycle, 0.5 * (s[i] + s[i + 1]), op[3])
                for i, op in enumerate(rep["ops"])]
    q1, _, q3 = statistics.quantiles([loop for _, loop, _ in ops], n=4)
    fast: dict = {}
    slow: dict = {}
    for pos, loop, raw in ops:
        if loop <= q1:
            fast.setdefault(pos, []).append((loop, raw))
        elif loop >= q3:
            slow.setdefault(pos, []).append((loop, raw))
    values, loop_ratios = [], []
    for pos in fast.keys() & slow.keys():
        loop_ratio = (statistics.median(v[0] for v in slow[pos])
                      / statistics.median(v[0] for v in fast[pos]))
        time_ratio = (statistics.median(v[1] for v in slow[pos])
                      / statistics.median(v[1] for v in fast[pos]))
        values.append(math.log(time_ratio) / math.log(loop_ratio))
        loop_ratios.append(loop_ratio)
    if not values:
        return {"positions": 0}
    return {"positions": len(values), "loop_ratio": statistics.median(loop_ratios),
            "elasticity": statistics.median(values)}


def reanchor_table(percall: dict) -> dict:
    """Untraced per-preset per-call times next to the re-anchor ranges."""
    out = {}
    for name, (label, lo, hi) in REANCHOR_US.items():
        models = {m: round(us, 1) for m, us in percall["us_per_call"][name].items()}
        outside = {m: v for m, v in models.items() if not lo <= v <= hi}
        mlo, mhi = min(models.values()), max(models.values())
        note = (f"measured {mlo:.0f}-{mhi:.0f} us against {lo:.0f}-{hi:.0f} us; "
                + ("every preset inside the range" if not outside else
                   "outside the range: " + ", ".join(f"{m} {v:.0f} us"
                                                     for m, v in sorted(outside.items()))))
        out[label] = {"roadmap_range_us": [lo, hi], "measured_us": models,
                      "note": note}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--write", default=None, help="write the baseline JSON here")
    args = p.parse_args(argv)
    seeds = seed_list(args.seeds)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    doc: dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    worst = 0.0
    for workload in WORKLOADS:
        metrics: dict[str, list[float]] = {}
        failed = attempted = 0
        reports = []
        for seed in seeds:
            result, report = run_once(workload, seed, seconds, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            reports.append(report)
            doc["environment"] = report["environment"]
        entry = {"attempted": attempted, "failed": failed,
                 "end_to_end": {k: summarise(v) for k, v in metrics.items()},
                 "speed_correction": elasticity(reports)}
        for name, s in entry["end_to_end"].items():
            print(f"{workload:12s} {name:14s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}")
            if name != "setup_s":
                worst = max(worst, s["spread"])
        print(f"{workload:12s} failed {failed}/{attempted}")
        print(f"{workload:12s} speed correction {json.dumps(entry['speed_correction'])}")
        result, report = run_once(workload, seeds[0], seconds, 1)
        entry["traced_seed"] = seeds[0]
        entry["per_layer"] = report["per_layer"]
        print(f"{workload:12s} trace.overhead "
              f"{report['per_layer']['trace.overhead']['value']:.4f}")
        doc["workloads"][workload] = entry
    print(f"largest spread except setup_s: {worst:.4f}")

    percall = last_json([os.path.join(HERE, "percall.py")])
    rows = reanchor_table(percall)
    for label, row in rows.items():
        print(f"re-anchor {label}: {row['note']}")
    doc["reanchor_per_call"] = {
        "conditions": "untraced wall time per call at each preset's default "
                      "initial state (percall.py), not scaled; loop_s is the "
                      "calibrate.py loop time just before each preset",
        "loop_s": percall["loop_s"], **rows}
    if args.write:
        with open(args.write, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
