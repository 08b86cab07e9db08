"""Untraced, unscaled per-call times of the functions in ROADMAP item 1.

Usage, from the root of a checkout:

    python3 perfbench/percall.py

For every preset, each function is called directly at the preset's default
initial state: the Lagrangian's Hessian by nested duals (`expr.hessian`),
`dynamics.cartan` and `dynamics.euler_lagrange_rhs` at the `el` state (the
`sode` state on capri_kobayashi, whose Lagrangian is singular, so it has no
`euler_lagrange_rhs`), and `VakonomicSystem.ode_rhs` at the `vakonomic`
state. No span recorder is installed and no speed scaling is applied: the
times are wall times, the median over blocks of calls and then over ROUNDS
passes through the presets, since the machine can change speed within a
pass. A loop sample of calibrate.py before each preset's calls gives the
machine state; its median over the passes is reported with the table. The
last line of standard output is a JSON object.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import calibrate
import run

BLOCK_S = 0.02
BLOCKS = 15
LOOP_SAMPLE_S = 0.05
ROUNDS = 3

# Row of the re-anchor table -> label used in ROADMAP item 1.
ROWS = {
    "expr.hessian": "Hessian via nested duals",
    "dynamics.cartan": "cartan",
    "dynamics.euler_lagrange_rhs": "euler_lagrange_rhs",
    "vakonomic.VakonomicSystem.ode_rhs": "vakonomic ode_rhs",
}


def per_call_us(fn) -> float:
    """Median microseconds per call over BLOCKS blocks of about BLOCK_S."""
    t0 = perf_counter()
    fn()
    once = perf_counter() - t0
    k = max(1, int(BLOCK_S / max(once, 1e-9)))
    times = []
    for _ in range(BLOCKS):
        t0 = perf_counter()
        for _ in range(k):
            fn()
        times.append((perf_counter() - t0) / k)
    return 1e6 * statistics.median(times)


def calls_of(pid: str) -> dict:
    """The ROWS functions that apply to one preset, bound to its state."""
    from amech import cli, dynamics, expr, presets, vakonomic

    preset = presets.load(pid)
    init = preset.facts["default_init"]
    out = {}
    lag_mode = "el" if "el" in init else "sode" if "sode" in init else None
    if lag_mode is not None:
        sys_ = dynamics.system_from_spec(preset.spec)
        chart = sys_.chart
        y0, _ = cli._resolve_init(chart.base_names + chart.fiber_names,
                                  init[lag_mode], {})
        at = dynamics.EPoint(y0[:chart.m], y0[chart.m:])
        sf = sys_._sf
        env = sf._env(y0)
        out["expr.hessian"] = lambda: expr.hessian(sf.expr, sf.names, env)
        out["dynamics.cartan"] = lambda: dynamics.cartan(sys_, at)
        if lag_mode == "el":
            out["dynamics.euler_lagrange_rhs"] = \
                lambda: dynamics.euler_lagrange_rhs(sys_, at)
    if "vakonomic" in init:
        vsys = vakonomic.vakonomic_from_spec(preset.spec)
        v0, _ = cli._resolve_init(vsys.state_labels, init["vakonomic"], {})
        out["vakonomic.VakonomicSystem.ode_rhs"] = lambda: vsys.ode_rhs(0.0, v0)
    return out


def main() -> int:
    run.import_amech()
    from amech import presets

    calls = {pid: calls_of(pid) for pid in presets.ids()}
    samples: dict = {name: {} for name in ROWS}
    loops: dict = {}
    for _ in range(ROUNDS):
        for pid, fns in calls.items():
            loops.setdefault(pid, []).append(calibrate.sample(LOOP_SAMPLE_S))
            for name, fn in fns.items():
                samples[name].setdefault(pid, []).append(per_call_us(fn))
    table = {name: {pid: statistics.median(v) for pid, v in models.items()}
             for name, models in samples.items()}
    loop_s = {pid: statistics.median(v) for pid, v in loops.items()}
    for name, models in table.items():
        for pid, us in models.items():
            print(f"{ROWS[name]:26s} {pid:20s} {us:9.1f} us  "
                  f"(loop {1e3 * loop_s[pid]:.3f} ms)")
    print(json.dumps({"us_per_call": table, "loop_s": loop_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
