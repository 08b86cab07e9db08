"""Seeded inputs, timed operations and their correctness gates.

Every workload is a closed loop with one client: an operation starts when the
previous one returns. A workload is a list of cycles; each cycle has the same
mix of operations, with fresh inputs drawn from the seed, so a run that ends
on a cycle boundary always measures the same mix. The program receives only
the generated inputs, as argv of the in-process `amech` command or as a
model document.

- trajectory: `simulate` over every preset and every mode its facts list
  (el, hamilton, vakonomic) with fixed-step RK4, plus one DP45 run per
  regular preset; initial states are drawn around the preset defaults.
- constrain: `constrain` on capri_kobayashi on both sides, a short
  `simulate --mode sode`, and the Lagrangian side on the regular presets,
  which stop at level 0; probe seeds come from the benchmark seed.
- model_sweep: generated charts, a random integer change of basis of so(3)
  crossed with T R^k for k = 0..4, run through parse, the format round trip,
  `validate`, one `bracket` of two momenta and a short `simulate --mode el`.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from amech import cli, dsl, presets

# Conserved-channel thresholds, the ones tests/test_acceptance.py uses.
ENERGY_DRIFT_MAX = 1e-6
CASIMIR_DRIFT_MAX = 1e-8
FINAL_SOLVE_RESIDUAL_MAX = 1e-9
BRACKET_TOL = 1e-9

RK4_DT = 1e-3
RK4_STEPS = 100
DP45_T1 = 2.0
DP45_RTOL = 1e-9
SODE_DT = 5e-3
SODE_STEPS = 10
SWEEP_DT = 4e-3
SWEEP_STEPS = 5
SWEEP_POINTS = 5
SWEEP_K = (0, 1, 2, 3, 4)
INIT_SPREAD = 0.1

UNIT_NAME = {"trajectory": "integrator step", "constrain": "constraint analysis",
             "model_sweep": "model"}


@dataclass
class Op:
    """One timed operation: `run` is timed; `prepare` and `check` are not.

    `check` returns (failure reason or None, work units, extra facts).
    """

    name: str
    model: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str | None, int, dict]]
    prepare: Callable[[], None] | None = None


class Workdir:
    """Scratch files for the command outputs, reused by every operation."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)


def _cli(argv: list[str], wd: Workdir) -> int:
    return cli.main([*argv, "--manifest", wd.path("manifest.json")])


def _read_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float)
    return {name: data[:, j] for j, name in enumerate(rows[0])}


def _drift(series: np.ndarray) -> float:
    return float(np.max(np.abs(series - series[0])))


def _check_trajectory(rc: int, csv_path: str) -> tuple[str | None, int, dict]:
    """Exit code, finite rows and conserved-channel drift of one CSV."""
    if rc != 0:
        return f"exit code {rc}", 0, {}
    cols = _read_csv(csv_path)
    steps = len(cols["t"]) - 1
    facts = {"csv_bytes": os.path.getsize(csv_path), "steps": steps}
    if not all(np.all(np.isfinite(v)) for v in cols.values()):
        return "non-finite value in the CSV", steps, facts
    drift = _drift(cols["energy"])
    if not drift < ENERGY_DRIFT_MAX:
        return f"energy drift {drift:.3e} >= {ENERGY_DRIFT_MAX}", steps, facts
    if "casimir" in cols:
        drift = _drift(cols["casimir"])
        if not drift < CASIMIR_DRIFT_MAX:
            return f"casimir drift {drift:.3e} >= {CASIMIR_DRIFT_MAX}", steps, facts
    return None, steps, facts


def _init_args(rng: np.random.Generator, table: dict) -> list[str]:
    out = []
    for name, value in table.items():
        out += ["--init", f"{name}={value + rng.uniform(-INIT_SPREAD, INIT_SPREAD)!r}"]
    return out


def _simulate_op(wd: Workdir, model: str, argv: list[str],
                 one_unit: bool = False) -> Op:
    """A `simulate` command; its work units are its steps, or 1 if one_unit."""
    out = wd.path("traj.csv")

    def check(rc):
        reason, steps, facts = _check_trajectory(rc, out)
        return reason, 1 if one_unit else steps, facts

    return Op(name="simulate", model=model,
              run=lambda: _cli([*argv, "--out", out], wd), check=check)


# ---------------------------------------------------------------------------
# trajectory


def _regular_presets() -> list[str]:
    return [pid for pid in presets.ids()
            if "el" in presets.load(pid).facts["modes"]]


def trajectory_cycle(rng: np.random.Generator, wd: Workdir) -> list[Op]:
    ops = []
    for pid in presets.ids():
        facts = presets.load(pid).facts
        for mode in facts["modes"]:
            if mode == "sode":
                continue
            ops.append(_simulate_op(wd, pid, [
                "simulate", "--preset", pid, "--mode", mode,
                "--t1", repr(RK4_STEPS * RK4_DT), "--dt", repr(RK4_DT),
                *_init_args(rng, facts["default_init"][mode])]))
    for pid in _regular_presets():
        facts = presets.load(pid).facts
        ops.append(_simulate_op(wd, pid, [
            "simulate", "--preset", pid, "--mode", "el",
            "--t1", repr(DP45_T1), "--rtol", repr(DP45_RTOL),
            *_init_args(rng, facts["default_init"]["el"])]))
    return ops


# ---------------------------------------------------------------------------
# constrain


LEVEL0 = {"stabilization_level": 0, "new_rank": 0}


def _check_constrain(rc: int, text: str, expected: dict) -> str | None:
    """Exit code, level and rank against the preset facts, final residual."""
    if rc != 0:
        return f"exit code {rc}"
    report = json.loads(text)
    level = report["stabilization_level"]
    if level != expected["stabilization_level"]:
        return f"stabilization level {level}, expected {expected['stabilization_level']}"
    rank = report["levels"][level]["new_constraint_rank"]
    if rank != expected["new_rank"]:
        return f"new constraint rank {rank}, expected {expected['new_rank']}"
    resid = report["final_solve_residual"]
    if not resid < FINAL_SOLVE_RESIDUAL_MAX:
        return f"final solve residual {resid:.3e} >= {FINAL_SOLVE_RESIDUAL_MAX}"
    return None


def _constrain_op(wd: Workdir, runs: list[tuple[str, str, int, dict]]) -> Op:
    """One or more `constrain` commands, each checked against its facts."""
    out = wd.path("constrain.json")

    def run():
        reports = []
        for pid, side, seed, _ in runs:
            rc = _cli(["constrain", "--preset", pid, "--side", side,
                       "--seed", str(seed), "--out", out], wd)
            text = ""
            if rc == 0:
                with open(out, encoding="utf-8") as fh:
                    text = fh.read()
            reports.append((rc, text))
        return reports

    def check(reports):
        for (rc, text), (pid, side, _, expected) in zip(reports, runs):
            reason = _check_constrain(rc, text, expected)
            if reason is not None:
                return f"{pid} {side}: {reason}", len(runs), {}
        return None, len(runs), {}

    pid, side = runs[0][:2] if len(runs) == 1 else ("regular", "lagrangian")
    return Op(name=f"constrain-{side}", model=pid, run=run, check=check)


def constrain_cycle(rng: np.random.Generator, wd: Workdir) -> list[Op]:
    pid = "capri_kobayashi"
    facts = presets.load(pid).facts
    ops = [_constrain_op(wd, [(pid, side, int(rng.integers(2**31)),
                               facts["constraint_algorithm"][side])])
           for side in ("lagrangian", "hamiltonian")]
    # A sode run is one constraint analysis followed by a few steps.
    ops.append(_simulate_op(wd, pid, [
        "simulate", "--preset", pid, "--mode", "sode",
        "--t1", repr(SODE_STEPS * SODE_DT), "--dt", repr(SODE_DT),
        "--seed", str(int(rng.integers(2**31))),
        *_init_args(rng, facts["default_init"]["sode"])], one_unit=True))
    # The regular presets stop at level 0 within milliseconds; as one
    # operation they do not split the latency percentiles between fast and
    # slow analyses.
    ops.append(_constrain_op(wd, [(reg, "lagrangian", int(rng.integers(2**31)), LEVEL0)
                                  for reg in _regular_presets()]))
    return ops


# ---------------------------------------------------------------------------
# model_sweep

# so(3) in the basis e1, e2, e3: [e_a, e_b] = eps_abc e_c.
_EPS = np.zeros((3, 3, 3))
for _a, _b, _c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_c, _a, _b] = 1.0
    _EPS[_c, _b, _a] = -1.0


def _unimodular(rng: np.random.Generator) -> np.ndarray:
    """Random integer 3x3 matrix with determinant +-1, entries kept small."""
    while True:
        a = np.eye(3, dtype=np.int64)
        for _ in range(4):
            i, j = rng.choice(3, size=2, replace=False)
            a[i] += int(rng.choice([-1, 1])) * a[j]
        if rng.random() < 0.5:
            a[[0, 1]] = a[[1, 0]]
        if np.max(np.abs(a)) <= 3:
            return a


@dataclass(frozen=True)
class GeneratedModel:
    text: str
    structure: np.ndarray     # C[c, a, b] of the algebra part, integers
    fiber: tuple[str, ...]
    base: tuple[str, ...]

    @property
    def width(self) -> int:
        return len(self.base) + len(self.fiber)


def generate_model(rng: np.random.Generator, k: int, name: str) -> GeneratedModel:
    """so(3) in a random integer basis, crossed with T R^k.

    In the basis f_a = sum_i A[a, i] e_i the constants are
    C'[c, a, b] = sum_ijk A[a, i] A[b, j] eps[k, i, j] Ainv[k, c]. A is
    unimodular, so they are integers and satisfy Jacobi exactly. The
    Lagrangian is 0.5 y^T M y - V(q) with M positive definite.
    """
    a = _unimodular(rng)
    a_inv = np.rint(np.linalg.inv(a)).astype(np.int64)
    c_new = np.einsum("ai,bj,kij,kc->cab", a, a, _EPS, a_inv)
    base = tuple(f"q{i + 1}" for i in range(k))
    fiber = tuple(f"v{i + 1}" for i in range(k)) + ("f1", "f2", "f3")
    n = len(fiber)

    lines = [f"system {name}", "base [" + ", ".join(base) + "]",
             "fiber [" + ", ".join(fiber) + "]"]
    if k:
        rows = []
        for col, fname in enumerate(fiber):
            entries = ["1" if col == i else "0" for i in range(k)]
            rows.append(f"{fname} -> (" + ", ".join(entries) + ")")
        lines.append("anchor { " + "; ".join(rows) + " }")
    else:
        lines.append("anchor zero")
    entries = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        terms = [f"({int(c_new[c, i, j])})*{fiber[k + c]}"
                 for c in range(3) if c_new[c, i, j] != 0]
        if terms:
            entries.append(f"[{fiber[k + i]},{fiber[k + j]}] = " + " + ".join(terms))
    if entries:
        lines.append("bracket { " + "; ".join(entries) + " }")
    lines.append(f"params {{ g = {rng.uniform(0.5, 1.5):.4f} }}")

    b = rng.uniform(-0.4, 0.4, size=(n, n))
    mass = b @ b.T + np.diag(rng.uniform(0.8, 1.6, size=n))
    kinetic = []
    for i in range(n):
        kinetic.append(f"{mass[i, i]:.4f}*{fiber[i]}^2")
        for j in range(i + 1, n):
            kinetic.append(f"{2.0 * mass[i, j]:.4f}*{fiber[i]}*{fiber[j]}")
    potential = [f"g*(1 - cos({q})) + {rng.uniform(0.2, 1.0):.4f}*{q}^2" for q in base]
    lagrangian = "0.5*(" + " + ".join(kinetic) + ")"
    if potential:
        lagrangian += " - (" + " + ".join(potential) + ")"
    lines.append(f"lagrangian = {lagrangian}")
    return GeneratedModel(text="\n".join(lines) + "\n", structure=c_new.astype(float),
                          fiber=fiber, base=base)


def _model_op(wd: Workdir, rng: np.random.Generator, k: int) -> Op:
    model = generate_model(rng, k, f"sweep_k{k}")
    path = wd.path("model.amech")

    def prepare():
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(model.text)

    m, n = len(model.base), len(model.fiber)
    x = rng.uniform(-1.0, 1.0, size=m)
    p = rng.uniform(-1.0, 1.0, size=n)
    ia, ib = (int(v) for v in rng.choice(3, size=2, replace=False))
    at = []
    for name, value in zip(model.base + tuple(f"p{A + 1}" for A in range(n)),
                           np.concatenate([x, p])):
        at += ["--at", f"{name}={float(value)!r}"]
    # {p_a, p_b} = -C^c_ab p_c on the algebra momenta.
    expected = -float(model.structure[:, ia, ib] @ p[k:])
    init = []
    for name in model.base + model.fiber:
        init += ["--init", f"{name}={rng.uniform(-0.5, 0.5)!r}"]
    seed = str(int(rng.integers(2**31)))
    out = {name: wd.path(name) for name in ("validate.json", "bracket.json", "traj.csv")}

    def run():
        first = dsl.format_system(dsl.parse_system(model.text))
        second = dsl.format_system(dsl.parse_system(first))
        rcs = (
            _cli(["validate", path, "--points", str(SWEEP_POINTS), "--seed", seed,
                  "--out", out["validate.json"]], wd),
            _cli(["bracket", path, "--F", f"p{k + ia + 1}", "--G", f"p{k + ib + 1}",
                  *at, "--out", out["bracket.json"]], wd),
            _cli(["simulate", path, "--mode", "el", "--t1", repr(SWEEP_STEPS * SWEEP_DT),
                  "--dt", repr(SWEEP_DT), *init, "--out", out["traj.csv"]], wd),
        )
        return first == second, rcs

    def check(result):
        stable, (rc_v, rc_b, rc_s) = result
        if not stable:
            return "format round trip is not byte-stable", 1, {}
        if rc_v != 0 or rc_b != 0:
            return f"exit codes validate {rc_v}, bracket {rc_b}", 1, {}
        with open(out["validate.json"], encoding="utf-8") as fh:
            if json.load(fh)["ok"] is not True:
                return "validate did not return ok", 1, {}
        with open(out["bracket.json"], encoding="utf-8") as fh:
            value = json.load(fh)["value"]
        if not abs(value - expected) <= BRACKET_TOL * max(1.0, abs(expected)):
            return f"bracket {value!r}, expected {expected!r}", 1, {}
        reason, _, facts = _check_trajectory(rc_s, out["traj.csv"])
        return reason, 1, facts

    return Op(name="model", model=f"width{model.width}", run=run, check=check,
              prepare=prepare)


def model_sweep_cycle(rng: np.random.Generator, wd: Workdir) -> list[Op]:
    return [_model_op(wd, rng, k) for k in SWEEP_K]


CYCLES = {"trajectory": trajectory_cycle, "constrain": constrain_cycle,
          "model_sweep": model_sweep_cycle}


def warmup_op(workload: str, wd: Workdir) -> Op:
    """A small fixed operation that runs before timing starts."""
    rng = np.random.default_rng(0)
    if workload == "model_sweep":
        return _model_op(wd, rng, 1)
    if workload == "constrain":
        return _constrain_op(wd, [("tq_pendulum", "lagrangian", 0, LEVEL0)])
    return _simulate_op(wd, "tq_pendulum", [
        "simulate", "--preset", "tq_pendulum", "--mode", "el",
        "--t1", repr(10 * RK4_DT), "--dt", repr(RK4_DT)])


def setup(workload: str, wd: Workdir) -> None:
    """Load and build every preset the workload starts from, then warm up;
    model_sweep starts from generated models, so it only warms up."""
    from amech import system_from_spec, vakonomic_from_spec

    if workload != "model_sweep":
        for pid in presets.ids():
            preset = presets.load(pid)
            system_from_spec(preset.spec)
            if "vakonomic" in preset.facts["modes"]:
                vakonomic_from_spec(preset.spec)
    op = warmup_op(workload, wd)
    if op.prepare is not None:
        op.prepare()
    reason, _, _ = op.check(op.run())
    if reason is not None:
        raise RuntimeError(f"warm-up operation failed: {reason}")
