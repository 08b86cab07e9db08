"""Command-line front end: parse, validate, derive, integrate, export.

Exit codes are a stable contract: 0 success, 1 validation or consistency
failure, 2 parse or usage error, 3 singular dynamics (route through the
constraint algorithm), 4 integration failure. Every run writes a JSON
manifest that reproduces it exactly; timing lives only in the manifest so
reruns are bitwise identical on the data outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import presets
from .algebroid import DualPoint, DualObservable, chart_from_spec, check_structure
from .dsl import parse_expression, parse_system
from .dynamics import (EPoint, _el_force, euler_lagrange_rhs,
                       hamiltonian_from_lagrangian, hamilton_rhs, is_regular,
                       system_from_spec)
from .errors import (AmechError, DslError, OdeError, SingularHessian, SingularR,
                     UnboundVariableError, UnknownPresetError)
from .expr import ScalarFunction, variables_of
from .linalg import min_norm_lstsq, rank_rtol
from .odeint import IntegratorConfig, OdeProblem, integrate
from .presym import (hamiltonian_problem_from_lagrangian, lagrangian_problem,
                     run_constraint_algorithm, solve_on_final)
from .vakonomic import h_w1, vakonomic_bracket, vakonomic_from_spec

__all__ = ["main", "cmd_validate", "cmd_simulate", "cmd_constrain", "cmd_bracket"]

class UsageError(Exception):
    """Bad flags or bindings; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Shared plumbing


def _load_model(args) -> dict:
    """Resolve --preset/file into spec + provenance + facts, with the facts'
    channels as trees (a preset's parsed once per process)."""
    if getattr(args, "preset", None):
        preset = presets.load(args.preset)
        return {"spec": preset.spec, "dsl": preset.dsl, "facts": preset.facts,
                "channels": preset.channels, "origin": {"preset": preset.id}}
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise AmechError(f"{args.file}: {exc}") from None
        return {"spec": parse_system(text), "dsl": text, "facts": {}, "channels": {},
                "origin": {"file": args.file}}
    if getattr(args, "dsl_text", None):
        return {"spec": parse_system(args.dsl_text), "dsl": args.dsl_text,
                "facts": {}, "channels": {},
                "origin": dict(getattr(args, "origin", {}) or {"inline": True})}
    raise UsageError("need a model: --preset ID or a file path")


def _parse_bindings(pairs, what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"{what} entries must look like name=value, got {item!r}")
        name, _, raw = item.partition("=")
        name = name.strip()
        try:
            out[name] = float(raw)
        except ValueError:
            out[name] = np.nan
        if not np.isfinite(out[name]):
            raise UsageError(f"bad number {raw!r} for {what} {name!r}")
    return out


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise AmechError(f"--seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _write(text: str, out_path: str | None) -> None:
    """text to the file out_path, or to standard output without one."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report: dict, out_path: str | None) -> None:
    _write(json.dumps(report, indent=2, default=lambda o: o.tolist()) + "\n", out_path)


def _write_manifest(args, command: str, model: dict, config: dict,
                    outputs: dict, exit_status: int, started: float) -> None:
    path = getattr(args, "manifest", None) or "amech-manifest.json"
    doc = {
        "command": command,
        "argv": list(getattr(args, "argv_record", []) or []),
        "input": {**model["origin"], "dsl": model["dsl"]},
        "config": config,
        "outputs": outputs,
        "exit_status": exit_status,
        "rank_tolerance": rank_rtol(),
        "timing_seconds": time.monotonic() - started,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, default=lambda o: o.tolist()) + "\n")


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    started = time.monotonic()
    model = _load_model(args)
    spec = model["spec"]
    chart = chart_from_spec(spec)
    rng = _rng(args.seed)
    points = []
    worst_r1 = worst_r2 = 0.0
    for _ in range(args.points):
        x = rng.uniform(-1.0, 1.0, size=chart.m)
        rep = check_structure(chart, x)
        worst_r1 = max(worst_r1, rep.r1)
        worst_r2 = max(worst_r2, rep.r2)
        points.append({"point": list(rep.point), "r1": rep.r1, "r2": rep.r2,
                       "source": rep.source})

    sys_ = system_from_spec(spec)
    regular_count = 0
    scan = []
    for _ in range(args.points):
        x = rng.uniform(-1.0, 1.0, size=chart.m)
        y = rng.uniform(-1.0, 1.0, size=chart.n)
        rep = is_regular(sys_, EPoint(x, y))
        regular_count += int(rep.regular)
        scan.append({"regular": rep.regular,
                     "min_singular_value": rep.min_singular_value})

    ok = worst_r1 < 1e-8 and worst_r2 < 1e-8
    report = {
        "system": spec.name,
        "structure": {"points": points, "max_r1": worst_r1, "max_r2": worst_r2},
        "regularity_scan": {"points_checked": args.points,
                            "regular_points": regular_count,
                            "details": scan},
        "ok": ok,
    }
    _emit(report, args.out)
    status = 0 if ok else 1
    _write_manifest(args, "validate", model,
                    {"seed": args.seed, "points": args.points},
                    {"report": args.out}, status, started)
    return status


# ---------------------------------------------------------------------------
# simulate


def _monitor(labels, params, tree) -> Callable:
    sf = ScalarFunction(labels, expr=tree, params=params)

    def fn(t: float, state: np.ndarray) -> float:
        del t
        return sf.value(state)

    return fn


def _resolve_init(labels, facts_init: dict, overrides: dict) -> np.ndarray:
    unknown = set(overrides) - set(labels)
    if unknown:
        raise UsageError(f"unknown state components {sorted(unknown)}; "
                         f"this mode has {list(labels)}")
    values = {name: 0.0 for name in labels}
    values.update({k: float(v) for k, v in facts_init.items() if k in values})
    values.update(overrides)
    return np.array([values[name] for name in labels]), values


def _sode_locus_project(problem, run, sys_, z0: np.ndarray) -> np.ndarray:
    """Project onto the final set and the second-order locus inside it."""
    from .presym import _project_onto

    m, n = sys_.chart.m, sys_.chart.n

    def defect(z: np.ndarray) -> np.ndarray:
        # tol=inf: during projection the point is off the final set, so the
        # restricted solve may be inconsistent; only the defect value matters.
        return solve_on_final(problem, z, run=run, tol=np.inf).X[:n] - z[m:]

    z = _project_onto(run.final_constraints, z0)
    z = _project_onto(run.final_constraints + (defect,), z, tol=1e-10)
    solve_on_final(problem, z, run=run)
    return z


class Mode(NamedTuple):
    """One dynamics mode of a parsed spec, as `simulate` integrates it.

    rhs(t, state) is the field and energy(t, state) its energy monitor;
    start(y0, seed) checks the initial state, or projects it, before the run.
    """

    labels: tuple[str, ...]
    rhs: Callable
    energy: Callable
    start: Callable


# The rows call the library by its module-level names at call time, so a
# name rebound after import (a tracer's wrapper, say) is the one they reach.
def _el_mode(spec, sode: bool = False) -> Mode:
    """Euler-Lagrange on E; with sode, the second-order field on the final
    constraint set of a singular L, from a start projected onto it."""
    sys_ = system_from_spec(spec)
    m = sys_.chart.m

    def el_rhs(t, state):
        del t
        xdot, ydot = euler_lagrange_rhs(sys_, EPoint(state[:m], state[m:]))
        return np.concatenate([xdot, ydot])

    def sode_rhs(t, state):
        del t
        w, b, rho = _el_force(sys_, EPoint(state[:m], state[m:]))
        xi_v, _ = min_norm_lstsq(w, b)
        return np.concatenate([rho @ state[m:] if m else np.zeros(0), xi_v])

    def probe(y0, seed):
        el_rhs(0.0, y0)  # so a singular model fails before integration starts
        return y0

    def project(y0, seed):
        problem = lagrangian_problem(sys_)
        rng = _rng(seed)
        seeds = [y0] + [y0 + rng.normal(0.0, 0.3, size=y0.size) for _ in range(2)]
        run = run_constraint_algorithm(problem, seeds)
        return _sode_locus_project(problem, run, sys_, y0)

    return Mode(sys_.chart.base_names + sys_.chart.fiber_names,
                sode_rhs if sode else el_rhs,
                lambda t, state: sys_.energy(EPoint(state[:m], state[m:])),
                project if sode else probe)


def _hamilton_mode(spec) -> Mode:
    sys_ = system_from_spec(spec)
    chart, m = sys_.chart, sys_.chart.m
    H = hamiltonian_from_lagrangian(sys_)

    def rhs(t, state):
        del t
        xdot, pdot = hamilton_rhs(chart, H, DualPoint(state[:m], state[m:]))
        return np.concatenate([xdot, pdot])

    def start(y0, seed):
        if not is_regular(sys_, EPoint(y0[:m], y0[m:])).regular:
            raise SingularHessian("Lagrangian is singular; run `amech constrain` "
                                  "for the Hamiltonian-side algorithm")
        return y0

    return Mode(chart.base_names + chart.momentum_names, rhs,
                lambda t, state: H(state[:m], state[m:]), start)


def _vakonomic_mode(spec) -> Mode:
    vsys = vakonomic_from_spec(spec)
    return Mode(vsys.state_labels, vsys.ode_rhs,
                lambda t, state: h_w1(vsys, vsys.unpack(state)),
                lambda y0, seed: y0)


# The simulate modes; argparse and the manifest replay check --mode against these.
MODES: dict[str, Callable[..., Mode]] = {
    "el": _el_mode, "hamilton": _hamilton_mode, "vakonomic": _vakonomic_mode,
    "sode": functools.partial(_el_mode, sode=True)}


def cmd_simulate(args) -> int:
    started = time.monotonic()
    model = _load_model(args)
    spec = model["spec"]
    if args.mode not in MODES:
        raise UsageError(f"unknown mode {args.mode!r}")
    overrides = _parse_bindings(args.init, "--init")
    mode = MODES[args.mode](spec)
    labels = mode.labels
    facts_init = (model["facts"].get("default_init", {}) or {}).get(args.mode, {})
    y0, resolved = _resolve_init(labels, facts_init, overrides)
    y0 = mode.start(y0, args.seed)

    monitors: dict[str, Callable] = {"energy": mode.energy}
    params = dict(spec.params)
    for name, tree in model["channels"].items():
        # a preset channel applies only where all its names are state or params
        if variables_of(tree) <= set(labels) | set(params):
            monitors[name] = _monitor(labels, params, tree)
    extra = []
    for item in args.monitor or []:
        if "=" not in item:
            raise UsageError("--monitor entries must look like name=expression")
        name, _, text = item.partition("=")
        monitors[name.strip()] = _monitor(labels, params, parse_expression(text))
        extra.append([name.strip(), text])

    method = "dp45" if args.rtol is not None else "rk4"
    try:
        config = IntegratorConfig(t0=args.t0, t1=args.t1, method=method,
                                  h=args.dt, rtol=args.rtol or 1e-8,
                                  atol=args.atol, max_steps=args.max_steps)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    problem_ode = OdeProblem(dim=len(labels), rhs=mode.rhs, labels=tuple(labels))
    traj = integrate(problem_ode, config, y0, monitors)
    derived = model["facts"].get("derived")
    if derived and args.mode == "vakonomic":
        traj.monitors.update(derived(traj, spec.params))

    _write(traj.to_csv(), args.out)

    cfg = {
        "mode": args.mode,
        "method": method,
        "t0": args.t0, "t1": args.t1,
        "dt": args.dt, "rtol": args.rtol, "atol": args.atol,
        "max_steps": args.max_steps,
        "seed": args.seed,
        "init": resolved,
        "extra_monitors": extra,
    }
    _write_manifest(args, "simulate", model, cfg, {"csv": args.out}, 0, started)
    return 0


def _simulate_from_manifest(path: str, out_override: str | None,
                            manifest_override: str | None) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON, or not UTF-8 text
            raise AmechError(f"{path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("command") != "simulate":
        raise UsageError("manifest does not describe a simulate run")
    try:
        cfg = doc["config"]
        ns = argparse.Namespace(
            preset=doc["input"].get("preset"),
            file=None,
            dsl_text=None if doc["input"].get("preset") else doc["input"]["dsl"],
            origin={k: v for k, v in doc["input"].items() if k != "dsl"},
            mode=cfg["mode"],
            t0=cfg["t0"], t1=cfg["t1"], dt=cfg["dt"],
            rtol=cfg["rtol"], atol=cfg["atol"], max_steps=cfg["max_steps"],
            seed=cfg["seed"],
            init=[f"{k}={v!r}" for k, v in cfg["init"].items()],
            monitor=[f"{n}={e}" for n, e in cfg.get("extra_monitors", [])],
            out=out_override or doc["outputs"]["csv"],
            manifest=manifest_override,
        )
    except KeyError as exc:
        raise UsageError(f"{path}: manifest has no {exc.args[0]!r} entry") from None
    return cmd_simulate(ns)


# ---------------------------------------------------------------------------
# constrain


def cmd_constrain(args) -> int:
    started = time.monotonic()
    model = _load_model(args)
    spec = model["spec"]
    sys_ = system_from_spec(spec)
    chart = sys_.chart
    if args.side == "lagrangian":
        problem = lagrangian_problem(sys_)
    else:
        problem, _ = hamiltonian_problem_from_lagrangian(sys_)
    rng = _rng(args.seed)
    if args.probes < 1:
        raise AmechError(f"--probes must be at least 1, got {args.probes}")
    seeds = [rng.uniform(0.6, 1.4, size=chart.m + chart.n)
             for _ in range(args.probes)]
    run = run_constraint_algorithm(problem, seeds)
    solved = solve_on_final(problem, run.probes[0], run=run)
    report = {
        "system": spec.name,
        "side": args.side,
        **run.report(),
        "final_solve_residual": solved.residual,
        "final_fiber_dimension": int(solved.basis.shape[1]),
    }
    _emit(report, args.out)
    _write_manifest(args, "constrain", model,
                    {"side": args.side, "seed": args.seed, "probes": args.probes},
                    {"report": args.out}, 0, started)
    return 0


# ---------------------------------------------------------------------------
# bracket


def cmd_bracket(args) -> int:
    started = time.monotonic()
    model = _load_model(args)
    spec = model["spec"]
    chart = chart_from_spec(spec)
    names = chart.base_names + chart.momentum_names
    bindings = _parse_bindings(args.at, "--at")
    unknown = set(bindings) - set(names)
    if unknown:
        raise UsageError(f"unknown coordinates {sorted(unknown)}; "
                         f"chart has {list(names)}")
    full = {name: bindings.get(name, 0.0) for name in names}
    at = DualPoint(x=np.array([full[n] for n in chart.base_names]),
                   p=np.array([full[n] for n in chart.momentum_names]))

    F = DualObservable(chart, parse_expression(args.F))
    G = DualObservable(chart, parse_expression(args.G))
    value = vakonomic_bracket(chart, F, G, at)
    anti = value + vakonomic_bracket(chart, G, F, at)

    # Jacobi spot-check against the sum of all coordinates as the third leg;
    # inner brackets are callable observables, so this is FD-limited.
    h_expr = parse_expression(" + ".join(names))
    Hobs = DualObservable(chart, h_expr)

    def nested(a, b):
        def fn(x, p):
            return vakonomic_bracket(chart, a, b, DualPoint(x, p))

        return fn

    jac = (vakonomic_bracket(chart, F, nested(G, Hobs), at)
           + vakonomic_bracket(chart, G, nested(Hobs, F), at)
           + vakonomic_bracket(chart, Hobs, nested(F, G), at))
    report = {
        "F": args.F, "G": args.G,
        "at": full,
        "value": float(value),
        "antisymmetry_defect": float(anti),
        "jacobi_residual_fd": float(jac),
    }
    _emit(report, args.out)
    _write_manifest(args, "bracket", model,
                    {"F": args.F, "G": args.G, "at": full},
                    {"report": args.out}, 0, started)
    return 0


# ---------------------------------------------------------------------------
# export-preset


def cmd_export_preset(args) -> int:
    _write(presets.load(args.id).dsl, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", help="model file (.amech)")
    p.add_argument("--preset", help="built-in system id")
    p.add_argument("--out", default=None, help="write the report/data here")
    p.add_argument("--manifest", default=None,
                   help="manifest path (default amech-manifest.json)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled points and probes")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change
    it, and each parse starts from the defaults."""
    parser = argparse.ArgumentParser(
        prog="amech",
        description="Mechanics on Lie algebroid charts: validate models, "
                    "integrate dynamics, run the constraint algorithm.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="structure equations and regularity scan")
    _add_model_args(p)
    p.add_argument("--points", type=int, default=20)

    p = sub.add_parser("simulate", help="integrate one of the dynamics modes")
    _add_model_args(p)
    p.add_argument("--mode", default="el", choices=MODES)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3,
                   help="fixed step (RK4); ignored when --rtol is given")
    p.add_argument("--rtol", type=float, default=None,
                   help="switch to the adaptive pair with this tolerance")
    p.add_argument("--atol", type=float, default=1e-10)
    p.add_argument("--max-steps", type=int, default=1_000_000, dest="max_steps")
    p.add_argument("--init", action="append", metavar="NAME=VALUE",
                   help="initial state component; unset components default "
                        "to the preset table or zero")
    p.add_argument("--monitor", action="append", metavar="NAME=EXPR",
                   help="extra monitor column (expression in state labels)")
    p.add_argument("--from-manifest", dest="from_manifest", default=None,
                   help="replay a previous simulate run")

    p = sub.add_parser("constrain", help="run the constraint algorithm")
    _add_model_args(p)
    p.add_argument("--side", default="lagrangian",
                   choices=["lagrangian", "hamiltonian"])
    p.add_argument("--probes", type=int, default=3)

    p = sub.add_parser("bracket", help="evaluate the Poisson bracket of two "
                                       "observables on the dual bundle")
    _add_model_args(p)
    p.add_argument("--F", required=True)
    p.add_argument("--G", required=True)
    p.add_argument("--at", action="append", metavar="NAME=VALUE",
                   help="evaluation point; unset coordinates are zero")

    p = sub.add_parser("export-preset", help="print a preset's model document")
    p.add_argument("id")
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.argv_record = list(argv) if argv is not None else list(sys.argv[1:])
    try:
        if args.cmd == "validate":
            return cmd_validate(args)
        if args.cmd == "simulate":
            if getattr(args, "from_manifest", None):
                return _simulate_from_manifest(args.from_manifest, args.out,
                                               args.manifest)
            return cmd_simulate(args)
        if args.cmd == "constrain":
            return cmd_constrain(args)
        if args.cmd == "bracket":
            return cmd_bracket(args)
        if args.cmd == "export-preset":
            return cmd_export_preset(args)
        raise UsageError(f"unknown command {args.cmd!r}")
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except (DslError, UsageError, UnboundVariableError, UnknownPresetError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except (SingularHessian, SingularR) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except AmechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
