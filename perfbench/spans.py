"""Span recorder for the traced run, installed from outside the library.

`install(tracer)` replaces selected functions of the `amech` modules with
wrappers that time each call. A name is replaced in every `amech` module
namespace that bound the same object, because `cli`, `presym` and others use
`from .x import y`. The chart closures made by `chart_from_spec` and the
`omega`, `alpha` and `anchor` callables of a `PresymplecticProblem` are
wrapped as they are created. Nothing under `src/` is edited.

Each call becomes a span with its operation id and its parent span. Self time
is a span's duration minus the time of its child spans; time spent in code
that is not wrapped counts to the nearest wrapped caller. Aggregates cover
every span; the full span records are kept in memory up to a cap and written
out at the end.
"""

from __future__ import annotations

import dataclasses
import sys
from time import perf_counter

import numpy as np

# (layer, module, attribute) of every wrapped module-level function. A dotted
# attribute names a method; it is patched on the class.
TARGETS = [
    ("dsl", "amech.dsl", "parse_system"),
    ("dsl", "amech.dsl", "format_system"),
    ("dsl", "amech.dsl", "parse_expression"),
    ("expr", "amech.expr", "evaluate"),
    ("expr", "amech.expr", "grad"),
    ("expr", "amech.expr", "hessian"),
    ("expr", "amech.expr", "substitute"),
    ("expr", "amech.expr", "_fd_gradient"),
    ("expr", "amech.expr", "_fd_hessian"),
    ("algebroid", "amech.algebroid", "chart_from_spec"),
    ("algebroid", "amech.algebroid", "check_structure"),
    ("algebroid", "amech.algebroid", "lie_poisson_bracket"),
    ("algebroid", "amech.algebroid", "omega_E_matrix"),
    ("algebroid", "amech.algebroid", "_fd_tensor_jacobian"),
    ("dynamics", "amech.dynamics", "system_from_spec"),
    ("dynamics", "amech.dynamics", "cartan"),
    ("dynamics", "amech.dynamics", "legendre"),
    ("dynamics", "amech.dynamics", "legendre_inverse"),
    ("dynamics", "amech.dynamics", "is_regular"),
    ("dynamics", "amech.dynamics", "_el_force_rhs"),
    ("dynamics", "amech.dynamics", "euler_lagrange_rhs"),
    ("dynamics", "amech.dynamics", "hamilton_rhs"),
    ("dynamics", "amech.dynamics", "LagrangianSystem.second_derivatives"),
    ("vakonomic", "amech.vakonomic", "vakonomic_from_spec"),
    ("vakonomic", "amech.vakonomic", "vakonomic_rhs"),
    ("vakonomic", "amech.vakonomic", "regularity_matrix"),
    ("vakonomic", "amech.vakonomic", "h_w1"),
    ("vakonomic", "amech.vakonomic", "momenta"),
    ("vakonomic", "amech.vakonomic", "pontryagin_H"),
    ("vakonomic", "amech.vakonomic", "mu_solve"),
    ("vakonomic", "amech.vakonomic", "VakonomicSystem.ode_rhs"),
    ("vakonomic", "amech.vakonomic", "_PointData.__init__"),
    ("presym", "amech.presym", "run_constraint_algorithm"),
    ("presym", "amech.presym", "solve_on_final"),
    ("presym", "amech.presym", "sode_extract"),
    ("presym", "amech.presym", "_project_onto"),
    ("presym", "amech.presym", "_fiber_basis"),
    ("presym", "amech.presym", "_constraint_jacobian"),
    ("presym", "amech.presym", "_fd_gradient"),
    ("presym", "amech.presym", "perp"),
    ("presym", "amech.presym", "lagrangian_problem"),
    ("presym", "amech.presym", "hamiltonian_problem_from_lagrangian"),
    ("presym", "amech.presym", "HamiltonianSideData._solve_velocity"),
    ("linalg", "amech.linalg", "null_space"),
    ("linalg", "amech.linalg", "row_space_rank"),
    ("linalg", "amech.linalg", "decide_rank"),
    ("linalg", "amech.linalg", "min_norm_lstsq"),
    ("odeint", "amech.odeint", "integrate"),
    ("odeint", "amech.odeint", "_run_rk4"),
    ("odeint", "amech.odeint", "_run_dp45"),
    ("odeint", "amech.odeint", "_rk4_step"),
    ("odeint", "amech.odeint", "_dp45_step"),
    ("odeint", "amech.odeint", "_checked_rhs"),
    ("cli", "amech.cli", "main"),
    ("cli", "amech.cli", "_load_model"),
    ("cli", "amech.cli", "cmd_validate"),
    ("cli", "amech.cli", "cmd_simulate"),
    ("cli", "amech.cli", "cmd_constrain"),
    ("cli", "amech.cli", "cmd_bracket"),
    ("cli", "amech.cli", "_sode_locus_project"),
    ("cli", "amech.cli", "_write_manifest"),
]

# numpy's dense solvers, counted as the linalg layer wherever they are called.
NUMPY_TARGETS = ("svd", "solve", "lstsq")

# (span, enclosing span): calls of the first made while the second is open.
NESTED = [
    ("expr.hessian", "vakonomic.vakonomic_rhs"),
    ("dynamics.LagrangianSystem.second_derivatives", "dynamics.legendre_inverse"),
    ("dynamics.cartan", "presym.run_constraint_algorithm"),
]

LAYERS = ("dsl", "expr", "algebroid", "dynamics", "vakonomic", "presym",
          "linalg", "odeint", "cli")

# Full span records kept in memory; later spans are only aggregated.
MAX_SPANS = 200_000


class Tracer:
    """In-memory spans and per-name aggregates of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.open_depth: list[int] = []
        self.nested_checks: list[list[tuple[int, int]]] = []
        self.nested_counts = [0] * len(NESTED)
        self.results: dict[str, list[int]] = {"levels": [], "steps": []}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[list] = []
        self.next_id = 1
        self.op_id = 0

    def index(self, name: str, layer: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self.open_depth.append(0)
        self.nested_checks.append([])
        return len(self.names) - 1

    def link_nested(self) -> None:
        for k, (child, parent) in enumerate(NESTED):
            self.nested_checks[self.names.index(child)].append(
                (k, self.names.index(parent)))

    def begin_op(self) -> None:
        self.op_id += 1

    def wrap(self, fn, name: str, layer: str, on_result=None):
        i = self.index(name, layer)
        stack = self.stack
        depth = self.open_depth
        checks = self.nested_checks[i]

        def wrapper(*args, **kwargs):
            for k, parent in checks:
                if depth[parent]:
                    self.nested_counts[k] += 1
            span_id = self.next_id
            self.next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            depth[i] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[i] -= 1
                stack.pop()
                dur = t1 - t0
                self.calls[i] += 1
                self.total[i] += dur
                self.self_time[i] += dur - frame[1]
                parent_id = 0
                if stack:
                    stack[-1][1] += dur
                    parent_id = stack[-1][0]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent_id, self.op_id, i, t0, t1))
                else:
                    self.dropped += 1
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for i, layer in enumerate(self.layer_of):
            if layer in out:
                out[layer] += self.self_time[i]
        return out

    def stats(self, name: str) -> tuple[int, float]:
        if name not in self.names:
            return 0, 0.0
        i = self.names.index(name)
        return self.calls[i], self.total[i]

    def nested(self, child: str, parent: str) -> int:
        return self.nested_counts[NESTED.index((child, parent))]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            for span_id, parent, op, i, t0, t1 in self.spans:
                fh.write(f"{span_id},{parent},{op},{self.names[i]},{t0!r},{t1!r}\n")


def _rebind(old, new) -> None:
    """Point every amech module-level name bound to `old` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "amech" or mod_name.startswith("amech.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _wrap_chart(tracer: Tracer, chart):
    chart.rho = tracer.wrap(chart.rho, "algebroid.rho", "algebroid")
    chart.structure = tracer.wrap(chart.structure, "algebroid.structure", "algebroid")
    if chart._rho_jacobian is not None:
        chart._rho_jacobian = tracer.wrap(chart._rho_jacobian,
                                          "algebroid.rho_jacobian", "algebroid")
        chart._structure_jacobian = tracer.wrap(chart._structure_jacobian,
                                                "algebroid.structure_jacobian",
                                                "algebroid")
    return chart


def _wrap_problem(tracer: Tracer, problem):
    return dataclasses.replace(
        problem,
        omega=tracer.wrap(problem.omega, "presym.omega", "presym"),
        alpha=tracer.wrap(problem.alpha, "presym.alpha", "presym"),
        anchor=tracer.wrap(problem.anchor, "presym.anchor", "presym"))


def install(tracer: Tracer) -> None:
    """Wrap every target; the amech modules must already be imported."""
    for name in ("algebroid.rho", "algebroid.structure", "algebroid.rho_jacobian",
                 "algebroid.structure_jacobian", "presym.omega", "presym.alpha",
                 "presym.anchor"):
        tracer.index(name, name.split(".")[0])
    for fn_name in NUMPY_TARGETS:
        original = getattr(np.linalg, fn_name)
        setattr(np.linalg, fn_name,
                tracer.wrap(original, f"linalg.{fn_name}", "linalg"))

    hooks = {
        "amech.odeint.integrate":
            lambda traj: tracer.results["steps"].append(len(traj.times) - 1),
        "amech.presym.run_constraint_algorithm":
            lambda run: tracer.results["levels"].append(len(run.levels)),
    }
    for layer, mod_name, attr in TARGETS:
        mod = sys.modules[mod_name]
        owner_name, _, meth = attr.rpartition(".")
        key = f"{layer}.{attr}"
        if owner_name:
            owner = getattr(mod, owner_name)
            original = owner.__dict__[meth]
            setattr(owner, meth, tracer.wrap(original, key, layer))
            continue
        original = getattr(mod, attr)
        inner = original
        if attr == "chart_from_spec":
            inner = lambda spec, _f=original: _wrap_chart(tracer, _f(spec))
        elif attr == "lagrangian_problem":
            inner = lambda sys_, _f=original: _wrap_problem(tracer, _f(sys_))
        elif attr == "hamiltonian_problem_from_lagrangian":
            def inner(sys_, _f=original):
                problem, data = _f(sys_)
                return _wrap_problem(tracer, problem), data
        wrapped = tracer.wrap(inner, key, layer,
                              on_result=hooks.get(f"{mod_name}.{attr}"))
        _rebind(original, wrapped)
    tracer.link_nested()
