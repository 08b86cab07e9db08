"""Release gate: the thirteen numbered checks, one verdict line each.

Each test prints a single pass/fail line with the measured figure next to
its tolerance, then asserts. Run with -s to see the lines on a green suite.
"""

import json

import numpy as np
import pytest

from amech.algebroid import (
    DualPoint,
    chart_from_spec,
    check_structure,
    lie_poisson_bracket,
    momentum_names,
)
from amech.cli import MODES, main as cli_main
from amech.dsl import parse_expression, with_params
from amech.dynamics import (
    EPoint,
    euler_lagrange_rhs,
    legendre,
    system_from_spec,
)
from amech.expr import (Binary, Const, ScalarFunction, Unary, Var, _fd_gradient,
                        _fd_hessian, evaluate)
from amech.odeint import IntegratorConfig, OdeProblem, integrate
from amech.presets import (
    ids,
    load,
    martinet_pendulum_channels,
    plate_ball_pendulum_channels,
)
from amech.presym import (
    _project_onto,
    hamiltonian_problem_from_lagrangian,
    lagrangian_problem,
    run_constraint_algorithm,
    sode_extract,
)
from amech.vakonomic import (
    VakState,
    euler_poincare_residual,
    momenta,
    mu_solve,
    pontryagin_H,
    vakonomic_from_spec,
    vakonomic_rhs,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _drift(series: np.ndarray) -> float:
    return float(np.max(np.abs(series - series[0])))


def _d_dt(series: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered derivative on the interior of a uniform grid."""
    return (-series[4:] + 8.0 * series[3:-1]
            - 8.0 * series[1:-3] + series[:-4]) / (12.0 * h)


def _integrate(rhs, labels, y0, t1, h, monitors=None):
    prob = OdeProblem(dim=len(y0), rhs=rhs, labels=tuple(labels))
    return integrate(prob, IntegratorConfig(t0=0.0, t1=t1, h=h),
                     np.asarray(y0, dtype=float), monitors)


def _init_vector(preset, mode, labels):
    table = preset.facts["default_init"][mode]
    return np.array([float(table.get(k, 0.0)) for k in labels])


_CK_CACHE: dict = {}


def _ck_runs():
    """Constraint-algorithm runs for both sides of the singular example."""
    if not _CK_CACHE:
        sys_ = system_from_spec(load("capri_kobayashi").spec)
        rng = np.random.default_rng(7)
        lp = lagrangian_problem(sys_)
        lrun = run_constraint_algorithm(
            lp, [rng.uniform(0.6, 1.4, size=7) for _ in range(3)])
        hp, _ = hamiltonian_problem_from_lagrangian(sys_)
        hrun = run_constraint_algorithm(
            hp, [rng.uniform(0.6, 1.4, size=7) for _ in range(3)])
        _CK_CACHE.update(sys=sys_, lproblem=lp, lrun=lrun,
                         hproblem=hp, hrun=hrun)
    return _CK_CACHE


def test_c01_structure_equations_close_on_every_preset():
    worst = 0.0
    rng = np.random.default_rng(1)
    for preset_id in ids():
        chart = chart_from_spec(load(preset_id).spec)
        for _ in range(20):
            rep = check_structure(chart, rng.uniform(0.5, 1.5, size=chart.m))
            worst = max(worst, rep.r1, rep.r2)
    _verdict(1, worst < 1e-10, f"max structure residual {worst:.2e} (< 1e-10)")


def test_c02_pendulum_reduces_to_classical_mechanics():
    sys_ = system_from_spec(load("tq_pendulum").spec)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        q, v = rng.uniform(-2.0, 2.0, size=2)
        xdot, ydot = euler_lagrange_rhs(sys_, EPoint(np.array([q]), np.array([v])))
        worst = max(worst, abs(xdot[0] - v), abs(ydot[0] + np.sin(q)))

    el = MODES["el"](load("tq_pendulum").spec)
    traj = _integrate(el.rhs, el.labels, [1.2, 0.3], t1=10.0, h=1e-3,
                      monitors={"E": el.energy})
    drift = _drift(traj.monitors["E"])
    ok = worst < 1e-10 and drift < 1e-6
    _verdict(2, ok, f"EL residual {worst:.2e} (< 1e-10), "
                    f"energy drift {drift:.2e} (< 1e-06)")


def test_c03_rigid_body_hamilton_flow_and_legendre_relation():
    preset = load("so3_rigid_body")
    sys_ = system_from_spec(preset.spec)
    ham, el = MODES["hamilton"](preset.spec), MODES["el"](preset.spec)
    h = 2.5e-3

    p0 = _init_vector(preset, "hamilton", ham.labels)
    htraj = _integrate(ham.rhs, ham.labels, p0, t1=10.0, h=h,
                       monitors={"H": ham.energy,
                                 "cas": lambda t, s: float(s @ s)})
    h_drift = _drift(htraj.monitors["H"])
    cas_drift = _drift(htraj.monitors["cas"])

    w0 = _init_vector(preset, "el", el.labels)
    eltraj = _integrate(el.rhs, el.labels, w0, t1=10.0, h=h)
    p_start = legendre(sys_, EPoint(w0[:0], w0)).p
    ptraj = _integrate(ham.rhs, ham.labels, p_start, t1=10.0, h=h)
    mapped = np.array([legendre(sys_, EPoint(s[:0], s)).p for s in eltraj.states])
    sup = float(np.max(np.abs(mapped - ptraj.states)))

    ok = h_drift < 1e-8 and cas_drift < 1e-8 and sup < 1e-6
    _verdict(3, ok, f"H drift {h_drift:.2e}, Casimir drift {cas_drift:.2e} "
                    f"(< 1e-08), Legendre-related sup {sup:.2e} (< 1e-06)")


def test_c04_constraint_algorithm_stabilizes_both_sides():
    runs = _ck_runs()
    lrun, hrun = runs["lrun"], runs["hrun"]
    ranks_ok = (lrun.stabilization_level == 1
                and lrun.levels[1].new_rank == 2
                and hrun.stabilization_level == 1
                and hrun.levels[0].new_rank == 2
                and hrun.levels[1].new_rank == 2)
    lfinal, hfinal = lrun.final_constraints, hrun.final_constraints
    rng = np.random.default_rng(4)
    worst_l = worst_h = worst_zero = 0.0
    for _ in range(50):
        zl = _project_onto(lfinal, rng.uniform(-1.0, 1.0, size=7))[0]
        worst_l = max(worst_l, lrun.membership_residual(zl))
        worst_zero = max(worst_zero, abs(zl[0]), abs(zl[1]))
        zh = _project_onto(hfinal, rng.uniform(-1.0, 1.0, size=7))[0]
        worst_h = max(worst_h, hrun.membership_residual(zh))
        worst_zero = max(worst_zero, abs(zh[0]), abs(zh[1]),
                         abs(zh[3]), abs(zh[4]))
    worst = max(worst_l, worst_h, worst_zero)
    ok = ranks_ok and worst < 1e-9
    _verdict(4, ok, f"levels 1/1, new ranks 2/2, worst membership and "
                    f"zero-set residual {worst:.2e} (< 1e-09)")


def test_c05_sode_section_and_radial_equation():
    runs = _ck_runs()
    sys_, lrun = runs["sys"], runs["lrun"]
    spec = load("capri_kobayashi").spec
    m2 = spec.params["m2"]
    rng = np.random.default_rng(5)
    worst_sec = 0.0
    for _ in range(20):
        rho = rng.uniform(0.6, 1.4)
        e3, e0 = rng.uniform(-0.8, 0.8, size=2)
        at = EPoint(np.array([0.0, 0.0, rho]), np.array([0.0, 0.0, e3, e0]))
        res = sode_extract(sys_, lrun, at)
        assert res.on_locus
        expect_v = np.array([0.0, 0.0,
                             rho * (m2 * e0 ** 2 + 2.0 * e0 - 2.0) / m2,
                             -2.0 * e3 * (m2 * e0 + 1.0) / (m2 * rho)])
        worst_sec = max(worst_sec,
                        float(np.max(np.abs(res.xi_X - at.y))),
                        float(np.max(np.abs(res.xi_V - expect_v))))

    h = 1e-3
    preset = load("capri_kobayashi")
    sode = MODES["sode"](preset.spec)
    y0 = _init_vector(preset, "sode", sode.labels)
    traj = _integrate(sode.rhs, sode.labels, y0, t1=5.0, h=h)
    rho_s = traj.states[:, 2]
    e3_s = traj.states[:, 5]
    r_s = traj.states[:, 6]
    rhoddot = _d_dt(e3_s, h)
    radial = rhoddot - ((m2 * r_s + 2.0) * rho_s * r_s - 2.0 * rho_s)[2:-2] / m2
    worst_radial = float(np.max(np.abs(m2 * radial)))
    angular = m2 * r_s * rho_s ** 2 + rho_s ** 2
    ang_drift = _drift(angular)

    ok = worst_sec < 1e-10 and worst_radial < 1e-6 and ang_drift < 1e-6
    _verdict(5, ok, f"section components {worst_sec:.2e} (< 1e-10), radial "
                    f"equation {worst_radial:.2e} and angular drift "
                    f"{ang_drift:.2e} (< 1e-06)")


def test_c06_legendre_maps_final_set_into_final_set():
    runs = _ck_runs()
    sys_, lrun, hrun = runs["sys"], runs["lrun"], runs["hrun"]
    lfinal = lrun.final_constraints
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        zl = _project_onto(lfinal, rng.uniform(-1.0, 1.0, size=7))[0]
        dp = legendre(sys_, EPoint(zl[:3], zl[3:]))
        worst = max(worst, hrun.membership_residual(np.concatenate([dp.x, dp.p])))
    _verdict(6, worst < 1e-8, f"image membership residual {worst:.2e} (< 1e-08)")


def test_c07_full_bundle_constraint_recovers_free_dynamics():
    worst = 0.0
    for preset_id in ("tq_pendulum", "so3_rigid_body"):
        preset = load(preset_id)
        sys_ = system_from_spec(preset.spec)
        vsys = vakonomic_from_spec(preset.spec)
        assert vsys.constrained == ()
        chart = sys_.chart
        labels = chart.base_names + chart.fiber_names
        y0 = _init_vector(preset, "el", labels)
        m = chart.m

        def el_rhs(t, s, sys_=sys_, m=m):
            xd, yd = euler_lagrange_rhs(sys_, EPoint(s[:m], s[m:]))
            return np.concatenate([xd, yd])

        a = _integrate(el_rhs, labels, y0, t1=5.0, h=2e-3)
        b = _integrate(vsys.ode_rhs, vsys.state_labels, y0, t1=5.0, h=2e-3)
        worst = max(worst, float(np.max(np.abs(a.states - b.states))))
    _verdict(7, worst < 1e-8, f"constrained-vs-free sup error {worst:.2e} (< 1e-08)")


def test_c08_martinet_flow_and_pendulum_reduction():
    preset = load("martinet")
    vsys = vakonomic_from_spec(preset.spec)
    rng = np.random.default_rng(8)
    worst_rhs = 0.0
    for _ in range(100):
        x, e1, e2, p3 = rng.uniform(-1.0, 1.0, size=4)
        xd, yd, pd = vakonomic_rhs(vsys, VakState(np.array([x]),
                                                  np.array([e1, e2]),
                                                  np.array([p3])))
        got = np.array([xd[0], yd[0], yd[1], pd[0]])
        want = np.array([e1, -p3 * e2 * x, p3 * e1 * x, 0.0])
        worst_rhs = max(worst_rhs, float(np.max(np.abs(got - want))))

    labels = vsys.state_labels
    y0 = _init_vector(preset, "vakonomic", labels)
    traj = _integrate(vsys.ode_rhs, labels, y0, t1=10.0, h=2e-3,
                      monitors={"E": lambda t, s: 0.5 * (s[1] ** 2 + s[2] ** 2)})
    e_drift = _drift(traj.monitors["E"])
    resid = np.max(np.abs(martinet_pendulum_channels(traj)["pendulum_residual"][2:-2]))

    ok = worst_rhs < 1e-12 and e_drift < 1e-6 and resid < 1e-4
    _verdict(8, ok, f"rhs match {worst_rhs:.2e} (< 1e-12), energy drift "
                    f"{e_drift:.2e} (< 1e-06), pendulum residual "
                    f"{resid:.2e} (< 1e-04)")


def test_c09_plate_ball_flow_and_pendulum_reduction():
    preset = load("plate_ball")
    worst_rhs = 0.0
    for om, c, seed in ((0.5, 0.0, 9), (0.37, 0.21, 90)):
        vsys = vakonomic_from_spec(with_params(preset.spec, Omega=om, c=c))
        rng = np.random.default_rng(seed)
        for _ in range(100):
            x1, x2, e1, e2, p3, p4, p5 = rng.uniform(-1.0, 1.0, size=7)
            psi3 = -e2 + om * x1
            psi4 = e1 + om * x2
            _, yd, pd = vakonomic_rhs(vsys, VakState(np.array([x1, x2]),
                                                     np.array([e1, e2]),
                                                     np.array([p3, p4, p5])))
            want = np.array([-om * p3 + psi3 * p5 - c * p3,
                             -om * p4 + psi4 * p5 - c * p4,
                             -psi4 * p5 + c * p4,
                             psi3 * p5 - c * p3,
                             psi4 * p3 - psi3 * p4])
            got = np.concatenate([yd, pd])
            worst_rhs = max(worst_rhs, float(np.max(np.abs(got - want))))

    vsys = vakonomic_from_spec(with_params(preset.spec, Omega=0.0, c=0.0))
    labels = vsys.state_labels
    h = 5e-3
    y0 = _init_vector(preset, "vakonomic", labels)
    traj = _integrate(vsys.ode_rhs, labels, y0, t1=20.0, h=h,
                      monitors={"v2": lambda t, s: s[2] ** 2 + s[3] ** 2})
    v_drift = _drift(traj.monitors["v2"])
    theta = np.unwrap(np.arctan2(traj.states[:, 3], traj.states[:, 2]))
    p5_err = float(np.max(np.abs(traj.states[2:-2, 6] - _d_dt(theta, h))))
    chans = plate_ball_pendulum_channels(traj)
    resid = float(np.max(np.abs(chans["pendulum_residual"][2:-2])))

    ok = worst_rhs < 1e-12 and v_drift < 1e-6 and p5_err < 1e-6 and resid < 1e-4
    _verdict(9, ok, f"rhs match {worst_rhs:.2e} (< 1e-12), speed drift "
                    f"{v_drift:.2e}, p5-vs-heading-rate {p5_err:.2e} (< 1e-06), "
                    f"pendulum residual {resid:.2e} (< 1e-04)")


def _symbolic_bracket_table(spec, chart):
    """Closed-form {coordinate, coordinate} brackets as expression nodes."""
    names = chart.base_names + momentum_names(chart.n)
    table: dict[tuple[str, str], object] = {}
    for i, xi in enumerate(chart.base_names):
        for j, xj in enumerate(chart.base_names):
            table[(xi, xj)] = Const(0.0)
        for A, pA in enumerate(momentum_names(chart.n)):
            rho_iA = spec.anchor[A][i]
            table[(xi, pA)] = rho_iA
            table[(pA, xi)] = Unary("neg", rho_iA)
    for A, pA in enumerate(momentum_names(chart.n)):
        for B, pB in enumerate(momentum_names(chart.n)):
            if A == B:
                table[(pA, pB)] = Const(0.0)
                continue
            key = (A, B) if A < B else (B, A)
            coeffs = spec.bracket.get(key)
            if coeffs is None:
                table[(pA, pB)] = Const(0.0)
                continue
            acc = Const(0.0)
            for c, coef in enumerate(coeffs):
                term = Binary("*", coef, Var(momentum_names(chart.n)[c]))
                acc = Binary("+", acc, term)
            if A > B:
                acc = Unary("neg", acc)
            table[(pA, pB)] = Unary("neg", acc)
    return names, table


def test_c10_constrained_poisson_bracket():
    preset = load("plate_ball")
    spec = preset.spec
    chart = chart_from_spec(spec)
    names = chart.base_names + momentum_names(chart.n)
    rng = np.random.default_rng(10)
    pts = rng.uniform(-1.0, 1.0, size=(100, len(names)))

    worst_table = 0.0
    for row in preset.facts["bracket_table"]:
        F = parse_expression(row["F"])
        G = parse_expression(row["G"])
        want_expr = parse_expression(row["value"])
        for z in pts:
            at = DualPoint(z[:chart.m], z[chart.m:])
            got = lie_poisson_bracket(chart, F, G, at)
            rev = lie_poisson_bracket(chart, G, F, at)
            assert got + rev == 0.0
            want = evaluate(want_expr, dict(zip(names, z)))
            worst_table = max(worst_table, abs(got - want))

    _, table = _symbolic_bracket_table(spec, chart)
    worst_jac = 0.0
    coord_exprs = {n: Var(n) for n in names}
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            for c in range(b + 1, len(names)):
                na, nb, nc = names[a], names[b], names[c]
                for z in pts[:100]:
                    at = DualPoint(z[:chart.m], z[chart.m:])
                    j = (lie_poisson_bracket(chart, coord_exprs[na], table[(nb, nc)], at)
                         + lie_poisson_bracket(chart, coord_exprs[nb], table[(nc, na)], at)
                         + lie_poisson_bracket(chart, coord_exprs[nc], table[(na, nb)], at))
                    worst_jac = max(worst_jac, abs(j))

    vsys = vakonomic_from_spec(spec)
    labels = vsys.state_labels
    h = 1e-3
    y0 = _init_vector(preset, "vakonomic", labels)
    traj = _integrate(vsys.ode_rhs, labels, y0, t1=3.0, h=h)
    F_expr = parse_expression("p3*x1 + p4*p5 + x2")

    class PontryaginH:
        # H(x, p) at the solved free velocities has no tree; its gradients
        # are differenced here, as a reference
        @staticmethod
        def gradients(at):
            def packed(v):
                x, p = v[:chart.m], v[chart.m:]
                return float(pontryagin_H(vsys, x, p, mu_solve(vsys, x, p)))

            g = _fd_gradient(packed, np.concatenate([at.x, at.p]))
            return g[:chart.m], g[chart.m:]

    rows = traj.states[::10]
    hs = 10 * h
    f_series = []
    bracket_series = []
    for r in rows:
        s = VakState(r[:2], r[2:4], r[4:])
        p_full = momenta(vsys, s)
        env = dict(zip(names, np.concatenate([r[:2], p_full])))
        f_series.append(evaluate(F_expr, env))
        bracket_series.append(
            lie_poisson_bracket(chart, F_expr, PontryaginH, DualPoint(r[:2], p_full)))
    f_series = np.asarray(f_series)
    fdot_err = float(np.max(np.abs(_d_dt(f_series, hs)
                                   - np.asarray(bracket_series)[2:-2])))

    ok = worst_table < 1e-12 and worst_jac < 1e-9 and fdot_err < 1e-6
    _verdict(10, ok, f"table match {worst_table:.2e} (< 1e-12), Jacobi "
                     f"{worst_jac:.2e} (< 1e-09), dF/dt vs bracket "
                     f"{fdot_err:.2e} (< 1e-06)")


def test_c11_reduced_equations_hold_along_the_flow():
    preset = load("lie_algebra_affine")
    vsys = vakonomic_from_spec(preset.spec)
    labels = vsys.state_labels
    y0 = _init_vector(preset, "vakonomic", labels)
    traj = _integrate(vsys.ode_rhs, labels, y0, t1=5.0, h=1e-3)
    nf = vsys.n_free
    resid = euler_poincare_residual(vsys, traj.times,
                                    traj.states[:, :nf], traj.states[:, nf:])
    _verdict(11, resid < 1e-5, f"reduced-equation residual {resid:.2e} (< 1e-05)")


def test_c12_derivatives_agree_with_finite_differences():
    worst_g = worst_h = 0.0
    rng = np.random.default_rng(12)
    targets = []
    for preset_id in ids():
        spec = load(preset_id).spec
        targets.append((spec.base + spec.fiber, spec.lagrangian, spec.params))
        if spec.vakonomic is not None:
            vsys = vakonomic_from_spec(spec)
            psi_names = spec.base + vsys.free_names
            for expr in spec.vakonomic.psi:
                targets.append((psi_names, expr, spec.params))
    for names, expr, params in targets:
        ad = ScalarFunction(names, expr=expr, params=params)
        for _ in range(100):
            z = rng.uniform(0.5, 1.5, size=len(names))
            ga, gf = ad.gradient(z), _fd_gradient(ad.value, z)
            ha, hf = ad.hessian(z), _fd_hessian(ad.value, z)
            scale_g = max(1.0, float(np.max(np.abs(ga), initial=0.0)))
            scale_h = max(1.0, float(np.max(np.abs(ha), initial=0.0)))
            worst_g = max(worst_g, float(np.max(np.abs(ga - gf), initial=0.0)) / scale_g)
            worst_h = max(worst_h, float(np.max(np.abs(ha - hf), initial=0.0)) / scale_h)
    ok = worst_g < 1e-6 and worst_h < 1e-6
    _verdict(12, ok, f"gradient rel error {worst_g:.2e}, hessian rel error "
                     f"{worst_h:.2e} (< 1e-06)")


def test_c13_every_command_is_reproducible_from_its_manifest(tmp_path):
    worst_bad = []

    def replay_argv(manifest_path, out_a, out_b):
        doc = json.loads(manifest_path.read_text())
        argv = [str(out_b) if tok == str(out_a) else tok for tok in doc["argv"]]
        argv = [str(tmp_path / "m2.json") if tok == str(manifest_path) else tok
                for tok in argv]
        assert cli_main(argv) == 0
        return out_a.read_bytes() == out_b.read_bytes()

    # simulate: fixed-step and adaptive, through the dedicated replay path
    for tag, extra in (("rk4", []), ("dp45", ["--rtol", "1e-9"])):
        a = tmp_path / f"{tag}-a.csv"
        b = tmp_path / f"{tag}-b.csv"
        man = tmp_path / f"{tag}.json"
        argv = ["simulate", "--preset", "so3_rigid_body", "--mode", "hamilton",
                "--t1", "1.0", "--dt", "2e-3", *extra,
                "--out", str(a), "--manifest", str(man)]
        assert cli_main(argv) == 0
        assert cli_main(["simulate", "--from-manifest", str(man), "--out", str(b),
                         "--manifest", str(tmp_path / f"{tag}-m2.json")]) == 0
        if a.read_bytes() != b.read_bytes():
            worst_bad.append(f"simulate/{tag}")

    # validate, constrain, bracket: replay the recorded argv
    commands = {
        "validate": ["validate", "--preset", "plate_ball"],
        "constrain": ["constrain", "--preset", "capri_kobayashi",
                      "--side", "hamiltonian"],
        "bracket": ["bracket", "--preset", "so3_rigid_body",
                    "--F", "p1", "--G", "p2", "--at", "p3=2.0"],
    }
    for tag, argv in commands.items():
        a = tmp_path / f"{tag}-a.json"
        b = tmp_path / f"{tag}-b.json"
        man = tmp_path / f"{tag}.json"
        assert cli_main(argv + ["--out", str(a), "--manifest", str(man)]) == 0
        if not replay_argv(man, a, b):
            worst_bad.append(tag)

    _verdict(13, not worst_bad,
             "all five commands bitwise reproducible" if not worst_bad
             else f"non-reproducible: {', '.join(worst_bad)}")
