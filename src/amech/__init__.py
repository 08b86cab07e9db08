"""Mechanics on Lie algebroid charts.

Parse a declarative system document, check the structure equations, run the
regular Euler-Lagrange or Hamilton dynamics, the presymplectic constraint
algorithm for singular Lagrangians, or the vakonomic dynamics of a
constraint submanifold; integrate any of them with conserved-channel
monitoring and reproducible CSV/manifest output.
"""

from .algebroid import (AlgebroidChart, DualObservable, DualPoint,
                        StructureReport, chart_from_spec, check_structure,
                        d_E_function, lie_poisson_bracket, momentum_names,
                        omega_E_matrix)
from .dsl import (SystemSpec, VakonomicBlock, format_system, parse_expression,
                  parse_system, with_params)
from .dynamics import (CartanData, EPoint, LagrangianSystem, LegendreEnergy,
                       QuadraticHamiltonian, RegularityReport, cartan, euler_lagrange_rhs,
                       hamilton_rhs, hamiltonian_from_lagrangian, is_regular,
                       legendre, legendre_inverse, sode_defect,
                       system_from_spec)
from .errors import (AmechError, DslError, EvalDomainError,
                     InconsistentDynamics, MaxLevelsExceeded,
                     MaxStepsExceeded, MuSolveFailed, NewtonFailed,
                     NotOnFinalManifold, OdeError, RankAmbiguous, SingularR,
                     SingularHessian, StepFailure, ToleranceUnreachable,
                     UnboundVariableError)
from .expr import Expr, ScalarFunction
from .odeint import (DriftReport, IntegratorConfig, OdeProblem, Trajectory,
                     integrate, monitor_drift)
from .presets import load as load_preset
from .presets import ids as preset_ids
from .presym import (ConstraintLevel, ConstraintRun, PresymplecticProblem,
                     SodeResult, consistency_residual,
                     hamiltonian_problem_from_lagrangian, kernel,
                     lagrangian_problem, perp, run_constraint_algorithm,
                     sode_extract, solve_on_final)
from .vakonomic import (VakState, VakonomicSystem, euler_poincare_residual,
                        h_w1, hamiltonian_section, momenta, mu_solve,
                        pontryagin_H, regularity_matrix, vakonomic_bracket,
                        vakonomic_from_spec, vakonomic_rhs, w1_constraints)

__version__ = "0.1.0"

__all__ = [
    "AlgebroidChart", "DualObservable", "DualPoint", "StructureReport",
    "chart_from_spec", "check_structure", "d_E_function",
    "lie_poisson_bracket", "momentum_names", "omega_E_matrix",
    "SystemSpec", "VakonomicBlock", "format_system", "parse_expression",
    "parse_system", "with_params",
    "CartanData", "EPoint", "LagrangianSystem", "LegendreEnergy",
    "QuadraticHamiltonian", "RegularityReport", "cartan", "euler_lagrange_rhs", "hamilton_rhs",
    "hamiltonian_from_lagrangian", "is_regular", "legendre",
    "legendre_inverse", "sode_defect", "system_from_spec",
    "AmechError", "DslError", "EvalDomainError", "InconsistentDynamics",
    "MaxLevelsExceeded", "MaxStepsExceeded", "MuSolveFailed", "NewtonFailed",
    "NotOnFinalManifold", "OdeError", "RankAmbiguous", "SingularR",
    "SingularHessian", "StepFailure", "ToleranceUnreachable",
    "UnboundVariableError",
    "Expr", "ScalarFunction",
    "DriftReport", "IntegratorConfig", "OdeProblem", "Trajectory",
    "integrate", "monitor_drift",
    "load_preset", "preset_ids",
    "ConstraintLevel", "ConstraintRun", "PresymplecticProblem", "SodeResult",
    "consistency_residual", "hamiltonian_problem_from_lagrangian", "kernel",
    "lagrangian_problem", "perp", "run_constraint_algorithm", "sode_extract",
    "solve_on_final",
    "VakState", "VakonomicSystem", "euler_poincare_residual", "h_w1",
    "hamiltonian_section", "momenta", "mu_solve", "pontryagin_H",
    "regularity_matrix", "vakonomic_bracket", "vakonomic_from_spec",
    "vakonomic_rhs", "w1_constraints",
    "__version__",
]
