"""Numerical toolkit for recursive optimal control of diffusions on compact
embedded manifolds: projected simulation, backward SDE solvers, dynamic
programming on meshes, an explicit PDE solver, hypothesis spot checks, and a
reproducible experiment harness."""

from .bsde import (
    BsdeSolution,
    Driver,
    RegressionBasis,
    TerminalCost,
    comparison_check,
    semigroup,
    solve_backward,
    stability_check,
)
from .config import DEFAULTS, EXPERIMENTS, ExperimentConfig
from .dynamics import (
    BrownianGrid,
    ControlSet,
    Policy,
    TimeGrid,
    TrajectoryEnsemble,
    constant_policy,
    flow_continuity_check,
    simulate,
)
from .errors import (
    CflViolated,
    ComparisonViolated,
    ConfigError,
    ContractionViolated,
    CutLocus,
    GeodpError,
    GridMismatch,
    NonTangentField,
    SingularProjection,
    WorkerLost,
)
from .geometry import (
    Circle,
    FlatTorus2,
    ManifoldModel,
    Sphere2,
    VectorField,
    flow_step,
    get_field,
    get_manifold,
)
from .harness import RunReport, run
from .hjb import (
    HjbField,
    TestFunctionProbe,
    frozen_ode_solve,
    freezing_gap_report,
    hamiltonian_F,
    hamiltonian_F0,
    hjb_steps_for_cfl,
    shift_identity_check,
    solve_hjb,
)
from .hypotheses import (
    HypothesisReport,
    check_A1,
    check_A2,
    check_H1,
    check_H2,
    sample_structural_modulus,
    uniqueness_certified,
)
from .problem import ControlProblem
from .value import (
    CircleMesh,
    ManifoldMesh,
    SphereMesh,
    TorusMesh,
    ValueField,
    continuity_moduli,
    cost_functional,
    dpp_residual_check,
    make_mesh,
    value_function,
)

__version__ = "0.1.0"
