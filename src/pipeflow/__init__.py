"""Structure-preserving simulation of friction-dominated gas networks.

The package discretizes the rescaled barotropic flow equations on pipe
networks in port form, integrates them implicitly (including the
high-friction parabolic limit), and verifies energy and relative-energy
stability properties numerically.
"""

from .gas import (
    AdmissibleBounds,
    GasLaw,
    IsothermalLaw,
    PipeParameters,
    PowerLaw,
    TabulatedLaw,
    make_law,
)
from .network import (
    Edge,
    NetworkTopology,
    TopologyError,
    classify,
    loop_network,
    single_pipe,
    y_network,
)
from .discretization import (
    EdgeGrid,
    NetworkState,
    NetworkSystem,
    build_grids,
    build_system,
)
from .solver import (
    SolverConfig,
    StepFailure,
    Trajectory,
    run,
    velocity_recovery,
)
from .energy import (
    GronwallCertificate,
    StabilityConstants,
    boundary_flux,
    boundary_perturbation,
    c0_constants,
    dissipation,
    gronwall_monitor,
    hamiltonian,
    perturbation_functional,
    relative_dissipation,
    relative_energy,
    residual_fields,
    stability_constants,
)
from .scenario import load_topology, parse_topology

__version__ = "0.1.0"
