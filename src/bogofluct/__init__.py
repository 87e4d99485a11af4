"""Mean-field bosonic dynamics on a finite mode basis.

Exact N-boson evolution, the nonlinear condensate equation, and the quadratic
fluctuation dynamics share one discretized model; the excitation map between
the N-particle sector and the truncated Fock layers lets the package measure
how fast the exact dynamics approaches the quadratic one as N grows.
"""

from .bogoliubov import (
    Kernels,
    bogoliubov_hamiltonian,
    build_kernels,
    hierarchy_rhs,
    solve_bogoliubov,
    tangency_defect,
)
from .config import ExperimentConfig, load_config
from .excitation import (
    ExcitationFrame,
    apply_u_n,
    apply_u_n_star,
    assemble_r1,
    assemble_r2,
    conjugated_hamiltonian,
    dense_u_n,
    du_generator,
)
from .experiment import compare_coherent, fit_rate, run_convergence, run_single
from .fock import (
    FockVector,
    OccupationBasis,
    SectorVector,
    annihilate_op,
    create_op,
    dgamma,
    enumerate_basis,
    hartree_block,
    number_op,
    pairing_op,
    two_body_op,
)
from .hartree import HartreeTrajectory, hartree_energy, mean_field, mu_of, solve_hartree
from .linalg import KrylovError, krylov_expm
from .model import (
    ModeBasis,
    build_interaction,
    build_laplacian,
    build_lattice,
    relative_bound_constant,
)
from .nbody import (
    NBodyHamiltonian,
    build_hamiltonian,
    propagate_exact,
    reduced_density,
    trace_distance,
)
from .verify import verify_algebra

__version__ = "0.1.0"
