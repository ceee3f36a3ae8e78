"""Exact partition functions of the anisotropic Ising model on open
rectangles, computed through mutually validating routes built on a
complex-capable Jacobi elliptic kernel."""

from .elliptic import EllipticKernel, incomplete_F
from .errors import (
    ConvergenceError,
    CriticalModulusError,
    DomainError,
    JointDiagonalizationError,
    NonFiniteError,
    PhaseLeakError,
    PoleError,
    RectisingError,
    RouteInfeasibleError,
)
from .params import (
    Couplings,
    EllipticFrame,
    Weights,
    couplings_from_modulus,
    dual,
    dual_and_split,
    elliptic_frame,
    eta_over_Kprime,
    plus_minus_split,
    swap_system,
    weights_from_couplings,
)
from .partition import (
    PartitionResult,
    assemble_logZ,
    block_transfer_logZ,
    brute_force_logZ,
    hankel_from_spectrum,
    hankel_logZ,
    pfaffian,
    pfaffian_logZ,
    skew_toeplitz_from_spectrum,
    spin_transfer_logZ,
)
from .precision import FLOAT64, Precision
from .spectrum import (
    MatrixBundle,
    SpectrumPoint,
    SystemPipeline,
    build_matrices,
    char_poly_eval,
    enrich_spectrum,
    joint_spectrum,
    spectrum_for,
)
from .contour import (
    ContourContext,
    ContourSpec,
    default_contour,
    uplane_field,
)
from .identities import ResidualReport, run_identity_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
