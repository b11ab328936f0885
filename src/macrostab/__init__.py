"""Spin-chain laboratory for fluctuation classification, cluster-property
diagnostics, decoherence-rate scaling under correlated noise, and
stability against local measurements."""

from .analyzer import (
    AFS,
    INTERMEDIATE,
    NFS,
    CovarianceMatrix,
    FluctuationReport,
    ScalingVerdict,
    classify_scaling,
    covariance_matrix,
    magnetization,
    max_additive_fluctuation,
)
from .cluster import (
    ClusterReport,
    ClusterScalingVerdict,
    CorrelationField,
    cluster_verdict,
    correlation_field,
    omega,
)
from .errors import (
    ArgumentError,
    CapabilityError,
    FormatError,
    MacrostabError,
    ModelError,
    NumericalError,
    StateError,
    ValidationError,
)
from .evolve import (
    EvolveResult,
    TrajectoryEnsemble,
    evolve_noisy,
)
from .ground import (
    METHOD_DOUBLET,
    METHOD_SB_FIELD,
    GroundStateResult,
    PurePhaseVacuum,
    ground_state,
    pure_phase_vacuum,
)
from .hamiltonian import (
    TRANSVERSE_ISING,
    XXZ,
    Hamiltonian,
    HamiltonianSpec,
    build_hamiltonian,
)
from .lattice import OPEN_CHAIN, PERIODIC_CHAIN, LatticeSpec
from .measure import (
    ConditionalTable,
    MeasurementStabilityReport,
    conditional_distribution,
    measurement_cascade,
    stability_test,
)
from .noise import (
    KERNEL_COLLECTIVE,
    KERNEL_EXPONENTIAL,
    KERNEL_INDEPENDENT,
    NoiseModel,
)
from .operators import LocalOperator, additive_variance
from .rates import (
    DecoherenceFit,
    RateFit,
    analytic_dephasing_rate,
    fit_gamma_scaling,
)
from .states import (
    StateVector,
    make_dicke,
    make_ghz,
    make_product_state,
    make_uniform_product,
)
from .stateio import export_state, import_state

__version__ = "0.1.0"
