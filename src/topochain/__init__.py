"""topochain: topological edge-state storage and adiabatic transfer in
1D qubit chains (SSH, Rice-Mele, trimer Rice-Mele), with the
effective Landau-Zener reduction and flux-qubit circuit quantization."""

__version__ = "0.1.0"

from .errors import (
    IntegrationError,
    InvalidDimensionError,
    InvalidParameterError,
    NumericError,
    PhaseDomainError,
    SchemaError,
    TopochainError,
)
from .models import (
    FunctionSpec,
    Schedule,
    apply_disorder,
    bell_transfer_schedule,
    optimized_schedule,
    pump_schedule,
)
from .spectra import (
    EdgeStatePair,
    Spectrum,
    SpectrumTrace,
    analytic_edge_states,
    edge_weight,
    eigendecompose,
    instantaneous_spectrum,
)
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    basis_state,
    evolve,
    pump,
    quench,
    sigma_z,
    transfer_fidelity,
)
from .effective import (
    PathClass,
    classify_path,
    compare_reduction,
)
from .couplings import (
    bessel_jn,
    effective_coupling_identical,
    effective_coupling_matched,
)
from .fluxcircuit import (
    QubitCharacter,
    sweep_point,
)
