"""Software twin of a heralded photon-subtracted two-mode-squeezed-vacuum
source: exact state construction, entanglement and non-Gaussianity
metrics, homodyne measurement model, maximum-likelihood tomography, and
the distributed acquisition plane (homodyne detection servers plus the
photon-subtraction orchestrator) driven over synthetic detector streams.
"""

__version__ = "0.1.0"

from .fock_core import (SubtractionModel, TwoModeState,
                        lossy_subtracted_state, normalization_sq,
                        pure_subtracted_state, subtraction_coefficient,
                        success_probability)
from .ng_metrics import (StellarRankClass, WitnessResult,
                         fock11_fidelity_closed, log_negativity,
                         uhlmann_fidelity, witness)
from .homodyne_model import PhaseDrive, QuadratureSampler
from .tomography import (ReconstructionReport, TomographyDataset, reconstruct,
                         rolling_variance)

__all__ = [
    "SubtractionModel", "TwoModeState",
    "subtraction_coefficient", "normalization_sq", "success_probability",
    "pure_subtracted_state", "lossy_subtracted_state",
    "StellarRankClass", "WitnessResult", "uhlmann_fidelity",
    "log_negativity", "fock11_fidelity_closed", "witness",
    "PhaseDrive", "QuadratureSampler",
    "TomographyDataset", "ReconstructionReport", "reconstruct",
    "rolling_variance",
]
