"""tomobell: symplectic tomograms and Bell tests for two-mode states.

Desk-scale numerical library reproducing tomographic CHSH tests (sign-binned
homodyne quadrants) and pseudospin CHSH tests (parity/flip operators on the
reconstructed Fock-basis state) for three benchmark two-mode states, plus
Monte Carlo sampling and Bell-angle optimization.
"""

from .bell import (
    BellAnglesQuadrature,
    PseudospinOps,
    calb_curve,
    chsh,
    closed_form_correlation,
    correlation_pseudospin,
    correlation_tomographic,
    correlation_xz,
    direction,
    maximize_chsh,
    pair_coherent_bessel_coefficient,
    pair_coherent_sx_report,
    pseudospin_matrices,
)
from .errors import (
    AccuracyError,
    ConfigError,
    ConvergenceError,
    DimensionError,
    DomainError,
    EnvelopeError,
    NormalizationError,
    TomobellError,
    UnsupportedStateError,
)
from .sampling import (
    EstimatedProbs,
    SampleBatch,
    estimate_chsh,
    estimate_probs,
    sample_gaussian_epr,
    sample_rejection,
    sample_state,
)
from .special import (
    QuadratureRule,
    bessel_i0,
    bessel_j0,
    erf_complex,
    hermite,
    laguerre,
)
from .states import (
    DensityMatrix,
    FockPairSuperposition,
    PairCoherent,
    SchmidtVector,
    SqueezedVacuum,
    TwoModeState,
    density_matrix,
    partial_trace,
    schmidt_coefficients,
    wigner,
)
from .tomography import (
    SignBinnedProbs,
    SymplecticSetting,
    inverse_fourier_wigner,
    kernel_reconstruct_density,
    pair_coherent_integral_direct,
    pair_coherent_integral_series,
    radon_forward,
    radon_forward_symplectic,
    sign_binned_closed_form,
    sign_binned_numeric,
    tomogram_closed_form,
)

__version__ = "0.1.0"
