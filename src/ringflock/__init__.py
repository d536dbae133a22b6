"""ringflock: spectral theory of linear nearest-neighbor flocks on a ring.

Decentralized second-order agents coupled through circulant Laplacians have
a fully explicit eigenstructure.  This package computes it, decides
asymptotic stability three independent ways, derives phase/signal/group
velocities, evolves modal solutions exactly, and verifies the traveling-wave
approximation numerically against dense-eigensolver and ODE oracles.
"""

from .errors import ConfigError, DegenerateBranches, RingflockError
from .model import (
    DenseSystem,
    FlockParams,
    Moments,
    build_dense,
    moments,
    normalize,
)
from .sim import (
    Trajectory,
    WavefrontReport,
    front_overlay,
    impulse_experiment,
    integrate,
    positions,
)
from .spectral import (
    Eigencurve,
    Spectrum,
    dense_spectrum,
    eigencurve,
    fft_modes,
    hausdorff,
    laplacian_eigenvalues,
    max_matching_distance,
    mode_eigenvalues,
    mode_eigenvalues_series,
    mode_range,
    pencil_roots,
    spectrum,
)
from .stability import (
    StabilityReport,
    instability_witness,
    routh_hurwitz,
    spectral_verdict,
    stable_for_all_n,
)
from .wavefield import (
    ModalCoefficients,
    PhaseVelocities,
    SignalVelocities,
    WaveApproximation,
    WaveBoundReport,
    evolve,
    exp_diff_bound_holds,
    group_velocity,
    modal_decompose,
    modal_evolve,
    phase_velocities,
    power_law_coefficients,
    signal_velocities,
    signal_velocity_limit,
    verify_wave_bound,
    wave_approximation,
)

__version__ = "0.1.0"
