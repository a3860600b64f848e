"""Critical unstable qubits: dynamics, spectra, and meson phenomenology.

The package works in the co-decaying Bloch-vector picture of a decaying
two-level system.  `core` holds the state/model types and the evolution
vector field, `integrate` the exact propagator and the adaptive solver
that checks it, `analytic` the closed-form kinematics, `fourier` the
oscillation spectra, `meson` the translation to mixing observables, and
`fit` the data-side regression tooling.
"""

from .analytic import (AsymptoticBranch, AsymptoticState, CuqClock,
                       asymptotic_state, cuq_clock, cuq_projections,
                       cuq_theta, mixed_ellipse, mixed_magnitude,
                       polar_rates, restore_units)
from .core import (BlochState, DensityMatrix, QubitModel, bloch_derivative,
                   density_from_bloch, purity_rate)
from .fit import (AsymmetryDataset, FitResult, RExtraction, estimate_r,
                  fit_fourier_modes, load_dataset, save_dataset,
                  synthesize_dataset)
from .fourier import (FourierSpectrum, SeriesKind, anharmonicity,
                      closed_form_cn, closed_form_d0, closed_form_spectrum,
                      correct_effective_r, quadrature_spectrum,
                      r_from_anharmonicity)
from .integrate import (NON_CONVERGENT, Trajectory, evolve,
                        evolve_to_asymptote, propagate)
from .meson import (BlochParameters, Damping, MesonObservables,
                    bloch_from_observables, catalogue, classify_damping,
                    flavour_asymmetry, observables_from_bloch)

__version__ = "0.1.0"

__all__ = [
    "AsymmetryDataset", "AsymptoticBranch", "AsymptoticState",
    "BlochParameters", "BlochState", "CuqClock", "Damping", "DensityMatrix",
    "FitResult", "FourierSpectrum", "MesonObservables", "NON_CONVERGENT",
    "QubitModel", "RExtraction", "SeriesKind", "Trajectory", "anharmonicity",
    "asymptotic_state", "bloch_derivative", "bloch_from_observables",
    "catalogue", "classify_damping", "closed_form_cn", "closed_form_d0",
    "closed_form_spectrum", "correct_effective_r", "cuq_clock",
    "cuq_projections", "cuq_theta", "density_from_bloch", "estimate_r",
    "evolve", "evolve_to_asymptote", "fit_fourier_modes", "flavour_asymmetry",
    "load_dataset", "mixed_ellipse", "mixed_magnitude",
    "observables_from_bloch", "polar_rates", "propagate", "purity_rate",
    "quadrature_spectrum", "r_from_anharmonicity", "restore_units",
    "save_dataset", "synthesize_dataset",
]
