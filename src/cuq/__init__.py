"""Critical unstable qubits: dynamics, spectra, and meson phenomenology.

The package works in the co-decaying Bloch-vector picture of a decaying
two-level system.  `core` holds the state/model types and the evolution
vector field, `integrate` the exact propagator and the adaptive solver
that checks it, `analytic` the closed-form kinematics, `fourier` the
oscillation spectra, `meson` the translation to mixing observables, and
`fit` the data-side regression tooling.  Each submodule, and each name in
`__all__`, is loaded on first use (PEP 562), so `import cuq` loads no
numpy and a program pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analytic": ("AsymptoticBranch", "AsymptoticState", "CuqClock",
                 "asymptotic_state", "cuq_clock", "cuq_projections",
                 "cuq_theta", "mixed_ellipse", "mixed_magnitude",
                 "polar_rates", "restore_units"),
    "core": ("BlochState", "DensityMatrix", "QubitModel", "bloch_derivative",
             "density_from_bloch", "purity_rate"),
    "fit": ("AsymmetryDataset", "FitResult", "RExtraction", "estimate_r",
            "fit_fourier_modes", "load_dataset", "save_dataset",
            "synthesize_dataset"),
    "fourier": ("FourierSpectrum", "SeriesKind", "anharmonicity",
                "closed_form_cn", "closed_form_d0", "closed_form_spectrum",
                "correct_effective_r", "quadrature_spectrum",
                "r_from_anharmonicity"),
    "integrate": ("NON_CONVERGENT", "evolve_to_asymptote", "propagate"),
    "meson": ("BlochParameters", "Damping", "MesonObservables",
              "bloch_from_observables", "catalogue", "classify_damping",
              "flavour_asymmetry", "observables_from_bloch"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "_base", "cli"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
